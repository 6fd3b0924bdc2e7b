"""Large-scale propagation: pathloss, LOS mixing, shadowing, antenna pattern,
and the frozen per-drop coupling table.

Terminal-to-terminal links use the urban street-level model with both antennas
at UE height plus a configurable signed offset (default -10 dB); the LOS/NLOS
state of each ordered link is drawn once per drop from the urban-microcell LOS
probability. Terminal-to-base links use the standard macro model
``128.1 + 37.6 log10(d_km)`` seen through the 3-sector antenna pattern
``14 - min(12 (theta/70)^2, 25)`` dBi. Shadowing is i.i.d. lognormal per
ordered link (no cross-link correlation). Fast fading is not modeled; every
SINR is computed on these large-scale couplings only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .layout import (
    MIN_UE_UE_DISTANCE_M,
    DropCounters,
    NetworkLayout,
    Role,
    UeRecord,
    pairwise_wrap_distance,
)

SPEED_OF_LIGHT_M_S = 3.0e8

# Endpoint keys used throughout: a receiver or transmitter is either a
# terminal ("ue", ue_id) or a base-station sector face ("sector", index).
UE_NODE = "ue"
SECTOR_NODE = "sector"


def ue_endpoint(ue_id: int) -> tuple[str, int]:
    return (UE_NODE, int(ue_id))


def sector_endpoint(sector_index: int) -> tuple[str, int]:
    return (SECTOR_NODE, int(sector_index))


@dataclass(frozen=True)
class ChannelConfig:
    carrier_ghz: float = 0.7  # public-safety band
    ue_height_m: float = 1.5
    enb_height_m: float = 25.0
    d2d_offset_db: float = -10.0  # signed, added to UE-UE pathloss
    shadow_std_ueue_db: float = 7.0
    shadow_std_enbue_db: float = 8.0
    min_pl_db: float = 30.0
    ue_ue_los: str = "umi"  # "umi" = distance-based probability, "nlos" = never

    def __post_init__(self):
        if self.carrier_ghz <= 0:
            raise ValueError(f"carrier_ghz must be positive, got {self.carrier_ghz}")
        if self.ue_height_m <= 1.0:
            raise ValueError("ue_height_m must exceed 1 m (breakpoint model)")
        if self.shadow_std_ueue_db < 0 or self.shadow_std_enbue_db < 0:
            raise ValueError("shadowing std must be >= 0")
        if self.ue_ue_los not in ("umi", "nlos"):
            raise ValueError(f"unknown ue_ue_los mode {self.ue_ue_los!r}")


def los_probability(d):
    """Urban-microcell LOS probability; identically 1 up to 18 m."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr < 0):
        raise ValueError("distance must be >= 0")
    with np.errstate(divide="ignore"):
        ratio = np.minimum(18.0 / np.maximum(d_arr, 1e-300), 1.0)
    decay = np.exp(-d_arr / 36.0)
    p = np.where(d_arr <= 18.0, 1.0, ratio * (1.0 - decay) + decay)
    return float(p) if np.ndim(d) == 0 else p


def breakpoint_distance_m(cfg: ChannelConfig) -> float:
    h_eff = cfg.ue_height_m - 1.0
    return 4.0 * h_eff * h_eff * (cfg.carrier_ghz * 1e9) / SPEED_OF_LIGHT_M_S


def ue_ue_pathloss(d, los, cfg: ChannelConfig):
    """Street-level terminal-to-terminal pathloss in dB.

    LOS below the breakpoint: 22.7 log10(d) + 27.0 + 20 log10(f_GHz).
    LOS above:  40 log10(d) + 7.56 - 2*17.3 log10(h_ue - 1) + 2.7 log10(f_GHz).
    NLOS: (44.9 - 6.55 log10(h_ue)) log10(d) + 5.83 log10(h_ue) + 14.78
          + 34.97 log10(f_GHz).
    The signed d2d offset is added, then the result is floored at min_pl_db.
    """
    d_arr, los_arr = np.broadcast_arrays(
        np.asarray(d, dtype=float), np.asarray(los, dtype=bool)
    )
    if np.any(d_arr < MIN_UE_UE_DISTANCE_M):
        raise ValueError(
            f"UE-UE distance below the {MIN_UE_UE_DISTANCE_M} m minimum"
        )
    f = cfg.carrier_ghz
    h = cfg.ue_height_m
    h_eff = h - 1.0
    log_d = np.log10(d_arr).ravel()
    # NLOS everywhere, then each LOS branch on its own entries: most links are
    # NLOS (about 99% on wide-area drops), so a full pass per branch and a
    # select would be mostly waste. Each entry gets its branch's floats.
    pl = (
        (44.9 - 6.55 * math.log10(h)) * log_d
        + 5.83 * math.log10(h)
        + 14.78
        + 34.97 * np.log10(f)
    )
    i_los = np.flatnonzero(los_arr)
    near = d_arr.ravel()[i_los] < breakpoint_distance_m(cfg)
    i_near, i_far = i_los[near], i_los[~near]
    pl[i_near] = 22.7 * log_d[i_near] + 27.0 + 20.0 * np.log10(f)
    pl[i_far] = (
        40.0 * log_d[i_far]
        + 7.56
        - 17.3 * math.log10(h_eff)
        - 17.3 * math.log10(h_eff)
        + 2.7 * np.log10(f)
    )
    pl += cfg.d2d_offset_db
    np.maximum(pl, cfg.min_pl_db, out=pl)
    pl = pl.reshape(d_arr.shape)
    return float(pl) if np.ndim(d) == 0 and np.ndim(los) == 0 else pl


def ue_enb_pathloss(d, min_pl_db: float = 30.0):
    """Macro terminal-to-base pathloss 128.1 + 37.6 log10(d/1km), floored."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr <= 0):
        raise ValueError("distance must be positive")
    pl = 128.1 + 37.6 * np.log10(d_arr / 1000.0)
    pl = np.maximum(pl, min_pl_db)
    return float(pl) if np.ndim(d) == 0 else pl


def sector_antenna_gain(angle_off_boresight_deg):
    """3-sector pattern, 14 dBi peak, 25 dB front-to-back clamp."""
    a = np.asarray(angle_off_boresight_deg, dtype=float)
    folded = np.abs(((a + 180.0) % 360.0) - 180.0)
    g = 14.0 - np.minimum(12.0 * (folded / 70.0) ** 2, 25.0)
    return float(g) if np.ndim(angle_off_boresight_deg) == 0 else g


def draw_shadowing(std_db: float, rng: np.random.Generator, size=None):
    """Zero-mean Gaussian shadowing in dB, independent per draw."""
    if std_db < 0:
        raise ValueError(f"shadowing std must be >= 0, got {std_db}")
    out = rng.normal(0.0, std_db, size=size)
    return float(out) if size is None else out


@dataclass(frozen=True, eq=False)
class CouplingTable:
    """Aggregate loss in dB per ordered (transmitter, receiver) link, frozen
    for one drop.

    An entry is ``max(pathloss + shadowing, min_pl_db) - antenna_gains``:

    * terminal -> terminal (rows `tx_ids`, columns `rx_ue_ids`): street-level
      pathloss with the recorded per-link LOS state, 0 dBi terminal antennas;
    * terminal -> sector (columns are sector indices): macro pathloss plus
      base-side shadowing minus the sector gain at the arrival angle;
    * sector -> terminal (rows are sectors, columns `ue_ids`, every dropped
      terminal): the downlink used by coverage classification, with shadowing
      at its 0 dB mean.

    LOS state and shadowing are drawn once per ordered link; reciprocity is
    deliberately not implied, and the reverse direction of a terminal pair is
    generally not even present. Missing entries raise KeyError.
    """

    tx_ids: tuple[int, ...]
    rx_ue_ids: tuple[int, ...]
    ue_ids: tuple[int, ...]
    n_sectors: int
    min_pl_db: float
    ue_ue_loss_db: np.ndarray      # (n_tx, n_rx)
    ue_ue_shadow_db: np.ndarray
    ue_ue_los: np.ndarray          # bool
    ue_sector_loss_db: np.ndarray  # (n_tx, n_sectors)
    ue_sector_shadow_db: np.ndarray
    sector_ue_loss_db: np.ndarray  # (n_sectors, n_ue)

    @cached_property
    def _tx_row(self) -> dict[int, int]:
        return {uid: i for i, uid in enumerate(self.tx_ids)}

    @cached_property
    def _rx_col(self) -> dict[int, int]:
        return {uid: i for i, uid in enumerate(self.rx_ue_ids)}

    @cached_property
    def _ue_col(self) -> dict[int, int]:
        return {uid: i for i, uid in enumerate(self.ue_ids)}

    @cached_property
    def ue_ue_gain_lin(self) -> np.ndarray:
        """Linear power gain 10^(-loss/10) of every terminal pair entry."""
        return 10.0 ** (-self.ue_ue_loss_db / 10.0)

    def _indices(self, tx, rx) -> tuple[str, int, int]:
        tk, ti = tx
        rk, ri = rx
        if tk == UE_NODE and rk == UE_NODE:
            row = self._tx_row.get(ti)
            col = self._rx_col.get(ri)
            if row is None or col is None:
                raise KeyError(f"no terminal-to-terminal coupling {tx} -> {rx}")
            return "uu", row, col
        if tk == UE_NODE and rk == SECTOR_NODE:
            row = self._tx_row.get(ti)
            if row is None or not 0 <= ri < self.n_sectors:
                raise KeyError(f"no terminal-to-sector coupling {tx} -> {rx}")
            return "us", row, ri
        if tk == SECTOR_NODE and rk == UE_NODE:
            col = self._ue_col.get(ri)
            if col is None or not 0 <= ti < self.n_sectors:
                raise KeyError(f"no sector-to-terminal coupling {tx} -> {rx}")
            return "su", ti, col
        raise KeyError(f"unsupported coupling endpoints {tx} -> {rx}")

    def loss_db(self, tx, rx) -> float:
        kind, i, j = self._indices(tx, rx)
        if kind == "uu":
            return float(self.ue_ue_loss_db[i, j])
        if kind == "us":
            return float(self.ue_sector_loss_db[i, j])
        return float(self.sector_ue_loss_db[i, j])

    def shadow_db(self, tx, rx) -> float:
        kind, i, j = self._indices(tx, rx)
        if kind == "uu":
            return float(self.ue_ue_shadow_db[i, j])
        if kind == "us":
            return float(self.ue_sector_shadow_db[i, j])
        return 0.0

    def is_los(self, tx, rx) -> bool:
        kind, i, j = self._indices(tx, rx)
        if kind != "uu":
            raise KeyError("LOS state is only recorded for terminal pairs")
        return bool(self.ue_ue_los[i, j])

    def loss_matrix_db(self, links) -> np.ndarray:
        """Entry [g, f]: loss from link g's terminal transmitter to link f's
        receiver (a terminal or a sector). Each link's (tx, rx) endpoints are
        resolved once; the matrix is then one gather."""
        resolved = [self._indices(tx, rx) for tx, rx in links]
        if any(kind == "su" for kind, _, _ in resolved):
            raise KeyError("link transmitters must be terminals")
        n_rx = len(self.rx_ue_ids)
        rows = [row for _, row, _ in resolved]
        cols = [col + n_rx if kind == "us" else col for kind, _, col in resolved]
        from_terminals = np.hstack((self.ue_ue_loss_db, self.ue_sector_loss_db))
        return from_terminals[np.ix_(rows, cols)]


def build_coupling_table(
    layout: NetworkLayout,
    ues: list[UeRecord],
    cfg: ChannelConfig,
    rng: np.random.Generator,
    *,
    counters: Optional[DropCounters] = None,
) -> CouplingTable:
    """Freeze every coupling needed for one drop.

    Rows are the transmit-capable terminals (cellular and D2D transmitters),
    in their order within ``ues``. Random draws happen in a fixed order so the
    table is a pure function of (layout, ues, cfg, rng stream): first the
    LOS uniforms for all terminal pairs, then terminal-pair shadowing, then
    terminal-to-base shadowing.

    Cross-link terminal distances below the drop minimum are clamped to it
    before the pathloss call; an interferer may legitimately land arbitrarily
    close to someone else's receiver. ``counters``, when given, gets the
    clamped distances and the terminal-pair entries at the floor added to it.
    """
    txs = [u for u in ues if u.role in (Role.CELLULAR_TX, Role.D2D_TX)]
    rxs = [u for u in ues if u.role == Role.D2D_RX]
    tx_xy = np.array([u.position for u in txs], dtype=float).reshape(-1, 2)
    rx_xy = np.array([u.position for u in rxs], dtype=float).reshape(-1, 2)
    all_xy = np.array([u.position for u in ues], dtype=float).reshape(-1, 2)
    n_tx, n_rx, n_ue = len(txs), len(rxs), len(ues)
    n_sec = layout.n_sectors

    # Terminal -> terminal entries.
    d_uu, _ = pairwise_wrap_distance(tx_xy, rx_xy, layout)
    if counters is not None:
        counters.clamped_distances += int(np.count_nonzero(d_uu < MIN_UE_UE_DISTANCE_M))
    d_uu = np.maximum(d_uu, MIN_UE_UE_DISTANCE_M)
    if cfg.ue_ue_los == "umi":
        los = rng.random((n_tx, n_rx)) < los_probability(d_uu)
    else:
        los = np.zeros((n_tx, n_rx), dtype=bool)
        rng.random((n_tx, n_rx))  # keep the stream layout mode-independent
    shadow_uu = draw_shadowing(cfg.shadow_std_ueue_db, rng, size=(n_tx, n_rx))
    pl_uu = ue_ue_pathloss(d_uu, los, cfg)
    loss_uu = np.maximum(pl_uu + shadow_uu, cfg.min_pl_db)
    if counters is not None:
        counters.floor_entries += int(np.count_nonzero(loss_uu == cfg.min_pl_db))

    # Distances and arrival angles between every terminal and every sector,
    # both taken on the wrap image of the terminal nearest the site.
    d_all_s, off_idx = pairwise_wrap_distance(all_xy, layout.sector_site_xy, layout)
    offs = layout.offset_xy[off_idx]
    rel_x = all_xy[:, 0:1] - offs[..., 0] - layout.sector_site_xy[None, :, 0]
    rel_y = all_xy[:, 1:2] - offs[..., 1] - layout.sector_site_xy[None, :, 1]
    arrival_deg = np.degrees(np.arctan2(rel_y, rel_x))
    gain = sector_antenna_gain(arrival_deg - layout.sector_boresight_deg[None, :])
    pl_all_s = ue_enb_pathloss(np.maximum(d_all_s, 1e-6), cfg.min_pl_db)

    pos_of = {u.id: i for i, u in enumerate(ues)}
    tx_sel = np.array([pos_of[u.id] for u in txs], dtype=int)
    shadow_us = draw_shadowing(cfg.shadow_std_enbue_db, rng, size=(n_tx, n_sec))
    loss_us = np.maximum(pl_all_s[tx_sel] + shadow_us, cfg.min_pl_db) - gain[tx_sel]

    # Downlink entries keep shadowing at its mean (coverage is judged on the
    # shadowing-averaged wideband signal).
    loss_su = (pl_all_s - gain).T

    return CouplingTable(
        tx_ids=tuple(u.id for u in txs),
        rx_ue_ids=tuple(u.id for u in rxs),
        ue_ids=tuple(u.id for u in ues),
        n_sectors=n_sec,
        min_pl_db=cfg.min_pl_db,
        ue_ue_loss_db=loss_uu,
        ue_ue_shadow_db=shadow_uu,
        ue_ue_los=los,
        ue_sector_loss_db=loss_us,
        ue_sector_shadow_db=shadow_us,
        sector_ue_loss_db=loss_su,
    )
