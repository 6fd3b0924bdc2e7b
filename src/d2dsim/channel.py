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

The coupling table is built on the drop's threads (see `layout`): the pair
draws run next to the wrap search, on the one stream in their fixed order,
and the LOS, pathloss and floor pass and the linear gains run in row stripes.
The table is the same for any number of threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .layout import (
    MIN_UE_UE_DISTANCE_M,
    DropCounters,
    NetworkLayout,
    Terminals,
    _run_all,
    _stripes,
    pairwise_wrap_distance,
)

SPEED_OF_LIGHT_M_S = 3.0e8

# Entries per row block of the terminal-pair LOS and pathloss pass.
_PAIR_BLOCK = 1 << 15


def _block_rows(n_cols: int) -> int:
    return max(1, _PAIR_BLOCK // max(n_cols, 1))


# Endpoint keys of `CouplingTable.loss_db`: a receiver or transmitter is
# either a terminal ("ue", ue_id) or a base-station sector face ("sector", index).


def ue_endpoint(ue_id: int) -> tuple[str, int]:
    return ("ue", int(ue_id))


def sector_endpoint(sector_index: int) -> tuple[str, int]:
    return ("sector", int(sector_index))


@dataclass(frozen=True)
class ChannelConfig:
    carrier_ghz: float = 0.7  # public-safety band
    ue_height_m: float = 1.5
    d2d_offset_db: float = -10.0  # signed, added to UE-UE pathloss
    shadow_std_ueue_db: float = 7.0
    shadow_std_enbue_db: float = 8.0
    min_pl_db: float = 30.0

    def __post_init__(self):
        if self.carrier_ghz <= 0:
            raise ValueError(f"carrier_ghz must be positive, got {self.carrier_ghz}")
        if self.ue_height_m <= 1.0:
            raise ValueError("ue_height_m must exceed 1 m (breakpoint model)")
        if self.shadow_std_ueue_db < 0 or self.shadow_std_enbue_db < 0:
            raise ValueError("shadowing std must be >= 0")


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


def draw_shadowing(std_db: float, rng: np.random.Generator, size=None, *, out=None):
    """Zero-mean Gaussian shadowing in dB, independent per draw.

    With ``out`` (a float64 array), fills it and returns it, allocating
    nothing: standard normals scaled in place with the formula
    ``Generator.normal`` applies, ``0 + std * z``, so it holds the values and
    leaves the generator where ``rng.normal(0, std_db, out.shape)`` would.
    """
    if std_db < 0:
        raise ValueError(f"shadowing std must be >= 0, got {std_db}")
    if out is None:
        x = rng.normal(0.0, std_db, size=size)
        return float(x) if size is None else x
    rng.standard_normal(out=out)
    out *= std_db
    out += 0.0  # as normal's 0.0 + (-0.0) gives 0.0
    return out


@dataclass(frozen=True, eq=False)
class CouplingTable:
    """Aggregate loss in dB per ordered (transmitter, receiver) link, frozen
    for one drop.

    An entry is ``max(pathloss + shadowing, min_pl_db) - antenna_gains``:

    * terminal -> terminal (rows `tx_ids`, columns `rx_ue_ids`): street-level
      pathloss with the recorded per-link LOS state, 0 dBi terminal antennas;
    * terminal -> sector (columns are sector indices): macro pathloss plus
      base-side shadowing minus the sector gain at the arrival angle;
    * sector -> terminal (rows are sectors, columns every dropped terminal in
      id order): the downlink used by coverage classification, with shadowing
      at its 0 dB mean.

    Row and column order: rows are the transmit-capable terminals, terminal
    columns the D2D receivers, each in id order (see `Terminals`): cellular
    terminal i is row i and pair j is row n_cell + j with its receiver in
    column j. The experiment path addresses couplings by position in
    ``[ue_ue_loss_db | ue_sector_loss_db]``, whose column n_rx + s is sector s.

    LOS state and shadowing are drawn once per ordered link; reciprocity is
    deliberately not implied, and the reverse direction of a terminal pair is
    generally not even present. ``loss_db`` looks up one entry by endpoints
    and raises KeyError for a missing one.
    """

    tx_ids: tuple[int, ...]
    rx_ue_ids: tuple[int, ...]
    n_sectors: int
    ue_ue_loss_db: np.ndarray      # (n_tx, n_rx)
    ue_ue_shadow_db: np.ndarray
    ue_ue_los: np.ndarray          # bool
    ue_sector_loss_db: np.ndarray  # (n_tx, n_sectors)
    ue_sector_shadow_db: np.ndarray
    sector_ue_loss_db: np.ndarray  # (n_sectors, n_ue)

    @cached_property
    def ue_ue_gain_lin(self) -> np.ndarray:
        """Linear power gain 10^(-loss/10) of every terminal pair entry,
        computed in row stripes on the drop's threads (see `layout`)."""
        loss = self.ue_ue_loss_db
        gain = np.empty_like(loss)

        def gain_rows(lo, hi):
            g = gain[lo:hi]
            np.divide(loss[lo:hi], -10.0, out=g)  # the bits of -loss / 10
            np.power(10.0, g, out=g)

        _run_all([functools.partial(gain_rows, lo, hi)
                  for lo, hi in _stripes(loss.shape[0], _block_rows(loss.shape[1]))])
        return gain

    def loss_db(self, tx, rx) -> float:
        """Loss of one link, its endpoints (`ue_endpoint`, `sector_endpoint`)
        found by id."""
        sectors = range(self.n_sectors)
        blocks = {
            ("ue", "ue"): (self.ue_ue_loss_db, self.tx_ids, self.rx_ue_ids),
            ("ue", "sector"): (self.ue_sector_loss_db, self.tx_ids, sectors),
            ("sector", "ue"): (self.sector_ue_loss_db, sectors, range(self.sector_ue_loss_db.shape[1])),
        }
        try:
            loss, rows, cols = blocks[tx[0], rx[0]]
            return float(loss[rows.index(tx[1]), cols.index(rx[1])])
        except (KeyError, ValueError):
            raise KeyError(f"no coupling {tx} -> {rx}") from None


def build_coupling_table(
    layout: NetworkLayout,
    terminals: Terminals,
    cfg: ChannelConfig,
    rng: np.random.Generator,
    *,
    counters: Optional[DropCounters] = None,
) -> CouplingTable:
    """Freeze every coupling needed for one drop.

    Rows are the transmit-capable terminals (``terminals.tx_ids``), terminal
    columns the D2D receivers, each in id order. Random draws happen in a
    fixed order so the table is a pure function of (layout, terminals, cfg,
    rng stream): first the LOS uniforms for all terminal pairs, then
    terminal-pair shadowing, then terminal-to-base shadowing. Each is drawn
    whole; the first two on a pool thread while the calling thread runs the
    terminal-pair wrap search. The terminal-pair clamp, LOS state, pathloss
    and floor then run one row block of about ``_PAIR_BLOCK`` entries at a
    time, so their temporaries stay in cache, in row stripes on the pool's
    threads while the calling thread takes the terminal-to-site geometry.
    A table of one stripe runs on the calling thread alone. Distances,
    arrival angles and macro pathloss are taken per site and repeated over
    its three sectors; the antenna gain is per sector.

    Cross-link terminal distances below the drop minimum are clamped to it
    before the pathloss call; an interferer may legitimately land arbitrarily
    close to someone else's receiver. ``counters``, when given, gets the
    clamped distances, the terminal-pair entries at the floor and the wrap
    searches' near ties added to it.
    """
    all_xy, tx_sel = terminals.xy, terminals.tx_ids
    rx_sel = tx_sel[terminals.n_cell :] + 1  # each pair's receiver follows its transmitter
    tx_xy, rx_xy = all_xy[tx_sel], all_xy[rx_sel]
    n_tx, n_rx = len(tx_sel), len(rx_sel)
    n_sec = layout.n_sectors

    # Terminal -> terminal entries. The LOS uniforms and the pair shadowing
    # are drawn on a pool thread while this one runs the wrap search; nothing
    # else draws from rng until both are done. A table whose pair rows make
    # one stripe is too small to share, and runs on this thread alone.
    rows = _block_rows(n_rx)
    stripes = _stripes(n_tx, rows)
    shared = len(stripes) > 1
    los_u, shadow_uu = np.empty((n_tx, n_rx)), np.empty((n_tx, n_rx))

    def draw_pairs():
        rng.random(out=los_u)  # one LOS uniform per entry: part of the stream
        draw_shadowing(cfg.shadow_std_ueue_db, rng, out=shadow_uu)

    (d_uu, _), _ = _run_all([
        lambda: pairwise_wrap_distance(tx_xy, rx_xy, layout, counters=counters),
        draw_pairs,
    ], pool=shared)
    # Then the LOS state, pathloss and floor, one row block at a time, on the
    # pool's threads while this one takes the terminal-to-site geometry.
    los = np.empty((n_tx, n_rx), dtype=bool)
    loss_uu = np.empty((n_tx, n_rx))

    def pair_rows(lo, hi):
        """Rows lo..hi; returns their clamped and floored entry counts."""
        clamped = floored = 0
        for r0 in range(lo, hi, rows):
            blk = slice(r0, min(r0 + rows, hi))
            d = d_uu[blk]
            clamped += np.count_nonzero(d < MIN_UE_UE_DISTANCE_M)
            np.maximum(d, MIN_UE_UE_DISTANCE_M, out=d)
            np.less(los_u[blk], los_probability(d), out=los[blk])
            loss = np.add(ue_ue_pathloss(d, los[blk], cfg), shadow_uu[blk], out=loss_uu[blk])
            np.maximum(loss, cfg.min_pl_db, out=loss)
            floored += np.count_nonzero(loss == cfg.min_pl_db)
        return clamped, floored

    def site_geometry():
        """Sector gains and macro pathloss, terminals x sectors. Distances and
        arrival angles between every terminal and every site are both taken
        on the wrap image of the terminal nearest the site; a sector's column
        is its site's."""
        site_xy = layout.site_xy
        d_site, off_idx = pairwise_wrap_distance(all_xy, site_xy, layout, counters=counters)
        offs = layout.offset_xy[off_idx]
        rel_x = all_xy[:, 0:1] - offs[..., 0] - site_xy[None, :, 0]
        rel_y = all_xy[:, 1:2] - offs[..., 1] - site_xy[None, :, 1]
        arrival_deg = np.repeat(np.degrees(np.arctan2(rel_y, rel_x)), 3, axis=1)
        gain = sector_antenna_gain(arrival_deg - layout.sector_boresight_deg[None, :])
        pl = np.repeat(ue_enb_pathloss(np.maximum(d_site, 1e-6), cfg.min_pl_db), 3, axis=1)
        return gain, pl

    (gain, pl_all_s), *counts = _run_all(
        [site_geometry] + [functools.partial(pair_rows, lo, hi) for lo, hi in stripes], pool=shared
    )
    if counters is not None:
        counters.clamped_distances += int(sum(c for c, _ in counts))
        counters.floor_entries += int(sum(f for _, f in counts))

    shadow_us = draw_shadowing(cfg.shadow_std_enbue_db, rng, size=(n_tx, n_sec))
    loss_us = np.maximum(pl_all_s[tx_sel] + shadow_us, cfg.min_pl_db) - gain[tx_sel]

    # Downlink entries keep shadowing at its mean (coverage is judged on the
    # shadowing-averaged wideband signal).
    loss_su = (pl_all_s - gain).T

    return CouplingTable(
        tx_ids=tuple(tx_sel.tolist()),
        rx_ue_ids=tuple(rx_sel.tolist()),
        n_sectors=n_sec,
        ue_ue_loss_db=loss_uu,
        ue_ue_shadow_db=shadow_uu,
        ue_ue_los=los,
        ue_sector_loss_db=loss_us,
        ue_sector_shadow_db=shadow_us,
        sector_ue_loss_db=loss_su,
    )
