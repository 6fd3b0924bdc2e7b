"""Transmit power, SINR, rate mapping, and the coverage classification rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .channel import CouplingTable, sector_endpoint, ue_endpoint
from .layout import NetworkLayout

THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class PowerControlConfig:
    """Open-loop uplink power control: min(p_max, target + noise + alpha * PL).

    ``noise_dbm`` is the noise power over the scheduled bandwidth at the
    intended receiver; callers that schedule mixed link types fill it in per
    link. ``enabled=False`` means every terminal transmits at maximum power.
    """

    snr_target_db: float
    noise_dbm: Optional[float] = None
    alpha: float = 1.0
    p_max_dbm: float = 23.0
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not math.isfinite(self.p_max_dbm):
            raise ValueError("p_max_dbm must be finite")


@dataclass(frozen=True)
class RadioConfig:
    bandwidth_hz: float = 10e6
    noise_figure_ue_db: float = 9.0
    noise_figure_enb_db: float = 5.0
    shannon_efficiency: float = 0.6
    spectral_cap_bps_hz: float = 4.4
    coverage_threshold_db: float = -6.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if not 0.0 < self.shannon_efficiency <= 1.0:
            raise ValueError("shannon_efficiency must be in (0, 1]")
        if self.spectral_cap_bps_hz <= 0:
            raise ValueError("spectral_cap_bps_hz must be positive")


class Coverage(Enum):
    IN_COVERAGE = "in_coverage"
    OUT_OF_COVERAGE = "out_of_coverage"


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    return THERMAL_NOISE_DBM_PER_HZ + noise_figure_db + 10.0 * math.log10(bandwidth_hz)


def open_loop_tx_power(pc: PowerControlConfig, pl_db):
    """Transmit power in dBm for a link of the given loss (shadowing included).

    Accepts a scalar or an array of losses.
    """
    if not pc.enabled:
        if np.ndim(pl_db) == 0:
            return pc.p_max_dbm
        return np.full(np.shape(pl_db), pc.p_max_dbm)
    if pc.noise_dbm is None:
        raise ValueError("noise_dbm must be set when power control is enabled")
    p = np.minimum(pc.p_max_dbm, pc.snr_target_db + pc.noise_dbm + pc.alpha * np.asarray(pl_db, dtype=float))
    return float(p) if np.ndim(pl_db) == 0 else p


def compute_sinr(
    rx_endpoint,
    serving_tx,
    active_txs,
    powers_dbm: Mapping,
    table: CouplingTable,
    noise_dbm: float,
) -> float:
    """SINR in dB at a receiver, summing interference in linear milliwatts.

    Every active transmitter other than the serving one interferes. A missing
    coupling entry is a hard error: it signals a construction bug upstream.
    """
    if serving_tx not in active_txs:
        raise ValueError("serving transmitter is not in the active set")
    signal_mw = 10.0 ** ((powers_dbm[serving_tx] - table.loss_db(serving_tx, rx_endpoint)) / 10.0)
    noise_mw = 10.0 ** (noise_dbm / 10.0)
    interference_mw = 0.0
    for tx in active_txs:
        if tx == serving_tx:
            continue
        interference_mw += 10.0 ** ((powers_dbm[tx] - table.loss_db(tx, rx_endpoint)) / 10.0)
    return 10.0 * math.log10(signal_mw / (noise_mw + interference_mw))


def rate_from_sinr(sinr_db, bandwidth_share_hz, rc: RadioConfig):
    """Attenuated-Shannon rate in bps, capped in spectral efficiency."""
    if np.any(np.asarray(bandwidth_share_hz) < 0):
        raise ValueError("bandwidth share must be >= 0")
    sinr_db = np.asarray(sinr_db, dtype=float)
    out = np.empty(np.broadcast_shapes(sinr_db.shape, np.shape(bandwidth_share_hz)))
    rate = _shannon_rate_bps(sinr_db, bandwidth_share_hz, rc, out)
    return float(rate) if rate.ndim == 0 else rate


def _shannon_rate_bps(sinr_db: np.ndarray, bandwidth_hz, rc: RadioConfig, out: np.ndarray) -> np.ndarray:
    """The rate map of `rate_from_sinr`, written into `out` (which may be
    `sinr_db` itself) with no temporaries and no argument checks, for the PF
    loop. The float steps and their order are the formula's, so the results
    are bit-equal to the plain expression."""
    np.divide(sinr_db, 10.0, out=out)
    np.power(10.0, out, out=out)
    np.add(1.0, out, out=out)
    np.log2(out, out=out)
    np.multiply(rc.shannon_efficiency, out, out=out)
    np.minimum(out, rc.spectral_cap_bps_hz, out=out)
    return np.multiply(out, bandwidth_hz, out=out)


def classify_coverage(
    ue_id: int,
    layout: NetworkLayout,
    table: CouplingTable,
    enb_tx_power_dbm: float = 46.0,
    rc: RadioConfig = RadioConfig(),
) -> Coverage:
    """Out of coverage iff the downlink SINR at terminal ``ue_id`` from the
    strongest sector is strictly below the threshold (default -6 dB).

    All sectors transmit at the same power; every non-serving sector is
    interference. The table's downlink entries carry shadowing at its mean,
    so this is the shadowing-averaged wideband SINR.
    """
    rx = ue_endpoint(ue_id)
    sectors = [sector_endpoint(s) for s in range(layout.n_sectors)]
    powers = {ep: enb_tx_power_dbm for ep in sectors}
    serving = min(sectors, key=lambda ep: table.loss_db(ep, rx))
    sinr_db = compute_sinr(
        rx,
        serving,
        set(sectors),
        powers,
        table,
        noise_dbm=thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_ue_db),
    )
    if sinr_db < rc.coverage_threshold_db:
        return Coverage.OUT_OF_COVERAGE
    return Coverage.IN_COVERAGE
