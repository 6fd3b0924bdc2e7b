"""Seeded Monte Carlo orchestration of the SINR and throughput experiments,
metric helpers, and the discovery-overhead calculator.

Every drop gets its own random stream derived solely from (seed, drop_index):
the 64-bit seed is XOR-folded with the drop index through a splitmix64
finalizer. Adding or removing drops therefore never perturbs other drops, and
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .channel import ChannelConfig, CouplingTable, build_coupling_table
from .layout import (
    DropCounters,
    NetworkLayout,
    Terminals,
    build_hex_grid,
    drop_cellular_ues,
    drop_d2d_pairs,
)
from .radio import PowerControlConfig, RadioConfig, open_loop_tx_power, thermal_noise_dbm
from .scheduling import (
    UNCOORDINATED,
    CoordinationMode,
    Flow,
    activation_pattern,
    run_pf_uplink,
)

_MASK64 = (1 << 64) - 1

SINR_SAMPLE_DTYPE = np.dtype(
    [
        ("setting_id", np.int32),
        ("drop", np.int32),
        ("sector", np.int32),
        ("link", np.int32),
        ("sinr_db", np.float64),
    ]
)

THROUGHPUT_SAMPLE_DTYPE = np.dtype(
    [
        ("drop", np.int32),
        ("flow", np.int32),
        ("role", "U8"),
        ("throughput_bps", np.float64),
    ]
)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def drop_stream_seed(seed: int, drop_index: int) -> int:
    """Stream seed for one drop; independent of every other drop index."""
    return _splitmix64((seed & _MASK64) ^ _splitmix64(drop_index))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "sinr"
    isd_m: float = 1732.0
    n_rings: int = 2
    wraparound: bool = True
    n_cellular_per_sector: int = 0
    n_d2d_tx_per_sector: int = 10
    d2d_range_m: float = 250.0
    min_d2d_dist_m: float = 3.0
    coordination: CoordinationMode = UNCOORDINATED
    alpha_list: tuple[float, ...] = (0.0, 0.8, 1.0)
    snr_target_db_list: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0)
    no_power_control: bool = True
    n_drops: int = 100
    n_subframes: int = 2000
    k_d2d: int = 0
    seed: int = 1
    carrier_ghz: float = 0.7
    d2d_offset_db: float = -10.0
    out_dir: str = "runs"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # Every message names its config key(s); parse_config reports the line.
        if self.experiment not in ("sinr", "throughput"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for key in (f.name for f in fields(self) if f.type in ("float", "tuple[float, ...]")):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ValueError(f"{key} must be finite")
        if self.isd_m <= 0:
            raise ValueError("isd_m must be positive")
        if self.n_rings < 0:
            raise ValueError("n_rings must be >= 0")
        # Terminals and wrapped site images lie up to (4 n_rings + 2) isd_m
        # apart per axis; their differences and hypot must stay finite.
        try:
            reach = self.isd_m * math.sqrt(2.0) * (4 * self.n_rings + 2)
        except OverflowError:  # n_rings beyond float range
            reach = math.inf
        if not math.isfinite(reach):
            raise ValueError(
                "isd_m is too large for n_rings: site coordinates and their wrap "
                "offsets would leave floating-point range"
            )
        if self.n_cellular_per_sector < 0 or self.n_d2d_tx_per_sector < 0:
            raise ValueError("n_cellular_per_sector and n_d2d_tx_per_sector must be >= 0")
        n_tx = self.n_cellular_per_sector + self.n_d2d_tx_per_sector
        if self.experiment == "throughput" and n_tx == 0:
            raise ValueError("throughput runs need n_cellular_per_sector + n_d2d_tx_per_sector > 0")
        if not 0.0 < self.min_d2d_dist_m < self.d2d_range_m:
            raise ValueError("need 0 < min_d2d_dist_m < d2d_range_m")
        # Coordinates are only as fine as the float spacing at that reach; a
        # thousandth of the shortest direct link keeps every link's length.
        if math.ulp(reach) > self.min_d2d_dist_m / 1000.0:
            raise ValueError(
                "isd_m is too large for min_d2d_dist_m: the float spacing of "
                "coordinates at this isd_m and n_rings exceeds min_d2d_dist_m / 1000"
            )
        if any(not 0.0 <= a <= 1.0 for a in self.alpha_list):
            raise ValueError("alpha_list values must be in [0, 1]")
        if bool(self.alpha_list) != bool(self.snr_target_db_list):
            raise ValueError("alpha_list and snr_target_db_list must both be set or both empty")
        if not (self.alpha_list or self.no_power_control):
            raise ValueError("power-control sweep is empty: set alpha_list or no_power_control")
        if self.n_drops < 1:
            raise ValueError("n_drops must be >= 1")
        if self.n_subframes < 1:
            raise ValueError("n_subframes must be >= 1")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        if self.k_d2d < 0:
            raise ValueError("k_d2d must be >= 0")
        if self.experiment == "throughput" and self.k_d2d > self.n_d2d_tx_per_sector:
            raise ValueError("k_d2d exceeds the number of transmitters per sector")
        if self.experiment == "throughput" and len(sweep_settings(self)) != 1:
            raise ValueError(
                "a throughput experiment takes exactly one power setting: one value each in "
                "alpha_list and snr_target_db_list with no_power_control = false, "
                "or both empty with no_power_control = true"
            )
        if self.carrier_ghz <= 0:
            raise ValueError("carrier_ghz must be positive")
        if any(c in self.out_dir for c in "#\r\n") or self.out_dir != self.out_dir.strip():
            raise ValueError("out_dir must not hold '#', CR or LF, nor start or end with "
                             "whitespace: the manifest could not echo it")


def sweep_settings(cfg: ExperimentConfig) -> list[PowerControlConfig]:
    """The power-control sweep, alpha-major, then max power (``enabled`` false)
    if configured. ``noise_dbm`` is left unset: it is the receiver's."""
    settings = [
        PowerControlConfig(t, alpha=a) for a in cfg.alpha_list for t in cfg.snr_target_db_list
    ]
    if cfg.no_power_control:
        settings.append(PowerControlConfig(0.0, alpha=0.0, enabled=False))
    return settings


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    experiment: str  # "sinr" | "throughput"
    settings: tuple[PowerControlConfig, ...]
    samples: np.ndarray  # SINR_SAMPLE_DTYPE or THROUGHPUT_SAMPLE_DTYPE
    run_label: str = ""  # "baseline" | "offload" for throughput reports
    counters: DropCounters = field(default_factory=DropCounters)  # summed over drops
    starved_flows: int = 0  # throughput: PF flows granted no subframe, summed over drops
    d2d_grants: int = 0  # throughput: PF grants to direct flows, summed over drops


def build_drop(
    cfg: ExperimentConfig,
    layout: NetworkLayout,
    drop_index: int,
    *,
    counters: Optional[DropCounters] = None,
) -> tuple[Terminals, CouplingTable]:
    """Drop all terminals (cellular first, then the pairs: see `Terminals`)
    and freeze the coupling table for one drop index.

    The baseline and offload throughput runs both start from this, which is
    what guarantees them identical geometry and shadowing. ``counters``, when
    given, gets the drop's counts added to it.
    """
    ch = ChannelConfig(carrier_ghz=cfg.carrier_ghz, d2d_offset_db=cfg.d2d_offset_db)
    rng = np.random.default_rng(drop_stream_seed(cfg.seed, drop_index))
    cell = drop_cellular_ues(layout, cfg.n_cellular_per_sector, rng, counters=counters)
    pairs = drop_d2d_pairs(
        layout,
        cfg.n_d2d_tx_per_sector,
        cfg.d2d_range_m,
        cfg.min_d2d_dist_m,
        rng,
        counters=counters,
    )
    xy, sector = (np.concatenate(arrays) for arrays in zip(cell, pairs))
    terminals = Terminals(xy, sector, n_cell=len(cell[1]))
    return terminals, build_coupling_table(layout, terminals, ch, rng, counters=counters)


def _sinr_drop_samples(cfg, layout, settings, rc, drop_index) -> tuple[np.ndarray, DropCounters]:
    counters = DropCounters()
    terminals, table = build_drop(cfg, layout, drop_index, counters=counters)
    n_cell = terminals.n_cell
    if not terminals.n_pairs:
        return np.zeros(0, dtype=SINR_SAMPLE_DTYPE), counters

    # Pairs are dropped sector by sector, n_tx each; link j is terminal
    # n_cell + 2j, table row n_cell + j and column j (see Terminals).
    links = np.arange(terminals.n_pairs)
    tx_ids = n_cell + 2 * links
    tx_sector = terminals.sector[n_cell::2]
    own_loss = table.ue_ue_loss_db[n_cell + links, links]

    gain = table.ue_ue_gain_lin
    # Per subframe of the cycle: the active links (sector-major, positions
    # ascending), the active transmitters' gains at their receivers and each
    # link's own gain. Gathered once per drop; only the powers change with
    # the sweep setting. With every link on the air the gains are the pair
    # rows as they stand, so a view serves and nothing is copied.
    pattern = activation_pattern(cfg.coordination, cfg.n_d2d_tx_per_sector)
    sector_base = links[:: cfg.n_d2d_tx_per_sector, None]
    active = []
    for on_air in pattern:
        sel = (sector_base + on_air).ravel()
        rows = n_cell + sel
        cross = gain[n_cell:] if len(sel) == len(links) else gain[np.ix_(rows, sel)]
        active.append((sel, cross, gain[rows, sel]))

    noise_ue_dbm = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_ue_db)
    noise_enb_dbm = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_enb_db)
    noise_lin = 10.0 ** (noise_ue_dbm / 10.0)

    cell_loss = table.ue_sector_loss_db[np.arange(n_cell), terminals.sector[:n_cell]]
    chunks = []
    for si, setting in enumerate(settings):
        p_d2d = open_loop_tx_power(replace(setting, noise_dbm=noise_ue_dbm), own_loss)
        p_lin = 10.0 ** (p_d2d / 10.0)
        # Cellular terminals transmit uplink in every subframe; their power is
        # set against their own serving-sector link (none: cell_at_rx is 0).
        p_cell = open_loop_tx_power(replace(setting, noise_dbm=noise_enb_dbm), cell_loss)
        cell_at_rx = (10.0 ** (p_cell / 10.0)) @ gain[:n_cell]
        for sel, cross_gain, own_gain in active:
            received = p_lin[sel] @ cross_gain + cell_at_rx[sel]
            signal = p_lin[sel] * own_gain
            interference = np.maximum(received - signal, 0.0)
            with np.errstate(divide="ignore"):  # a zero signal is reported below
                sinr_db = 10.0 * np.log10(signal / (interference + noise_lin))
            chunk = np.zeros(len(sel), dtype=SINR_SAMPLE_DTYPE)
            chunk["setting_id"] = si
            chunk["drop"] = drop_index
            chunk["sector"] = tx_sector[sel]
            chunk["link"] = tx_ids[sel]
            chunk["sinr_db"] = sinr_db
            chunks.append(chunk)
    samples = np.concatenate(chunks)
    if not np.isfinite(samples["sinr_db"]).all():
        raise ValueError(
            f"drop {drop_index}: SINR samples are not finite: d2d_range_m or "
            "d2d_offset_db puts a direct link's pathloss beyond floating-point range"
        )
    return samples, counters


def run_sinr_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Per drop: build the geometry, freeze couplings, set powers for every
    sweep setting, and record each direct link's SINR at every activation
    pattern position. All cochannel transmitters interfere."""
    layout = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
    settings = sweep_settings(cfg)
    rc = RadioConfig()
    chunks, counters = [], DropCounters()
    for drop in range(cfg.n_drops):
        samples, drop_counters = _sinr_drop_samples(cfg, layout, settings, rc, drop)
        chunks.append(samples)
        counters.add(drop_counters)
    return ExperimentReport("sinr", tuple(settings), np.concatenate(chunks), counters=counters)


def expected_sinr_sample_count(cfg: ExperimentConfig, n_sectors: int) -> int:
    """Sample accounting: drops x sectors x activation-pattern entries, per
    sweep setting."""
    pattern = activation_pattern(cfg.coordination, cfg.n_d2d_tx_per_sector)
    return cfg.n_drops * n_sectors * pattern.size * len(sweep_settings(cfg))


def _throughput_rows(drop_index, sector_flows, result) -> np.ndarray:
    """One row per flow, in the ascending flow id order of the PF result."""
    role = {f.id: f.role for fl in sector_flows.values() for f in fl}
    chunk = np.zeros(len(role), dtype=THROUGHPUT_SAMPLE_DTYPE)
    chunk["drop"] = drop_index
    chunk["flow"] = list(result.throughput_bps)
    chunk["role"] = [role[i] for i in result.throughput_bps]
    chunk["throughput_bps"] = list(result.throughput_bps.values())
    return chunk


def _flows_for(terminals: Terminals, n_tx_per_sector: int, k_d2d: int) -> dict[int, list[Flow]]:
    """Every transmitter of a drop as a flow at its table position (row and
    column order: see `CouplingTable`), grouped by home sector. Pairs are
    dropped n_tx_per_sector per sector, so the first k_d2d pairs of each
    sector, those with j % n_tx_per_sector < k_d2d, send to their peer."""
    n_cell, n_rx = terminals.n_cell, terminals.n_pairs
    tx_ids = terminals.tx_ids
    out: dict[int, list[Flow]] = {}
    for row, (uid, s) in enumerate(zip(tx_ids.tolist(), terminals.sector[tx_ids].tolist())):
        j = row - n_cell  # pair index of a D2D transmitter
        if j >= 0 and j % n_tx_per_sector < k_d2d:
            flow = Flow(uid, row, j, "d2d")
        else:
            flow = Flow(uid, row, n_rx + s, "cellular")
        out.setdefault(s, []).append(flow)
    return out


def run_throughput_experiment(cfg: ExperimentConfig) -> tuple[ExperimentReport, ExperimentReport]:
    """Paired baseline/offload PF runs on identical drops.

    Baseline: every transmitter is a cellular flow through its serving sector.
    Offload: per sector, the first cfg.k_d2d pair transmitters (in drop order)
    send directly to their dropped peers instead. The config's one sweep
    entry is the power-control setting. Each PF run is one `run_pf_uplink`
    call, in the order drop 0 baseline, drop 0 offload, drop 1 baseline, ...
    """
    layout = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
    (setting,) = sweep_settings(cfg)
    rc = RadioConfig()

    chunks = {"baseline": [], "offload": []}
    starved, d2d_grants = dict.fromkeys(chunks, 0), dict.fromkeys(chunks, 0)
    counters = DropCounters()
    for drop in range(cfg.n_drops):
        terminals, table = build_drop(cfg, layout, drop, counters=counters)
        for label, k_d2d in (("baseline", 0), ("offload", cfg.k_d2d)):
            flows = _flows_for(terminals, cfg.n_d2d_tx_per_sector, k_d2d)
            result = run_pf_uplink(flows, cfg.n_subframes, rc, setting, table)
            chunks[label].append(_throughput_rows(drop, flows, result))
            grants = result.granted_subframes
            starved[label] += sum(g == 0 for g in grants.values())
            d2d_grants[label] += sum(grants[f.id] for fl in flows.values() for f in fl if f.role == "d2d")

    return tuple(
        ExperimentReport(
            "throughput", (setting,), np.concatenate(chunks[label]), run_label=label,
            counters=counters, starved_flows=starved[label], d2d_grants=d2d_grants[label],
        )
        for label in chunks
    )


def run_experiment(cfg: ExperimentConfig):
    """CLI dispatch: one report for sinr, a (baseline, offload) pair otherwise."""
    if cfg.experiment == "sinr":
        return run_sinr_experiment(cfg)
    return run_throughput_experiment(cfg)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the ceil(p*n)-th smallest, p=0 -> minimum."""
    arr = np.sort(np.asarray(samples, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rank = max(1, math.ceil(p * arr.size - 1e-12))
    return float(arr[rank - 1])


def fraction_above(samples_db, threshold_db: float) -> float:
    """Fraction of samples strictly above the threshold."""
    arr = np.asarray(samples_db, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("fraction_above of an empty sample set")
    return float(np.count_nonzero(arr > threshold_db) / arr.size)


def discovery_overhead(reserved_subframes: int, period_s: float) -> tuple[float, float]:
    """Capacity fraction consumed by a periodic reservation of 1 ms subframes,
    and the complementary fraction terminals may sleep."""
    if reserved_subframes < 0:
        raise ValueError("reserved_subframes must be >= 0")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    if reserved_subframes * 1e-3 > period_s:
        raise ValueError("reservation exceeds the period")
    capacity_fraction = reserved_subframes / (period_s * 1000.0)
    return capacity_fraction, 1.0 - capacity_fraction


def sinr_summary(report: ExperimentReport, threshold_db: float = -6.0) -> list[dict]:
    """Per-setting fraction above the threshold, mean, and 5th percentile."""
    rows = []
    for si, setting in enumerate(report.settings):
        vals = report.samples["sinr_db"][report.samples["setting_id"] == si]
        label = (
            f"alpha={setting.alpha:g} snr_target_db={setting.snr_target_db:g}"
            if setting.enabled else "no_power_control"
        )
        row = {"setting_id": si, "label": label, "n": int(vals.size)}
        if vals.size:
            row["fraction_above"] = fraction_above(vals, threshold_db)
            row["mean_db"] = float(vals.mean())
            row["p5_db"] = percentile(vals, 0.05)
        rows.append(row)
    return rows


def _gain(offload_value: float, baseline_value: float) -> float:
    # A zero baseline happens on runs too short for the PF transient to
    # serve every flow; the gain is then unbounded rather than an error.
    if baseline_value > 0.0:
        return offload_value / baseline_value
    return math.inf if offload_value > 0.0 else math.nan


def throughput_summary(
    baseline: ExperimentReport, offload: ExperimentReport
) -> dict:
    """Mean and 5th-percentile throughput per run, plus offload gains."""
    b = baseline.samples["throughput_bps"]
    o = offload.samples["throughput_bps"]
    out = {
        "n": int(b.size),
        "baseline_mean_bps": float(b.mean()),
        "baseline_p5_bps": percentile(b, 0.05),
        "offload_mean_bps": float(o.mean()),
        "offload_p5_bps": percentile(o, 0.05),
    }
    out["gain_mean"] = _gain(out["offload_mean_bps"], out["baseline_mean_bps"])
    out["gain_p5"] = _gain(out["offload_p5_bps"], out["baseline_p5_bps"])
    return out
