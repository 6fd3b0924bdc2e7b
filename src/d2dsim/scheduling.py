"""D2D coordination modes and the subframe-level proportional-fair uplink
scheduler with direct-link offload.

Coordination decides which D2D transmitters are simultaneously on the air:
all of them (uncoordinated), one per sector in round-robin (orthogonal TDM),
or k per sector rotating through the transmitter list so everyone gets equal
airtime (spatial reuse). One activation pattern array encodes all three.

The PF scheduler grants one flow per sector per subframe for the whole band.
Grants at subframe t are chosen from SINRs computed against the transmitters
granted at t-1 (noise-only at t=0); the rates actually served use the grants
concurrently active at t. That one-subframe lag avoids a grant/interference
fixed point.

A `Flow` is an immutable (id, row, col, role) record: terminal `id`
transmits from table row `row` to column `col` of the drop's terminal-row
loss matrix (row and column order: see `CouplingTable`). The PF state lives
in arrays indexed by position in flow id order: one flows x flows coupling
matrix gathered from the drop's table by those rows and columns, and per-flow
averages. `run_pf_uplink` calls the single-step rules `pf_select` and
`pf_update` every subframe, with output buffers. The rates at the snapshot of
subframe t are both what the flows granted at t are served and what the
grants at t+1 are chosen from. They depend only on t's grant set, so a run
computes them once per distinct set and looks them up when a set repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .channel import CouplingTable
from .radio import (
    PowerControlConfig,
    RadioConfig,
    _shannon_rate_bps,
    open_loop_tx_power,
    thermal_noise_dbm,
)

SUBFRAME_S = 1e-3


@dataclass(frozen=True)
class CoordinationMode:
    kind: str  # "uncoordinated" | "tdm" | "reuse"
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("uncoordinated", "tdm", "reuse"):
            raise ValueError(f"unknown coordination kind {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"reuse factor must be >= 1, got {self.k}")


UNCOORDINATED = CoordinationMode("uncoordinated")
ORTHOGONAL_TDM = CoordinationMode("tdm")


def spatial_reuse(k: int) -> CoordinationMode:
    return CoordinationMode("reuse", k)


def activation_pattern(mode: CoordinationMode, n_tx: int) -> np.ndarray:
    """Positions within a sector's transmitter list on the air in each
    subframe of one cycle, as a (cycle x k) array with ascending rows.

    Every mode is one rotation: subframe t activates positions
    (t*k + j) mod n_tx for j < k, with k = n_tx (uncoordinated), 1 (TDM) or
    min(k, n_tx) (reuse). The pattern repeats after n_tx // gcd(n_tx, k)
    subframes, in which each transmitter is on the air equally often.
    """
    if n_tx < 0:
        raise ValueError(f"n_tx must be >= 0, got {n_tx}")
    k = min({"uncoordinated": n_tx, "tdm": 1}.get(mode.kind, mode.k), n_tx)
    cycle = n_tx // math.gcd(n_tx, k) if n_tx else 1
    starts = np.arange(cycle)[:, None] * k
    return np.sort((starts + np.arange(k)) % max(n_tx, 1), axis=1)


class Flow(NamedTuple):
    """One scheduled traffic source: terminal `id`, table row `row`,
    transmitting either to its serving sector or directly to its peer, at
    column `col` of ``[ue_ue_loss_db | ue_sector_loss_db]``."""

    id: int
    row: int
    col: int
    role: str  # "cellular" (to a sector) or "d2d" (to a terminal)


def pf_select(
    inst_rate_bps: np.ndarray,
    avg_rate_bps: np.ndarray,
    slots: np.ndarray,
    out: np.ndarray | None = None,
    work: tuple | None = None,
) -> np.ndarray:
    """Position of the flow maximizing inst/avg rate in each row of `slots`,
    written into `out` if given.

    `slots` is a (sectors x max flows) matrix of flow positions, padded at the
    end of each row with -1. Rows list their flows in id order, so the
    first-occurrence argmax gives ties to the lowest id. `work` is
    `_select_work(slots, len(inst_rate_bps))`, scratch buffers that a caller
    may reuse across calls with the same slots.
    """
    # argmin is the cheapest reduction on a short array.
    if avg_rate_bps[avg_rate_bps.argmin()] <= 0:
        raise ValueError("PF average rates must be positive")
    metric, ratio, slot_metric, best, row_start = work or _select_work(slots, len(inst_rate_bps))
    np.divide(inst_rate_bps, avg_rate_bps, out=ratio)
    # Every take passes mode="wrap", since the default mode buffers `out`:
    # the -1 padding wraps to metric's last entry, -inf, which never wins.
    metric.take(slots, out=slot_metric, mode="wrap")
    slot_metric.argmax(axis=1, out=best)
    np.add(row_start, best, out=best)
    return slots.take(best, out=out, mode="wrap")


def _select_work(slots: np.ndarray, n_flows: int) -> tuple:
    """Scratch buffers of `pf_select` over n_flows flows, once `slots` is
    checked to have a flow in every row."""
    if slots.size == 0 or slots[:, 0].min() < 0:
        raise ValueError("pf_select needs at least one flow per row")
    metric = np.full(n_flows + 1, -np.inf)
    row_start = np.arange(len(slots)) * slots.shape[1]
    return metric, metric[:-1], np.empty(slots.shape), np.empty(len(slots), dtype=np.intp), row_start


def pf_update(
    avg_rate_bps: np.ndarray, served_rate_bps: np.ndarray, t_c: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Exponential moving average step, written into `out` (which may be
    `avg_rate_bps`) if given; served rate is 0 when not scheduled."""
    if t_c < 1:
        raise ValueError(f"t_c must be >= 1, got {t_c}")
    out = np.multiply(avg_rate_bps, 1.0 - 1.0 / t_c, out=out)
    return np.add(out, served_rate_bps / t_c, out=out)


@dataclass(frozen=True)
class PfResult:
    throughput_bps: dict[int, float]
    granted_subframes: dict[int, int]


def run_pf_uplink(
    sector_flows: Mapping[int, Sequence[Flow]],
    n_subframes: int,
    rc: RadioConfig,
    pc: PowerControlConfig,
    table: CouplingTable,
    t_c: int = 100,
) -> PfResult:
    """Run the PF loop and return per-flow throughput over n_subframes, keyed
    by flow id in ascending order.

    Each flow's transmit power is fixed up front by open-loop power control
    against its own link coupling, with the noise term taken at its own
    receiver (terminal or base). PF averages start at the flow's
    no-interference rate. Sectors with no flows are skipped.

    Each subframe: `pf_select` on the rates at the current interference
    snapshot, then the rates at the snapshot of its grants, then `pf_update`
    on the served rates (the granted flows' entries, 0 elsewhere). A grant
    set's rates (granted coupling rows summed, less each flow's own sector's
    row, floored at 0, then the rate map) are computed on first use and
    reused, the same floats, when the set repeats: coupling, signal and noise
    are fixed for the run. The memo holds at most n_subframes x n_flows floats
    and lives only in this call. After the loop, `np.add.at` sums the logged
    bits in time order, as the per-subframe sums did (adding 0.0 is exact).

    One call is one PF run, with one `pf_select` and one `pf_update` call per
    subframe. `run_throughput_experiment` makes one call per run, in run
    order, passing the flows and `n_subframes` as the first two arguments;
    `perfbench/tracing.py` wraps these functions and derives its call counts,
    grant counters and golden `grants_digest` from exactly those calls, so a
    change that batches several runs into one call must change it too.
    """
    if n_subframes < 1:
        raise ValueError(f"n_subframes must be >= 1, got {n_subframes}")
    sectors = sorted(s for s in sector_flows if sector_flows[s])
    # PF state is indexed by position in flow id order; slots lists each
    # sector's positions in ascending order, padded with -1.
    flows = sorted((f for s in sectors for f in sector_flows[s]), key=lambda f: f.id)
    n_flows = len(flows)
    if n_flows == 0:
        return PfResult({}, {})
    pos_of = {f.id: i for i, f in enumerate(flows)}
    rows = [sorted(pos_of[f.id] for f in sector_flows[s]) for s in sectors]
    width = max(len(r) for r in rows)
    slots = np.array([r + [-1] * (width - len(r)) for r in rows])
    sector_of_pos = np.empty(n_flows, dtype=int)
    for si, r in enumerate(rows):
        sector_of_pos[r] = si

    # loss_db[g, f]: loss from flow g's transmitter to flow f's receiver. The
    # stacked copy of the table lives only in this expression, so it is freed
    # before the loop's buffers are allocated (peak memory).
    loss_db = np.hstack((table.ue_ue_loss_db, table.ue_sector_loss_db))[
        np.ix_([f.row for f in flows], [f.col for f in flows])
    ]
    own_loss = loss_db.diagonal()
    nf = {"d2d": rc.noise_figure_ue_db, "cellular": rc.noise_figure_enb_db}
    noise_dbm = np.array([thermal_noise_dbm(rc.bandwidth_hz, nf[f.role]) for f in flows])
    p_dbm = open_loop_tx_power(replace(pc, noise_dbm=noise_dbm), own_loss)
    p_lin = 10.0 ** (p_dbm / 10.0)
    noise_lin = 10.0 ** (noise_dbm / 10.0)
    signal_lin = p_lin * 10.0 ** (-own_loss / 10.0)
    coupling_lin = p_lin[:, None] * 10.0 ** (-loss_db / 10.0)
    # libm log10 here, numpy's SIMD log10 in the loop: at t=0 both see the
    # same SNRs, and their last-bit differences decide near-tied first grants.
    # Keeping both keeps published outputs byte-stable.
    snr_db = 10.0 * np.array([math.log10(r) for r in (signal_lin / noise_lin).tolist()])
    avg = np.maximum(_shannon_rate_bps(snr_db, rc.bandwidth_hz, rc, snr_db), 1.0)

    # Buffers allocated once per run. inst is each flow's rate at the current
    # interference snapshot. It drives the next grants, and it is also the
    # served rate of every flow granted in that snapshot: a granted flow's
    # interference from the other grants is exactly its snapshot entry.
    # rate_at maps a grant set's bytes to its read-only inst. own_at indexes
    # granted_rows[sector of f, f]. Row t of the logs holds subframe t's
    # grants and the rates they were served.
    n_sectors = len(sectors)
    select_work = _select_work(slots, n_flows)
    granted_rows = np.empty((n_sectors, n_flows))
    grant_total = np.empty(n_flows)
    interference = np.zeros(n_flows)
    own_at = sector_of_pos * n_flows + np.arange(n_flows)
    served = np.empty(n_flows)
    grant_log = np.empty((n_subframes, n_sectors), dtype=np.intp)
    served_log = np.empty((n_subframes, n_sectors))
    rate_at: dict[bytes, np.ndarray] = {}

    def rate_at_snapshot():
        # Grants use the previous subframe's interference snapshot
        # (noise-only at t=0); service uses the grants concurrent at t.
        inst = np.add(noise_lin, interference)
        np.divide(signal_lin, inst, out=inst)
        np.log10(inst, out=inst)
        np.multiply(10.0, inst, out=inst)
        _shannon_rate_bps(inst, rc.bandwidth_hz, rc, inst)
        inst.flags.writeable = False
        return inst

    inst = rate_at_snapshot()
    for grants, served_rates in zip(grant_log, served_log):
        pf_select(inst, avg, slots, grants, select_work)
        key = grants.tobytes()
        inst = rate_at.get(key)
        if inst is None:
            coupling_lin.take(grants, axis=0, out=granted_rows, mode="wrap")
            np.add.reduce(granted_rows, axis=0, out=grant_total)
            granted_rows.take(own_at, out=interference, mode="wrap")
            np.subtract(grant_total, interference, out=interference)
            np.maximum(interference, 0.0, out=interference)
            inst = rate_at[key] = rate_at_snapshot()
        inst.take(grants, out=served_rates, mode="wrap")
        served.fill(0.0)
        served.put(grants, served_rates)
        pf_update(avg, served, t_c, out=avg)

    bits = np.zeros(n_flows)
    np.add.at(bits, grant_log, served_log * SUBFRAME_S)
    grant_count = np.bincount(grant_log.ravel(), minlength=n_flows)
    ids = [f.id for f in flows]
    duration_s = n_subframes * SUBFRAME_S
    return PfResult(
        throughput_bps=dict(zip(ids, (bits / duration_s).tolist())),
        granted_subframes=dict(zip(ids, grant_count.tolist())),
    )
