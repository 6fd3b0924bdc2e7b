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
keeps a memo with one entry per grant set: its rates and its served vector.
When a run's possible grant sets (one flow per sector) number no more than
its subframes, one batched pass computes all of them before the loop;
otherwise each set is computed, alone, the first time it is granted. Either
way the memo holds at most n_subframes entries of two n_flows vectors each.
"""

from __future__ import annotations

import itertools
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

# Entries per row block of the (sets x sectors x flows) gather that fills a
# run's memo before its loop.
_SET_BLOCK = 1 << 15


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


def _snapshot_rates(
    grants: np.ndarray,
    coupling_lin: np.ndarray,
    own_at: np.ndarray,
    signal_lin: np.ndarray,
    noise_lin: np.ndarray,
    rc: RadioConfig,
    rates: np.ndarray,
    work: tuple,
) -> np.ndarray:
    """Rates at the interference snapshots of B grant sets, (B x sectors) in,
    written into `rates` (B x flows). One set may come without the leading
    axis. `work` is `_rate_work` for the same leading shape.

    A flow's interference is the granted coupling rows summed in sector
    order, less its own sector's granted row, floored at 0. Each set's row is
    computed alone, elementwise, so a batch of sets gives the floats that one
    call per set gives.
    """
    rows, flat_rows, total = work
    coupling_lin.take(grants, axis=0, out=rows, mode="wrap")
    np.add.reduce(rows, axis=-2, out=total)
    flat_rows.take(own_at, axis=-1, out=rates, mode="wrap")
    np.subtract(total, rates, out=rates)
    np.maximum(rates, 0.0, out=rates)
    return _rates_from_interference(rates, signal_lin, noise_lin, rc)


def _rate_work(shape: tuple, n_sectors: int, n_flows: int) -> tuple:
    """Scratch buffers of `_snapshot_rates` for grant sets of leading shape
    `shape`: () for one set, (B,) for a batch."""
    rows = np.empty(shape + (n_sectors, n_flows))
    return rows, rows.reshape(shape + (-1,)), np.empty(shape + (n_flows,))


def _rates_from_interference(
    interference: np.ndarray, signal_lin: np.ndarray, noise_lin: np.ndarray, rc: RadioConfig
) -> np.ndarray:
    """The rate map of the loop, in place: noise added, SINR in dB, then
    `_shannon_rate_bps`."""
    np.add(noise_lin, interference, out=interference)
    np.divide(signal_lin, interference, out=interference)
    np.log10(interference, out=interference)
    np.multiply(10.0, interference, out=interference)
    return _shannon_rate_bps(interference, rc.bandwidth_hz, rc, interference)


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
    on the served rates (the granted flows' entries, 0 elsewhere). Coupling,
    signal and noise are fixed for the run, so both vectors depend only on
    the grant set, and the run keeps a memo with one entry per set, each
    holding the two n_flows vectors. `_snapshot_rates` computes the rates,
    and the served vector takes them at the granted positions:
    - Prefill: when the possible grant sets, the product of the sectors'
      flow counts, number no more than n_subframes, one batched call per
      row block of about `_SET_BLOCK` gathered floats computes all of them
      before the loop, and every subframe finds its set.
    - Otherwise the loop calls the rule on one set the first time it is
      granted, with buffers allocated once per run, and reuses the entry
      when the set repeats.
    Either way the memo holds at most min(possible sets, n_subframes)
    entries, so at most 2 x n_subframes x n_flows floats, and lives only in
    this call. The rule computes each set alone, so both ways serve the same
    floats. After the loop, `np.add.at` sums the logged bits in time order,
    as the per-subframe sums did (adding 0.0 is exact).

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

    # inst is each flow's rate at the current interference snapshot. It drives
    # the next grants, and it is also the served rate of every flow granted in
    # that snapshot: a granted flow's interference from the other grants is
    # exactly its snapshot entry. So a set's served vector is its inst at the
    # granted positions and 0 elsewhere. Row i of rates and served belongs to
    # the memo entry (i, read-only rates row, read-only served row) of the
    # grant set whose bytes map to it. own_at indexes a set's granted rows
    # [sector of f, f]. Row t of grant_log holds subframe t's grants, and
    # entries[t] the memo row they were served from.
    n_sectors = len(sectors)
    own_at = sector_of_pos * n_flows + np.arange(n_flows)
    args = (coupling_lin, own_at, signal_lin, noise_lin, rc)
    n_sets = math.prod(map(len, rows))
    n_entries = min(n_sets, n_subframes)
    rates = np.empty((n_entries, n_flows))
    served = np.zeros((n_entries, n_flows))
    rates_ro, served_ro = rates.view(), served.view()
    rates_ro.flags.writeable = served_ro.flags.writeable = False
    memo: dict[bytes, tuple] = {}
    if n_sets <= n_subframes:
        every_set = np.array(list(itertools.product(*rows)), dtype=np.intp)
        block = max(1, _SET_BLOCK // (n_sectors * n_flows))
        for b in range(0, n_sets, block):
            sets = every_set[b : b + block]
            blk_work = _rate_work(sets.shape[:1], n_sectors, n_flows)
            _snapshot_rates(sets, *args, rates[b : b + len(sets)], blk_work)
        at = every_set + np.arange(n_sets)[:, None] * n_flows
        served.put(at, rates.take(at))
        keys = (g.tobytes() for g in every_set)
        memo.update(zip(keys, zip(range(n_sets), rates_ro, served_ro)))
    work = _rate_work((), n_sectors, n_flows)
    select_work = _select_work(slots, n_flows)
    grant_log = np.empty((n_subframes, n_sectors), dtype=np.intp)
    entries = []

    # Grants use the previous subframe's interference snapshot (noise-only at
    # t=0); service uses the grants concurrent at t.
    inst = _rates_from_interference(np.zeros(n_flows), signal_lin, noise_lin, rc)
    for grants in grant_log:
        pf_select(inst, avg, slots, grants, select_work)
        key = grants.tobytes()
        entry = memo.get(key)
        if entry is None:
            i = len(memo)
            served[i].put(grants, _snapshot_rates(grants, *args, rates[i], work).take(grants))
            entry = memo[key] = (i, rates_ro[i], served_ro[i])
        i, inst, served_rates = entry
        entries.append(i)
        pf_update(avg, served_rates, t_c, out=avg)

    served_log = rates[np.array(entries)[:, None], grant_log]
    bits = np.zeros(n_flows)
    np.add.at(bits, grant_log, served_log * SUBFRAME_S)
    grant_count = np.bincount(grant_log.ravel(), minlength=n_flows)
    ids = [f.id for f in flows]
    duration_s = n_subframes * SUBFRAME_S
    return PfResult(
        throughput_bps=dict(zip(ids, (bits / duration_s).tolist())),
        granted_subframes=dict(zip(ids, grant_count.tolist())),
    )
