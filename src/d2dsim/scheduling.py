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
loss matrix (row and column order: see `CouplingTable`). A PF run gathers
one flows x receivers coupling matrix from the drop's table, its rows in
flow id order; flows that share a receiver, such as the cellular flows of
one sector, share its column. The rates at the snapshot of subframe t are
both what the flows granted at t are served and what the grants at t+1 are
chosen from; they depend only on t's grant set. Every run does the
`pf_select` and `pf_update` steps in one loop, on a grid with one row per
sector padded with cells that never win, and adds its bits once per chunk
of subframes. A run with no more possible grant sets than subframes reads
its rates from a memo of every set, filled before the loop, through a list
of each set's row views indexed by a Python-int sum of rank x stride; any
other run computes its granted set's rates in every subframe.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .channel import CouplingTable
from .layout import _block_rows
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


def pf_select(inst_rate_bps: np.ndarray, avg_rate_bps: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The PF selection rule: the position of the flow maximizing inst/avg
    rate in each row of `slots`.

    `slots` is a (sectors x max flows) matrix of flow positions, padded at the
    end of each row with -1. Rows list their flows in id order, so the
    first-occurrence argmax gives ties to the lowest id. This is the reference
    rule: `run_pf_uplink` does its steps on its grid and gets its floats.
    """
    if slots.size == 0 or slots[:, 0].min() < 0:
        raise ValueError("pf_select needs at least one flow per row")
    if np.any(avg_rate_bps <= 0):
        raise ValueError("PF average rates must be positive")
    # A -1 pad reads the appended -inf, which never wins.
    metric = np.append(inst_rate_bps / avg_rate_bps, -np.inf)
    return slots[np.arange(len(slots)), metric[slots].argmax(axis=1)]


def pf_update(avg_rate_bps: np.ndarray, served_rate_bps: np.ndarray, t_c: int) -> np.ndarray:
    """The PF average update, an exponential moving average step; served rate
    is 0 when not scheduled. This is the reference rule: `run_pf_uplink` does
    its steps on its grid and gets its floats."""
    if t_c < 1:
        raise ValueError(f"t_c must be >= 1, got {t_c}")
    return avg_rate_bps * (1.0 - 1.0 / t_c) + served_rate_bps / t_c


@dataclass(frozen=True)
class PfResult:
    throughput_bps: dict[int, float]
    granted_subframes: dict[int, int]


def _snapshot_rates(
    grants: np.ndarray,
    coupling_lin: np.ndarray,
    recv_of: np.ndarray,
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

    `coupling_lin` is flows x receivers and flow f listens at receiver
    `recv_of[f]`. The granted coupling rows are summed in sector order per
    receiver; a flow's interference is its receiver's sum less its own
    sector's granted row there (`own_at` indexes [sector of f, recv_of[f]]),
    floored at 0. Each set's row is computed alone, elementwise, so a batch of
    sets gives the floats that one call per set gives, and the floats that a
    flows x flows coupling gives.
    """
    rows, flat_rows, total, own = work
    coupling_lin.take(grants, axis=0, out=rows, mode="wrap")
    np.add.reduce(rows, axis=-2, out=total)
    flat_rows.take(own_at, axis=-1, out=own, mode="wrap")
    total.take(recv_of, axis=-1, out=rates, mode="wrap")
    np.subtract(rates, own, out=rates)
    np.maximum(rates, 0.0, out=rates)
    return _rates_from_interference(rates, signal_lin, noise_lin, rc)


def _rate_work(shape: tuple, n_sectors: int, n_recv: int, n_flows: int) -> tuple:
    """Scratch buffers of `_snapshot_rates` for grant sets of leading shape
    `shape`, () for one set or (B,) for a batch: the granted rows
    (sectors x receivers), their sums per receiver and the own-sector terms
    per flow."""
    rows = np.empty(shape + (n_sectors, n_recv))
    return rows, rows.reshape(shape + (-1,)), np.empty(shape + (n_recv,)), np.empty(shape + (n_flows,))


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


def _grant_sets(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Every set of one entry per row in `itertools.product` order, and the
    strides: the set of ranks r_s in row s is row sum(r_s * stride[s])."""
    n_sets, flat = math.prod(map(len, rows)), itertools.chain.from_iterable(itertools.product(*rows))
    every_set = np.fromiter(flat, np.intp, n_sets * len(rows)).reshape(n_sets, len(rows))
    return every_set, np.array([math.prod(map(len, rows[s + 1 :])) for s in range(len(rows))])


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

    Each subframe: the `pf_select` rule on the rates at the current
    interference snapshot, then the rates at the snapshot of its grants, then
    the `pf_update` rule on the served rates (the granted flows' entries, 0
    elsewhere). Coupling, signal and noise are fixed for the run, so both
    vectors depend only on the grant set, and `_snapshot_rates` computes them
    from one flows x receivers coupling matrix: a baseline run's flows send
    to their sectors' receivers only.

    The rates and averages lie on the grid of `slots`: one row per sector, its
    flows in id order, padded at the end with cells of rate 0 that never win.
    Each subframe does one divide, one row-wise argmax and the two update
    steps; the averages are checked to be positive only once a per-run floor
    allows 0. The loop runs in chunks of `layout._block_rows(n_flows)`
    subframes and after each chunk `np.add.at` adds its bits in time order,
    so the run's state does not grow with n_subframes. Rates come from one of
    two sources:
    - a memo, when the possible grant sets, the product of the sectors' flow
      counts, number no more than n_subframes: one batched call per row block
      of sets (`layout._block_rows` of sectors x flows entries) computes every
      set's rates and served rates / t_c before the loop. A list holds each
      set's two row views (rates, served / t_c), made once and freed at
      return, so a subframe is a divide, a row-wise argmax, the Python sum of
      rank x stride (`_grant_sets`), one list index, a multiply and an add,
      and creates no array;
    - otherwise one call per subframe on its granted set, put onto the grid.
    `_snapshot_rates` computes each set alone, so both serve the same floats.

    One call is one PF run. The loop calls neither `pf_select` nor
    `pf_update`, so perfbench's call counts of both read 0.
    `run_throughput_experiment` makes one call per run, in run order, with the
    flows and `n_subframes` first; perfbench derives its grant counters and
    golden `grants_digest` from exactly those calls, so batching runs into one
    call must change it.
    """
    if n_subframes < 1:
        raise ValueError(f"n_subframes must be >= 1, got {n_subframes}")
    if t_c < 1:
        raise ValueError(f"t_c must be >= 1, got {t_c}")
    sectors = sorted(s for s in sector_flows if sector_flows[s])
    # Flows are numbered by position in flow id order; slots lists each
    # sector's positions in ascending order, padded with -1.
    flows = sorted((f for s in sectors for f in sector_flows[s]), key=lambda f: f.id)
    n_flows = len(flows)
    if n_flows == 0:
        return PfResult({}, {})
    pos_of = {f.id: i for i, f in enumerate(flows)}
    rows = [sorted(pos_of[f.id] for f in sector_flows[s]) for s in sectors]
    width = max(len(r) for r in rows)
    slots = np.array([r + [-1] * (width - len(r)) for r in rows])
    # The grid: slots row by row, so cell c is in sector c // width. A pad's
    # rate is 0; its average starts at 1.0 and it is served 1.0 (idle), so the
    # average stays near 1.0 (+inf would turn NaN at t_c = 1, where keep is
    # 0). So a pad divides to 0, comes after every flow of its row, never wins
    # a tie and never trips the positivity check. cell_of_pos is a scatter,
    # not a sort (see recv_cols).
    grid = slots.ravel()
    n_sectors, n_cells = len(sectors), len(grid)
    real = np.flatnonzero(grid >= 0)
    cell_of_pos = np.empty(n_flows, dtype=np.intp)
    cell_of_pos[grid[real]] = real

    # loss_db[g, r]: loss from flow g's transmitter to receiver r, gathered
    # from the table block that holds the receiver's column. Flow f listens
    # at receiver recv_of[f]. numpy sums a stack of one column pairwise, not
    # in sector order, so a lone receiver's column is gathered twice. The
    # receivers are sorted in Python: numpy's sort routines add about 0.3 MB
    # to the resident set of a process that has not called them yet.
    recv_cols = sorted({f.col for f in flows})
    recv_at = {c: r for r, c in enumerate(recv_cols)}
    recv_of = np.array([recv_at[f.col] for f in flows])
    if len(recv_cols) == 1:
        recv_cols *= 2
    recv_cols = np.array(recv_cols)
    n_recv = len(recv_cols)
    ue_ue, ue_sector = table.ue_ue_loss_db, table.ue_sector_loss_db
    n_rx = ue_ue.shape[1]
    split = np.count_nonzero(recv_cols < n_rx)
    tx_rows = np.array([f.row for f in flows])[:, None]
    loss_db = np.empty((n_flows, n_recv))
    loss_db[:, :split] = ue_ue[tx_rows, recv_cols[:split]]
    loss_db[:, split:] = ue_sector[tx_rows, recv_cols[split:] - n_rx]
    own_loss = loss_db[np.arange(n_flows), recv_of]
    nf = {"d2d": rc.noise_figure_ue_db, "cellular": rc.noise_figure_enb_db}
    noise_dbm = np.array([thermal_noise_dbm(rc.bandwidth_hz, nf[f.role]) for f in flows])
    p_dbm = open_loop_tx_power(replace(pc, noise_dbm=noise_dbm), own_loss)
    p_lin = 10.0 ** (p_dbm / 10.0)
    noise_lin = 10.0 ** (noise_dbm / 10.0)
    signal_lin = p_lin * 10.0 ** (-own_loss / 10.0)
    # The float steps of p_lin[:, None] * 10.0 ** (-loss_db / 10.0), in place.
    coupling_lin = np.divide(np.negative(loss_db, out=loss_db), 10.0, out=loss_db)
    np.multiply(p_lin[:, None], np.power(10.0, coupling_lin, out=coupling_lin), out=coupling_lin)
    # libm log10 here, numpy's SIMD log10 in the loop: at t=0 both see the
    # same SNRs, and their last-bit differences decide near-tied first grants.
    # Keeping both keeps published outputs byte-stable.
    snr_db = 10.0 * np.array([math.log10(r) for r in (signal_lin / noise_lin).tolist()])
    idle = np.ones(n_cells)
    idle[cell_of_pos] = 0.0
    avg = np.ones(n_cells)
    avg[cell_of_pos] = np.maximum(_shannon_rate_bps(snr_db, rc.bandwidth_hz, rc, snr_db), 1.0)

    # inst is each cell's rate at the current interference snapshot. It drives
    # the next grants, and it is also the served rate of every flow granted in
    # that snapshot: a granted flow's interference from the other grants is
    # exactly its snapshot entry. So a set's served vector is its inst at the
    # granted cells, idle elsewhere, and served_tc is served / t_c as
    # pf_update divides. own_at indexes a set's granted rows
    # [sector of f, recv_of[f]]. Grants use the previous subframe's
    # interference snapshot (noise-only at t=0); service uses the grants
    # concurrent at t.
    own_at = cell_of_pos // width * n_recv + recv_of
    args = (coupling_lin, recv_of, own_at, signal_lin, noise_lin, rc)
    flow_rates = _rates_from_interference(np.zeros(n_flows), signal_lin, noise_lin, rc)
    inst = np.zeros(n_cells)
    inst[cell_of_pos] = flow_rates
    n_sets = math.prod(map(len, rows))
    prefilled = n_sets <= n_subframes
    chunk = _block_rows(n_flows)
    if prefilled:
        every_set, stride = _grant_sets(rows)
        strides = stride.tolist()
        set_cells = cell_of_pos.take(every_set)
        # Memo row i holds the i-th set's rates and served / t_c on the grid.
        # Each row block of sets is computed in flow order, then scattered.
        memo_rates = np.zeros((n_sets, n_cells))
        block = _block_rows(n_sectors * n_flows)
        blk_rates = np.empty((min(block, n_sets), n_flows))
        for b in range(0, n_sets, block):
            sets = every_set[b : b + block]
            blk_work = _rate_work(sets.shape[:1], n_sectors, n_recv, n_flows)
            blk = _snapshot_rates(sets, *args, blk_rates[: len(sets)], blk_work)
            memo_rates[b : b + len(sets), cell_of_pos] = blk
        set_served = memo_rates.take(set_cells + np.arange(n_sets)[:, None] * n_cells)
        memo_served_tc = np.tile(idle, (n_sets, 1))
        np.put_along_axis(memo_served_tc, set_cells, set_served, axis=1)
        np.divide(memo_served_tc, t_c, out=memo_served_tc)
        memo_rates.flags.writeable = memo_served_tc.flags.writeable = False
        # Set i's two row views, made once: a subframe indexes a list.
        memo_rows = list(zip(memo_rates, memo_served_tc))
    else:
        work = _rate_work((), n_sectors, n_recv, n_flows)
        served_tc = np.empty(n_cells)
        cell_log = np.empty((chunk, n_sectors), dtype=np.intp)
        served_log = np.empty((chunk, n_sectors))

    ratio = np.empty(n_cells)
    ratio_rows = ratio.reshape(n_sectors, width)
    best = np.empty(n_sectors, dtype=np.intp)
    row_start = np.arange(n_sectors) * width
    # Averages start >= 1.0, and each subframe multiplies them by keep and
    # adds a served rate >= 0. Both float steps are monotone, so at subframe t
    # every average is at least its floor, 1.0 times keep t times. pf_select's
    # positivity check can fail only once that floor is 0.
    keep = 1.0 - 1.0 / t_c
    floor = 1.0
    bits = np.zeros(n_cells)
    grant_count = np.zeros(n_cells, dtype=np.intp)
    # Bound once, outputs by position; a 0-d keep multiplies faster, same bits.
    divide, multiply, add, argmax, ranks = np.divide, np.multiply, np.add, ratio_rows.argmax, best.tolist
    keep_0d = np.array(keep)
    for t0 in range(0, n_subframes, chunk):
        # floors[j] is the floor at subframe t0 + j.
        floors = np.full(min(chunk, n_subframes - t0), keep)
        floors[0] = floor
        np.multiply.accumulate(floors, out=floors)
        checked_from = np.count_nonzero(floors)
        floor = floors[-1] * keep
        entries = []
        for j in range(len(floors)):
            if j >= checked_from and avg[avg.argmin()] <= 0:
                raise ValueError("PF average rates must be positive")
            divide(inst, avg, ratio)
            argmax(1, best)
            if prefilled:
                entries.append(i := sum(map(operator.mul, ranks(), strides)))
                inst, served_tc = memo_rows[i]
            else:
                cells = np.add(row_start, best, out=cell_log[j])
                _snapshot_rates(grid[cells], *args, flow_rates, work)
                inst.put(cell_of_pos, flow_rates)
                np.copyto(served_tc, idle)
                # mode="wrap" on valid indices: the default mode buffers out.
                served_tc.put(cells, inst.take(cells, out=served_log[j], mode="wrap"))
                np.divide(served_tc, t_c, out=served_tc)
            multiply(avg, keep_0d, avg)
            add(avg, served_tc, avg)
        if prefilled:
            granted, served = set_cells[entries], set_served[entries]
        else:
            granted, served = cell_log[: len(floors)], served_log[: len(floors)]
        np.add.at(bits, granted, served * SUBFRAME_S)
        grant_count += np.bincount(granted.ravel(), minlength=n_cells)

    ids = [f.id for f in flows]
    duration_s = n_subframes * SUBFRAME_S
    return PfResult(
        throughput_bps=dict(zip(ids, (bits[cell_of_pos] / duration_s).tolist())),
        granted_subframes=dict(zip(ids, grant_count[cell_of_pos].tolist())),
    )
