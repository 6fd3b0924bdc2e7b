"""Hexagonal multi-site geometry, wraparound distances, and terminal drops.

Sites sit on a hexagonal lattice with nearest-neighbor spacing equal to the
inter-site distance (ISD). Every site carries three 120-degree sectors whose
boresights point at 30, 150 and 270 degrees from the +x axis; those are also
vertex directions of the site's hexagonal cell, so each sector region is the
kite-shaped third of the hexagon around its boresight.

Wraparound uses the classic 7-image technique: the finite cluster of
``1 + sum(6r)`` sites tiles the plane when translated by the six lattice
vectors ``rot60^k((n_rings+1)*u + n_rings*v)``, so every distance is taken as
the minimum over the identity and those six translations. Offsets 4-6 are
exactly the negatives of offsets 1-3, which makes the search a matter of
three projections. For ``D = a - b``, image t is closer than the identity
when ``D.t > |t|^2 / 2``, and of t_j and ``t_{j+3} = -t_j`` only the one on
the side of ``D`` can be. So each entry scores ``|D.t_j|`` on the three axes
against ``|t|^2 / 2`` for the identity, and the sign of ``D.t_j`` picks t_j
or t_{j+3}. The scores carry rounding that the per-image distances do not
share, so entries whose two best scores lie within ``_NEAR_TIE_REL`` of the
squared coordinate scale are settled by the per-image ``hypot`` argmin, where
the identity wins exact ties; a gap wider than that orders the ``hypot``
values the same way. The distance is one ``hypot`` on the winning image, so
distances and image indices are the floats a per-image ``hypot`` search
gives.

Terminal positions come from a rejection sampler whose order of draws defines
the random stream: each candidate takes two ``uniform(-R, R)`` draws, and a
D2D pair then takes its angle and its radius draws. The sampler reads those
doubles from blocks of ``rng.random`` and maps each with ``lo + (hi - lo) * u``,
the formula ``Generator.uniform`` applies, so it returns the values per-draw
``uniform`` calls return without paying a numpy call per draw. When a drop
function ends, the generator is put back to where per-draw calls would leave
it. The home sectors of D2D receivers draw no random numbers, so
``drop_d2d_pairs`` looks them up for all receivers at once after the sampling
loop (``sectors_of_points``): one receivers x sites distance matrix per drop
instead of one per receiver. The samplers return position and sector arrays.

A drop's array work uses up to one thread per CPU the process may run on.
``_stripes`` cuts a row-blocked kernel into contiguous row stripes, one per
thread, and ``_run_all`` runs independent tasks at once, the first on the
calling thread and the rest on a thread pool that starts on first use. The
wrap search here and the coupling table in ``channel`` run this way. Every
entry takes the same operations in any stripe, and counts are summed in
stripe order, so the outputs do not depend on the number of threads. A
forked child does not inherit the pool; it starts its own.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional, TypeVar

import numpy as np

# Spacing floor between a D2D transmitter and its receiver. Keeps the
# propagation models away from their d -> 0 singularities.
MIN_UE_UE_DISTANCE_M = 3.0

SECTOR_BORESIGHTS_DEG = (30.0, 150.0, 270.0)

# Doubles the position sampler draws per rng.random call.
_BLOCK = 8192

# Entries per row block of the wrap search: its temporaries stay in cache.
_WRAP_BLOCK = 1 << 15

# Near-tie tolerance of the wrap search, relative to the squared coordinate
# scale. The rounding of the projection scores and of the per-image hypot
# values stays about 100 times below it.
_NEAR_TIE_REL = 1e-12

_SQRT3_HALF = math.sqrt(3.0) / 2.0

# Threads a drop's array work is split over: one per CPU this process may
# run on. The outputs do not depend on it.
_THREADS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

_pool = None  # the ThreadPoolExecutor of _run_all, started on first use
_pool_lock = threading.Lock()

_T = TypeVar("_T")


def _forget_pool() -> None:
    # A forked child has none of its parent's threads: it starts its own pool.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _stripes(n_rows: int, block_rows: int, per_thread: int = 1) -> list[tuple[int, int]]:
    """Contiguous row ranges ``[lo, hi)`` that cover ``range(n_rows)``:
    ``per_thread`` per thread, but no more than there are blocks of
    ``block_rows`` rows, so a one-block job stays on the calling thread."""
    k = max(1, min(_THREADS * per_thread, -(-n_rows // block_rows)))
    bounds = [n_rows * i // k for i in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_all(tasks: list[Callable[[], _T]], *, pool: bool = True) -> list[_T]:
    """Run the zero-argument tasks at once: the first on the calling thread,
    the others on the pool's ``_THREADS - 1`` threads. The calling thread
    then runs, in order, each task no pool thread has started, so no more
    threads run than there are CPUs. Returns the results in task order once
    every task has ended. With one thread, or with ``pool`` false for work
    too small to share, the tasks run in turn on the calling thread.

    Only the first task may call a drop, table, wrap-search, scheduling or
    CLI function: a profiler may wrap those with code that is not
    thread-safe. The others run internal kernels, which may use the pure
    pathloss and LOS formulas. They write their results with ``out=`` into
    arrays the calling thread allocated (glibc keeps what a thread frees in
    that thread's own arena, which raises peak memory), and set any
    ``np.errstate`` they need themselves: pool threads start with numpy's
    default.
    """
    global _pool
    if not pool or len(tasks) == 1 or _THREADS < 2:
        return [task() for task in tasks]
    with _pool_lock:
        if _pool is None:
            # Imported here, as it takes milliseconds that a process which
            # never splits a job would pay at start-up.
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_THREADS - 1, thread_name_prefix="d2dsim")
        futures = [_pool.submit(task) for task in tasks[1:]]
    results = [None] * len(tasks)
    try:
        results[0] = tasks[0]()
        for i, future in enumerate(futures, 1):
            if future.cancel():  # no pool thread has started it
                results[i] = tasks[i]()
    finally:
        for future in futures:
            if not future.cancel():  # after a failure, what has not started never will
                future.exception()  # waits: the tasks write into the caller's arrays
    for i, future in enumerate(futures, 1):
        if not future.cancelled():
            results[i] = future.result()
    return results


@dataclass
class DropCounters:
    """Deterministic event counts of one drop, or summed over drops.

    The drop functions add to the object passed as ``counters``. The counts
    depend only on (config, seed, drop index), never on timing.
    """

    rejection_draws: int = 0  # uniform doubles the position and peer samplers used
    clamped_distances: int = 0  # terminal-pair distances raised to MIN_UE_UE_DISTANCE_M
    floor_entries: int = 0  # terminal-pair entries at the min_pl_db floor
    foreign_receivers: int = 0  # D2D receivers homed outside their transmitter's sector
    wrap_near_ties: int = 0  # coupling-table wrap-search entries settled by the exact fallback

    def add(self, other: "DropCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """Immutable site/sector geometry (read-only arrays), safe to share across threads.
    Sector i is face i % 3 of site i // 3 (boresight SECTOR_BORESIGHTS_DEG[i % 3])."""

    isd: float
    n_rings: int
    site_xy: np.ndarray  # (n_sites, 2)
    offset_xy: np.ndarray  # (7, 2) with wraparound, else (1, 2); identity first

    @property
    def n_sites(self) -> int:
        return self.site_xy.shape[0]

    @property
    def n_sectors(self) -> int:
        return 3 * self.n_sites

    @cached_property
    def sector_boresight_deg(self) -> np.ndarray:
        return np.tile(SECTOR_BORESIGHTS_DEG, self.n_sites)


@dataclass(frozen=True, eq=False)
class Terminals:
    """The terminals of one drop, by id: terminal i sits at ``xy[i]`` with
    home sector ``sector[i]``. The ``n_cell`` cellular terminals come first,
    then each D2D pair's transmitter and receiver, so pair j's transmitter is
    terminal ``n_cell + 2j`` and its receiver the next one. ``tx_ids`` lists
    the transmitters: the cellular ones, then pair j's at entry n_cell + j."""

    xy: np.ndarray  # (n, 2)
    sector: np.ndarray  # (n,)
    n_cell: int

    def __post_init__(self):
        shape = np.shape(self.xy)
        if len(shape) != 2 or shape[1] != 2:
            raise ValueError(f"Terminals: xy must be (n, 2), got shape {shape}")
        n = shape[0]
        if np.shape(self.sector) != (n,):
            raise ValueError(
                f"Terminals: sector must have {n} entries, got shape {np.shape(self.sector)}"
            )
        if not 0 <= self.n_cell <= n or (n - self.n_cell) % 2:
            raise ValueError(
                f"Terminals: n_cell = {self.n_cell} of {n} terminals leaves no whole number of pairs"
            )

    @property
    def n_pairs(self) -> int:
        return (len(self.sector) - self.n_cell) // 2

    @property
    def tx_ids(self) -> np.ndarray:
        return np.r_[: self.n_cell, self.n_cell : len(self.sector) : 2]


def hex_circumradius(isd: float) -> float:
    """Center-to-vertex radius of a cell when neighboring sites are isd apart."""
    return isd / math.sqrt(3.0)


def build_hex_grid(isd: float, n_rings: int, wraparound: bool) -> NetworkLayout:
    """Build the site lattice, one ring at a time, with 3 sectors per site."""
    if isd <= 0:
        raise ValueError(f"isd must be positive, got {isd}")
    if n_rings < 0:
        raise ValueError(f"n_rings must be >= 0, got {n_rings}")

    ux, uy = isd, 0.0
    vx, vy = isd * 0.5, isd * math.sqrt(3.0) / 2.0

    def axial_to_xy(q: int, r: int) -> tuple[float, float]:
        return q * ux + r * vx, q * uy + r * vy

    # Directions at 0, 60, ..., 300 degrees in axial coordinates.
    dirs = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    coords = [(0, 0)]
    for ring in range(1, n_rings + 1):
        q, r = ring, 0
        for d in range(6):
            dq, dr = dirs[(d + 2) % 6]
            for _ in range(ring):
                coords.append((q, r))
                q, r = q + dq, r + dr

    sites = [axial_to_xy(q, r) for q, r in coords]

    offsets = [(0.0, 0.0)]
    if wraparound and n_rings >= 1:
        # (n+1, n) generates a lattice whose unit cell holds exactly the
        # 3n^2 + 3n + 1 cluster sites; its six 60-degree rotations are the
        # mirror translations.
        a, b = n_rings + 1, n_rings
        for _ in range(6):
            offsets.append(axial_to_xy(a, b))
            a, b = -b, a + b

    site_xy, offset_xy = np.array(sites, dtype=float), np.array(offsets, dtype=float)
    site_xy.flags.writeable = offset_xy.flags.writeable = False
    return NetworkLayout(float(isd), int(n_rings), site_xy, offset_xy)


def pairwise_wrap_distance(
    a_xy, b_xy, layout: NetworkLayout, *, counters: Optional[DropCounters] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distance matrix (n, m) of min-over-offsets |a - (b + t)|.

    Also returns the index of the offset attaining the minimum (identity wins
    ties), so callers can recover the geometry of the wrapped link. Both are
    the floats a search over ``hypot(a - (b + t))`` per offset gives. The
    image is chosen by projection (module docstring). Near ties, whose two
    best scores lie within ``_NEAR_TIE_REL * scale**2 + 1e-300`` (``scale``
    the largest coordinate of a, of b and of the offsets, summed), go to the
    ``hypot`` argmin over all offsets; so does every entry when that bound
    leaves float range. The returned distance is ``hypot(a - (b + t_k))`` on
    the winning offset k. The search runs in row blocks of about
    ``_WRAP_BLOCK`` entries, so its temporaries stay in cache, and splits the
    blocks into row stripes over the drop's threads. ``counters``,
    when given, gets the entries the fallback settled added to its
    ``wrap_near_ties``.
    """
    a = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    offs = layout.offset_xy
    n, m = a.shape[0], b.shape[0]
    dist = np.empty((n, m))
    best_k = np.zeros((n, m), dtype=np.int8)
    if dist.size == 0:
        return dist, best_k
    rows = min(n, max(1, _WRAP_BLOCK // m))
    search = offs.shape[0] > 1  # without wraparound the identity is the only image
    project = False
    if search:
        axes = offs[1:4]
        assert np.array_equal(offs[4:], -axes), "wrap offsets 4-6 must negate 1-3"
        # Python floats: a scale beyond float range gives inf, not a warning,
        # and then every entry goes to the fallback.
        scale = float(np.abs(a).max()) + float(np.abs(b).max()) + float(np.abs(axes).max())
        tol = _NEAR_TIE_REL * (scale * scale) + 1e-300
        project = math.isfinite(tol)
    if project:
        # |t|^2 / 2 of the three axes, equal up to rounding of the rotations.
        half_sq = float(np.max(0.5 * (axes[:, 0] ** 2 + axes[:, 1] ** 2)))
        # Projections of the row and column points on each axis, one per row.
        proj_a = a[:, 0] * axes[:, 0:1] + a[:, 1] * axes[:, 1:2]
        proj_b = b[:, 0] * axes[:, 0:1] + b[:, 1] * axes[:, 1:2]
        axis_code = np.arange(1, 4, dtype=np.int8)[:, None, None]

    def search_rows(lo, hi):
        """Rows lo..hi, one block at a time; returns their near ties."""
        scratch = free.pop()
        t_x, t_y, score, neg, near, code = scratch
        near_ties = 0
        for r0 in range(lo, hi, rows):
            blk = slice(r0, min(r0 + rows, hi))
            k = best_k[blk]
            r = k.shape[0]
            if project:
                s, sn, nr, c = score[:, :r], neg[:, :r], near[:, :r], code[:, :r]
                for ax in range(3):
                    np.subtract.outer(proj_a[ax, blk], proj_b[ax], out=s[ax])
                np.less(s, 0.0, out=sn)
                np.abs(s, out=s)
                # Best score over identity (half_sq) and the three axes, less tol.
                top = np.maximum(s[0], s[1], out=t_x[:r])
                np.maximum(top, s[2], out=top)
                np.maximum(top, half_sq, out=top)
                top -= tol
                np.greater_equal(s, top, out=nr)
                # Outside near ties only the best candidate is within tol of it:
                # axis j wins with offset j + 1, or j + 4 if its projection is < 0.
                np.multiply(sn, np.int8(3), out=c)
                c += axis_code
                c *= nr
                np.sum(c, axis=0, dtype=np.int8, out=k)
                n_near = np.sum(nr, axis=0, dtype=np.int8)
                n_near += top <= half_sq
                i, j = np.nonzero(n_near >= 2)
            elif search:
                i, j = np.indices((r, m)).reshape(2, -1)
            else:
                i = ()
            if len(i):
                # argmin takes the first minimum, so the identity wins exact ties.
                ai = a[r0 + i]
                k[i, j] = np.argmin(
                    np.hypot(
                        ai[:, 0:1] - (b[j, 0:1] + offs[:, 0]),
                        ai[:, 1:2] - (b[j, 1:2] + offs[:, 1]),
                    ),
                    axis=1,
                )
                near_ties += len(i)
            # mode="clip" leaves out= unbuffered; every index is in range.
            dx = np.take(offs[:, 0], k, out=t_x[:r], mode="clip")
            dy = np.take(offs[:, 1], k, out=t_y[:r], mode="clip")
            np.subtract(a[blk, 0:1], np.add(dx, b[:, 0], out=dx), out=dx)
            np.subtract(a[blk, 1:2], np.add(dy, b[:, 1], out=dy), out=dy)
            np.hypot(dx, dy, out=dist[blk])
        free.append(scratch)
        return near_ties

    # Two stripes per thread, so a thread free early takes the last ones; a
    # running stripe borrows one of a scratch set per thread (see _run_all).
    stripes = _stripes(n, rows, per_thread=2)
    shape = (3, rows, m)
    free = [
        (*np.empty((2, rows, m)), np.empty(shape), np.empty(shape, dtype=bool),
         np.empty(shape, dtype=bool), np.empty(shape, dtype=np.int8))
        for _ in range(min(_THREADS, len(stripes)))
    ]
    near_ties = sum(_run_all([functools.partial(search_rows, lo, hi) for lo, hi in stripes]))
    if counters is not None:
        counters.wrap_near_ties += near_ties
    return dist, best_k


def _in_hexagon(dx: float, dy: float, isd: float) -> bool:
    # Cell = intersection of three slabs perpendicular to the neighbor axes
    # at 0/60/120 degrees, each of half-width isd/2.
    half = isd / 2.0
    p1 = 0.5 * dx + _SQRT3_HALF * dy
    p2 = -0.5 * dx + _SQRT3_HALF * dy
    return abs(dx) <= half and abs(p1) <= half and abs(p2) <= half


def _face_of_angle(angle_deg: float) -> int:
    """Which of the three wedges (0 -> 30deg, 1 -> 150deg, 2 -> 270deg)."""
    return int(((angle_deg + 30.0) % 360.0) // 120.0)


def sectors_of_points(xy, layout: NetworkLayout) -> np.ndarray:
    """Sector geometrically containing each point: nearest site under
    wraparound, then the wedge matching the azimuth of the wrapped
    displacement. One distance matrix serves every point; the wedge uses libm
    ``atan2`` per point, the same call the sampler makes."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    d, k = pairwise_wrap_distance(pts, layout.site_xy, layout)
    site_idx = np.argmin(d, axis=1)
    t = layout.offset_xy[k[np.arange(pts.shape[0]), site_idx]]
    site = layout.site_xy[site_idx]
    # A point is compared against the site image site + t, i.e. p - t against site.
    dx = pts[:, 0] - t[:, 0] - site[:, 0]
    dy = pts[:, 1] - t[:, 1] - site[:, 1]
    faces = [
        _face_of_angle(math.degrees(math.atan2(y, x)))
        for x, y in zip(dx.tolist(), dy.tolist())
    ]
    return 3 * site_idx + np.array(faces, dtype=site_idx.dtype)


def sector_of_point(p, layout: NetworkLayout) -> int:
    """Sector geometrically containing the point p = (x, y); see ``sectors_of_points``."""
    return int(sectors_of_points([p], layout)[0])


class _BlockDoubles:
    """The generator's uniform doubles on [0, 1), read one at a time from
    blocks of ``rng.random``.

    ``rng.random(n)`` returns the doubles that n scalar ``rng.uniform`` calls
    would map, so ``lo + (hi - lo) * next_double()``, the formula
    ``Generator.uniform(lo, hi)`` applies, gives the per-draw values without
    paying a numpy call per draw. Use it as a context manager: on exit the
    generator goes back to its state before the last block and consumes the
    doubles read from that block, which leaves it where per-draw calls would,
    for any bit generator. ``used`` counts the doubles read.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._state = None  # bit-generator state before the current block
        self._block = iter(())  # the unread rest of the current block
        self._drawn = 0
        # A C-level call per double; Python runs only once per block.
        self.next_double = itertools.chain.from_iterable(self._blocks()).__next__

    def _blocks(self):
        while True:
            self._state = self._rng.bit_generator.state
            self._block = iter(self._rng.random(_BLOCK).tolist())
            self._drawn += _BLOCK
            yield self._block

    @property
    def used(self) -> int:
        return self._drawn - operator.length_hint(self._block)

    def __enter__(self) -> "_BlockDoubles":
        return self

    def __exit__(self, *exc) -> None:
        if self._state is not None:
            self._rng.bit_generator.state = self._state
            self._rng.random(_BLOCK - operator.length_hint(self._block))


def _sample_in_sector(face: int, isd: float, next_double: Callable[[], float]) -> tuple[float, float]:
    """Rejection-sample a point of face ``face``'s kite from pairs of
    ``uniform(-R, R)`` draws, R the circumradius; ``next_double`` gives the
    generator's next double. Returns the point's offset from its site."""
    radius = hex_circumradius(isd)
    lo, span = -radius, radius - -radius
    while True:
        dx = lo + span * next_double()
        dy = lo + span * next_double()
        if not _in_hexagon(dx, dy, isd):
            continue
        if _face_of_angle(math.degrees(math.atan2(dy, dx))) == face:
            return dx, dy


def drop_cellular_ues(
    layout: NetworkLayout,
    n_per_sector: int,
    rng: np.random.Generator,
    *,
    counters: Optional[DropCounters] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop exactly n_per_sector uplink transmitters uniformly in each sector,
    sector by sector: positions (n, 2) and home sectors (n,). ``counters``,
    when given, gets the sampler's draws added to it."""
    if n_per_sector < 0:
        raise ValueError(f"n_per_sector must be >= 0, got {n_per_sector}")
    sector = np.repeat(np.arange(layout.n_sectors), n_per_sector)
    offsets = []
    with _BlockDoubles(rng) as doubles:
        for s in sector.tolist():
            offsets += _sample_in_sector(s % 3, layout.isd, doubles.next_double)
    if counters is not None:
        counters.rejection_draws += doubles.used
    return layout.site_xy[sector // 3] + np.reshape(offsets, (-1, 2)), sector


def drop_d2d_pairs(
    layout: NetworkLayout,
    n_tx_per_sector: int,
    d2d_range: float,
    min_dist: float,
    rng: np.random.Generator,
    *,
    counters: Optional[DropCounters] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop transmitter/receiver pairs, sector by sector. Returns positions
    (2n, 2) and home sectors (2n,), whose rows 2j and 2j + 1 are pair j's
    transmitter and receiver.

    Transmitters are dropped like cellular terminals. Each receiver sits at
    the transmitter plus a polar offset: angle uniform on [0, 2pi), radius
    ``d2d_range * sqrt(u)`` redrawn until it is at least ``min_dist``, which
    is area-uniform over the annulus. The receiver's home sector is whichever
    sector geometrically contains it, which may differ from the transmitter's;
    it is looked up for all receivers in one batch after the sampling loop.
    ``counters``, when given, gets the draws and the receivers homed in
    another sector than their transmitter added to it.
    """
    if n_tx_per_sector < 0:
        raise ValueError(f"n_tx_per_sector must be >= 0, got {n_tx_per_sector}")
    if not (0.0 < min_dist < d2d_range):
        raise ValueError(
            f"need 0 < min_dist < d2d_range, got min_dist={min_dist}, "
            f"d2d_range={d2d_range}"
        )
    tx_sector = np.repeat(np.arange(layout.n_sectors), n_tx_per_sector)
    tx_offsets, rx_offsets = [], []
    with _BlockDoubles(rng) as doubles:
        next_double = doubles.next_double
        for s in tx_sector.tolist():
            tx_offsets += _sample_in_sector(s % 3, layout.isd, next_double)
            # Exactly uniform(0, 2pi) and uniform(0, 1): adding 0.0 and
            # multiplying by 1.0 change no double.
            theta = 2.0 * math.pi * next_double()
            while True:
                r = d2d_range * math.sqrt(next_double())
                if r >= min_dist:
                    break
            rx_offsets += (r * math.cos(theta), r * math.sin(theta))
    tx_xy = layout.site_xy[tx_sector // 3] + np.reshape(tx_offsets, (-1, 2))
    rx_xy = tx_xy + np.reshape(rx_offsets, (-1, 2))
    rx_sector = sectors_of_points(rx_xy, layout)
    if counters is not None:
        counters.rejection_draws += doubles.used
        counters.foreign_receivers += int(np.count_nonzero(rx_sector != tx_sector))
    return (
        np.stack((tx_xy, rx_xy), axis=1).reshape(-1, 2),
        np.stack((tx_sector, rx_sector), axis=1).ravel(),
    )
