"""Hexagonal multi-site geometry, wraparound distances, and terminal drops.

Sites sit on a hexagonal lattice with nearest-neighbor spacing equal to the
inter-site distance (ISD). Every site carries three 120-degree sectors whose
boresights point at 30, 150 and 270 degrees from the +x axis; those are also
vertex directions of the site's hexagonal cell, so each sector region is the
kite-shaped third of the hexagon around its boresight.

Wraparound uses the classic 7-image technique: the finite cluster of
``1 + sum(6r)`` sites tiles the plane when translated by the six lattice
vectors ``rot60^k((n_rings+1)*u + n_rings*v)``, so every distance is taken as
the minimum over the identity and those six translations. The search over
the seven images compares squared distances and settles near ties with
``hypot``, so distances and image indices are the floats a per-image
``hypot`` search gives.

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
instead of one per receiver.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

# Spacing floor between a D2D transmitter and its receiver. Keeps the
# propagation models away from their d -> 0 singularities.
MIN_UE_UE_DISTANCE_M = 3.0

SECTOR_BORESIGHTS_DEG = (30.0, 150.0, 270.0)

# Doubles the position sampler draws per rng.random call.
_BLOCK = 8192

_SQRT3_HALF = math.sqrt(3.0) / 2.0


class Point(NamedTuple):
    x: float
    y: float


class Role(Enum):
    CELLULAR_TX = "cellular_tx"
    D2D_TX = "d2d_tx"
    D2D_RX = "d2d_rx"


@dataclass(frozen=True)
class UeRecord:
    id: int
    position: Point
    role: Role
    home_sector: int
    peer: Optional[int] = None


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

    def add(self, other: "DropCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True)
class NetworkLayout:
    """Immutable site/sector geometry. Safe to share across worker threads.
    Sector i is face i % 3 of site i // 3 (boresight SECTOR_BORESIGHTS_DEG[i % 3])."""

    isd: float
    n_rings: int
    sites: tuple[Point, ...]
    wraparound_enabled: bool
    wrap_offsets: tuple[Point, ...]  # identity first

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def n_sectors(self) -> int:
        return 3 * len(self.sites)

    @cached_property
    def site_xy(self) -> np.ndarray:
        return np.array(self.sites, dtype=float).reshape(-1, 2)

    @cached_property
    def offset_xy(self) -> np.ndarray:
        return np.array(self.wrap_offsets, dtype=float).reshape(-1, 2)

    @cached_property
    def sector_site_xy(self) -> np.ndarray:
        return np.repeat(self.site_xy, 3, axis=0)

    @cached_property
    def sector_boresight_deg(self) -> np.ndarray:
        return np.tile(SECTOR_BORESIGHTS_DEG, self.n_sites)


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

    def axial_to_xy(q: int, r: int) -> Point:
        return Point(q * ux + r * vx, q * uy + r * vy)

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

    sites = tuple(axial_to_xy(q, r) for q, r in coords)

    offsets = [Point(0.0, 0.0)]
    if wraparound and n_rings >= 1:
        # (n+1, n) generates a lattice whose unit cell holds exactly the
        # 3n^2 + 3n + 1 cluster sites; its six 60-degree rotations are the
        # mirror translations.
        a, b = n_rings + 1, n_rings
        for _ in range(6):
            offsets.append(axial_to_xy(a, b))
            a, b = -b, a + b

    return NetworkLayout(
        isd=float(isd),
        n_rings=int(n_rings),
        sites=sites,
        wraparound_enabled=bool(wraparound),
        wrap_offsets=tuple(offsets),
    )


def pairwise_wrap_distance(
    a_xy, b_xy, layout: NetworkLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Distance matrix (n, m) of min-over-offsets |a - (b + t)|.

    Also returns the index of the offset attaining the minimum (identity wins
    ties), so callers can recover the geometry of the wrapped link. Both are
    the floats a search over ``hypot(a - (b + t))`` per offset gives: the
    search runs on squared distances, pairs whose two closest images lie within
    rounding of each other are settled by ``hypot`` over all offsets, and one
    ``hypot`` on the winning image gives the distance.
    """
    a = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    offs = layout.offset_xy
    ax, ay = a[:, 0:1], a[:, 1:2]
    best_k = np.zeros((a.shape[0], b.shape[0]), dtype=np.int8)
    second_d2 = np.full(best_k.shape, np.inf)
    # A square overflows only past ~1e154 m; inf then counts as a near tie.
    with np.errstate(over="ignore"):
        best_d2 = None
        for k, (tx, ty) in enumerate(offs):
            dx = ax - (b[:, 0] + tx)
            dy = ay - (b[:, 1] + ty)
            d2 = np.multiply(dx, dx, out=dx)
            d2 += np.multiply(dy, dy, out=dy)
            if best_d2 is None:
                best_d2 = d2
                continue
            closer = d2 < best_d2
            # k grows along the loop, so max(best, k * closer) moves exactly
            # the strictly closer entries to offset k.
            np.maximum(best_k, closer.view(np.int8) * np.int8(k), out=best_k)
            np.minimum(second_d2, np.maximum(best_d2, d2, out=dy), out=second_d2)
            np.minimum(best_d2, d2, out=best_d2)
        # Squares carry a few ulps of rounding (more when subnormal); a wider
        # gap orders the hypot values the same way.
        i, j = np.nonzero(second_d2 <= best_d2 * (1.0 + 1e-12) + 1e-300)
    if i.size:
        # argmin takes the first minimum, so the identity wins exact ties.
        best_k[i, j] = np.argmin(
            np.hypot(
                a[i, 0:1] - (b[j, 0:1] + offs[:, 0]),
                a[i, 1:2] - (b[j, 1:2] + offs[:, 1]),
            ),
            axis=1,
        )
    dx = ax - (b[:, 0] + offs[best_k, 0])
    dy = ay - (b[:, 1] + offs[best_k, 1])
    return np.hypot(dx, dy), best_k


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


def sector_of_point(p: Point, layout: NetworkLayout) -> int:
    """Sector geometrically containing p (see ``sectors_of_points``)."""
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


def _sample_point_in_sector(
    layout: NetworkLayout, sector_index: int, next_double: Callable[[], float]
) -> Point:
    """Rejection-sample a point of the sector's kite from pairs of
    ``uniform(-R, R)`` draws, R the circumradius; ``next_double`` gives the
    generator's next double."""
    site = layout.sites[sector_index // 3]
    face = sector_index % 3
    isd = layout.isd
    radius = hex_circumradius(isd)
    lo, span = -radius, radius - -radius
    while True:
        dx = lo + span * next_double()
        dy = lo + span * next_double()
        if not _in_hexagon(dx, dy, isd):
            continue
        if _face_of_angle(math.degrees(math.atan2(dy, dx))) == face:
            return Point(site.x + dx, site.y + dy)


def drop_cellular_ues(
    layout: NetworkLayout,
    n_per_sector: int,
    rng: np.random.Generator,
    start_id: int = 0,
    *,
    counters: Optional[DropCounters] = None,
) -> list[UeRecord]:
    """Drop exactly n_per_sector uplink transmitters uniformly in each sector.

    ``counters``, when given, gets the sampler's draws added to it."""
    if n_per_sector < 0:
        raise ValueError(f"n_per_sector must be >= 0, got {n_per_sector}")
    ues = []
    uid = start_id
    with _BlockDoubles(rng) as doubles:
        for s in range(layout.n_sectors):
            for _ in range(n_per_sector):
                pos = _sample_point_in_sector(layout, s, doubles.next_double)
                ues.append(UeRecord(uid, pos, Role.CELLULAR_TX, s))
                uid += 1
    if counters is not None:
        counters.rejection_draws += doubles.used
    return ues


def drop_d2d_pairs(
    layout: NetworkLayout,
    n_tx_per_sector: int,
    d2d_range: float,
    min_dist: float,
    rng: np.random.Generator,
    start_id: int = 0,
    *,
    counters: Optional[DropCounters] = None,
) -> list[tuple[UeRecord, UeRecord]]:
    """Drop transmitter/receiver pairs.

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
    txs, rx_points = [], []
    uid = start_id
    with _BlockDoubles(rng) as doubles:
        next_double = doubles.next_double
        for s in range(layout.n_sectors):
            for _ in range(n_tx_per_sector):
                tx_pos = _sample_point_in_sector(layout, s, next_double)
                # Exactly uniform(0, 2pi) and uniform(0, 1): adding 0.0 and
                # multiplying by 1.0 change no double.
                theta = 2.0 * math.pi * next_double()
                while True:
                    r = d2d_range * math.sqrt(next_double())
                    if r >= min_dist:
                        break
                rx_points.append(
                    Point(tx_pos.x + r * math.cos(theta), tx_pos.y + r * math.sin(theta))
                )
                txs.append(UeRecord(uid, tx_pos, Role.D2D_TX, s, peer=uid + 1))
                uid += 2
    rx_sectors = sectors_of_points(rx_points, layout).tolist()
    if counters is not None:
        counters.rejection_draws += doubles.used
        counters.foreign_receivers += sum(
            tx.home_sector != sector for tx, sector in zip(txs, rx_sectors)
        )
    return [
        (tx, UeRecord(tx.id + 1, pos, Role.D2D_RX, sector, peer=tx.id))
        for tx, pos, sector in zip(txs, rx_points, rx_sectors)
    ]
