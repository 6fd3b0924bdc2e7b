import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from d2dsim import layout as layout_module
from d2dsim.layout import (
    MIN_UE_UE_DISTANCE_M,
    SECTOR_BORESIGHTS_DEG,
    DropCounters,
    Point,
    Role,
    UeRecord,
    _face_of_angle,
    _in_hexagon,
    build_hex_grid,
    drop_cellular_ues,
    drop_d2d_pairs,
    hex_circumradius,
    pairwise_wrap_distance,
    sector_of_point,
    sectors_of_points,
)


# A geometry call that warns (numpy overflow, invalid value) fails here.
pytestmark = pytest.mark.filterwarnings("error")


def wrap_distance(a, b, layout):
    """Wrapped distance between two points, one entry of the pairwise matrix."""
    d, _ = pairwise_wrap_distance([a], [b], layout)
    return float(d[0, 0])


# Reference oracles: the per-offset hypot search and the one-point sector
# lookup that the array code must reproduce bit for bit, and the sector
# region membership test.


def _wrap_distance_oracle(a_xy, b_xy, layout):
    a = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    offs = layout.offset_xy
    best_d = None
    best_k = None
    for k in range(offs.shape[0]):
        dx = a[:, 0:1] - (b[None, :, 0] + offs[k, 0])
        dy = a[:, 1:2] - (b[None, :, 1] + offs[k, 1])
        d = np.hypot(dx, dy)
        if best_d is None:
            best_d = d
            best_k = np.zeros(d.shape, dtype=np.int8)
        else:
            closer = d < best_d
            best_d = np.where(closer, d, best_d)
            best_k = np.where(closer, np.int8(k), best_k)
    return best_d, best_k


def _sector_of_point_oracle(p, layout):
    d, k = _wrap_distance_oracle([p], layout.site_xy, layout)
    site_idx = int(np.argmin(d[0]))
    t = layout.offset_xy[int(k[0, site_idx])]
    site = layout.sites[site_idx]
    dx = p.x - t[0] - site.x
    dy = p.y - t[1] - site.y
    ang = math.degrees(math.atan2(dy, dx))
    return 3 * site_idx + _face_of_angle(ang)


# The per-draw samplers the block reader replaced: one rng.uniform call per
# draw. Positions and the generator state after each drop function must equal
# theirs.


def _sample_point_oracle(layout, sector_index, rng):
    site = layout.sites[sector_index // 3]
    face = sector_index % 3
    radius = hex_circumradius(layout.isd)
    while True:
        dx = rng.uniform(-radius, radius)
        dy = rng.uniform(-radius, radius)
        if not _in_hexagon(dx, dy, layout.isd):
            continue
        if _face_of_angle(math.degrees(math.atan2(dy, dx))) == face:
            return Point(site.x + dx, site.y + dy)


def _drop_cellular_oracle(layout, n_per_sector, rng, start_id=0):
    ues = []
    for s in range(layout.n_sectors):
        for _ in range(n_per_sector):
            pos = _sample_point_oracle(layout, s, rng)
            ues.append(UeRecord(start_id + len(ues), pos, Role.CELLULAR_TX, s))
    return ues


def _drop_d2d_pairs_oracle(layout, n_tx_per_sector, d2d_range, min_dist, rng, start_id=0):
    pairs = []
    uid = start_id
    for s in range(layout.n_sectors):
        for _ in range(n_tx_per_sector):
            tx_pos = _sample_point_oracle(layout, s, rng)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            while True:
                r = d2d_range * math.sqrt(rng.uniform(0.0, 1.0))
                if r >= min_dist:
                    break
            rx_pos = Point(tx_pos.x + r * math.cos(theta), tx_pos.y + r * math.sin(theta))
            pairs.append((
                UeRecord(uid, tx_pos, Role.D2D_TX, s, peer=uid + 1),
                UeRecord(uid + 1, rx_pos, Role.D2D_RX,
                         _sector_of_point_oracle(rx_pos, layout), peer=uid),
            ))
            uid += 2
    return pairs


class _CountingRng:
    """The calls of the oracle samplers, counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def uniform(self, lo, hi):
        self.calls += 1
        return self.rng.uniform(lo, hi)


def _same_state(a, b):
    # Bit-generator states are dicts that may hold arrays (Philox's counter).
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def point_in_sector_region(p, sector_index, layout):
    site = layout.sites[sector_index // 3]
    dx, dy = p.x - site.x, p.y - site.y
    if not _in_hexagon(dx, dy, layout.isd):
        return False
    ang = math.degrees(math.atan2(dy, dx))
    return _face_of_angle(ang) == sector_index % 3


@pytest.mark.parametrize("n_rings,n_sites", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_site_and_sector_counts(n_rings, n_sites):
    lay = build_hex_grid(500.0, n_rings, wraparound=True)
    assert lay.n_sites == n_sites
    assert lay.n_sectors == 3 * n_sites


def test_single_site_three_sectors():
    lay = build_hex_grid(500.0, 0, wraparound=False)
    assert lay.n_sites == 1
    assert lay.n_sectors == 3
    assert lay.sector_boresight_deg.tolist() == [30.0, 150.0, 270.0]
    assert lay.sector_site_xy.tolist() == [[0.0, 0.0]] * 3


def test_sector_i_is_face_i_mod_3_of_site_i_div_3():
    lay = build_hex_grid(500.0, 2, wraparound=True)
    for i in range(lay.n_sectors):
        assert tuple(lay.sector_site_xy[i]) == lay.sites[i // 3]
        assert lay.sector_boresight_deg[i] == SECTOR_BORESIGHTS_DEG[i % 3]


def test_nearest_neighbor_spacing_is_isd():
    for n_rings in (1, 2):
        lay = build_hex_grid(500.0, n_rings, wraparound=False)
        xy = lay.site_xy
        d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
        d[d == 0] = np.inf
        assert d.min() == pytest.approx(500.0, rel=1e-12)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_hex_grid(0.0, 2, True)
    with pytest.raises(ValueError):
        build_hex_grid(-1.0, 2, True)
    with pytest.raises(ValueError):
        build_hex_grid(500.0, -1, True)


def test_wrap_offsets_population():
    assert len(build_hex_grid(500, 2, True).wrap_offsets) == 7
    assert len(build_hex_grid(500, 2, False).wrap_offsets) == 1
    assert len(build_hex_grid(500, 0, True).wrap_offsets) == 1
    assert build_hex_grid(500, 2, True).wrap_offsets[0] == Point(0.0, 0.0)


def test_wrap_offsets_close_under_negation():
    lay = build_hex_grid(500, 2, True)
    offs = {(round(p.x, 6), round(p.y, 6)) for p in lay.wrap_offsets}
    for x, y in offs:
        assert (round(-x, 6), round(-y, 6)) in offs


def test_wrap_distance_identity_and_no_wrap():
    lay = build_hex_grid(500, 1, False)
    p = Point(123.0, -45.0)
    assert wrap_distance(p, p, lay) == 0.0
    q = Point(-10.0, 80.0)
    assert wrap_distance(p, q, lay) == pytest.approx(math.hypot(133.0, -125.0))


def test_wrap_distance_matches_brute_force_over_offsets():
    lay = build_hex_grid(1732.0, 2, True)
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = Point(*rng.uniform(-6000, 6000, 2))
        b = Point(*rng.uniform(-6000, 6000, 2))
        oracle = min(
            math.hypot(a.x - (b.x + t.x), a.y - (b.y + t.y)) for t in lay.wrap_offsets
        )
        assert wrap_distance(a, b, lay) == pytest.approx(oracle, rel=1e-12)


def test_wrap_distance_properties():
    lay = build_hex_grid(1732.0, 2, True)
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = Point(*rng.uniform(-5000, 5000, 2))
        b = Point(*rng.uniform(-5000, 5000, 2))
        d = wrap_distance(a, b, lay)
        assert d >= 0.0
        assert d == pytest.approx(wrap_distance(b, a, lay), rel=1e-12)
        assert d <= math.hypot(a.x - b.x, a.y - b.y) + 1e-9


def test_drop_cellular_counts_and_membership():
    lay = build_hex_grid(1732.0, 2, True)
    rng = np.random.default_rng(5)
    assert drop_cellular_ues(lay, 0, rng) == []
    ues = drop_cellular_ues(lay, 10, rng)
    assert len(ues) == 570
    per_sector = {}
    for u in ues:
        assert u.role is Role.CELLULAR_TX
        assert point_in_sector_region(u.position, u.home_sector, lay)
        per_sector[u.home_sector] = per_sector.get(u.home_sector, 0) + 1
    assert all(per_sector[s] == 10 for s in range(lay.n_sectors))


def _sector_polygon_centroid(lay, sector_index):
    # The sector region is the kite (site, vertex(b-60), vertex(b), vertex(b+60));
    # shoelace centroid as an independent oracle.
    site = lay.sites[sector_index // 3]
    boresight = SECTOR_BORESIGHTS_DEG[sector_index % 3]
    radius = hex_circumradius(lay.isd)
    angles = [boresight - 60, boresight, boresight + 60]
    pts = [(site.x, site.y)] + [
        (site.x + radius * math.cos(math.radians(a)),
         site.y + radius * math.sin(math.radians(a)))
        for a in angles
    ]
    area2 = 0.0
    cx = cy = 0.0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        cross = x0 * y1 - x1 * y0
        area2 += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    return cx / (3 * area2), cy / (3 * area2)


def test_drop_centroid_matches_polygon_oracle():
    lay = build_hex_grid(500.0, 0, wraparound=False)
    rng = np.random.default_rng(6)
    ues = drop_cellular_ues(lay, 100_000, rng)
    xs = np.array([u.position.x for u in ues if u.home_sector == 1])
    ys = np.array([u.position.y for u in ues if u.home_sector == 1])
    cx, cy = _sector_polygon_centroid(lay, 1)
    radius = hex_circumradius(500.0)
    assert abs(xs.mean() - cx) < 0.01 * radius
    assert abs(ys.mean() - cy) < 0.01 * radius


def test_d2d_pair_distances_and_linkage():
    lay = build_hex_grid(500.0, 1, True)
    rng = np.random.default_rng(7)
    pairs = drop_d2d_pairs(lay, 5, 250.0, 3.0, rng)
    assert len(pairs) == 5 * lay.n_sectors
    for tx, rx in pairs:
        d = math.hypot(tx.position.x - rx.position.x, tx.position.y - rx.position.y)
        assert 3.0 <= d <= 250.0
        assert tx.role is Role.D2D_TX and rx.role is Role.D2D_RX
        assert tx.peer == rx.id and rx.peer == tx.id
        assert point_in_sector_region(tx.position, tx.home_sector, lay)
        assert rx.home_sector == _sector_of_point_oracle(rx.position, lay)


def test_d2d_rejects_bad_min_distance():
    lay = build_hex_grid(500.0, 0, False)
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        drop_d2d_pairs(lay, 1, 250.0, 250.0, rng)
    with pytest.raises(ValueError):
        drop_d2d_pairs(lay, 1, 250.0, 0.0, rng)


def test_d2d_radius_is_area_uniform():
    # (r/range)^2 restricted above (min/range)^2 must be uniform.
    lay = build_hex_grid(500.0, 0, False)
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(200):
        pairs += drop_d2d_pairs(lay, 170, 250.0, 25.0, rng)
    r2 = np.array(
        [
            (tx.position.x - rx.position.x) ** 2 + (tx.position.y - rx.position.y) ** 2
            for tx, rx in pairs
        ]
    ) / 250.0**2
    lo = (25.0 / 250.0) ** 2
    rescaled = (r2 - lo) / (1.0 - lo)
    assert len(rescaled) >= 100_000
    assert stats.kstest(rescaled, "uniform").pvalue > 0.01


def test_drops_are_deterministic_per_stream():
    lay = build_hex_grid(1732.0, 1, True)
    a = drop_cellular_ues(lay, 4, np.random.default_rng(11))
    b = drop_cellular_ues(lay, 4, np.random.default_rng(11))
    assert a == b
    pa = drop_d2d_pairs(lay, 4, 250.0, 3.0, np.random.default_rng(12))
    pb = drop_d2d_pairs(lay, 4, 250.0, 3.0, np.random.default_rng(12))
    assert pa == pb


def test_sector_of_point_agrees_with_membership():
    lay = build_hex_grid(500.0, 2, True)
    rng = np.random.default_rng(13)
    ues = drop_cellular_ues(lay, 3, rng)
    for u in ues:
        assert sector_of_point(u.position, lay) == u.home_sector


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


# (isd, n_rings, cellular per sector, pairs per sector, d2d range, bit
# generator, block size): wide-area and dense-discovery presets, one site, a
# three-double block so refills fall inside candidates, and a counter-based
# bit generator whose state holds a buffer.
_SAMPLER_CASES = {
    "wide_area": (1732.0, 2, 0, 10, 250.0, np.random.default_rng, None),
    "dense_discovery": (500.0, 2, 50, 10, 50.0, np.random.default_rng, None),
    "single_site": (500.0, 0, 4, 6, 250.0, np.random.default_rng, None),
    "block_of_3": (500.0, 1, 3, 4, 250.0, np.random.default_rng, 3),
    "philox": (500.0, 1, 3, 4, 250.0, _philox, None),
}


@pytest.mark.parametrize("case", list(_SAMPLER_CASES))
@pytest.mark.parametrize("seed", [1, 2])
def test_block_sampler_equals_per_draw_oracle(case, seed, monkeypatch):
    isd, n_rings, n_cell, n_pairs, d2d_range, make_rng, block = _SAMPLER_CASES[case]
    if block is not None:
        monkeypatch.setattr(layout_module, "_BLOCK", block)
    lay = build_hex_grid(isd, n_rings, True)
    rng, ref = make_rng(seed), _CountingRng(make_rng(seed))
    counters = DropCounters()

    cell = drop_cellular_ues(lay, n_cell, rng, counters=counters)
    assert cell == _drop_cellular_oracle(lay, n_cell, ref)
    assert _same_state(rng.bit_generator.state, ref.rng.bit_generator.state)
    assert counters.rejection_draws == ref.calls

    pairs = drop_d2d_pairs(lay, n_pairs, d2d_range, 3.0, rng, start_id=len(cell),
                           counters=counters)
    assert pairs == _drop_d2d_pairs_oracle(lay, n_pairs, d2d_range, 3.0, ref,
                                           start_id=len(cell))
    assert _same_state(rng.bit_generator.state, ref.rng.bit_generator.state)
    assert counters.rejection_draws == ref.calls
    assert counters.foreign_receivers == sum(tx.home_sector != rx.home_sector
                                             for tx, rx in pairs)
    assert rng.random(3).tolist() == ref.rng.random(3).tolist()


def test_min_ue_ue_distance_constant():
    assert MIN_UE_UE_DISTANCE_M == 3.0


# Property tests of the array geometry against the oracles above.

_layouts = st.builds(
    build_hex_grid,
    isd=st.sampled_from([1e-3, 1.0, 333.3, 500.0, 1732.0, 1e9]),
    n_rings=st.integers(0, 3),
    wraparound=st.booleans(),
)


def _points(data, lay, max_rows=12):
    # Out to about two cluster widths, so many points are closest to an image.
    span = (2 * lay.n_rings + 2) * lay.isd
    n = data.draw(st.integers(1, max_rows))
    return data.draw(
        hnp.arrays(np.float64, (n, 2), elements=st.floats(-span, span, width=64))
    )


def _assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@given(st.data(), _layouts)
def test_wrap_distance_bit_equals_hypot_oracle(data, lay):
    a, b = _points(data, lay), _points(data, lay)
    d, k = pairwise_wrap_distance(a, b, lay)
    d_ref, k_ref = _wrap_distance_oracle(a, b, lay)
    _assert_bit_equal(d, d_ref)
    _assert_bit_equal(k, k_ref)


@pytest.mark.parametrize("isd", [1.0, 500.0, 1732.0])
@pytest.mark.parametrize("n_rings", [1, 2, 3])
def test_wrap_distance_on_the_site_lattice_keeps_identity_ties(isd, n_rings):
    # Sites and the midpoints between a site and every image of every site:
    # a midpoint is equally far from both ends, so exact ties abound.
    lay = build_hex_grid(isd, n_rings, True)
    sites, offs = lay.site_xy, lay.offset_xy
    mids = (sites[:, None, None] + sites[None, :, None] + offs[None, None]) / 2
    mids = np.unique(mids.reshape(-1, 2), axis=0)
    n_ties = 0
    for a, b in ((sites, sites), (sites, lay.sector_site_xy), (mids, sites), (mids, mids)):
        d, k = pairwise_wrap_distance(a, b, lay)
        d_ref, k_ref = _wrap_distance_oracle(a, b, lay)
        _assert_bit_equal(d, d_ref)
        _assert_bit_equal(k, k_ref)
        per_image = np.stack([
            np.hypot(a[:, 0:1] - (b[:, 0] + t[0]), a[:, 1:2] - (b[:, 1] + t[1]))
            for t in offs
        ])
        identity_tie = (per_image[0] == d) & (per_image[1:] == d).any(axis=0)
        assert np.all(k[identity_tie] == 0)
        n_ties += int(identity_tie.sum())
    assert np.all(np.diag(pairwise_wrap_distance(sites, sites, lay)[0]) == 0.0)
    assert n_ties > 0


def _nudged(xy, max_ulps=4):
    """Copies of each point with x or y moved 1 to max_ulps ulps either way."""
    out = [xy]
    for axis in (0, 1):
        for toward in (-np.inf, np.inf):
            moved = xy.copy()
            for _ in range(max_ulps):
                moved[:, axis] = np.nextafter(moved[:, axis], toward)
                out.append(moved.copy())
    return np.concatenate(out)


@pytest.mark.parametrize("isd", [1e-160, 1e-3, 1.0, 1732.0, 1e9])
@pytest.mark.parametrize("n_rings", [1, 2])
def test_wrap_search_settles_voronoi_boundaries_exactly(isd, n_rings):
    # Points on the bisector of b and each of its six images b + t, from the
    # edge midpoint to the cell vertex, each moved by 1 to 4 ulps: every one
    # is a near tie, which the exact fallback settles as the hypot oracle does.
    # At isd 1e-160 the squares are subnormal.
    lay = build_hex_grid(isd, n_rings, True)
    offs = lay.offset_xy[1:]
    perp = offs[:, ::-1] * [-1.0, 1.0]
    mu = np.array([0.0, 0.1, -0.25, 1.0 / (2.0 * math.sqrt(3.0))])
    for b in (lay.site_xy[0], lay.site_xy[-1], lay.site_xy[1] + [0.3 * isd, -0.1 * isd]):
        a = b + offs[:, None] / 2.0 + mu[None, :, None] * perp[:, None]
        a = _nudged(a.reshape(-1, 2))
        counters = DropCounters()
        d, k = pairwise_wrap_distance(a, b[None], lay, counters=counters)
        d_ref, k_ref = _wrap_distance_oracle(a, b[None], lay)
        _assert_bit_equal(d, d_ref)
        _assert_bit_equal(k, k_ref)
        assert counters.wrap_near_ties == a.shape[0]
        # Far from every boundary the projection alone decides, unless the
        # squares fall below the tolerance's 1e-300 floor.
        centre = DropCounters()
        pairwise_wrap_distance(b[None] + offs / 3.0, b[None], lay, counters=centre)
        assert centre.wrap_near_ties == (6 if isd * isd < 1e-300 else 0)


@pytest.mark.parametrize("block", [1, 7, 10**9])
def test_wrap_search_blocks_equal_the_oracle(block, monkeypatch):
    monkeypatch.setattr(layout_module, "_WRAP_BLOCK", block)
    lay = build_hex_grid(500.0, 2, True)
    rng = np.random.default_rng(5)
    mids = (lay.site_xy[:, None] + lay.site_xy[None, :6]).reshape(-1, 2) / 2
    for a, b in (
        (rng.uniform(-3000.0, 3000.0, (40, 2)), rng.uniform(-3000.0, 3000.0, (30, 2))),
        (mids, lay.site_xy),
    ):
        d, k = pairwise_wrap_distance(a, b, lay)
        d_ref, k_ref = _wrap_distance_oracle(a, b, lay)
        _assert_bit_equal(d, d_ref)
        _assert_bit_equal(k, k_ref)


@given(st.data(), _layouts)
def test_wrap_distance_is_symmetric_and_at_most_plain(data, lay):
    a, b = _points(data, lay), _points(data, lay)
    d_ab, _ = pairwise_wrap_distance(a, b, lay)
    d_ba, _ = pairwise_wrap_distance(b, a, lay)
    np.testing.assert_allclose(d_ab, d_ba.T, rtol=1e-12, atol=1e-12 * lay.isd)
    plain = np.hypot(a[:, 0:1] - b[:, 0], a[:, 1:2] - b[:, 1])
    assert np.all(d_ab <= plain)


@given(st.data(), _layouts)
def test_sectors_of_points_equals_scalar_oracle(data, lay):
    xy = _points(data, lay, max_rows=30)
    got = sectors_of_points(xy, lay)
    assert got.tolist() == [_sector_of_point_oracle(Point(x, y), lay) for x, y in xy.tolist()]
    assert [sector_of_point(Point(x, y), lay) for x, y in xy.tolist()] == got.tolist()


@given(
    _layouts,
    st.data(),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_sectors_of_points_inside_the_cluster_match_the_region(lay, data, u, v):
    site = data.draw(st.integers(0, lay.n_sites - 1))
    radius = hex_circumradius(lay.isd)
    dx, dy = u * radius, v * radius
    # Keep clear of the cell edge, where two cells share the boundary.
    assume(_in_hexagon(dx * 1.001, dy * 1.001, lay.isd))
    p = Point(lay.sites[site].x + dx, lay.sites[site].y + dy)
    (sector,) = sectors_of_points([p], lay).tolist()
    assert sector // 3 == site
    assert point_in_sector_region(p, sector, lay)


def test_sectors_of_points_accepts_no_points():
    lay = build_hex_grid(500.0, 1, True)
    assert sectors_of_points([], lay).shape == (0,)
