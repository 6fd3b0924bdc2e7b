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
    tx, ty = layout.offset_xy[int(k[0, site_idx])].tolist()
    site_x, site_y = layout.site_xy[site_idx].tolist()
    dx = p[0] - tx - site_x
    dy = p[1] - ty - site_y
    ang = math.degrees(math.atan2(dy, dx))
    return 3 * site_idx + _face_of_angle(ang)


# The per-draw samplers the block reader replaced: one rng.uniform call per
# draw, with positions as Python floats. The drop functions' positions and
# sectors must equal theirs, and so must the generator state after each drop
# function.


def _sample_point_oracle(layout, sector_index, rng):
    site_x, site_y = layout.site_xy[sector_index // 3].tolist()
    face = sector_index % 3
    radius = hex_circumradius(layout.isd)
    while True:
        dx = rng.uniform(-radius, radius)
        dy = rng.uniform(-radius, radius)
        if not _in_hexagon(dx, dy, layout.isd):
            continue
        if _face_of_angle(math.degrees(math.atan2(dy, dx))) == face:
            return (site_x + dx, site_y + dy)


def _drop_cellular_oracle(layout, n_per_sector, rng):
    """Positions and home sectors as lists, in drop order."""
    xy, sectors = [], []
    for s in range(layout.n_sectors):
        for _ in range(n_per_sector):
            xy.append(list(_sample_point_oracle(layout, s, rng)))
            sectors.append(s)
    return xy, sectors


def _drop_d2d_pairs_oracle(layout, n_tx_per_sector, d2d_range, min_dist, rng):
    """Positions and home sectors as lists: each pair's transmitter, then
    its receiver."""
    xy, sectors = [], []
    for s in range(layout.n_sectors):
        for _ in range(n_tx_per_sector):
            tx_x, tx_y = _sample_point_oracle(layout, s, rng)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            while True:
                r = d2d_range * math.sqrt(rng.uniform(0.0, 1.0))
                if r >= min_dist:
                    break
            rx_pos = (tx_x + r * math.cos(theta), tx_y + r * math.sin(theta))
            xy += [[tx_x, tx_y], list(rx_pos)]
            sectors += [s, _sector_of_point_oracle(rx_pos, layout)]
    return xy, sectors


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
    site_x, site_y = layout.site_xy[sector_index // 3].tolist()
    dx, dy = p[0] - site_x, p[1] - site_y
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
    assert np.repeat(lay.site_xy, 3, axis=0).tolist() == [[0.0, 0.0]] * 3


def test_sector_i_is_face_i_mod_3_of_site_i_div_3():
    lay = build_hex_grid(500.0, 2, wraparound=True)
    sector_site_xy = np.repeat(lay.site_xy, 3, axis=0)
    for i in range(lay.n_sectors):
        assert sector_site_xy[i].tolist() == lay.site_xy[i // 3].tolist()
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
    assert build_hex_grid(500, 2, True).offset_xy.shape == (7, 2)
    assert build_hex_grid(500, 2, False).offset_xy.shape == (1, 2)
    assert build_hex_grid(500, 0, True).offset_xy.shape == (1, 2)
    assert build_hex_grid(500, 2, True).offset_xy[0].tolist() == [0.0, 0.0]


def test_layout_arrays_are_read_only():
    lay = build_hex_grid(500, 2, True)
    for arr in (lay.site_xy, lay.offset_xy):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_wrap_offsets_close_under_negation():
    lay = build_hex_grid(500, 2, True)
    offs = {(round(x, 6), round(y, 6)) for x, y in lay.offset_xy.tolist()}
    for x, y in offs:
        assert (round(-x, 6), round(-y, 6)) in offs


def test_wrap_distance_identity_and_no_wrap():
    lay = build_hex_grid(500, 1, False)
    p = (123.0, -45.0)
    assert wrap_distance(p, p, lay) == 0.0
    q = (-10.0, 80.0)
    assert wrap_distance(p, q, lay) == pytest.approx(math.hypot(133.0, -125.0))


def test_wrap_distance_matches_brute_force_over_offsets():
    lay = build_hex_grid(1732.0, 2, True)
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.uniform(-6000, 6000, 2).tolist()
        b = rng.uniform(-6000, 6000, 2).tolist()
        oracle = min(
            math.hypot(a[0] - (b[0] + tx), a[1] - (b[1] + ty)) for tx, ty in lay.offset_xy.tolist()
        )
        assert wrap_distance(a, b, lay) == pytest.approx(oracle, rel=1e-12)


def test_wrap_distance_properties():
    lay = build_hex_grid(1732.0, 2, True)
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = rng.uniform(-5000, 5000, 2).tolist()
        b = rng.uniform(-5000, 5000, 2).tolist()
        d = wrap_distance(a, b, lay)
        assert d >= 0.0
        assert d == pytest.approx(wrap_distance(b, a, lay), rel=1e-12)
        assert d <= math.hypot(a[0] - b[0], a[1] - b[1]) + 1e-9


def test_drop_cellular_counts_and_membership():
    lay = build_hex_grid(1732.0, 2, True)
    rng = np.random.default_rng(5)
    xy, sector = drop_cellular_ues(lay, 0, rng)
    assert xy.shape == (0, 2) and sector.shape == (0,)
    xy, sector = drop_cellular_ues(lay, 10, rng)
    assert xy.shape == (570, 2) and xy.dtype == np.float64
    # Sector by sector, 10 each.
    assert sector.tolist() == np.repeat(np.arange(lay.n_sectors), 10).tolist()
    for p, s in zip(xy.tolist(), sector.tolist()):
        assert point_in_sector_region(p, s, lay)


def _sector_polygon_centroid(lay, sector_index):
    # The sector region is the kite (site, vertex(b-60), vertex(b), vertex(b+60));
    # shoelace centroid as an independent oracle.
    site_x, site_y = lay.site_xy[sector_index // 3].tolist()
    boresight = SECTOR_BORESIGHTS_DEG[sector_index % 3]
    radius = hex_circumradius(lay.isd)
    angles = [boresight - 60, boresight, boresight + 60]
    pts = [(site_x, site_y)] + [
        (site_x + radius * math.cos(math.radians(a)),
         site_y + radius * math.sin(math.radians(a)))
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
    xy, sector = drop_cellular_ues(lay, 100_000, rng)
    xs, ys = xy[sector == 1].T
    cx, cy = _sector_polygon_centroid(lay, 1)
    radius = hex_circumradius(500.0)
    assert abs(xs.mean() - cx) < 0.01 * radius
    assert abs(ys.mean() - cy) < 0.01 * radius


def test_d2d_pair_distances_and_linkage():
    lay = build_hex_grid(500.0, 1, True)
    rng = np.random.default_rng(7)
    xy, sector = drop_d2d_pairs(lay, 5, 250.0, 3.0, rng)
    n = 5 * lay.n_sectors
    assert xy.shape == (2 * n, 2) and sector.shape == (2 * n,)
    # Rows 2j and 2j + 1 are pair j's transmitter and receiver; the
    # transmitters are dropped sector by sector, 5 each.
    assert sector[0::2].tolist() == np.repeat(np.arange(lay.n_sectors), 5).tolist()
    for tx, rx, tx_sector, rx_sector in zip(
        xy[0::2].tolist(), xy[1::2].tolist(), sector[0::2].tolist(), sector[1::2].tolist()
    ):
        d = math.hypot(tx[0] - rx[0], tx[1] - rx[1])
        assert 3.0 <= d <= 250.0
        assert point_in_sector_region(tx, tx_sector, lay)
        assert rx_sector == _sector_of_point_oracle(rx, lay)


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
    xy = np.concatenate([drop_d2d_pairs(lay, 170, 250.0, 25.0, rng)[0] for _ in range(200)])
    r2 = ((xy[0::2] - xy[1::2]) ** 2).sum(axis=1) / 250.0**2
    lo = (25.0 / 250.0) ** 2
    rescaled = (r2 - lo) / (1.0 - lo)
    assert len(rescaled) >= 100_000
    assert stats.kstest(rescaled, "uniform").pvalue > 0.01


def test_drops_are_deterministic_per_stream():
    lay = build_hex_grid(1732.0, 1, True)
    xy_a, sector_a = drop_cellular_ues(lay, 4, np.random.default_rng(11))
    xy_b, sector_b = drop_cellular_ues(lay, 4, np.random.default_rng(11))
    assert xy_a.tolist() == xy_b.tolist() and sector_a.tolist() == sector_b.tolist()
    xy_a, sector_a = drop_d2d_pairs(lay, 4, 250.0, 3.0, np.random.default_rng(12))
    xy_b, sector_b = drop_d2d_pairs(lay, 4, 250.0, 3.0, np.random.default_rng(12))
    assert xy_a.tolist() == xy_b.tolist() and sector_a.tolist() == sector_b.tolist()


def test_sector_of_point_agrees_with_membership():
    lay = build_hex_grid(500.0, 2, True)
    rng = np.random.default_rng(13)
    xy, sector = drop_cellular_ues(lay, 3, rng)
    for p, s in zip(xy.tolist(), sector.tolist()):
        assert sector_of_point(p, lay) == s


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

    xy, sector = drop_cellular_ues(lay, n_cell, rng, counters=counters)
    assert (xy.tolist(), sector.tolist()) == _drop_cellular_oracle(lay, n_cell, ref)
    assert _same_state(rng.bit_generator.state, ref.rng.bit_generator.state)
    assert counters.rejection_draws == ref.calls

    xy, sector = drop_d2d_pairs(lay, n_pairs, d2d_range, 3.0, rng, counters=counters)
    assert (xy.tolist(), sector.tolist()) == _drop_d2d_pairs_oracle(
        lay, n_pairs, d2d_range, 3.0, ref
    )
    assert _same_state(rng.bit_generator.state, ref.rng.bit_generator.state)
    assert counters.rejection_draws == ref.calls
    assert counters.foreign_receivers == sum(
        tx != rx for tx, rx in zip(sector[0::2].tolist(), sector[1::2].tolist())
    )
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
    for a, b in ((sites, sites), (sites, np.repeat(sites, 3, axis=0)), (mids, sites), (mids, mids)):
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
    assert got.tolist() == [_sector_of_point_oracle(p, lay) for p in xy.tolist()]
    assert [sector_of_point(p, lay) for p in xy.tolist()] == got.tolist()


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
    site_x, site_y = lay.site_xy[site].tolist()
    p = (site_x + dx, site_y + dy)
    (sector,) = sectors_of_points([p], lay).tolist()
    assert sector // 3 == site
    assert point_in_sector_region(p, sector, lay)


def test_sectors_of_points_accepts_no_points():
    lay = build_hex_grid(500.0, 1, True)
    assert sectors_of_points([], lay).shape == (0,)
