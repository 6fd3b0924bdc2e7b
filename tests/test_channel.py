import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from d2dsim import channel as channel_module
from d2dsim import layout as layout_module
from d2dsim.channel import (
    ChannelConfig,
    breakpoint_distance_m,
    build_coupling_table,
    draw_shadowing,
    los_probability,
    sector_antenna_gain,
    sector_endpoint,
    ue_endpoint,
    ue_enb_pathloss,
    ue_ue_pathloss,
)
from d2dsim.layout import (
    MIN_UE_UE_DISTANCE_M,
    SECTOR_BORESIGHTS_DEG,
    DropCounters,
    Terminals,
    build_hex_grid,
    drop_cellular_ues,
    drop_d2d_pairs,
    pairwise_wrap_distance,
)


CFG = ChannelConfig()


def wrap_vector(frm, to, layout):
    """Displacement from ``frm`` to the nearest wrap image of ``to`` (both
    (x, y) pairs): a scalar oracle for the wrapped geometry behind the uplink
    entries."""
    best = None
    for tx, ty in layout.offset_xy.tolist():
        dx = to[0] + tx - frm[0]
        dy = to[1] + ty - frm[1]
        d2 = dx * dx + dy * dy
        if best is None or d2 < best[0]:
            best = (d2, dx, dy)
    return best[1], best[2]


class TestLosProbability:
    def test_short_range_is_certain(self):
        assert los_probability(10.0) == 1.0
        assert los_probability(0.0) == 1.0
        assert los_probability(18.0) == 1.0

    def test_value_at_36m(self):
        expected = 0.5 * (1.0 - math.exp(-1.0)) + math.exp(-1.0)
        assert los_probability(36.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.684, abs=5e-4)

    def test_monotone_decay_beyond_18m(self):
        d = np.linspace(18.0, 5000.0, 400)
        p = los_probability(d)
        assert np.all(np.diff(p) <= 1e-15)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert los_probability(1e5) < 1e-3

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            los_probability(-1.0)


class TestUeUePathloss:
    def test_doubling_distance_increases_loss(self):
        for los in (True, False):
            d = np.linspace(10.0, 1000.0, 50)
            assert np.all(ue_ue_pathloss(2 * d, los, CFG) > ue_ue_pathloss(d, los, CFG))

    def test_offset_is_additive_above_floor(self):
        no_off = ChannelConfig(d2d_offset_db=0.0)
        assert ue_ue_pathloss(100.0, False, CFG) == pytest.approx(
            ue_ue_pathloss(100.0, False, no_off) - 10.0, abs=1e-12
        )

    def test_los_far_branch_hand_value(self):
        # 100 m is beyond the breakpoint (~6.67 m at 2 GHz, 1.5 m antennas).
        cfg = ChannelConfig(carrier_ghz=2.0, d2d_offset_db=0.0)
        assert breakpoint_distance_m(cfg) == pytest.approx(4 * 0.25 * 2e9 / 3e8)
        expected = (
            40.0 * math.log10(100.0)
            + 7.56
            - 17.3 * math.log10(0.5)
            - 17.3 * math.log10(0.5)
            + 2.7 * math.log10(2.0)
        )
        assert ue_ue_pathloss(100.0, True, cfg) == pytest.approx(expected, abs=1e-6)

    def test_los_near_branch_hand_value(self):
        cfg = ChannelConfig(carrier_ghz=2.0, d2d_offset_db=0.0)
        expected = 22.7 * math.log10(5.0) + 27.0 + 20.0 * math.log10(2.0)
        assert ue_ue_pathloss(5.0, True, cfg) == pytest.approx(expected, abs=1e-6)

    def test_nlos_hand_value(self):
        cfg = ChannelConfig(carrier_ghz=2.0, d2d_offset_db=0.0)
        expected = (
            (44.9 - 6.55 * math.log10(1.5)) * math.log10(200.0)
            + 5.83 * math.log10(1.5)
            + 14.78
            + 34.97 * math.log10(2.0)
        )
        assert ue_ue_pathloss(200.0, False, cfg) == pytest.approx(expected, abs=1e-6)

    def test_floor_applies_after_offset(self):
        cfg = ChannelConfig(d2d_offset_db=-200.0)
        assert ue_ue_pathloss(100.0, False, cfg) == cfg.min_pl_db

    def test_rejects_below_min_distance(self):
        with pytest.raises(ValueError):
            ue_ue_pathloss(2.9, False, CFG)


class TestUeEnbPathloss:
    def test_reference_kilometer(self):
        assert ue_enb_pathloss(1000.0) == pytest.approx(128.1, abs=1e-12)

    def test_half_kilometer_hand_value(self):
        assert ue_enb_pathloss(500.0) == pytest.approx(
            128.1 + 37.6 * math.log10(0.5), abs=1e-9
        )

    def test_monotone_and_floored(self):
        d = np.linspace(10.0, 20000.0, 200)
        pl = ue_enb_pathloss(d)
        assert np.all(np.diff(pl) >= 0)
        assert ue_enb_pathloss(0.001) == 30.0
        with pytest.raises(ValueError):
            ue_enb_pathloss(0.0)


class TestSectorAntennaGain:
    def test_reference_angles(self):
        assert sector_antenna_gain(0.0) == 14.0
        assert sector_antenna_gain(70.0) == pytest.approx(2.0, abs=1e-12)
        assert sector_antenna_gain(180.0) == pytest.approx(-11.0, abs=1e-12)

    def test_even_and_bounded(self):
        a = np.linspace(-180.0, 180.0, 361)
        g = sector_antenna_gain(a)
        assert np.allclose(g, g[::-1])
        assert g.max() == 14.0
        assert g.min() == -11.0

    def test_angle_normalization(self):
        assert sector_antenna_gain(350.0) == pytest.approx(sector_antenna_gain(-10.0))
        assert sector_antenna_gain(540.0) == pytest.approx(sector_antenna_gain(180.0))


class TestShadowing:
    def test_zero_std_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        assert draw_shadowing(0.0, rng) == 0.0
        assert np.all(draw_shadowing(0.0, rng, size=100) == 0.0)

    def test_moments(self):
        rng = np.random.default_rng(1)
        x = draw_shadowing(7.0, rng, size=1_000_000)
        assert -0.05 < x.mean() < 0.05
        assert 6.95 < x.std() < 7.05

    def test_links_are_uncorrelated(self):
        rng = np.random.default_rng(2)
        x = draw_shadowing(7.0, rng, size=1_000_000)
        y = draw_shadowing(7.0, rng, size=1_000_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            draw_shadowing(-1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("std", [7.0, 0.0])
    def test_out_fills_the_normal_draws_in_place(self, std):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        buf = np.empty((570, 570))
        tracemalloc.start()
        try:
            assert draw_shadowing(std, rng, out=buf) is buf
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buf.nbytes // 100  # numpy reports its buffers to tracemalloc
        want = ref.normal(0.0, std, size=buf.shape)
        assert np.array_equal(buf.view(np.uint8), want.view(np.uint8))
        assert rng.bit_generator.state == ref.bit_generator.state


def _drop_with_table(seed=0, shadow=True, n_cell=2, n_d2d=2):
    lay = build_hex_grid(1000.0, 1, True)
    cfg = ChannelConfig() if shadow else ChannelConfig(
        shadow_std_ueue_db=0.0, shadow_std_enbue_db=0.0
    )
    rng = np.random.default_rng(seed)
    terminals = _terminals(drop_cellular_ues(lay, n_cell, rng),
                           drop_d2d_pairs(lay, n_d2d, 250.0, 3.0, rng))
    table = build_coupling_table(lay, terminals, cfg, rng)
    return lay, cfg, terminals, table


def _terminals(cell, pairs):
    """The drop's record from the samplers' (xy, sector) arrays, cellular
    terminals first."""
    return Terminals(np.concatenate((cell[0], pairs[0])), np.concatenate((cell[1], pairs[1])),
                     len(cell[1]))


def _first_pair(terminals):
    """Ids of pair 0's transmitter and receiver."""
    return terminals.n_cell, terminals.n_cell + 1


class TestCouplingTable:
    def test_lookup_recomposes_from_recorded_draws(self):
        from d2dsim.layout import pairwise_wrap_distance, MIN_UE_UE_DISTANCE_M

        lay, cfg, terminals, table = _drop_with_table(seed=3)
        tx, rx = _first_pair(terminals)
        tx_ep, rx_ep = ue_endpoint(tx), ue_endpoint(rx)
        row, col = table.tx_ids.index(tx), table.rx_ue_ids.index(rx)
        d, _ = pairwise_wrap_distance(terminals.xy[[tx]], terminals.xy[[rx]], lay)
        d_eff = max(float(d[0, 0]), MIN_UE_UE_DISTANCE_M)
        expected = max(
            ue_ue_pathloss(d_eff, table.ue_ue_los[row, col], cfg)
            + table.ue_ue_shadow_db[row, col],
            cfg.min_pl_db,
        )
        assert table.loss_db(tx_ep, rx_ep) == pytest.approx(expected, rel=1e-12)

    def test_uplink_entry_recomposes(self):
        lay, cfg, terminals, table = _drop_with_table(seed=4)
        tx, _ = _first_pair(terminals)
        sector = 4
        tx_ep, s_ep = ue_endpoint(tx), sector_endpoint(sector)
        # sector i is face i % 3 of site i // 3
        site = lay.site_xy[sector // 3].tolist()
        dx, dy = wrap_vector(site, terminals.xy[tx].tolist(), lay)
        d = math.hypot(dx, dy)
        angle = math.degrees(math.atan2(dy, dx)) - SECTOR_BORESIGHTS_DEG[sector % 3]
        expected = max(
            ue_enb_pathloss(d, cfg.min_pl_db)
            + table.ue_sector_shadow_db[table.tx_ids.index(tx), sector],
            cfg.min_pl_db,
        ) - sector_antenna_gain(angle)
        assert table.loss_db(tx_ep, s_ep) == pytest.approx(expected, rel=1e-12)

    def test_downlink_entry_has_no_shadowing(self):
        lay, cfg, terminals, table = _drop_with_table(seed=5, shadow=False)
        tx, _ = _first_pair(terminals)
        # with all shadowing disabled, downlink equals the reversed uplink
        up = table.loss_db(ue_endpoint(tx), sector_endpoint(2))
        down = table.loss_db(sector_endpoint(2), ue_endpoint(tx))
        assert up == pytest.approx(down, rel=1e-12)

    def test_boresight_kilometer_coupling(self):
        lay = build_hex_grid(4000.0, 0, False)
        cfg = ChannelConfig(shadow_std_ueue_db=0.0, shadow_std_enbue_db=0.0)
        # sector 0 boresight is 30 degrees; put the terminal 1 km out on it
        pos = [1000.0 * math.cos(math.radians(30.0)), 1000.0 * math.sin(math.radians(30.0))]
        ue = Terminals(np.array([pos]), np.array([0]), 1)
        table = build_coupling_table(lay, ue, cfg, np.random.default_rng(0))
        assert table.loss_db(ue_endpoint(0), sector_endpoint(0)) == pytest.approx(
            128.1 - 14.0, abs=1e-9
        )

    def test_reverse_terminal_direction_is_not_present(self):
        # LOS/shadowing are per ordered link; the reverse of a pair is not
        # even populated, so no reciprocity is implied.
        _, _, terminals, table = _drop_with_table(seed=6)
        tx, rx = _first_pair(terminals)
        with pytest.raises(KeyError):
            table.loss_db(ue_endpoint(rx), ue_endpoint(tx))

    def test_missing_entry_raises(self):
        lay, _, terminals, table = _drop_with_table(seed=7)
        tx, rx = map(ue_endpoint, _first_pair(terminals))
        with pytest.raises(KeyError):
            table.loss_db(ue_endpoint(9999), rx)
        with pytest.raises(KeyError):
            table.loss_db(tx, sector_endpoint(999))
        # Negative numpy indices would wrap to the last sector.
        for sector in (-1, lay.n_sectors):
            with pytest.raises(KeyError):
                table.loss_db(tx, sector_endpoint(sector))
            with pytest.raises(KeyError):
                table.loss_db(sector_endpoint(sector), tx)
        # Downlink columns are the terminal ids, so these must not wrap either.
        for ue in (-1, len(terminals.sector)):
            with pytest.raises(KeyError):
                table.loss_db(sector_endpoint(0), ue_endpoint(ue))
        with pytest.raises(KeyError):
            table.loss_db(sector_endpoint(0), sector_endpoint(1))

    def test_deterministic_given_stream(self):
        *_, t1 = _drop_with_table(seed=8)
        *_, t2 = _drop_with_table(seed=8)
        assert np.array_equal(t1.ue_ue_loss_db, t2.ue_ue_loss_db)
        assert np.array_equal(t1.ue_sector_loss_db, t2.ue_sector_loss_db)
        assert np.array_equal(t1.sector_ue_loss_db, t2.sector_ue_loss_db)
        assert np.array_equal(t1.ue_ue_los, t2.ue_ue_los)

    def test_entries_respect_floor_minus_gain(self):
        _, cfg, _, table = _drop_with_table(seed=9)
        assert table.ue_ue_loss_db.min() >= cfg.min_pl_db
        assert table.ue_sector_loss_db.min() >= cfg.min_pl_db - 14.0


# The full-matrix coupling-table body before the row blocks: every terminal
# pair in one pass and the terminal-to-sector search over sector columns.
# Draw order: LOS uniforms, terminal-pair shadowing, terminal-to-base shadowing.
# Transmitters and receivers are picked by id (see Terminals) with a loop.
def _coupling_table_oracle(layout, terminals, cfg, rng, counters):
    n_cell, n = terminals.n_cell, len(terminals.sector)
    tx_sel = [i for i in range(n) if i < n_cell or (i - n_cell) % 2 == 0]
    rx_sel = [i for i in range(n) if i >= n_cell and (i - n_cell) % 2 == 1]
    all_xy = np.array(terminals.xy.tolist(), dtype=float).reshape(-1, 2)
    tx_xy, rx_xy = all_xy[tx_sel].reshape(-1, 2), all_xy[rx_sel].reshape(-1, 2)
    n_tx, n_rx = len(tx_sel), len(rx_sel)
    n_sec = layout.n_sectors

    d_uu, _ = pairwise_wrap_distance(tx_xy, rx_xy, layout, counters=counters)
    counters.clamped_distances += int(np.count_nonzero(d_uu < MIN_UE_UE_DISTANCE_M))
    d_uu = np.maximum(d_uu, MIN_UE_UE_DISTANCE_M)
    los = rng.random((n_tx, n_rx)) < los_probability(d_uu)
    shadow_uu = draw_shadowing(cfg.shadow_std_ueue_db, rng, size=(n_tx, n_rx))
    pl_uu = ue_ue_pathloss(d_uu, los, cfg)
    loss_uu = np.maximum(pl_uu + shadow_uu, cfg.min_pl_db)
    counters.floor_entries += int(np.count_nonzero(loss_uu == cfg.min_pl_db))

    # The fallback count is taken per site, the resolution of the search.
    pairwise_wrap_distance(all_xy, layout.site_xy, layout, counters=counters)
    sector_site_xy = np.repeat(layout.site_xy, 3, axis=0)
    d_all_s, off_idx = pairwise_wrap_distance(all_xy, sector_site_xy, layout)
    offs = layout.offset_xy[off_idx]
    rel_x = all_xy[:, 0:1] - offs[..., 0] - sector_site_xy[None, :, 0]
    rel_y = all_xy[:, 1:2] - offs[..., 1] - sector_site_xy[None, :, 1]
    arrival_deg = np.degrees(np.arctan2(rel_y, rel_x))
    gain = sector_antenna_gain(arrival_deg - layout.sector_boresight_deg[None, :])
    pl_all_s = ue_enb_pathloss(np.maximum(d_all_s, 1e-6), cfg.min_pl_db)

    shadow_us = draw_shadowing(cfg.shadow_std_enbue_db, rng, size=(n_tx, n_sec))
    loss_us = np.maximum(pl_all_s[tx_sel] + shadow_us, cfg.min_pl_db) - gain[tx_sel]
    return {
        "tx_ids": tuple(tx_sel),
        "rx_ue_ids": tuple(rx_sel),
        "ue_ue_loss_db": loss_uu,
        "ue_ue_shadow_db": shadow_uu,
        "ue_ue_los": los,
        "ue_sector_loss_db": loss_us,
        "ue_sector_shadow_db": shadow_us,
        "sector_ue_loss_db": (pl_all_s - gain).T,
    }


def _random_drop(isd, n_rings, wrap, n_cell, n_d2d, d2d_range):
    def make(rng):
        lay = build_hex_grid(isd, n_rings, wrap)
        return lay, _terminals(drop_cellular_ues(lay, n_cell, rng),
                               drop_d2d_pairs(lay, n_d2d, d2d_range, 3.0, rng))
    return make


def _lattice_drop(rng):
    # Cellular terminals on the sites and pairs from a site to the midpoint
    # of that site and a wrap image of another: exact wrap ties, which only
    # the exact fallback settles.
    lay = build_hex_grid(500.0, 2, True)
    sites, offs = lay.site_xy, lay.offset_xy
    xy, sector = list(sites), [3 * i for i in range(lay.n_sites)]
    rx_points = [(sites[s] + sites[(5 * s + 3) % lay.n_sites] + offs[1 + s % 6]) / 2
                 for s in range(lay.n_sites)]
    # Two more receivers of site 0: one at the 3 m minimum, one inside it.
    rx_points += [np.array([3.0, 0.0]), np.array([0.0, 1.0])]
    for s, rx in enumerate(rx_points):
        s %= lay.n_sites
        xy += [sites[s], rx]
        sector += [3 * s, 3 * s]
    return lay, Terminals(np.array(xy), np.array(sector), lay.n_sites)


_TABLE_CASES = {
    "wide_area": (_random_drop(1732.0, 2, True, 0, 10, 250.0), CFG),
    "dense_discovery": (_random_drop(500.0, 2, True, 50, 10, 50.0), CFG),
    "single_site": (_random_drop(500.0, 0, False, 4, 6, 250.0), CFG),
    "wide_area_cellular": (_random_drop(1732.0, 2, True, 2, 5, 250.0), CFG),
    "lattice_ties": (_lattice_drop, CFG),
}


@pytest.mark.parametrize(
    "case, block",
    [(case, "default") for case in _TABLE_CASES]
    + [(case, block) for case in ("wide_area", "lattice_ties") for block in ("one_row", "all_rows")],
)
def test_row_blocks_equal_the_full_matrix_oracle(case, block, monkeypatch):
    if block != "default":
        size = 1 if block == "one_row" else 10**9
        monkeypatch.setattr(channel_module, "_PAIR_BLOCK", size)
        monkeypatch.setattr(layout_module, "_WRAP_BLOCK", size)
    make, cfg = _TABLE_CASES[case]
    lay, terminals = make(np.random.default_rng(11))
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    counters, ref_counters = DropCounters(), DropCounters()
    table = build_coupling_table(lay, terminals, cfg, rng, counters=counters)
    want = _coupling_table_oracle(lay, terminals, cfg, ref, ref_counters)
    for name in ("tx_ids", "rx_ue_ids"):
        assert getattr(table, name) == want.pop(name), name
    for name, value in want.items():
        got = getattr(table, name)
        assert got.dtype == value.dtype and got.shape == value.shape, name
        bits = [np.ascontiguousarray(x).view(np.uint8) for x in (got, value)]
        assert np.array_equal(*bits), name
    assert counters == ref_counters
    assert rng.bit_generator.state == ref.bit_generator.state
    if case == "lattice_ties":
        assert counters.wrap_near_ties > 0


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, np.ascontiguousarray(x).view(np.uint8).tobytes()


@pytest.mark.parametrize("case", ["wide_area", "dense_discovery", "single_site", "lattice_ties"])
def test_stripes_change_no_bit(case, monkeypatch):
    if case in ("single_site", "lattice_ties"):
        # Small drops: blocks of a few rows, so that they split too.
        monkeypatch.setattr(channel_module, "_PAIR_BLOCK", 64)
        monkeypatch.setattr(layout_module, "_WRAP_BLOCK", 64)
    make, cfg = _TABLE_CASES[case]
    lay, terminals = make(np.random.default_rng(11))
    tx_sel = terminals.tx_ids
    tx_xy, rx_xy = terminals.xy[tx_sel], terminals.xy[tx_sel[terminals.n_cell:] + 1]
    runs = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(layout_module, "_THREADS", threads)
        wrap_counters, counters = DropCounters(), DropCounters()
        dist, image = pairwise_wrap_distance(tx_xy, rx_xy, lay, counters=wrap_counters)
        rng = np.random.default_rng(12)
        table = build_coupling_table(lay, terminals, cfg, rng, counters=counters)
        run = {"wrap_distance": _bits(dist), "wrap_image": _bits(image),
               "wrap_counters": wrap_counters, "counters": counters,
               "rng_state": rng.bit_generator.state,
               "ue_ue_gain_lin": _bits(table.ue_ue_gain_lin)}
        for f in dataclasses.fields(table):
            value = getattr(table, f.name)
            run[f.name] = _bits(value) if isinstance(value, np.ndarray) else value
        runs.append(run)
    for run in runs[1:]:
        for name, value in runs[0].items():
            assert run[name] == value, name
    # The gain keeps the bits of the whole-matrix expression.
    assert _bits(table.ue_ue_gain_lin) == _bits(10.0 ** (-table.ue_ue_loss_db / 10.0))
    # Three threads split the table into three stripes.
    assert len(layout_module._stripes(len(tx_sel), channel_module._block_rows(len(rx_xy)))) == 3
    if case == "lattice_ties":
        assert runs[0]["wrap_counters"].wrap_near_ties > 0
