import math

import numpy as np
import pytest

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
from d2dsim.layout import Point, Role, UeRecord, build_hex_grid, drop_cellular_ues, drop_d2d_pairs


CFG = ChannelConfig()


def wrap_vector(frm, to, layout):
    """Displacement from ``frm`` to the nearest wrap image of ``to``: a scalar
    oracle for the wrapped geometry behind the uplink entries."""
    best = None
    for t in layout.wrap_offsets:
        dx = to.x + t.x - frm.x
        dy = to.y + t.y - frm.y
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


def _drop_with_table(seed=0, shadow=True, n_cell=2, n_d2d=2):
    lay = build_hex_grid(1000.0, 1, True)
    cfg = ChannelConfig() if shadow else ChannelConfig(
        shadow_std_ueue_db=0.0, shadow_std_enbue_db=0.0
    )
    rng = np.random.default_rng(seed)
    cell = drop_cellular_ues(lay, n_cell, rng)
    pairs = drop_d2d_pairs(lay, n_d2d, 250.0, 3.0, rng, start_id=len(cell))
    ues = cell + [u for p in pairs for u in p]
    table = build_coupling_table(lay, ues, cfg, rng)
    return lay, cfg, ues, pairs, table


class TestCouplingTable:
    def test_lookup_recomposes_from_recorded_draws(self):
        from d2dsim.layout import pairwise_wrap_distance, MIN_UE_UE_DISTANCE_M

        lay, cfg, ues, pairs, table = _drop_with_table(seed=3)
        tx, rx = pairs[0]
        tx_ep, rx_ep = ue_endpoint(tx.id), ue_endpoint(rx.id)
        d, _ = pairwise_wrap_distance([tx.position], [rx.position], lay)
        d_eff = max(float(d[0, 0]), MIN_UE_UE_DISTANCE_M)
        expected = max(
            ue_ue_pathloss(d_eff, table.is_los(tx_ep, rx_ep), cfg)
            + table.shadow_db(tx_ep, rx_ep),
            cfg.min_pl_db,
        )
        assert table.loss_db(tx_ep, rx_ep) == pytest.approx(expected, rel=1e-12)

    def test_uplink_entry_recomposes(self):
        lay, cfg, ues, pairs, table = _drop_with_table(seed=4)
        tx = pairs[0][0]
        sector = 4
        tx_ep, s_ep = ue_endpoint(tx.id), sector_endpoint(sector)
        site = lay.sites[lay.sectors[sector].site_index]
        dx, dy = wrap_vector(site, tx.position, lay)
        d = math.hypot(dx, dy)
        angle = math.degrees(math.atan2(dy, dx)) - lay.sectors[sector].boresight_deg
        expected = max(
            ue_enb_pathloss(d, cfg.min_pl_db) + table.shadow_db(tx_ep, s_ep),
            cfg.min_pl_db,
        ) - sector_antenna_gain(angle)
        assert table.loss_db(tx_ep, s_ep) == pytest.approx(expected, rel=1e-12)

    def test_downlink_entry_has_no_shadowing(self):
        lay, cfg, ues, pairs, table = _drop_with_table(seed=5, shadow=False)
        tx = pairs[0][0]
        # with all shadowing disabled, downlink equals the reversed uplink
        up = table.loss_db(ue_endpoint(tx.id), sector_endpoint(2))
        down = table.loss_db(sector_endpoint(2), ue_endpoint(tx.id))
        assert up == pytest.approx(down, rel=1e-12)

    def test_boresight_kilometer_coupling(self):
        lay = build_hex_grid(4000.0, 0, False)
        cfg = ChannelConfig(shadow_std_ueue_db=0.0, shadow_std_enbue_db=0.0)
        # sector 0 boresight is 30 degrees; put the terminal 1 km out on it
        pos = Point(1000.0 * math.cos(math.radians(30.0)), 1000.0 * math.sin(math.radians(30.0)))
        ue = UeRecord(0, pos, Role.CELLULAR_TX, 0)
        table = build_coupling_table(lay, [ue], cfg, np.random.default_rng(0))
        assert table.loss_db(ue_endpoint(0), sector_endpoint(0)) == pytest.approx(
            128.1 - 14.0, abs=1e-9
        )

    def test_reverse_terminal_direction_is_not_present(self):
        # LOS/shadowing are per ordered link; the reverse of a pair is not
        # even populated, so no reciprocity is implied.
        _, _, _, pairs, table = _drop_with_table(seed=6)
        tx, rx = pairs[0]
        with pytest.raises(KeyError):
            table.loss_db(ue_endpoint(rx.id), ue_endpoint(tx.id))

    def test_missing_entry_raises(self):
        _, _, _, pairs, table = _drop_with_table(seed=7)
        with pytest.raises(KeyError):
            table.loss_db(ue_endpoint(9999), ue_endpoint(pairs[0][1].id))
        with pytest.raises(KeyError):
            table.loss_db(ue_endpoint(pairs[0][0].id), sector_endpoint(999))
        with pytest.raises(KeyError):
            table.loss_matrix_db([(sector_endpoint(0), ue_endpoint(pairs[0][0].id))])

    def test_deterministic_given_stream(self):
        _, _, _, _, t1 = _drop_with_table(seed=8)
        _, _, _, _, t2 = _drop_with_table(seed=8)
        assert np.array_equal(t1.ue_ue_loss_db, t2.ue_ue_loss_db)
        assert np.array_equal(t1.ue_sector_loss_db, t2.ue_sector_loss_db)
        assert np.array_equal(t1.sector_ue_loss_db, t2.sector_ue_loss_db)
        assert np.array_equal(t1.ue_ue_los, t2.ue_ue_los)

    def test_entries_respect_floor_minus_gain(self):
        _, cfg, _, _, table = _drop_with_table(seed=9)
        assert table.ue_ue_loss_db.min() >= cfg.min_pl_db
        assert table.ue_sector_loss_db.min() >= cfg.min_pl_db - 14.0

    def test_always_nlos_mode(self):
        lay = build_hex_grid(1000.0, 0, False)
        cfg = ChannelConfig(ue_ue_los="nlos")
        rng = np.random.default_rng(10)
        pairs = drop_d2d_pairs(lay, 5, 250.0, 3.0, rng)
        ues = [u for p in pairs for u in p]
        table = build_coupling_table(lay, ues, cfg, rng)
        assert not table.ue_ue_los.any()
