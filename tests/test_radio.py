import math

import numpy as np
import pytest

from d2dsim.channel import ChannelConfig, build_coupling_table, sector_endpoint, ue_endpoint
from d2dsim.layout import Terminals, build_hex_grid, drop_cellular_ues
from d2dsim.radio import (
    Coverage,
    PowerControlConfig,
    RadioConfig,
    classify_coverage,
    compute_sinr,
    open_loop_tx_power,
    rate_from_sinr,
    thermal_noise_dbm,
)

RC = RadioConfig()


class FakeTable:
    """Duck-typed coupling table mapping (tx, rx) endpoint pairs to dB loss."""

    def __init__(self, losses):
        self.losses = dict(losses)

    def loss_db(self, tx, rx):
        return self.losses[(tx, rx)]


class TestOpenLoopPower:
    def test_below_cap(self):
        pc = PowerControlConfig(snr_target_db=10.0, noise_dbm=-104.5, alpha=1.0)
        assert open_loop_tx_power(pc, 100.0) == pytest.approx(5.5, abs=1e-12)

    def test_cap_binds(self):
        pc = PowerControlConfig(snr_target_db=10.0, noise_dbm=-104.5, alpha=1.0)
        assert open_loop_tx_power(pc, 200.0) == 23.0

    def test_fractional_compensation(self):
        pc = PowerControlConfig(snr_target_db=0.0, noise_dbm=-104.5, alpha=0.8)
        assert open_loop_tx_power(pc, 100.0) == pytest.approx(-24.5, abs=1e-12)

    def test_disabled_means_max_power(self):
        pc = PowerControlConfig(snr_target_db=0.0, noise_dbm=None, alpha=0.0, enabled=False)
        assert open_loop_tx_power(pc, 170.0) == 23.0

    def test_property_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pc = PowerControlConfig(
                snr_target_db=float(rng.uniform(-10, 25)),
                noise_dbm=float(rng.uniform(-110, -90)),
                alpha=float(rng.uniform(0, 1)),
            )
            pls = np.sort(rng.uniform(30, 180, 8))
            p = open_loop_tx_power(pc, pls)
            assert np.all(p <= pc.p_max_dbm)
            assert np.all(np.diff(p) >= 0)  # non-decreasing in pathloss

    def test_full_compensation_attains_target(self):
        pc = PowerControlConfig(snr_target_db=7.0, noise_dbm=-95.0, alpha=1.0)
        pl = 90.0
        p = open_loop_tx_power(pc, pl)
        assert p < pc.p_max_dbm
        delivered_snr = p - pl - pc.noise_dbm
        assert delivered_snr == pytest.approx(7.0, abs=1e-9)

    def test_requires_noise_when_enabled(self):
        pc = PowerControlConfig(snr_target_db=0.0, noise_dbm=None, alpha=1.0)
        with pytest.raises(ValueError):
            open_loop_tx_power(pc, 100.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            PowerControlConfig(snr_target_db=0.0, noise_dbm=-95.0, alpha=1.5)


class TestComputeSinr:
    def test_signal_equals_noise(self):
        rx, tx = ue_endpoint(0), ue_endpoint(1)
        table = FakeTable({(tx, rx): 100.0})
        sinr = compute_sinr(rx, tx, {tx}, {tx: 5.0}, table, noise_dbm=-95.0)
        assert sinr == pytest.approx(0.0, abs=1e-12)

    def test_equal_interferer_gives_minus_3db(self):
        rx, tx, jam = ue_endpoint(0), ue_endpoint(1), ue_endpoint(2)
        table = FakeTable({(tx, rx): 100.0, (jam, rx): 100.0})
        sinr = compute_sinr(rx, tx, {tx, jam}, {tx: 5.0, jam: 5.0}, table, -95.0)
        assert sinr == pytest.approx(10.0 * math.log10(0.5), abs=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        rx = ue_endpoint(0)
        for _ in range(1000):
            n_tx = int(rng.integers(1, 6))
            txs = [ue_endpoint(i + 1) for i in range(n_tx)]
            powers = {t: float(rng.uniform(-30, 23)) for t in txs}
            losses = {(t, rx): float(rng.uniform(40, 140)) for t in txs}
            noise = float(rng.uniform(-105, -90))
            serving = txs[int(rng.integers(n_tx))]
            got = compute_sinr(rx, serving, set(txs), powers, FakeTable(losses), noise)
            sig = 10 ** ((powers[serving] - losses[(serving, rx)]) / 10)
            denom = 10 ** (noise / 10) + sum(
                10 ** ((powers[t] - losses[(t, rx)]) / 10) for t in txs if t != serving
            )
            oracle = 10 * math.log10(sig / denom)
            assert got == pytest.approx(oracle, rel=1e-9)

    def test_stronger_interferer_strictly_lowers_sinr(self):
        rx, tx, jam = ue_endpoint(0), ue_endpoint(1), ue_endpoint(2)
        table = FakeTable({(tx, rx): 100.0, (jam, rx): 110.0})
        lo = compute_sinr(rx, tx, {tx, jam}, {tx: 5.0, jam: 0.0}, table, -95.0)
        hi = compute_sinr(rx, tx, {tx, jam}, {tx: 5.0, jam: 10.0}, table, -95.0)
        assert hi < lo

    def test_serving_must_be_active(self):
        rx, tx = ue_endpoint(0), ue_endpoint(1)
        table = FakeTable({(tx, rx): 100.0})
        with pytest.raises(ValueError):
            compute_sinr(rx, tx, set(), {tx: 5.0}, table, -95.0)

    def test_missing_coupling_is_hard_error(self):
        rx, tx, jam = ue_endpoint(0), ue_endpoint(1), ue_endpoint(2)
        table = FakeTable({(tx, rx): 100.0})
        with pytest.raises(KeyError):
            compute_sinr(rx, tx, {tx, jam}, {tx: 5.0, jam: 5.0}, table, -95.0)


class TestRateFromSinr:
    def test_cap(self):
        assert rate_from_sinr(1000.0, 10e6, RC) == pytest.approx(44e6)

    def test_zero_db(self):
        assert rate_from_sinr(0.0, 10e6, RC) == pytest.approx(6e6, rel=1e-12)

    def test_minus_6db_hand_value(self):
        expected = 0.6 * math.log2(1.0 + 10 ** (-0.6)) * 1e7
        assert rate_from_sinr(-6.0, 10e6, RC) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.94e6, rel=1e-2)

    def test_monotone_linear_bounded(self):
        s = np.linspace(-30, 60, 200)
        r = rate_from_sinr(s, 10e6, RC)
        assert np.all(np.diff(r) >= 0)
        assert np.all(r <= 4.4 * 10e6 + 1e-6)
        assert rate_from_sinr(10.0, 5e6, RC) == pytest.approx(
            0.5 * rate_from_sinr(10.0, 10e6, RC)
        )
        assert rate_from_sinr(10.0, 0.0, RC) == 0.0


def _coverage_table(sinr_db, n_sectors=1, enb_power=46.0):
    """Single-terminal downlink table tuned so the no-interference SINR from
    sector 0 is exactly sinr_db."""
    noise = thermal_noise_dbm(RC.bandwidth_hz, RC.noise_figure_ue_db)
    rx = ue_endpoint(0)
    losses = {(sector_endpoint(0), rx): enb_power - noise - sinr_db}
    for s in range(1, n_sectors):
        losses[(sector_endpoint(s), rx)] = 300.0  # negligible interference
    return FakeTable(losses)


class _TinyLayout:
    def __init__(self, n_sectors):
        self.n_sectors = n_sectors


class TestClassifyCoverage:
    def test_strictly_less_than_threshold(self):
        lay = _TinyLayout(1)
        assert classify_coverage(0, lay, _coverage_table(-6.0), 46.0, RC) is Coverage.IN_COVERAGE
        assert classify_coverage(0, lay, _coverage_table(-6.01), 46.0, RC) is Coverage.OUT_OF_COVERAGE

    def test_single_sector_strong_signal(self):
        assert classify_coverage(0, _TinyLayout(1), _coverage_table(40.0), 46.0, RC) is Coverage.IN_COVERAGE

    def test_power_scan_is_monotone(self):
        # raising base power uniformly never flips in -> out
        lay = build_hex_grid(1732.0, 1, True)
        cfg = ChannelConfig()
        rng = np.random.default_rng(2)
        xy, sector = drop_cellular_ues(lay, 1, rng)
        table = build_coupling_table(lay, Terminals(xy, sector, len(sector)), cfg, rng)
        for ue_id in range(5):
            was_in = False
            for p in np.arange(-20.0, 60.0, 5.0):
                state = classify_coverage(ue_id, lay, table, float(p), RC)
                if was_in:
                    assert state is Coverage.IN_COVERAGE
                was_in = state is Coverage.IN_COVERAGE

    def test_interference_limited_when_sectors_compete(self):
        # with many equal sectors the SINR saturates below the single-sector SNR
        noise = thermal_noise_dbm(RC.bandwidth_hz, RC.noise_figure_ue_db)
        rx = ue_endpoint(0)
        losses = {(sector_endpoint(s), rx): 120.0 for s in range(3)}
        table = FakeTable(losses)
        # equal couplings: SINR ~ -3 dB regardless of power once I >> N
        assert classify_coverage(0, _TinyLayout(3), table, 46.0, RC) is Coverage.IN_COVERAGE
        losses2 = {(sector_endpoint(s), rx): 120.0 for s in range(5)}
        assert (
            classify_coverage(0, _TinyLayout(5), FakeTable(losses2), 46.0, RC)
            is Coverage.OUT_OF_COVERAGE
        )


def test_thermal_noise_reference_values():
    assert thermal_noise_dbm(10e6, 9.0) == pytest.approx(-95.0, abs=1e-9)
    assert thermal_noise_dbm(10e6, 5.0) == pytest.approx(-99.0, abs=1e-9)
