import math
from collections.abc import Mapping
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dsim import engine
from d2dsim.channel import ChannelConfig, sector_endpoint, ue_endpoint, ue_ue_pathloss
from d2dsim.engine import (
    ExperimentConfig,
    build_drop,
    discovery_overhead,
    drop_stream_seed,
    expected_sinr_sample_count,
    fraction_above,
    percentile,
    run_sinr_experiment,
    run_throughput_experiment,
    sinr_summary,
    sweep_settings,
    throughput_summary,
)
from d2dsim.layout import (
    MIN_UE_UE_DISTANCE_M,
    DropCounters,
    Role,
    build_hex_grid,
    drop_cellular_ues,
    drop_d2d_pairs,
)
from d2dsim.radio import (
    RadioConfig,
    compute_sinr,
    open_loop_tx_power,
    thermal_noise_dbm,
)
from d2dsim.scheduling import ORTHOGONAL_TDM, UNCOORDINATED, spatial_reuse

from d2dsim.engine import _setting_pc  # engine-internal, exercised on purpose
from test_scheduling import active_slot_indices, cycle_length  # per-mode oracle


SMALL = ExperimentConfig(
    experiment="sinr",
    isd_m=1732.0,
    n_rings=1,
    n_d2d_tx_per_sector=4,
    n_drops=4,
    seed=99,
)


class TestPercentile:
    def test_nearest_rank_examples(self):
        values = list(range(1, 101))
        assert percentile(values, 0.05) == 5
        assert percentile(values, 1.0) == 100
        assert percentile(values, 0.0) == 1

    def test_order_statistics_band(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 1000)
        assert 0.03 <= percentile(x, 0.05) <= 0.08

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            x = rng.normal(size=n)
            p = float(rng.uniform(0, 1))
            naive = sorted(x)[max(1, int(np.ceil(p * n - 1e-12))) - 1]
            assert percentile(x, p) == naive

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestFractionAbove:
    def test_strictness(self):
        assert fraction_above([-6.0, -6.0], -6.0) == 0.0
        assert fraction_above([-7.0, -5.0], -6.0) == 0.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        shuffled = rng.permutation(x)
        naive = sum(1 for v in shuffled if v > 0.3) / 500
        assert fraction_above(x, 0.3) == naive

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            fraction_above([], 0.0)


class TestDiscoveryOverhead:
    def test_headline_reservation(self):
        assert discovery_overhead(50, 5.0) == (0.01, 0.99)

    def test_edges(self):
        assert discovery_overhead(0, 5.0) == (0.0, 1.0)
        assert discovery_overhead(5000, 5.0) == (1.0, 0.0)

    def test_rejects_overfull_period(self):
        with pytest.raises(ValueError):
            discovery_overhead(5001, 5.0)
        with pytest.raises(ValueError):
            discovery_overhead(-1, 5.0)
        with pytest.raises(ValueError):
            discovery_overhead(10, 0.0)


class TestDropStreams:
    def test_insertion_independence(self):
        seeds = [drop_stream_seed(123, i) for i in range(10)]
        assert len(set(seeds)) == 10
        assert [drop_stream_seed(123, i) for i in range(3)] == seeds[:3]

    def test_reports_share_prefix_when_drops_added(self):
        short = run_sinr_experiment(SMALL)
        longer = run_sinr_experiment(
            ExperimentConfig(**{**SMALL.__dict__, "n_drops": 6})
        )
        mask = longer.samples["drop"] < 4
        assert np.array_equal(longer.samples[mask], short.samples)


class TestSinrExperiment:
    def test_deterministic(self):
        a = run_sinr_experiment(SMALL)
        b = run_sinr_experiment(SMALL)
        assert np.array_equal(a.samples, b.samples)

    def test_sample_accounting(self):
        lay = build_hex_grid(SMALL.isd_m, SMALL.n_rings, SMALL.wraparound)
        for mode in (UNCOORDINATED, ORTHOGONAL_TDM, spatial_reuse(3)):
            cfg = ExperimentConfig(**{**SMALL.__dict__, "coordination": mode})
            rep = run_sinr_experiment(cfg)
            assert rep.samples.size == expected_sinr_sample_count(cfg, lay.n_sectors)

    def test_no_links_gives_empty_report(self):
        cfg = ExperimentConfig(**{**SMALL.__dict__, "n_d2d_tx_per_sector": 0, "n_drops": 2})
        rep = run_sinr_experiment(cfg)
        assert rep.samples.size == 0

    def test_tdm_dominates_uncoordinated_per_setting(self):
        # same drops, fewer interferers per sample: the fraction above any
        # threshold can only grow
        unc = run_sinr_experiment(SMALL)
        tdm = run_sinr_experiment(
            ExperimentConfig(**{**SMALL.__dict__, "coordination": ORTHOGONAL_TDM})
        )
        for si in range(len(unc.settings)):
            u = unc.samples["sinr_db"][unc.samples["setting_id"] == si]
            t = tdm.samples["sinr_db"][tdm.samples["setting_id"] == si]
            assert fraction_above(t, -6.0) >= fraction_above(u, -6.0)

    @pytest.mark.parametrize(
        "mode",
        [UNCOORDINATED, ORTHOGONAL_TDM, spatial_reuse(2)],
        ids=["uncoordinated", "tdm", "reuse:2"],
    )
    def test_samples_match_reference_sinr_op(self, mode):
        # engine's vectorized path against the scalar operation, per sample;
        # each sample's active set is the per-mode oracle rule at its cycle
        # position, so a wrong table row or column under TDM or reuse shows
        cfg = ExperimentConfig(
            experiment="sinr",
            isd_m=500.0,
            n_rings=1,
            n_cellular_per_sector=2,
            n_d2d_tx_per_sector=3,
            coordination=mode,
            n_drops=2,
            seed=5,
        )
        rep = run_sinr_experiment(cfg)
        lay = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
        rc = RadioConfig()
        settings = sweep_settings(cfg)
        noise_ue = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_ue_db)
        noise_enb = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_enb_db)
        n_tx = cfg.n_d2d_tx_per_sector
        for drop in (0, 1):
            cell, pairs, table, _ = build_drop(cfg, lay, drop)
            peer = {tx.id: rx.id for tx, rx in pairs}
            txs_by_sector = {}
            for tx, _ in pairs:
                txs_by_sector.setdefault(tx.home_sector, []).append(tx.id)
            # Samples come per setting, then per cycle position, then per
            # sector and position: the order the oracle rule gives.
            expected_links, active_sets = [], []
            for t in range(cycle_length(mode, n_tx)):
                on_air = [
                    txs_by_sector[s][i]
                    for s in sorted(txs_by_sector)
                    for i in active_slot_indices(mode, n_tx, t)
                ]
                expected_links += on_air
                active = {ue_endpoint(i) for i in on_air} | {ue_endpoint(u.id) for u in cell}
                active_sets += [active] * len(on_air)
            sel = rep.samples[rep.samples["drop"] == drop]
            assert sel.size == len(settings) * len(expected_links)
            for si, setting in enumerate(settings):
                p = {}
                for tx, rx in pairs:
                    pl = table.loss_db(ue_endpoint(tx.id), ue_endpoint(rx.id))
                    p[ue_endpoint(tx.id)] = open_loop_tx_power(_setting_pc(setting, noise_ue), pl)
                for u in cell:
                    pl = table.loss_db(ue_endpoint(u.id), sector_endpoint(u.home_sector))
                    p[ue_endpoint(u.id)] = open_loop_tx_power(_setting_pc(setting, noise_enb), pl)
                rows = sel[sel["setting_id"] == si]
                assert rows["link"].tolist() == expected_links
                for row, active in zip(rows, active_sets, strict=True):
                    tx_id = int(row["link"])
                    oracle = compute_sinr(
                        ue_endpoint(peer[tx_id]),
                        ue_endpoint(tx_id),
                        active,
                        p,
                        table,
                        noise_ue,
                    )
                    assert row["sinr_db"] == pytest.approx(oracle, rel=1e-9)

    def test_summary_recomputable_from_samples(self):
        rep = run_sinr_experiment(SMALL)
        for row in sinr_summary(rep):
            vals = rep.samples["sinr_db"][rep.samples["setting_id"] == row["setting_id"]]
            assert row["fraction_above"] == fraction_above(vals, -6.0)
            assert row["mean_db"] == pytest.approx(vals.mean())
            assert row["p5_db"] == percentile(vals, 0.05)


TPUT = ExperimentConfig(
    experiment="throughput",
    isd_m=500.0,
    n_rings=0,
    wraparound=False,
    n_d2d_tx_per_sector=6,
    d2d_range_m=50.0,
    coordination=UNCOORDINATED,
    alpha_list=(1.0,),
    snr_target_db_list=(10.0,),
    no_power_control=False,
    n_drops=3,
    n_subframes=400,
    k_d2d=2,
    seed=17,
)


class TestThroughputExperiment:
    def test_zero_offload_is_identical(self):
        base, off = run_throughput_experiment(replace(TPUT, k_d2d=0))
        assert np.array_equal(base.samples, off.samples)

    def test_roles_and_flow_counts(self):
        base, off = run_throughput_experiment(TPUT)
        assert base.samples.size == 3 * 3 * 6  # drops x sectors x flows
        assert np.all(base.samples["role"] == "cellular")
        per_drop_d2d = np.sum(off.samples["role"] == "d2d") / 3
        assert per_drop_d2d == 3 * 2  # sectors x k

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            run_throughput_experiment(replace(TPUT, k_d2d=7))

    def test_paired_runs_share_geometry_and_shadowing(self):
        lay = build_hex_grid(TPUT.isd_m, TPUT.n_rings, TPUT.wraparound)
        _, _, t1, _ = build_drop(TPUT, lay, 1)
        _, _, t2, _ = build_drop(TPUT, lay, 1)
        assert np.array_equal(t1.ue_ue_loss_db, t2.ue_ue_loss_db)
        assert np.array_equal(t1.ue_sector_loss_db, t2.ue_sector_loss_db)
        assert np.array_equal(t1.ue_ue_los, t2.ue_ue_los)

    def test_deterministic(self):
        b1, o1 = run_throughput_experiment(TPUT)
        b2, o2 = run_throughput_experiment(TPUT)
        assert np.array_equal(b1.samples, b2.samples)
        assert np.array_equal(o1.samples, o2.samples)

    def test_summary_recomputable(self):
        base, off = run_throughput_experiment(TPUT)
        s = throughput_summary(base, off)
        b = base.samples["throughput_bps"]
        o = off.samples["throughput_bps"]
        assert s["baseline_mean_bps"] == pytest.approx(b.mean())
        assert s["offload_p5_bps"] == percentile(o, 0.05)
        assert s["gain_mean"] == pytest.approx(o.mean() / b.mean())

    def test_one_pf_call_per_run_in_run_order(self, monkeypatch):
        # perfbench's tracer wraps run_pf_uplink and derives its golden
        # grants_digest from these calls: one per PF run, in run order, with
        # the flows and n_subframes as the first two arguments.
        calls = []
        original = engine.run_pf_uplink

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, result))
            return result

        monkeypatch.setattr(engine, "run_pf_uplink", recording)
        base, off = run_throughput_experiment(TPUT)
        assert len(calls) == 2 * TPUT.n_drops
        for i, (args, result) in enumerate(calls):
            sector_flows, n_subframes = args[:2]
            assert isinstance(sector_flows, Mapping)
            assert n_subframes == TPUT.n_subframes
            roles = [f.role for flows in sector_flows.values() for f in flows]
            assert roles.count("d2d") == (0 if i % 2 == 0 else 3 * TPUT.k_d2d)
            report = (base, off)[i % 2]
            rows = report.samples[report.samples["drop"] == i // 2]
            assert rows["flow"].tolist() == list(result.throughput_bps)
            assert rows["throughput_bps"].tolist() == list(result.throughput_bps.values())

    def test_short_run_zero_p5_gives_unbounded_gain(self):
        # runs shorter than the PF transient can leave flows unserved; the
        # p5 gain then degenerates to inf/nan instead of crashing
        cfg = ExperimentConfig(
            experiment="throughput",
            isd_m=500.0,
            n_rings=0,
            wraparound=False,
            n_d2d_tx_per_sector=10,
            d2d_range_m=50.0,
            alpha_list=(),
            snr_target_db_list=(),
            no_power_control=True,
            n_drops=3,
            n_subframes=300,
            k_d2d=3,
            seed=9,
        )
        base, off = run_throughput_experiment(cfg)
        assert np.any(base.samples["throughput_bps"] == 0.0)
        s = throughput_summary(base, off)
        assert np.isinf(s["gain_p5"]) or np.isnan(s["gain_p5"]) or s["gain_p5"] >= 0

    def test_per_sector_throughput_symmetry(self):
        # the three co-sited sectors are statistically identical, so their
        # summed throughputs agree up to Monte Carlo noise over 20 drops
        cfg = ExperimentConfig(
            experiment="throughput",
            isd_m=500.0,
            n_rings=0,
            wraparound=False,
            n_d2d_tx_per_sector=10,
            d2d_range_m=50.0,
            alpha_list=(),
            snr_target_db_list=(),
            no_power_control=True,
            n_drops=20,
            n_subframes=1000,
            k_d2d=0,
            seed=41,
        )
        base, _ = run_throughput_experiment(cfg)
        lay = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
        totals = np.zeros(3)
        for drop in range(cfg.n_drops):
            _, pairs, _, _ = build_drop(cfg, lay, drop)
            sector_of = {tx.id: tx.home_sector for tx, _ in pairs}
            rows = base.samples[base.samples["drop"] == drop]
            for row in rows:
                totals[sector_of[int(row["flow"])]] += row["throughput_bps"]
        assert np.all(np.abs(totals / totals.mean() - 1.0) < 0.05)


# 30 m cells with 20 m direct links: terminals crowd, so every counter is
# nonzero.
TINY = ExperimentConfig(
    experiment="sinr",
    isd_m=30.0,
    n_rings=1,
    n_cellular_per_sector=2,
    n_d2d_tx_per_sector=4,
    d2d_range_m=20.0,
    min_d2d_dist_m=1.0,
    alpha_list=(),
    snr_target_db_list=(),
    n_drops=3,
    n_subframes=20,
    seed=3,
)


class TestDropCounters:
    def test_counters_match_a_direct_recount(self):
        lay = build_hex_grid(TINY.isd_m, TINY.n_rings, TINY.wraparound)
        counters = DropCounters()
        cell, pairs, table, ues = build_drop(TINY, lay, 0, counters=counters)

        # The drop functions leave the stream exactly rejection_draws doubles in.
        rng = np.random.default_rng(drop_stream_seed(TINY.seed, 0))
        drop_cellular_ues(lay, TINY.n_cellular_per_sector, rng)
        drop_d2d_pairs(lay, TINY.n_d2d_tx_per_sector, TINY.d2d_range_m,
                       TINY.min_d2d_dist_m, rng, start_id=len(cell))
        ref = np.random.default_rng(drop_stream_seed(TINY.seed, 0))
        ref.random(counters.rejection_draws - 1)
        assert ref.bit_generator.state != rng.bit_generator.state
        ref.random()
        assert ref.bit_generator.state == rng.bit_generator.state

        txs = [u for u in ues if u.role is not Role.D2D_RX]
        rxs = [u for u in ues if u.role is Role.D2D_RX]
        ch = ChannelConfig(carrier_ghz=TINY.carrier_ghz, d2d_offset_db=TINY.d2d_offset_db)
        clamped = floor = 0
        for i, tx in enumerate(txs):
            for j, rx in enumerate(rxs):
                d = min(
                    math.hypot(tx.position.x - rx.position.x - t.x,
                               tx.position.y - rx.position.y - t.y)
                    for t in lay.wrap_offsets
                )
                clamped += d < MIN_UE_UE_DISTANCE_M
                pl = ue_ue_pathloss(max(d, MIN_UE_UE_DISTANCE_M), bool(table.ue_ue_los[i, j]), ch)
                floor += pl + table.ue_ue_shadow_db[i, j] <= ch.min_pl_db
        foreign = sum(tx.home_sector != rx.home_sector for tx, rx in pairs)
        assert counters == DropCounters(counters.rejection_draws, clamped, floor, foreign)
        assert min(clamped, floor, foreign) > 0

    def test_runs_repeat_the_counters_summed_in_drop_order(self):
        lay = build_hex_grid(TINY.isd_m, TINY.n_rings, TINY.wraparound)
        summed = DropCounters()
        for drop in range(TINY.n_drops):
            per_drop = DropCounters()
            build_drop(TINY, lay, drop, counters=per_drop)
            summed.add(per_drop)
        first, second = run_sinr_experiment(TINY), run_sinr_experiment(TINY)
        assert first.counters == second.counters == summed
        base, off = run_throughput_experiment(replace(TINY, experiment="throughput"))
        assert base.counters == off.counters == summed


_COORDINATION = st.one_of(
    st.sampled_from([UNCOORDINATED, ORTHOGONAL_TDM]), st.integers(1, 6).map(spatial_reuse)
)


@settings(max_examples=25)
@given(
    isd=st.sampled_from([100.0, 500.0, 1732.0]),
    n_rings=st.integers(0, 1),
    n_cell=st.integers(0, 2),
    n_d2d=st.integers(1, 5),
    coordination=_COORDINATION,
    seed=st.integers(0, 2**64 - 1),
)
def test_sinr_never_exceeds_the_links_snr(isd, n_rings, n_cell, n_d2d, coordination, seed):
    cfg = ExperimentConfig(
        experiment="sinr", isd_m=isd, n_rings=n_rings, n_cellular_per_sector=n_cell,
        n_d2d_tx_per_sector=n_d2d, coordination=coordination, alpha_list=(0.8, 1.0),
        snr_target_db_list=(0.0, 10.0), n_drops=1, seed=seed,
    )
    rep = run_sinr_experiment(cfg)
    lay = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
    cell, pairs, table, _ = build_drop(cfg, lay, 0)
    # Signal and noise as the engine forms them, without interference.
    rc = RadioConfig()
    noise_dbm = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_ue_db)
    links = np.arange(len(pairs))
    own_loss = table.ue_ue_loss_db[len(cell) + links, links]
    own_gain = table.ue_ue_gain_lin[len(cell) + links, links]
    link_of = {tx.id: j for j, (tx, _) in enumerate(pairs)}
    for si, setting in enumerate(rep.settings):
        p_dbm = np.asarray(open_loop_tx_power(_setting_pc(setting, noise_dbm), own_loss))
        snr_db = 10.0 * np.log10(10.0 ** (p_dbm / 10.0) * own_gain / 10.0 ** (noise_dbm / 10.0))
        rows = rep.samples[rep.samples["setting_id"] == si]
        j = np.array([link_of[int(i)] for i in rows["link"]])
        assert rows.size and np.all(rows["sinr_db"] <= snr_db[j])


@settings(max_examples=40)
@given(
    n_tx=st.integers(1, 12),
    coordination=st.one_of(st.just(ORTHOGONAL_TDM), st.integers(1, 14).map(spatial_reuse)),
    seed=st.integers(0, 1000),
)
def test_tdm_and_reuse_give_every_link_equal_airtime(n_tx, coordination, seed):
    # One SINR sample per link and subframe of one activation cycle.
    cfg = ExperimentConfig(
        experiment="sinr", isd_m=500.0, n_rings=0, wraparound=False,
        n_d2d_tx_per_sector=n_tx, d2d_range_m=50.0, coordination=coordination,
        alpha_list=(), snr_target_db_list=(), n_drops=1, seed=seed,
    )
    rep = run_sinr_experiment(cfg)
    links, counts = np.unique(rep.samples["link"], return_counts=True)
    assert links.size == 3 * n_tx
    k = min(coordination.k, n_tx)
    assert np.all(counts == k // math.gcd(n_tx, k))


class TestConfigValidation:
    def test_rejects_contradictions(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="bogus").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(min_d2d_dist_m=300.0, d2d_range_m=250.0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(alpha_list=(1.5,)).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(
                experiment="throughput", k_d2d=11, n_d2d_tx_per_sector=10
            ).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(alpha_list=(), snr_target_db_list=(), no_power_control=False).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(n_drops=0).validate()
        # Non-finite values, reported under their own key.
        for key, value in (
            ("isd_m", math.nan),
            ("d2d_range_m", math.inf),
            ("min_d2d_dist_m", math.nan),
            ("carrier_ghz", math.inf),
            ("d2d_offset_db", -math.inf),
            ("alpha_list", (0.8, math.nan)),
            ("snr_target_db_list", (math.inf, 10.0, 15.0)),
        ):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig(**{key: value}).validate()
        # Wrapped site images at 1e308 m scale leave float range; 1e160 m
        # still runs.
        with pytest.raises(ValueError, match="isd_m"):
            ExperimentConfig(isd_m=1e308).validate()
        with pytest.raises(ValueError, match="isd_m"):
            ExperimentConfig(isd_m=1e300, n_rings=10**400).validate()
        ExperimentConfig(isd_m=1e160).validate()
        # A throughput run with no transmitters has no flows to schedule.
        with pytest.raises(ValueError, match="n_d2d_tx_per_sector"):
            replace(TPUT, n_d2d_tx_per_sector=0, k_d2d=0).validate()

    def test_sweep_composition(self):
        cfg = ExperimentConfig()
        settings = sweep_settings(cfg)
        assert len(settings) == 3 * 4 + 1
        assert settings[-1].is_no_pc
        cfg2 = ExperimentConfig(alpha_list=(), snr_target_db_list=())
        assert len(sweep_settings(cfg2)) == 1
