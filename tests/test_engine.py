import csv
import math
import tracemalloc
from collections.abc import Mapping
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dsim import cli, engine
from d2dsim import layout as layout_module
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
    build_hex_grid,
    drop_cellular_ues,
    drop_d2d_pairs,
)
from d2dsim.radio import (
    PowerControlConfig,
    RadioConfig,
    compute_sinr,
    open_loop_tx_power,
    thermal_noise_dbm,
)
from d2dsim.scheduling import ORTHOGONAL_TDM, UNCOORDINATED, spatial_reuse

from test_scheduling import active_slot_indices, cycle_length  # per-mode oracle


def _pairs(terminals):
    """(transmitter id, receiver id) of every pair, in drop order: the drop's
    id convention, written out with a loop."""
    n_cell = terminals.n_cell
    return [(n_cell + 2 * j, n_cell + 2 * j + 1) for j in range(terminals.n_pairs)]


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
            terminals, table = build_drop(cfg, lay, drop)
            cell, pairs = range(terminals.n_cell), _pairs(terminals)
            home = terminals.sector.tolist()
            peer = dict(pairs)
            txs_by_sector = {}
            for tx, _ in pairs:
                txs_by_sector.setdefault(home[tx], []).append(tx)
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
                active = {ue_endpoint(i) for i in on_air} | {ue_endpoint(u) for u in cell}
                active_sets += [active] * len(on_air)
            sel = rep.samples[rep.samples["drop"] == drop]
            assert sel.size == len(settings) * len(expected_links)
            for si, setting in enumerate(settings):
                p = {}
                for tx, rx in pairs:
                    pl = table.loss_db(ue_endpoint(tx), ue_endpoint(rx))
                    p[ue_endpoint(tx)] = open_loop_tx_power(replace(setting, noise_dbm=noise_ue), pl)
                for u in cell:
                    pl = table.loss_db(ue_endpoint(u), sector_endpoint(home[u]))
                    p[ue_endpoint(u)] = open_loop_tx_power(replace(setting, noise_dbm=noise_enb), pl)
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


def _bits(x):
    x = np.ascontiguousarray(x)
    return x.dtype, x.shape, x.view(np.uint8).tobytes()


@pytest.mark.parametrize(
    "n_cell, n_tx, mode",
    [(1, 5, UNCOORDINATED), (2, 3, spatial_reuse(3))],
    ids=["uncoordinated_with_cellular", "reuse_k_equals_n_tx"],
)
def test_all_on_air_slice_equals_the_gather(n_cell, n_tx, mode):
    """With every link on the air the SINR pass multiplies by the pair rows
    of the gain matrix as they stand, a view past the cellular rows (in the
    first case 57 rows of 285 doubles: a start that is not 16-byte aligned).
    Its products and samples have the bits of the np.ix_ gather, at every
    power setting."""
    cfg = ExperimentConfig(
        experiment="sinr", n_cellular_per_sector=n_cell, n_d2d_tx_per_sector=n_tx,
        coordination=mode, n_drops=1, seed=4,
    )
    lay = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
    settings, rc = sweep_settings(cfg), RadioConfig()
    samples, _ = engine._sinr_drop_samples(cfg, lay, settings, rc, 0)
    terminals, table = build_drop(cfg, lay, 0)
    n_c, links = terminals.n_cell, np.arange(terminals.n_pairs)
    rows, gain = n_c + links, table.ue_ue_gain_lin
    gathered = gain[np.ix_(rows, links)]
    noise_ue = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_ue_db)
    noise_enb = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_enb_db)
    own_loss = table.ue_ue_loss_db[rows, links]
    cell_loss = table.ue_sector_loss_db[np.arange(n_c), terminals.sector[:n_c]]
    for si, setting in enumerate(settings):
        p = 10.0 ** (open_loop_tx_power(replace(setting, noise_dbm=noise_ue), own_loss) / 10.0)
        assert _bits(p @ gain[n_c:]) == _bits(p @ gathered)
        p_cell = 10.0 ** (open_loop_tx_power(replace(setting, noise_dbm=noise_enb), cell_loss) / 10.0)
        received = p @ gathered + p_cell @ gain[:n_c]
        signal = p * gain[rows, links]
        interference = np.maximum(received - signal, 0.0)
        want = 10.0 * np.log10(signal / (interference + 10.0 ** (noise_ue / 10.0)))
        assert _bits(samples["sinr_db"][samples["setting_id"] == si]) == _bits(want)


def _traced_peak(fn):
    """fn's result and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_wide_area_drop_peak_memory(monkeypatch):
    """One drop of the 570-pair wide-area shape (57 sectors of 10 pairs, all
    on the air, 13 power settings) on two threads keeps its traced peak under
    14 MB, and its SINR pass, on a drop built beforehand, under 1 MB. They
    were 15.1-15.6 MB and 3.0 MB when the drop held a separate distance
    matrix, made temporaries in every pass and copied the 570 x 570 gains
    (12.7 and 0.43 MB now)."""
    monkeypatch.setattr(layout_module, "_THREADS", 2)
    monkeypatch.setattr(layout_module, "_pool", None)
    cfg = ExperimentConfig(experiment="sinr", n_drops=1)
    lay = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
    settings, rc = sweep_settings(cfg), RadioConfig()
    try:
        engine._sinr_drop_samples(cfg, lay, settings, rc, 0)  # starts the pool
        (samples, _), peak = _traced_peak(
            lambda: engine._sinr_drop_samples(cfg, lay, settings, rc, 1))
        drop = build_drop(cfg, lay, 1)
        drop[1].ue_ue_gain_lin  # cached on the table
        monkeypatch.setattr(engine, "build_drop", lambda *args, **kwargs: drop)
        (again, _), pass_peak = _traced_peak(
            lambda: engine._sinr_drop_samples(cfg, lay, settings, rc, 1))
    finally:
        if layout_module._pool is not None:
            layout_module._pool.shutdown()
    assert samples.size == 570 * len(settings)
    assert again.tobytes() == samples.tobytes()
    assert peak < 14e6, peak
    assert pass_peak < 1e6, pass_peak


# Three sectors with 2 cellular terminals and 3 pairs each. Ids 0-5 are the
# cellular terminals; pair j's transmitter is 6 + 2j and its receiver 7 + 2j.
IDS = ExperimentConfig(
    experiment="throughput", isd_m=500.0, n_rings=0, wraparound=False, n_cellular_per_sector=2,
    n_d2d_tx_per_sector=3, d2d_range_m=50.0, alpha_list=(), snr_target_db_list=(),
    n_drops=2, n_subframes=20, k_d2d=1, seed=3,
)
IDS_TX = (0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20, 22)
IDS_RX = (7, 9, 11, 13, 15, 17, 19, 21, 23)


class TestDropIds:
    def test_table_rows_and_columns_follow_the_ids(self):
        lay = build_hex_grid(IDS.isd_m, IDS.n_rings, IDS.wraparound)
        terminals, table = build_drop(IDS, lay, 0)
        assert terminals.xy.shape == (24, 2) and terminals.sector.shape == (24,)
        assert (terminals.n_cell, terminals.n_pairs) == (6, 9)
        assert terminals.sector[:6].tolist() == [0, 0, 1, 1, 2, 2]
        assert terminals.sector[6::2].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert terminals.tx_ids.tolist() == list(IDS_TX)
        assert table.tx_ids == IDS_TX
        assert table.rx_ue_ids == IDS_RX
        assert table.sector_ue_loss_db.shape[1] == 24
        # loss_db by id equals the entry at the id's position in each block.
        for row, tx in enumerate(IDS_TX):
            for col, rx in enumerate(IDS_RX):
                got = table.loss_db(ue_endpoint(tx), ue_endpoint(rx))
                assert got == table.ue_ue_loss_db[row, col]
            for s in range(lay.n_sectors):
                got = table.loss_db(ue_endpoint(tx), sector_endpoint(s))
                assert got == table.ue_sector_loss_db[row, s]
        for s in range(lay.n_sectors):
            for u in range(24):
                got = table.loss_db(sector_endpoint(s), ue_endpoint(u))
                assert got == table.sector_ue_loss_db[s, u]
        # Pair j: transmitter row 6 + j, receiver column j.
        for j in range(9):
            got = table.loss_db(ue_endpoint(6 + 2 * j), ue_endpoint(7 + 2 * j))
            assert got == table.ue_ue_loss_db[6 + j, j]

    def test_csv_link_and_flow_ids_are_transmitter_ids(self, tmp_path):
        sinr_cfg = replace(IDS, experiment="sinr")
        cli.emit_reports(run_sinr_experiment(sinr_cfg), sinr_cfg, str(tmp_path / "sinr"), 0.0)
        with open(tmp_path / "sinr" / "sinr_samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # One setting, every link on the air: per drop, links in sector order.
        assert [int(r["link"]) for r in rows] == 2 * list(IDS_TX[6:])
        assert [int(r["sector"]) for r in rows] == 2 * [0, 0, 0, 1, 1, 1, 2, 2, 2]

        cli.emit_reports(run_throughput_experiment(IDS), IDS, str(tmp_path / "tput"), 0.0)
        with open(tmp_path / "tput" / "throughput.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["flow"]) for r in rows] == 4 * list(IDS_TX)
        # The first pair of each sector sends to its peer in the offload run.
        direct = [int(r["flow"]) for r in rows if r["role"] == "d2d"]
        assert all(r["run"] == "offload" for r in rows if r["role"] == "d2d")
        assert direct == 2 * [6, 12, 18]


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
        terminals_1, t1 = build_drop(TPUT, lay, 1)
        terminals_2, t2 = build_drop(TPUT, lay, 1)
        assert np.array_equal(terminals_1.xy, terminals_2.xy)
        assert np.array_equal(terminals_1.sector, terminals_2.sector)
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

    def test_pf_runs_take_the_configured_power_setting(self, monkeypatch):
        # TPUT's one sweep point, with the noise left for run_pf_uplink to
        # fill in per link; a max-power run would give other throughputs.
        settings = []
        original = engine.run_pf_uplink

        def recording(flows, n_subframes, rc, pc, table):
            settings.append(pc)
            return original(flows, n_subframes, rc, pc, table)

        monkeypatch.setattr(engine, "run_pf_uplink", recording)
        run_throughput_experiment(TPUT)
        assert settings == [PowerControlConfig(10.0, alpha=1.0)] * (2 * TPUT.n_drops)

    @pytest.mark.parametrize("k_d2d", [0, 2, 4])
    def test_flows_carry_their_table_positions(self, k_d2d):
        # Each flow's (row, col) entry of [ue_ue | ue_sector] must be the
        # coupling of its transmitter to the receiver named by id: the peer
        # for the first k_d2d pairs of each sector in drop order, the home
        # sector otherwise.
        cfg = ExperimentConfig(
            experiment="throughput", isd_m=500.0, n_rings=1, n_cellular_per_sector=3,
            n_d2d_tx_per_sector=4, d2d_range_m=50.0, alpha_list=(), snr_target_db_list=(),
            k_d2d=k_d2d, seed=7,
        )
        lay = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
        terminals, table = build_drop(cfg, lay, 0)
        home = terminals.sector.tolist()
        expected = {u: (sector_endpoint(home[u]), "cellular") for u in range(terminals.n_cell)}
        offloaded = {}
        for tx, rx in _pairs(terminals):
            s = home[tx]
            offloaded[s] = offloaded.get(s, 0) + 1
            if offloaded[s] <= k_d2d:
                expected[tx] = (ue_endpoint(rx), "d2d")
            else:
                expected[tx] = (sector_endpoint(s), "cellular")
        flows = engine._flows_for(terminals, cfg.n_d2d_tx_per_sector, k_d2d)
        from_terminals = np.hstack((table.ue_ue_loss_db, table.ue_sector_loss_db))
        seen = set()
        for s, sector_flows in flows.items():
            for f in sector_flows:
                endpoint, role = expected[f.id]
                assert f.role == role
                assert from_terminals[f.row, f.col] == table.loss_db(ue_endpoint(f.id), endpoint)
                assert s == home[f.id]
                seen.add(f.id)
        assert seen == set(expected)
        assert sum(role == "d2d" for _, role in expected.values()) == lay.n_sectors * k_d2d

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
            terminals, _ = build_drop(cfg, lay, drop)
            sector_of = {tx: int(terminals.sector[tx]) for tx, _ in _pairs(terminals)}
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
        terminals, table = build_drop(TINY, lay, 0, counters=counters)

        # The drop functions leave the stream exactly rejection_draws doubles in.
        rng = np.random.default_rng(drop_stream_seed(TINY.seed, 0))
        drop_cellular_ues(lay, TINY.n_cellular_per_sector, rng)
        drop_d2d_pairs(lay, TINY.n_d2d_tx_per_sector, TINY.d2d_range_m,
                       TINY.min_d2d_dist_m, rng)
        ref = np.random.default_rng(drop_stream_seed(TINY.seed, 0))
        ref.random(counters.rejection_draws - 1)
        assert ref.bit_generator.state != rng.bit_generator.state
        ref.random()
        assert ref.bit_generator.state == rng.bit_generator.state

        xy, home, pairs = terminals.xy.tolist(), terminals.sector.tolist(), _pairs(terminals)
        txs = xy[: terminals.n_cell] + [xy[tx] for tx, _ in pairs]
        rxs = [xy[rx] for _, rx in pairs]
        ch = ChannelConfig(carrier_ghz=TINY.carrier_ghz, d2d_offset_db=TINY.d2d_offset_db)
        clamped = floor = 0
        for i, tx in enumerate(txs):
            for j, rx in enumerate(rxs):
                d = min(
                    math.hypot(tx[0] - rx[0] - t_x, tx[1] - rx[1] - t_y)
                    for t_x, t_y in lay.offset_xy.tolist()
                )
                clamped += d < MIN_UE_UE_DISTANCE_M
                pl = ue_ue_pathloss(max(d, MIN_UE_UE_DISTANCE_M), bool(table.ue_ue_los[i, j]), ch)
                floor += pl + table.ue_ue_shadow_db[i, j] <= ch.min_pl_db
        foreign = sum(home[tx] != home[rx] for tx, rx in pairs)
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
    terminals, table = build_drop(cfg, lay, 0)
    # Signal and noise as the engine forms them, without interference.
    rc = RadioConfig()
    noise_dbm = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_ue_db)
    links = np.arange(terminals.n_pairs)
    own_loss = table.ue_ue_loss_db[terminals.n_cell + links, links]
    own_gain = table.ue_ue_gain_lin[terminals.n_cell + links, links]
    link_of = {tx: j for j, (tx, _) in enumerate(_pairs(terminals))}
    for si, setting in enumerate(rep.settings):
        p_dbm = open_loop_tx_power(replace(setting, noise_dbm=noise_dbm), own_loss)
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
        # Wrapped site images at 1e308 m scale leave float range. At 1e160 m
        # the float spacing of coordinates dwarfs min_d2d_dist_m, so every
        # direct link would round to 0 m; 1e6 m keeps its links.
        with pytest.raises(ValueError, match="isd_m"):
            ExperimentConfig(isd_m=1e308).validate()
        with pytest.raises(ValueError, match="isd_m"):
            ExperimentConfig(isd_m=1e300, n_rings=10**400).validate()
        with pytest.raises(ValueError, match="isd_m.*min_d2d_dist_m"):
            ExperimentConfig(isd_m=1e160).validate()
        with pytest.raises(ValueError, match="isd_m.*min_d2d_dist_m"):
            ExperimentConfig(isd_m=1e17).validate()
        ExperimentConfig(isd_m=1e6).validate()
        # A throughput run with no transmitters has no flows to schedule.
        with pytest.raises(ValueError, match="n_d2d_tx_per_sector"):
            replace(TPUT, n_d2d_tx_per_sector=0, k_d2d=0).validate()

    def test_sweep_composition(self):
        cfg = ExperimentConfig()
        settings = sweep_settings(cfg)
        assert len(settings) == 3 * 4 + 1
        assert not settings[-1].enabled
        assert all(s.enabled for s in settings[:-1])
        assert all(s.noise_dbm is None for s in settings)  # filled in per receiver
        # Alpha-major, in config order; the summary labels name each point.
        assert [(s.alpha, s.snr_target_db) for s in settings[:-1]] == [
            (a, t) for a in (0.0, 0.8, 1.0) for t in (0.0, 5.0, 10.0, 15.0)
        ]
        no_samples = np.zeros(0, engine.SINR_SAMPLE_DTYPE)
        report = engine.ExperimentReport("sinr", tuple(settings), no_samples)
        assert [row["label"] for row in sinr_summary(report)] == [
            f"alpha={a} snr_target_db={t}" for a in ("0", "0.8", "1") for t in ("0", "5", "10", "15")
        ] + ["no_power_control"]
        cfg2 = ExperimentConfig(alpha_list=(), snr_target_db_list=())
        assert len(sweep_settings(cfg2)) == 1
