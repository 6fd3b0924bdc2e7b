"""Acceptance suite: the headline statistics every release must reproduce,
plus the oracle checks backing them. One [PASS]/[FAIL] line per criterion
(run with -s to see them).

Criteria 1-4 run the shipped SINR presets and check the fraction of direct
links above -6 dB per power-control setting. Criterion 5 runs the paired
offload study over k. Criteria 6-8 pin the overhead arithmetic, the
numeric oracles, determinism, and the coverage rule.

Criterion 5(c) checks the direction of the mean-gain trend that this
scheduler model gives: the mean offload gain is non-decreasing over
k = 1, 3, 5, 7, 9. The PF scheduler grants one flow per sector per subframe
for the whole band, so offloading a flow changes only its receiver, never
the interferers, and a short direct link outruns the uplink. A gain that
falls at large k needs a different resource model, one in which offloaded
links reuse the uplink grant concurrently. The criterion 5 line prints the
per-role mean throughput at k = 5 and k = 9 and the per-flow k = 5 -> 9
change, which show this mechanism.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import d2dsim as d
from d2dsim.cli import main, parse_config
from d2dsim.radio import PowerControlConfig, open_loop_tx_power, thermal_noise_dbm

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    return ok


def _run_preset(name):
    cfg = parse_config(str(CONFIGS / name))
    start = time.perf_counter()
    report = d.run_sinr_experiment(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def wide_uncoordinated():
    return _run_preset("sinr_wide_area_uncoordinated.cfg")


@pytest.fixture(scope="module")
def wide_tdm():
    return _run_preset("sinr_wide_area_tdm.cfg")


def test_criterion_1_wide_area_uncoordinated_capped(wide_uncoordinated):
    report, elapsed = wide_uncoordinated
    rows = d.sinr_summary(report)
    worst = max(rows, key=lambda r: r["fraction_above"])
    ok = all(r["fraction_above"] <= 0.50 for r in rows) and elapsed < 120.0
    assert _report(
        1,
        ok,
        "uncoordinated wide-area underlay keeps fraction(SINR > -6 dB) <= 0.50 "
        f"for all {len(rows)} settings (max {worst['fraction_above']:.3f} at "
        f"{worst['label']}; {elapsed:.0f}s)",
    )


def test_criterion_2_wide_area_tdm_reaches_090(wide_tdm):
    report, elapsed = wide_tdm
    rows = d.sinr_summary(report)
    best = max(rows, key=lambda r: r["fraction_above"])
    ok = best["fraction_above"] >= 0.90 and elapsed < 120.0
    assert _report(
        2,
        ok,
        "time-orthogonal coordination reaches fraction >= 0.90 for some setting "
        f"(best {best['fraction_above']:.3f} at {best['label']}; {elapsed:.0f}s)",
    )


def test_criterion_3_dense_long_links_capped():
    report, elapsed = _run_preset("sinr_dense_single_link.cfg")
    rows = d.sinr_summary(report)
    worst = max(rows, key=lambda r: r["fraction_above"])
    ok = all(r["fraction_above"] <= 0.60 for r in rows)
    assert _report(
        3,
        ok,
        "250 m links on a 500 m grid stay at fraction <= 0.60 even with one "
        f"cochannel transmitter per sector (max {worst['fraction_above']:.3f} at "
        f"{worst['label']}; {elapsed:.0f}s)",
    )


def test_criterion_4_dense_short_links_support_reuse_2():
    report, elapsed = _run_preset("sinr_dense_reuse2.cfg")
    rows = d.sinr_summary(report)
    best = max(rows, key=lambda r: r["fraction_above"])
    ok = best["fraction_above"] >= 0.90
    assert _report(
        4,
        ok,
        "two concurrent 50 m links per sector are supportable: fraction >= 0.90 "
        f"for some setting (best {best['fraction_above']:.3f} at {best['label']}; "
        f"{elapsed:.0f}s)",
    )


def _non_decreasing(values):
    return all(x <= y for x, y in zip(values, values[1:]))


@pytest.mark.parametrize(
    "gain_means, expected",
    [
        ([1.0, 1.1, 1.2, 1.3, 1.4], True),
        ([1.1, 1.1, 1.1, 1.1, 1.1], True),
        ([1.0, 1.2, 1.4, 1.3, 1.1], False),  # falls from k=5 to k=9
        ([1.0, 1.2, 1.1, 1.3, 1.4], False),  # one falling step anywhere
    ],
)
def test_criterion_5c_fails_on_any_falling_step(gain_means, expected):
    assert _non_decreasing(gain_means) is expected


def _mean_mbps(samples, mask):
    return float(samples["throughput_bps"][mask].mean()) / 1e6


def test_criterion_5_offload_gain_trends():
    base_cfg = parse_config(str(CONFIGS / "throughput_offload.cfg"))
    start = time.perf_counter()
    gains, offloads = {}, {}
    for k in (1, 3, 5, 7, 9):
        cfg = replace(base_cfg, k_d2d=k)
        baseline, offload = d.run_throughput_experiment(cfg)
        gains[k] = d.throughput_summary(baseline, offload)
        offloads[k] = offload.samples
    elapsed = time.perf_counter() - start

    a = all(gains[k]["gain_mean"] >= 1.0 and gains[k]["gain_p5"] >= 1.0 for k in (1, 3, 5))
    b = any(gains[k]["gain_p5"] > gains[k]["gain_mean"] for k in gains)
    c = _non_decreasing([gains[k]["gain_mean"] for k in sorted(gains)])

    # The data behind (c): one grant per sector per subframe, so offloading a
    # flow changes only its receiver. Pair the k=5 and k=9 rows per flow.
    o5, o9 = offloads[5], offloads[9]
    assert np.array_equal(o5["drop"], o9["drop"]) and np.array_equal(o5["flow"], o9["flow"])
    delta = (o9["throughput_bps"] - o5["throughput_bps"]) / 1e6
    switched = (o5["role"] == "cellular") & (o9["role"] == "d2d")
    already = o5["role"] == "d2d"
    roles = " ".join(
        f"k={k}:d2d={_mean_mbps(o, o['role'] == 'd2d'):.2f}"
        f"/cellular={_mean_mbps(o, o['role'] == 'cellular'):.2f}"
        for k, o in ((5, o5), (9, o9))
    )
    detail = (
        "offload study (20 drops x 2000 subframes, {:.0f}s): ".format(elapsed)
        + " ".join(
            f"k={k}:mean={gains[k]['gain_mean']:.3f}/p5={gains[k]['gain_p5']:.3f}"
            for k in gains
        )
        + f" | mean Mbit/s {roles}; k=5->9 change: {int(switched.sum())} flows"
        f" switched to d2d {delta[switched].mean():+.2f},"
        f" {int(already.sum())} already d2d {delta[already].mean():+.2f}"
        + f" | (a) gains >= 1 for k<=5: {a}; (b) p5 gain exceeds mean gain: {b};"
        f" (c) mean gain non-decreasing over k=1..9: {c}"
    )
    ok = a and b and c and elapsed < 600.0
    assert _report(5, ok, detail)


def test_criterion_6_discovery_overhead_exact():
    got = d.discovery_overhead(50, 5.0)
    ok = got == (0.01, 0.99)
    assert _report(6, ok, f"discovery_overhead(50, 5 s) == (0.01, 0.99) exactly (got {got})")


class _LossTable:
    def __init__(self, losses):
        self.losses = dict(losses)

    def loss_db(self, tx, rx):
        return self.losses[(tx, rx)]


def _sinr_brute_force_ok():
    rng = np.random.default_rng(12345)
    rx = d.ue_endpoint(0)
    for _ in range(1000):
        n_tx = int(rng.integers(1, 6))
        txs = [d.ue_endpoint(i + 1) for i in range(n_tx)]
        powers = {t: float(rng.uniform(-30, 23)) for t in txs}
        losses = {(t, rx): float(rng.uniform(40, 140)) for t in txs}
        noise = float(rng.uniform(-105, -90))
        serving = txs[int(rng.integers(n_tx))]
        got = d.compute_sinr(rx, serving, set(txs), powers, _LossTable(losses), noise)
        sig = 10 ** ((powers[serving] - losses[(serving, rx)]) / 10)
        denom = 10 ** (noise / 10) + sum(
            10 ** ((powers[t] - losses[(t, rx)]) / 10) for t in txs if t != serving
        )
        if not math.isclose(got, 10 * math.log10(sig / denom), rel_tol=1e-9):
            return False
    return True


def _power_control_invariants_ok():
    rng = np.random.default_rng(54321)
    for _ in range(500):
        pc = PowerControlConfig(
            snr_target_db=float(rng.uniform(-5, 25)),
            noise_dbm=float(rng.uniform(-110, -90)),
            alpha=float(rng.uniform(0, 1)),
        )
        pls = np.sort(rng.uniform(30, 180, 6))
        p = open_loop_tx_power(pc, pls)
        if not (np.all(p <= pc.p_max_dbm) and np.all(np.diff(p) >= 0)):
            return False
        full = PowerControlConfig(
            snr_target_db=pc.snr_target_db, noise_dbm=pc.noise_dbm, alpha=1.0
        )
        pl = float(rng.uniform(30, 80))
        pf = open_loop_tx_power(full, pl)
        if pf < full.p_max_dbm:
            if not math.isclose(pf - pl - full.noise_dbm, full.snr_target_db, abs_tol=1e-9):
                return False
    return True


def _tdm_has_no_intra_sector_overlap_ok():
    pattern = d.activation_pattern(d.ORTHOGONAL_TDM, 10)
    return all(len(pattern[t % len(pattern)]) <= 1 for t in range(500))


def _metrics_match_naive_ok():
    rng = np.random.default_rng(777)
    for _ in range(200):
        x = rng.normal(size=int(rng.integers(1, 60)))
        p = float(rng.uniform(0, 1))
        srt = sorted(x)
        if d.percentile(x, p) != srt[max(1, math.ceil(p * len(x) - 1e-12)) - 1]:
            return False
        thr = float(rng.normal())
        if d.fraction_above(x, thr) != sum(1 for v in x if v > thr) / len(x):
            return False
    return True


def _double_run_identical_ok(tmp_path):
    cfg_text = (
        "experiment = sinr\nisd_m = 1732\nn_rings = 1\nn_d2d_tx_per_sector = 4\n"
        "coordination = tdm\nn_drops = 5\nseed = 77\n"
    )
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(cfg_text)
    outs = []
    for sub in ("r1", "r2"):
        assert main([str(cfg_file), "--out", str(tmp_path / sub), "--quiet"]) == 0
        outs.append((tmp_path / sub / "sinr_samples.csv").read_bytes())
    summaries = [
        (tmp_path / sub / "summary.txt").read_bytes() for sub in ("r1", "r2")
    ]
    return outs[0] == outs[1] and summaries[0] == summaries[1]


def test_criterion_7_oracle_suites(tmp_path):
    checks = {
        "sinr vs brute force (1000 cases, 1e-9)": _sinr_brute_force_ok(),
        "power-control invariants": _power_control_invariants_ok(),
        "tdm zero intra-sector overlap": _tdm_has_no_intra_sector_overlap_ok(),
        "percentile/fraction naive recount": _metrics_match_naive_ok(),
        "double run byte-identical": _double_run_identical_ok(tmp_path),
    }
    ok = all(checks.values())
    assert _report(
        7, ok, "; ".join(f"{name}: {'ok' if v else 'FAILED'}" for name, v in checks.items())
    )


def test_criterion_8_coverage_flip_is_strict_at_minus_6():
    from d2dsim.radio import RadioConfig, Coverage, classify_coverage

    rc = RadioConfig()
    noise = thermal_noise_dbm(rc.bandwidth_hz, rc.noise_figure_ue_db)

    class OneSector:
        n_sectors = 1

    flips = []
    for delta in np.arange(-0.5, 0.5001, 0.25):
        sinr = -6.0 + float(delta)
        table = _LossTable({(d.sector_endpoint(0), d.ue_endpoint(0)): 46.0 - noise - sinr})
        state = classify_coverage(0, OneSector(), table, 46.0, rc)
        flips.append((sinr, state))
    ok = all(
        (state is Coverage.OUT_OF_COVERAGE) == (sinr < -6.0) for sinr, state in flips
    )
    assert _report(
        8,
        ok,
        "coverage classification flips exactly at -6 dB with strict less-than "
        + "; ".join(f"{s:+.2f}dB->{st.value}" for s, st in flips),
    )
