"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import pytest

import run
import tracing
import workloads

TINY = {
    "sinr_wide_area": {"n_rings": 1, "n_d2d_tx_per_sector": 2, "n_drops": 1},
    "throughput_single_site": {"n_drops": 1, "n_subframes": 50},
    "throughput_multi_site": {
        "n_rings": 1,
        "n_d2d_tx_per_sector": 4,
        "k_d2d": 2,
        "n_drops": 1,
        "n_subframes": 20,
    },
}


def _tiny(tmp_path, name, seed=7):
    config_path = tmp_path / "workload.cfg"
    config_path.write_text(workloads.config_text(name, seed, **TINY[name]), encoding="utf-8")
    out_dir = tmp_path / "out"
    return config_path, out_dir, run.cli.parse_config(str(config_path))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_write_identical_checked_bytes(tmp_path, name):
    config_path, out_dir, cfg = _tiny(tmp_path, name)
    run.repetition(cfg, out_dir)
    assert run.outputs.check_structure(cfg, out_dir) == []
    untraced = run.outputs.file_digests(cfg, out_dir)
    originals = {mod: vars(m).copy() for mod, m in tracing.MODULES.items()}
    loss_db = tracing.channel.CouplingTable.loss_db

    layer = run.traced_repetition(config_path, out_dir, untraced, [])

    assert run.outputs.file_digests(cfg, out_dir) == untraced
    assert {mod: vars(m) for mod, m in tracing.MODULES.items()} == originals
    assert tracing.channel.CouplingTable.loss_db is loss_db
    names = {spec["name"] for spec in run.BENCHMARK["per_layer"]} - {"trace.overhead_s"}
    assert names <= set(layer)
    assert layer["engine.build_drop.calls"] == cfg.n_drops
    assert abs(layer["trace.residual_s"]) < 0.01 * layer["trace.wall_s"]


def test_structure_check_catches_a_changed_value(tmp_path):
    _, out_dir, cfg = _tiny(tmp_path, "throughput_single_site")
    run.repetition(cfg, out_dir)
    csv_path = out_dir / "throughput.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    head, _, _ = lines[1].rpartition(",")
    lines[1] = f"{head},1e+30\n"
    csv_path.write_text("".join(lines), encoding="utf-8")
    problems = run.outputs.check_structure(cfg, out_dir)
    assert any(p.startswith("summary mean_bps") for p in problems)


def test_spans_nest_under_their_callers(tmp_path):
    config_path, out_dir, cfg = _tiny(tmp_path, "throughput_single_site")
    run.repetition(cfg, out_dir)
    spans = []
    run.traced_repetition(config_path, out_dir, run.outputs.file_digests(cfg, out_dir), spans)
    by_id = {s[0]: s for s in spans[0]}
    parents = {s[2]: by_id[s[1]][2] if s[1] is not None else None for s in spans[0]}
    assert parents == {
        "cli.parse_config": None,
        "engine.run_experiment": None,
        "engine.build_drop": "engine.run_experiment",
        "layout.drop_d2d_pairs": "engine.build_drop",
        "channel.build_coupling_table": "engine.build_drop",
        "scheduling.run_pf_uplink": "engine.run_experiment",
        "cli.emit_reports": None,
    }
