"""The threads a drop's array work runs on: which functions they may call, and
a forked child's own pool."""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from d2dsim import channel, cli, engine, layout, radio, scheduling
from d2dsim.engine import ExperimentConfig, build_drop
from d2dsim.layout import build_hex_grid

MODULES = {
    "engine": engine,
    "layout": layout,
    "channel": channel,
    "radio": radio,
    "scheduling": scheduling,
    "cli": cli,
}

# The public functions perfbench's tracer wraps (TARGETS in
# perfbench/tracing.py), by defining module. Its wrappers keep call stacks
# that are not thread-safe, so only the calling thread may call these.
TRACED = (
    ("engine", "run_experiment"),
    ("engine", "build_drop"),
    ("layout", "drop_d2d_pairs"),
    ("channel", "build_coupling_table"),
    ("scheduling", "run_pf_uplink"),
    ("cli", "parse_config"),
    ("cli", "emit_reports"),
    ("layout", "sector_of_point"),
    ("layout", "pairwise_wrap_distance"),
    ("channel", "CouplingTable.loss_db"),
    ("radio", "rate_from_sinr"),
    ("scheduling", "pf_select"),
    ("scheduling", "pf_update"),
)

# 57 sectors of 4 pairs: 228 x 228 terminal-pair entries, more than one row
# block, so the drop's work is split over the threads.
_WIDE = (
    "isd_m = 1732\nn_rings = 2\nwraparound = true\n"
    "n_cellular_per_sector = 0\nn_d2d_tx_per_sector = 4\nn_drops = 1\n"
)
TINY_RUNS = {
    "sinr": "experiment = sinr\nd2d_range_m = 250\n" + _WIDE,
    "throughput": (
        "experiment = throughput\nd2d_range_m = 50\nalpha_list =\nsnr_target_db_list =\n"
        "no_power_control = true\nn_subframes = 20\nk_d2d = 2\n" + _WIDE
    ),
}


@pytest.fixture
def fresh_pool(monkeypatch):
    """Three threads and no pool yet: the run under test starts its own."""
    monkeypatch.setattr(layout, "_THREADS", 3)
    monkeypatch.setattr(layout, "_pool", None)
    yield
    if layout._pool is not None:
        layout._pool.shutdown()


@pytest.mark.parametrize("experiment", sorted(TINY_RUNS))
def test_traced_functions_run_on_the_calling_thread_only(experiment, tmp_path, monkeypatch, fresh_pool):
    callers = {}

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            callers.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for module_name, path in TRACED:
        name = f"{module_name}.{path}"
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(MODULES[module_name], owner_name)
            monkeypatch.setattr(owner, attr, recorder(name, getattr(owner, attr)))
            continue
        original = getattr(MODULES[module_name], attr)
        for module in MODULES.values():
            if vars(module).get(attr) is original:
                monkeypatch.setattr(module, attr, recorder(name, original))

    config = tmp_path / "run.cfg"
    config.write_text(TINY_RUNS[experiment] + f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert cli.main([str(config), "--quiet"]) == 0
    assert layout._pool is not None, "the run split no work over the threads"
    assert callers["engine.build_drop"] and callers["layout.pairwise_wrap_distance"]
    assert set().union(*callers.values()) == {threading.get_ident()}, callers


def _table_bytes(table) -> bytes:
    return b"".join(
        np.ascontiguousarray(a).tobytes()
        for a in (table.ue_ue_loss_db, table.ue_ue_los, table.ue_sector_loss_db,
                  table.sector_ue_loss_db, table.ue_ue_gain_lin)
    )


def _send_table_bytes(cfg, lay, conn) -> None:
    inherited = layout._pool is not None
    _, table = build_drop(cfg, lay, 0)
    conn.send((inherited, layout._pool is not None, _table_bytes(table)))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no fork")
# Python 3.12 and later warn on a fork with threads running, which is the case
# under test here.
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_forked_child_builds_the_drop_on_its_own_pool(fresh_pool):
    cfg = ExperimentConfig(
        experiment="sinr", isd_m=1732.0, n_rings=2, wraparound=True,
        n_cellular_per_sector=0, n_d2d_tx_per_sector=4, d2d_range_m=250.0, seed=5,
    )
    lay = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
    _, table = build_drop(cfg, lay, 0)
    assert layout._pool is not None  # the parent's pool has started

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_table_bytes, args=(cfg, lay, sender))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the child sent no table"
        inherited, started, got = receiver.recv()
    finally:
        child.join(60)
        if child.is_alive():
            child.terminate()
            child.join(10)
    assert child.exitcode == 0
    # The parent's pool threads do not exist in the child: it starts its own.
    assert not inherited and started
    assert got == _table_bytes(table)
