"""The threads a drop's array work runs on: how `_in_row_blocks` shares row
blocks out and ends them, when its `first` task runs, that small work starts
no pool, which functions the threads may call, and a forked child's own
pool."""

import importlib.util
import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
import time

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


def _tracer_targets():
    """perfbench/tracing.py's TARGETS, loaded from its file: perfbench is a
    directory of scripts, not a package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


# The public functions perfbench's tracer wraps, by defining module. Its
# wrappers keep call stacks that are not thread-safe, so only the calling
# thread may call these.
TRACED = tuple((module_name, path) for module_name, path, _ in _tracer_targets())

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


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("failing", [None, "first", 0, 4],
                         ids=["none", "first", "first_block", "later"])
def test_run_all_ends_every_task_before_it_returns_or_raises(failing, threads, monkeypatch):
    """`_in_row_blocks` on a fresh pool, six one-row blocks and a `first`
    task: each block runs once and the results come back in row order; when
    `first`, the first block or a later one (run by the pool or the calling
    thread) raises, the exception propagates once no block is running. At
    most _THREADS of `first` and the blocks run at once."""
    monkeypatch.setattr(layout, "_THREADS", threads)
    monkeypatch.setattr(layout, "_pool", None)
    lock = threading.Lock()
    running = peak = 0
    ran = [0] * 6
    firsts = 0

    def task(i):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        try:
            time.sleep(0.02)
            if i == failing:
                raise RuntimeError(f"task {i}")
        finally:
            with lock:
                running -= 1
        return i

    def kernel(rows, _):
        with lock:
            ran[rows.start] += 1
        return task(rows.start)

    def first():
        nonlocal firsts
        firsts += 1
        return task("first")

    try:
        if failing is None:
            assert layout._in_row_blocks(6, 1, kernel, first=first) == ("first", list(range(6)))
            assert ran == [1] * 6
        else:
            with pytest.raises(RuntimeError, match=f"task {failing}"):
                layout._in_row_blocks(6, 1, kernel, first=first)
            assert running == 0
            assert max(ran) == 1
        assert firsts == 1
        assert layout._pool is not None and peak <= threads
    finally:
        if layout._pool is not None:
            layout._pool.shutdown()


@pytest.mark.parametrize("n_rows", [0, 1, 40])
def test_first_runs_once_on_the_calling_thread_before_it_takes_a_block(n_rows, monkeypatch):
    """Three threads on a fresh pool: `first` runs once, on the calling
    thread, and that thread takes no block before it ends, also when there
    is one block (no pool) or no rows. With more blocks than threads the
    pool's threads take blocks while `first` runs."""
    monkeypatch.setattr(layout, "_THREADS", 3)
    monkeypatch.setattr(layout, "_pool", None)
    caller = threading.get_ident()
    lock = threading.Lock()
    events = []
    pool_block = threading.Event()

    def kernel(rows, _):
        with lock:
            events.append(("block", threading.get_ident()))
        if threading.get_ident() != caller:
            pool_block.set()
        return rows.start

    def first():
        with lock:
            events.append(("first", threading.get_ident()))
        if n_rows > 1:
            assert pool_block.wait(30), "no pool thread took a block while first ran"
        with lock:
            events.append(("first ended", threading.get_ident()))
        return "head"

    try:
        head, got = layout._in_row_blocks(n_rows, 1, kernel, first=first)
    finally:
        if layout._pool is not None:
            layout._pool.shutdown()
    assert (head, got) == ("head", list(range(n_rows)))
    assert [e for e in events if e[0] != "block"] == [("first", caller), ("first ended", caller)]
    ended = events.index(("first ended", caller))
    assert ("block", caller) not in events[:ended]
    assert (layout._pool is not None) == (n_rows > 1)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (300, 400)],
                         ids=["no_rows", "no_columns", "no_points", "300x400"])
def test_wrap_search_runs_first_once_on_the_calling_thread(shape, monkeypatch):
    """`pairwise_wrap_distance` hands `first` to its runner: at three threads
    it runs once on the calling thread, also when a point set is empty, and
    the distances and images are those of a search without it at one
    thread."""
    lay = build_hex_grid(500.0, 2, True)
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-1500, 1500, (shape[0], 2)), rng.uniform(-1500, 1500, (shape[1], 2))
    monkeypatch.setattr(layout, "_THREADS", 1)
    want = layout.pairwise_wrap_distance(a, b, lay)
    monkeypatch.setattr(layout, "_THREADS", 3)
    monkeypatch.setattr(layout, "_pool", None)
    calls = []
    try:
        got = layout.pairwise_wrap_distance(a, b, lay, first=lambda: calls.append(threading.get_ident()))
        # Only the search of 300 x 400 entries has more than one row block.
        assert (layout._pool is not None) == (shape == (300, 400))
    finally:
        if layout._pool is not None:
            layout._pool.shutdown()
    assert calls == [threading.get_ident()]
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape == shape and x.tobytes() == y.tobytes()


# The shape of the benchmark's throughput_single_site workload (one site of 30
# pairs), at fewer subframes: every table and wrap search is one row block.
_SINGLE_SITE = (
    "experiment = throughput\nisd_m = 500\nn_rings = 0\nwraparound = false\n"
    "n_cellular_per_sector = 0\nn_d2d_tx_per_sector = 10\nd2d_range_m = 50\n"
    "alpha_list =\nsnr_target_db_list =\nno_power_control = true\n"
    "n_drops = 2\nn_subframes = 200\nk_d2d = 5\n"
)


def test_small_work_starts_no_pool(tmp_path):
    """A single-site throughput run at two threads splits no work: in a fresh
    process it leaves the pool unstarted and `concurrent.futures` unimported."""
    config = tmp_path / "run.cfg"
    config.write_text(_SINGLE_SITE + f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    code = (
        "import sys\n"
        "from d2dsim import cli, layout\n"
        "layout._THREADS = 2\n"
        "assert cli.main([sys.argv[1], '--quiet']) == 0\n"
        "print(layout._pool is None, 'concurrent.futures' in sys.modules)\n"
    )
    src = str(pathlib.Path(layout.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, str(config)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]
    assert (tmp_path / "out" / "summary.txt").is_file()


def test_row_blocks_take_each_block_once_under_fast_switching(monkeypatch):
    """Four threads on a fresh pool, switching every microsecond: the
    threads share _in_row_blocks' block iterator, yet each block runs once,
    results come back in row order, and no scratch set is in use by two
    threads at once."""
    monkeypatch.setattr(layout, "_THREADS", 4)
    monkeypatch.setattr(layout, "_pool", None)
    lock = threading.Lock()
    ran = [0] * 400

    def kernel(rows, scratch):
        with lock:
            assert not scratch, "a scratch set in use by two threads"
            scratch.append(rows.start)
            ran[rows.start] += 1
        time.sleep(0)
        with lock:
            scratch.pop()
        return rows.start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, got = layout._in_row_blocks(len(ran), 1, kernel, list)
        assert layout._pool is not None
    finally:
        sys.setswitchinterval(interval)
        if layout._pool is not None:
            layout._pool.shutdown()
    assert got == list(range(len(ran)))
    assert ran == [1] * len(ran)


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
