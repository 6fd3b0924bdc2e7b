"""d2dsim benchmark: one workload, measured in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the public entry points in one process, one at a time:
the workload's config (generated from the seed) through `cli.parse_config`,
then `engine.run_experiment` and `cli.emit_reports`. Outputs are checked
outside the timed region (see outputs.py); a repetition that raises or fails
the check counts as failed.

--trace 0 prints the end-to-end metrics: `wall_s` and `drops_per_s` as
medians over repetitions, `setup_s` and `peak_rss_mb` from fresh child
processes (probe.py). Times are scaled to a reference machine speed
(calibration.py). --trace 1 alternates untraced and traced repetitions
and prints the per-layer metrics (tracing.py). The last line of stdout is one
JSON object; the metric names and units come from BENCHMARK.json. The exit
code is 0 only when every attempted run passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

workloads.prepare_environment()

import calibration  # noqa: E402  (imports numpy, which needs the thread caps above)
import outputs  # noqa: E402  (imports d2dsim from the path set above)
import tracing  # noqa: E402
from d2dsim import cli, engine  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

SETUP_PROBES = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    pass


class Tally:
    """Attempted and failed runs; a failure is an exception, a non-zero child
    exit, or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def repetition(cfg, out_dir: Path) -> tuple[float, float]:
    """Run and emit once; returns (seconds in run_experiment, seconds until
    every file is written)."""
    start = time.perf_counter()
    result = engine.run_experiment(cfg)
    ran = time.perf_counter()
    cli.emit_reports(result, cfg, str(out_dir), ran - start)
    return ran - start, time.perf_counter() - start


def check_reference(name: str, seed: int, cfg, out_dir: Path) -> dict[str, str]:
    """Full output check of one repetition's files; returns their digests."""
    problems = outputs.check_structure(cfg, out_dir)
    digests = outputs.file_digests(cfg, out_dir)
    if seed == workloads.DEFAULT_SEED:
        golden = GOLDEN[name]
        problems += [
            f"{key} digest {value} != recorded {golden[key]}"
            for key, value in digests.items()
            if value != golden[key]
        ]
    if problems:
        raise CheckFailed("; ".join(problems))
    return digests


def reference_repetition(name: str, seed: int, cfg, out_dir: Path) -> dict[str, str]:
    """The untimed first repetition, which also warms caches and lazy imports."""
    repetition(cfg, out_dir)
    return check_reference(name, seed, cfg, out_dir)


def check_same(cfg, out_dir: Path, reference: dict[str, str]) -> None:
    digests = outputs.file_digests(cfg, out_dir)
    if digests != reference:
        raise CheckFailed(f"outputs differ from the checked repetition: {digests}")


def checked_repetition(cfg, out_dir: Path, reference) -> tuple[float, float]:
    timing = repetition(cfg, out_dir)
    check_same(cfg, out_dir, reference)
    return timing


def spawn(args: list[str]) -> tuple[float, str]:
    """Run a fresh interpreter to completion; returns (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(
        args, cwd=workloads.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1:]} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def run_child(mode: str, config_path: Path) -> tuple[float, dict]:
    """Run probe.py in a fresh interpreter; returns (wall seconds, its report)."""
    elapsed, stdout = spawn([sys.executable, str(HERE / "probe.py"), mode, str(config_path)])
    return elapsed, json.loads(stdout.strip().splitlines()[-1])


def setup_probe(config_path: Path) -> tuple[float, float]:
    """(seconds of a set-up probe, seconds of a numpy-only interpreter just before it)."""
    reference, _ = spawn([sys.executable, "-c", "import numpy"])
    elapsed, _ = run_child("setup", config_path)
    return elapsed, reference


def emitted_counts(cfg, out_dir: Path) -> dict[str, float]:
    csv_bytes = (out_dir / outputs.csv_name(cfg)).read_bytes()
    sizes = [len(csv_bytes)] + [
        (out_dir / f).stat().st_size for f in ("summary.txt", "manifest.txt")
    ]
    return {"cli.rows_written": csv_bytes.count(b"\n") - 1, "cli.bytes_written": sum(sizes)}


def traced_repetition(config_path: Path, out_dir: Path, reference, spans: list) -> dict:
    """One repetition with every layer wrapped; returns its per-layer values."""
    tracer = tracing.Tracer()
    with tracer:
        start = time.perf_counter()
        cfg = cli.parse_config(str(config_path))
        _, wall = repetition(cfg, out_dir)
        total = time.perf_counter() - start
    check_same(cfg, out_dir, reference)
    values = tracer.metrics()
    values.update(emitted_counts(cfg, out_dir))
    emit_s = values.get("cli.emit_reports.s", 0.0)
    values["cli.rows_per_s"] = values["cli.rows_written"] / emit_s if emit_s else 0.0
    values["trace.wall_s"] = wall
    # Self times of the wrapped calls partition the traced time; what is left
    # is the benchmark's own code between the calls.
    self_total = sum(v for k, v in values.items() if k.count(".") == 1 and k.endswith(".self_s"))
    values["trace.residual_s"] = total - self_total
    spans.append(tracer.spans)
    return values


def summarize(samples: list[float]) -> str:
    return (f"median {statistics.median(samples):.6g} of {len(samples)}, "
            f"min {min(samples):.6g}, max {max(samples):.6g}")


def report(tally: Tally, specs: list[dict], values: dict, notes: dict) -> int:
    """Print every metric by name with its unit, then the JSON result line."""
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            print(f"{spec['name']}: absent (not measured)")
            continue
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = f"  ({notes[spec['name']]})" if spec["name"] in notes else ""
        print(f"{spec['name']} = {value:.6g} {spec['unit']}{note}")
    print(f"failed_frac = {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} attempted runs)")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def measure(args, tally: Tally, config_path: Path, out_dir: Path) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off, scaled to the reference speed."""
    values, notes = {}, {}
    setup = [p for p in (tally.attempt(setup_probe, config_path)
                         for _ in range(SETUP_PROBES)) if p is not None]
    if setup:
        values["setup_s"] = statistics.median(
            t / ref * calibration.NUMPY_IMPORT_REFERENCE_S for t, ref in setup
        )
        notes["setup_s"] = (f"raw {summarize([t for t, _ in setup])}; "
                            f"numpy import {summarize([r for _, r in setup])}")
    probe = tally.attempt(run_child, "rep", config_path)
    cfg = cli.parse_config(str(config_path))
    probe_digests = outputs.file_digests(cfg, out_dir) if probe else None
    if probe:
        values["peak_rss_mb"] = probe[1]["peak_rss_kb"] / 1024.0

    reference = tally.attempt(reference_repetition, args.workload, args.seed, cfg, out_dir)
    if reference is None:
        return values, notes
    if probe_digests is not None and probe_digests != reference:
        tally.failed += 1
        print("error: the child process wrote different outputs", file=sys.stderr)

    sim, wall, kernels, scales = [], [], [calibration.kernel_s()], []
    reps = 0
    deadline = time.perf_counter() + args.seconds
    while reps < MIN_REPS or time.perf_counter() < deadline:
        reps += 1
        gc.collect()
        timing = tally.attempt(checked_repetition, cfg, out_dir, reference)
        kernels.append(calibration.kernel_s())
        if timing is not None:
            sim.append(timing[0])
            wall.append(timing[1])
            scales.append(2 * calibration.KERNEL_REFERENCE_S / (kernels[-2] + kernels[-1]))
    if wall:
        values["wall_s"] = statistics.median(w * k for w, k in zip(wall, scales))
        values["drops_per_s"] = statistics.median(cfg.n_drops / (s * k) for s, k in zip(sim, scales))
        notes["wall_s"] = f"raw {summarize(wall)}; kernel {summarize(kernels)}"
        notes["drops_per_s"] = f"n_drops = {cfg.n_drops}; raw seconds in run_experiment {summarize(sim)}"
    return values, notes


def measure_traced(args, tally: Tally, config_path: Path, out_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced repetitions alternate."""
    cfg = cli.parse_config(str(config_path))
    reference = tally.attempt(reference_repetition, args.workload, args.seed, cfg, out_dir)
    if reference is None:
        return {}, {}
    untraced, traced, spans = [], [], []
    reps = 0
    deadline = time.perf_counter() + args.seconds
    while reps < MIN_REPS or time.perf_counter() < deadline:
        reps += 1
        gc.collect()
        timing = tally.attempt(checked_repetition, cfg, out_dir, reference)
        if timing is not None:
            untraced.append(timing[1])
        gc.collect()
        layer = tally.attempt(traced_repetition, config_path, out_dir, reference, spans)
        if layer is not None:
            traced.append(layer)
    if not (untraced and traced):
        return {}, {}
    values = {k: statistics.median(rep[k] for rep in traced) for k in traced[0]}
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(untraced)
    if args.seed == workloads.DEFAULT_SEED:
        recorded = GOLDEN[args.workload]["grants_digest"]
        if values["scheduling.grants_digest"] != recorded:
            tally.failed += 1
            print(f"error: grants digest {values['scheduling.grants_digest']} "
                  f"!= recorded {recorded}", file=sys.stderr)
    with open(out_dir / "trace_spans.jsonl", "w", encoding="utf-8") as fh:
        for rep, rep_spans in enumerate(spans):
            for span_id, parent, name, start, end in rep_spans:
                fh.write(json.dumps({"rep": rep, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
    notes = {"trace.wall_s": f"{len(traced)} traced, {len(untraced)} untraced repetitions"}
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config_path = workloads.write_config(args.workload, args.seed)
    out_dir = workloads.ROOT / workloads.out_dir(args.workload)
    tally = Tally()
    if args.trace:
        values, notes = measure_traced(args, tally, config_path, out_dir)
        specs = BENCHMARK["per_layer"]
    else:
        values, notes = measure(args, tally, config_path, out_dir)
        specs = BENCHMARK["end_to_end"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    return report(tally, specs, values, notes)


if __name__ == "__main__":
    raise SystemExit(main())
