"""Batch front-end: parse a flat key = value config, run one experiment, and
emit CSV samples plus human-readable summary and manifest files.

The manifest echoes every resolved parameter in config syntax, so it can be
fed back in as a config file to reproduce the run bit-exactly (the version and
duration lines are comments).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .engine import (
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
    sinr_summary,
    throughput_summary,
)
from .scheduling import CoordinationMode


class ConfigError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"config line {line}: {message}")
        self.line = line


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    t = text.strip()
    if not t:
        return ()
    return tuple(float(part.strip()) for part in t.split(","))


def _parse_coordination(text: str) -> CoordinationMode:
    t = text.strip().lower()
    if t == "uncoordinated":
        return CoordinationMode("uncoordinated")
    if t == "tdm":
        return CoordinationMode("tdm")
    if t.startswith("reuse:"):
        return CoordinationMode("reuse", int(t.split(":", 1)[1]))
    raise ValueError(f"expected uncoordinated|tdm|reuse:k, got {text!r}")


def _format_coordination(mode: CoordinationMode) -> str:
    if mode.kind == "reuse":
        return f"reuse:{mode.k}"
    return mode.kind


# One parser per declared field type; keys follow the field order.
_TYPE_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "CoordinationMode": _parse_coordination,
    "tuple[float, ...]": _parse_float_list,
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}

CONFIG_KEYS = tuple(_PARSERS)


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key = value file; unknown keys are hard errors, missing
    keys take the documented defaults."""
    values = {}
    key_lines = {}
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        line = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise ConfigError(line, f"not valid UTF-8: {exc.reason} at byte {exc.start}") from None
    # Lines split as a text-mode file splits them: at \n, \r\n and \r.
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(lineno, f"unknown key {key!r}")
        if key in values:
            raise ConfigError(lineno, f"duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](value.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(lineno, f"bad value for {key!r}: {exc}") from exc
        key_lines[key] = lineno
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        # Attribute the contradiction to the most relevant configured line.
        line = 0
        for key in reversed(list(key_lines)):
            if key in str(exc):
                line = key_lines[key]
                break
        raise ConfigError(line, str(exc)) from exc


def _fmt(value) -> str:
    """Numbers with 6 significant digits; ints stay exact."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _echo(value) -> str:
    """`_fmt`, or `repr` for a float that `_fmt` does not round-trip."""
    return repr(value) if isinstance(value, float) and float(_fmt(value)) != value else _fmt(value)


def config_echo_lines(cfg: ExperimentConfig) -> list[str]:
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(cfg, key)
        if key == "coordination":
            text = _format_coordination(value)
        elif key in ("alpha_list", "snr_target_db_list"):
            text = ", ".join(_echo(v) for v in value)
        else:
            text = _echo(value)
        lines.append(f"{key} = {text}")
    return lines


def _manifest_text(cfg: ExperimentConfig, duration_s: float) -> str:
    echo = "".join(line + "\n" for line in config_echo_lines(cfg))
    return echo + f"# version = {__version__}\n# duration_s = {duration_s:.3f}\n"


# Rows joined into one string per write: bounds the text held in memory.
_CHUNK_ROWS = 1 << 16


def _csv_rows(samples, template: str, columns):
    """The CSV rows of ``samples``, one string per _CHUNK_ROWS rows: each row
    is ``template % (its entry of each list columns(chunk) returns)``. Float
    cells are ``%.6g`` of Python floats, the text ``_fmt`` gives."""
    for start in range(0, len(samples), _CHUNK_ROWS):
        cols = columns(samples[start:start + _CHUNK_ROWS])
        cells = [None] * (len(cols) * len(cols[0]))
        for i, col in enumerate(cols):
            cells[i::len(cols)] = col
        yield (template * len(cols[0])) % tuple(cells)


def _sinr_csv(report: ExperimentReport):
    heads = np.array([
        f"{si},{_fmt(s.alpha)},{_fmt(s.snr_target_db)}," if s.enabled else f"{si},,,"
        for si, s in enumerate(report.settings)
    ], dtype=object)

    def columns(chunk):
        # The row start of each setting, then each distinct (drop, sector,
        # link) triple formatted once, then the SINR.
        n = len(chunk)
        drop, sector, link = chunk["drop"], chunk["sector"], chunk["link"]
        order = np.lexsort((link, sector, drop))
        d, s, k = drop[order], sector[order], link[order]
        first = np.ones(n, dtype=bool)  # the first sorted row of each triple
        first[1:] = (d[1:] != d[:-1]) | (s[1:] != s[:-1]) | (k[1:] != k[:-1])
        triple = np.empty(n, dtype=np.intp)
        triple[order] = np.cumsum(first) - 1
        prefixes = np.array(["%d,%d,%d," % t for t in zip(
            d[first].tolist(), s[first].tolist(), k[first].tolist())], dtype=object)
        return (heads[chunk["setting_id"]].tolist(), prefixes[triple].tolist(),
                chunk["sinr_db"].tolist())

    yield "setting_id,alpha,snr_target_db,drop,sector,link,sinr_db\n"
    yield from _csv_rows(report.samples, "%s%s%.6g\n", columns)


def _throughput_csv(baseline, offload):
    yield "run,drop,flow,role,throughput_bps\n"
    for report in (baseline, offload):
        yield from _csv_rows(
            report.samples, f"{report.run_label},%d,%d,%s,%.6g\n",
            lambda chunk: [chunk[k].tolist() for k in ("drop", "flow", "role", "throughput_bps")],
        )


def _sinr_summary_text(report: ExperimentReport) -> str:
    lines = ["experiment = sinr", f"n_samples = {report.samples.size}"]
    for row in sinr_summary(report):
        head = f"setting {row['setting_id']} ({row['label']}):"
        if row["n"]:
            lines.append(
                f"{head} fraction_above_-6dB = {_fmt(row['fraction_above'])}, "
                f"mean_db = {_fmt(row['mean_db'])}, p5_db = {_fmt(row['p5_db'])}, "
                f"n = {row['n']}"
            )
        else:
            lines.append(f"{head} no samples")
    return "\n".join(lines) + "\n"


def _throughput_summary_text(baseline, offload, k_d2d: int) -> str:
    s = throughput_summary(baseline, offload)
    lines = [
        "experiment = throughput",
        f"k_d2d = {k_d2d}",
        f"n_flows_per_run = {s['n']}",
        f"baseline: mean_bps = {_fmt(s['baseline_mean_bps'])}, p5_bps = {_fmt(s['baseline_p5_bps'])}",
        f"offload: mean_bps = {_fmt(s['offload_mean_bps'])}, p5_bps = {_fmt(s['offload_p5_bps'])}",
        f"gain_mean = {_fmt(s['gain_mean'])}",
        f"gain_p5 = {_fmt(s['gain_p5'])}",
    ]
    return "\n".join(lines) + "\n"


def _diagnostics_text(reports: tuple[ExperimentReport, ...]) -> str:
    counters = reports[0].counters
    lines = [(f.name, getattr(counters, f.name)) for f in fields(counters)]
    lines += [(f"{r.run_label}_starved_flows", r.starved_flows) for r in reports if r.run_label]
    lines += [("offload_d2d_grants", r.d2d_grants) for r in reports if r.run_label == "offload"]
    return "".join(f"{name} = {value}\n" for name, value in lines)


def emit_reports(result, cfg: ExperimentConfig, out_dir: str, duration_s: float) -> str:
    """Write the CSV, summary, diagnostics and manifest files; returns the
    summary text."""
    if cfg.experiment == "sinr":
        reports, csv_name, csv_chunks = (result,), "sinr_samples.csv", _sinr_csv(result)
        summary = _sinr_summary_text(result)
    else:
        reports, csv_name, csv_chunks = result, "throughput.csv", _throughput_csv(*result)
        summary = _throughput_summary_text(*result, cfg.k_d2d)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in (
        (csv_name, csv_chunks),
        ("summary.txt", [summary]),
        ("diagnostics.txt", [_diagnostics_text(reports)]),
        ("manifest.txt", [_manifest_text(cfg, duration_s)]),
    ):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.writelines(text)
    return summary


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line machine-parsable errors
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = _Parser(prog="d2dsim", description="Run one simulation experiment.")
    parser.add_argument("config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary on stdout")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        result = run_experiment(cfg)
        summary = emit_reports(result, cfg, cfg.out_dir, time.perf_counter() - start)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: reduce n_rings, the per-sector terminal "
              "counts or n_drops", file=sys.stderr)
        return 1
    if not args.quiet:
        sys.stdout.write(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
