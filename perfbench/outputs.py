"""Output checks, run outside the timed region.

`file_digests` hashes what one repetition wrote. For the default seed the
digests must equal those recorded in golden.json; for any other seed
`check_structure` checks the files against the config instead: row counts,
finite values, and a summary that matches the library's own summary functions
recomputed from the CSV.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np

from d2dsim import engine
from d2dsim.layout import build_hex_grid

SINR_HEADER = ["setting_id", "alpha", "snr_target_db", "drop", "sector", "link", "sinr_db"]
THROUGHPUT_HEADER = ["run", "drop", "flow", "role", "throughput_bps"]

# Summary numbers are printed with 6 significant digits and the CSV values it
# is recomputed from are rounded the same way, so the two may differ by a few
# units in the sixth digit.
_REL_TOL = 3e-5
_PAIR = re.compile(r"([A-Za-z_][\w\-]*) = ([^,\s]+)")
_SETTING = re.compile(r"^setting (\d+) \((.*)\):", re.MULTILINE)


def csv_name(cfg) -> str:
    return "sinr_samples.csv" if cfg.experiment == "sinr" else "throughput.csv"


def file_digests(cfg, out_dir) -> dict[str, str]:
    """SHA-256 of the CSV, summary.txt, and manifest.txt without its comment
    lines (`# duration_s` differs on every run)."""
    out = Path(out_dir)
    manifest = b"".join(
        line
        for line in (out / "manifest.txt").read_bytes().splitlines(keepends=True)
        if not line.startswith(b"#")
    )
    return {
        "csv": hashlib.sha256((out / csv_name(cfg)).read_bytes()).hexdigest(),
        "summary": hashlib.sha256((out / "summary.txt").read_bytes()).hexdigest(),
        "manifest": hashlib.sha256(manifest).hexdigest(),
    }


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is {rows[:1]}, expected {header}")
    return rows[1:]


def _finite(values: np.ndarray, what: str) -> list[str]:
    bad = int(np.count_nonzero(~np.isfinite(values)))
    return [f"{bad} non-finite {what} values"] if bad else []


def _sinr_report(cfg, rows) -> tuple[object, list[str]]:
    samples = np.zeros(len(rows), dtype=engine.SINR_SAMPLE_DTYPE)
    cols = list(zip(*rows)) if rows else [()] * len(SINR_HEADER)
    for name in ("setting_id", "drop", "sector", "link"):
        samples[name] = np.array(cols[SINR_HEADER.index(name)], dtype=np.int64)
    samples["sinr_db"] = np.array(cols[-1], dtype=float)
    report = engine.ExperimentReport("sinr", tuple(engine.sweep_settings(cfg)), samples)
    return report, _finite(samples["sinr_db"], "sinr_db")


def _expected_sinr(cfg, report) -> tuple[list, list]:
    pairs = [("experiment", "sinr"), ("n_samples", report.samples.size)]
    settings = []
    for row in engine.sinr_summary(report):
        settings.append((str(row["setting_id"]), row["label"]))
        if row["n"]:
            pairs += [
                ("fraction_above_-6dB", row["fraction_above"]),
                ("mean_db", row["mean_db"]),
                ("p5_db", row["p5_db"]),
                ("n", row["n"]),
            ]
    return pairs, settings


def _throughput_reports(cfg, rows) -> tuple[tuple, list[str]]:
    problems = []
    runs = {}
    for label in ("baseline", "offload"):
        sel = [r for r in rows if r[0] == label]
        samples = np.zeros(len(sel), dtype=engine.THROUGHPUT_SAMPLE_DTYPE)
        for i, (_, drop, flow, role, bps) in enumerate(sel):
            samples[i] = (int(drop), int(flow), role, float(bps))
        problems += _finite(samples["throughput_bps"], f"{label} throughput")
        if np.any(samples["throughput_bps"] < 0):
            problems.append(f"negative {label} throughput")
        runs[label] = engine.ExperimentReport(
            "throughput", (), samples, run_label=label
        )
    if len(rows) != runs["baseline"].samples.size + runs["offload"].samples.size:
        problems.append("rows with a run label other than baseline/offload")
    n_sectors = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound).n_sectors
    n_d2d = int(np.count_nonzero(runs["offload"].samples["role"] == "d2d"))
    if n_d2d != cfg.n_drops * n_sectors * cfg.k_d2d:
        problems.append(f"{n_d2d} offloaded flows, expected {cfg.n_drops * n_sectors * cfg.k_d2d}")
    if np.any(runs["baseline"].samples["role"] != "cellular"):
        problems.append("baseline run has non-cellular flows")
    return (runs["baseline"], runs["offload"]), problems


def _expected_throughput(cfg, baseline, offload) -> tuple[list, list]:
    s = engine.throughput_summary(baseline, offload)
    pairs = [
        ("experiment", "throughput"),
        ("k_d2d", cfg.k_d2d),
        ("n_flows_per_run", s["n"]),
        ("mean_bps", s["baseline_mean_bps"]),
        ("p5_bps", s["baseline_p5_bps"]),
        ("mean_bps", s["offload_mean_bps"]),
        ("p5_bps", s["offload_p5_bps"]),
        ("gain_mean", s["gain_mean"]),
        ("gain_p5", s["gain_p5"]),
    ]
    return pairs, []


def _same(text: str, expected, abs_tol: float) -> bool:
    if isinstance(expected, str):
        return text == expected
    value = float(text)
    if isinstance(expected, int):
        return value == expected
    if not (math.isfinite(value) and math.isfinite(expected)):
        return text == f"{expected:.6g}"
    return math.isclose(value, expected, rel_tol=_REL_TOL, abs_tol=abs_tol)


def check_structure(cfg, out_dir) -> list[str]:
    """Problems found in one repetition's files; an empty list means they pass."""
    out = Path(out_dir)
    n_sectors = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound).n_sectors
    if cfg.experiment == "sinr":
        rows = _read_csv(out / csv_name(cfg), SINR_HEADER)
        expected_rows = engine.expected_sinr_sample_count(cfg, n_sectors)
        report, problems = _sinr_report(cfg, rows)
        pairs, settings = _expected_sinr(cfg, report)
        # One sample crossing -6 dB through CSV rounding moves a fraction by 1/n.
        frac_tol = 1.5 / max(1, expected_rows // max(1, len(settings)))
    else:
        rows = _read_csv(out / csv_name(cfg), THROUGHPUT_HEADER)
        flows = cfg.n_drops * n_sectors * (cfg.n_cellular_per_sector + cfg.n_d2d_tx_per_sector)
        expected_rows = 2 * flows
        (baseline, offload), problems = _throughput_reports(cfg, rows)
        pairs, settings = _expected_throughput(cfg, baseline, offload)
        frac_tol = 0.0
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} CSV rows, expected {expected_rows}")

    summary = (out / "summary.txt").read_text(encoding="utf-8")
    found = _PAIR.findall(summary)
    if [k for k, _ in found] != [k for k, _ in pairs]:
        problems.append(f"summary keys {[k for k, _ in found]} != {[k for k, _ in pairs]}")
    else:
        for (key, text), (_, expected) in zip(found, pairs):
            tol = frac_tol if key.startswith("fraction") else 0.0
            if not _same(text, expected, tol):
                problems.append(f"summary {key} = {text}, recomputed {expected!r}")
    if _SETTING.findall(summary) != settings:
        problems.append("summary setting labels differ from the sweep")
    return problems
