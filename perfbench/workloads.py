"""The benchmark's workloads and the environment every benchmark process runs in.

Each workload is a d2dsim config file whose `seed` is the benchmark's
`--seed`, so the same seed always gives the same inputs. Sizes are chosen so
that one repetition (run_experiment + emit_reports) takes about 1-2 s on a
2-vCPU machine, which leaves room for a median over many repetitions inside
one measured run.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ".perfbench_out"

# The seed whose output digests are recorded in golden.json. Any other seed
# gets the structural output check instead.
DEFAULT_SEED = 1

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_MAX_POWER = {"alpha_list": "", "snr_target_db_list": "", "no_power_control": "true"}

WORKLOADS = {
    # 57 sectors with wraparound and the default 13-setting power sweep:
    # geometry (sector_of_point, wrap distances), coupling tables, the SINR
    # evaluation and CSV emission; almost no scheduling.
    "sinr_wide_area": {
        "experiment": "sinr",
        "isd_m": "1732",
        "n_rings": "2",
        "wraparound": "true",
        "n_cellular_per_sector": "0",
        "n_d2d_tx_per_sector": "10",
        "d2d_range_m": "250",
        "coordination": "uncoordinated",
        "n_drops": "5",
    },
    # The shape of configs/throughput_offload.cfg: the PF subframe loop and
    # the rate map dominate; geometry, coupling and emission are under 1%.
    "throughput_single_site": {
        "experiment": "throughput",
        "isd_m": "500",
        "n_rings": "0",
        "wraparound": "false",
        "n_cellular_per_sector": "0",
        "n_d2d_tx_per_sector": "10",
        "d2d_range_m": "50",
        **_MAX_POWER,
        "n_drops": "2",
        "n_subframes": "2000",
        "k_d2d": "5",
    },
    # The same offload study on 57 sectors: 570 flows per PF run, so the n^2
    # coupling-matrix build (loss_db) and cross-sector grant selection
    # dominate, and the O(flows^2) state shows in peak memory.
    "throughput_multi_site": {
        "experiment": "throughput",
        "isd_m": "500",
        "n_rings": "2",
        "wraparound": "true",
        "n_cellular_per_sector": "0",
        "n_d2d_tx_per_sector": "10",
        "d2d_range_m": "50",
        **_MAX_POWER,
        "n_drops": "1",
        "n_subframes": "200",
        "k_d2d": "5",
    },
}


def prepare_environment() -> None:
    """Cap BLAS/OpenMP threads at the CPUs this process may use and put the
    checkout's `src` first on the import path.

    Must run before numpy or d2dsim is imported. Exits with code 2 when the
    checkout holds no d2dsim sources, so a stray installed copy is never
    measured in their place.
    """
    if not (SRC / "d2dsim" / "__init__.py").is_file():
        print(f"error: no d2dsim sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    n_cpu = str(len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        os.environ[var] = n_cpu
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def out_dir(name: str) -> str:
    """Output directory of a workload, relative to the checkout root. It is
    echoed in manifest.txt, so it must not depend on where the checkout is."""
    return f"{OUT_ROOT}/{name}"


def config_text(name: str, seed: int, **overrides) -> str:
    """The config file of a workload at a seed; `overrides` shrink it in tests."""
    keys = dict(WORKLOADS[name])
    keys.update({k: str(v) for k, v in overrides.items()})
    keys["seed"] = str(seed % 2**64)
    keys["out_dir"] = out_dir(name)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def write_config(name: str, seed: int, **overrides) -> Path:
    """Write the workload's config under its output directory; returns its path."""
    directory = ROOT / out_dir(name)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "workload.cfg"
    path.write_text(config_text(name, seed, **overrides), encoding="utf-8")
    return path
