"""Child-process probe, so that set-up time and peak memory are those of a
fresh interpreter.

    python3 perfbench/probe.py setup <config>   import, parse_config, build_hex_grid
    python3 perfbench/probe.py rep <config>     one repetition: parse, run, emit

Prints one JSON line with the process's own peak resident set size.
"""

import json
import resource
import sys

import workloads

workloads.prepare_environment()

from d2dsim import cli, engine, layout  # noqa: E402  (needs the path set above)


def main(mode: str, config_path: str) -> None:
    cfg = cli.parse_config(config_path)
    if mode == "setup":
        layout.build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
    elif mode == "rep":
        result = engine.run_experiment(cfg)
        cli.emit_reports(result, cfg, str(workloads.ROOT / cfg.out_dir), 0.0)
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
