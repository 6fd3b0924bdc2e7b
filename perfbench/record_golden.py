"""Record golden.json: the output digests and grant digest of every workload
at the default seed.

    python3 perfbench/record_golden.py

Run it only when a change to d2dsim is meant to change output bytes, and say
in that change which bytes changed and why. Each recorded repetition must
pass the structural output check, and a traced repetition must reproduce the
same bytes.
"""

import json

import run
import workloads


def record(name: str) -> dict:
    seed = workloads.DEFAULT_SEED
    config_path = workloads.write_config(name, seed)
    out_dir = workloads.ROOT / workloads.out_dir(name)
    cfg = run.cli.parse_config(str(config_path))
    run.repetition(cfg, out_dir)
    problems = run.outputs.check_structure(cfg, out_dir)
    if problems:
        raise SystemExit(f"{name}: {'; '.join(problems)}")
    digests = run.outputs.file_digests(cfg, out_dir)
    layer = run.traced_repetition(config_path, out_dir, digests, [])
    return {"seed": seed, **digests, "grants_digest": layer["scheduling.grants_digest"]}


def main() -> None:
    golden = {name: record(name) for name in workloads.WORKLOADS}
    path = run.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
