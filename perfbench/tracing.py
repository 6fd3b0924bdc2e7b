"""Traced runs: wrap the layers' public functions from outside `src/`.

Inside a `with Tracer():` block, the functions named in TARGETS are replaced,
in every d2dsim module that binds them, by wrappers that return the callee's
value unchanged. Coarse calls record a span (name, start, end, parent span);
hot leaves only add to count and time totals, so that 1.3M `loss_db` calls
stay affordable. Every wrapper also records its self time: its duration minus
the time spent in wrapped callees. The originals are restored on exit.

A target whose function no longer exists is skipped, so its metrics are
absent rather than zero.
"""

from __future__ import annotations

import functools
import hashlib
import time

from d2dsim import channel, cli, engine, layout, radio, scheduling

MODULES = {
    "layout": layout,
    "channel": channel,
    "radio": radio,
    "scheduling": scheduling,
    "engine": engine,
    "cli": cli,
}

# (defining module, attribute path, span?). Metrics are named after the
# defining module, except that pairwise_wrap_distance is named after each
# calling module (layout.sector_of_point or channel.build_coupling_table).
TARGETS = (
    ("engine", "run_experiment", True),
    ("engine", "build_drop", True),
    ("layout", "drop_d2d_pairs", True),
    ("channel", "build_coupling_table", True),
    ("scheduling", "run_pf_uplink", True),
    ("cli", "parse_config", True),
    ("cli", "emit_reports", True),
    ("layout", "sector_of_point", False),
    ("layout", "pairwise_wrap_distance", False),
    ("channel", "CouplingTable.loss_db", False),
    ("radio", "rate_from_sinr", False),
    ("scheduling", "pf_select", False),
    ("scheduling", "pf_update", False),
)
_PER_CALLER = {"pairwise_wrap_distance"}


class Tracer:
    """Per-call accounting for one traced repetition."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.spans: list = []  # (span id, parent span id, name, start, end)
        self.table_entries = 0
        self.pf_runs: list = []  # (roles by flow id, granted subframes, n_subframes)
        self._child_s = [0.0]  # time in wrapped callees, one slot per open call
        self._open_spans = [None]
        self._patches: list = []

    def __enter__(self):
        for module_name, path, span in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(MODULES[module_name], owner_name, None)
                original = getattr(owner, attr, None)
                bindings = [(owner, module_name)] if original is not None else []
            else:
                original = getattr(MODULES[module_name], attr, None)
                bindings = [
                    (mod, name)
                    for name, mod in MODULES.items()
                    if original is not None and vars(mod).get(attr) is original
                ]
            for owner, caller in bindings:
                name = f"{caller if attr in _PER_CALLER else module_name}.{attr}"
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, span))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, name, fn, span):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        child_s = self._child_s
        open_spans = self._open_spans
        spans = self.spans
        observe = {
            "channel.build_coupling_table": self._observe_table,
            "scheduling.run_pf_uplink": self._observe_pf,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                span_id = len(spans)
                spans.append(None)
                parent = open_spans[-1]
                open_spans.append(span_id)
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = child_s.pop()
                child_s[-1] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - inner
                if span:
                    open_spans.pop()
                    spans[span_id] = (span_id, parent, name, start, end)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    def _observe_table(self, table, *args, **kwargs):
        self.table_entries += sum(
            a.size
            for a in (
                table.ue_ue_loss_db,
                table.ue_ue_shadow_db,
                table.ue_ue_los,
                table.ue_sector_loss_db,
                table.ue_sector_shadow_db,
                table.sector_ue_loss_db,
            )
        )

    def _observe_pf(self, result, sector_flows, n_subframes, *args, **kwargs):
        roles = {f.id: f.role for flows in sector_flows.values() for f in flows}
        self.pf_runs.append((roles, dict(result.granted_subframes), n_subframes))

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this repetition, by metric name."""
        out = {}
        for name, (calls, seconds, self_s) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
            out[f"{name}.self_s"] = self_s
            layer = f"{name.split('.', 1)[0]}.self_s"
            out[layer] = out.get(layer, 0.0) + self_s
        out["channel.table_entries"] = self.table_entries
        out.update(grant_fingerprint(self.pf_runs))
        if "scheduling.run_pf_uplink.s" in out:
            pf_s = out["scheduling.run_pf_uplink.s"]
            out["scheduling.flow_subframes_per_s"] = (
                out["scheduling.flow_subframes"] / pf_s if pf_s > 0 else 0.0
            )
        return out


def grant_fingerprint(pf_runs) -> dict[str, float]:
    """Exact grant counters of the PF runs of one repetition.

    `grants_digest` is the first 52 bits of a SHA-256 over every run's
    (flow id, granted subframes) list, so any flipped grant decision changes
    it. `d2d_grant_share` is the share of grants in offload runs (runs with a
    direct flow) that went to direct flows; 0 when there are none.
    """
    h = hashlib.sha256()
    starved = flow_subframes = d2d = offload_total = 0
    for roles, granted, n_subframes in pf_runs:
        h.update(repr(sorted(granted.items())).encode())
        starved += sum(1 for g in granted.values() if g == 0)
        flow_subframes += len(granted) * n_subframes
        if "d2d" in roles.values():
            offload_total += sum(granted.values())
            d2d += sum(g for fid, g in granted.items() if roles[fid] == "d2d")
    return {
        "scheduling.grants_digest": int(h.hexdigest()[:13], 16),
        "scheduling.starved_flows": starved,
        "scheduling.flow_subframes": flow_subframes,
        "scheduling.d2d_grant_share": d2d / offload_total if offload_total else 0.0,
    }
