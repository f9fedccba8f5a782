"""Per-layer metrics, derived from the spans of one traced run.

METRICS lists every per-layer metric with its unit, which way is better, the
end-to-end metric and workload it should move, and how it is derived.
BENCHMARK.json's "per_layer" holds the same names, units and directions.
Spans are [name, start_ns, end_ns, parent, counts] (see trace.py). derive()
gives None for a metric whose spans are absent, so a probe that stopped
recording shows as such rather than as a value of 0.
"""

from __future__ import annotations

from collections import defaultdict

KINDS = ("value", "shift", "comment", "class", "unit", "rename")
# edits that change no meaning: every revalidation they cause is wasted
NO_OP_KINDS = ("comment", "shift")

# name, unit, better, moves (end-to-end metric on workload)
METRICS = [
    ("source.parse_workspace_s", "s", "lower", "cli_compile op_* (cold compile), every setup_s"),
    ("source.parse_mb_per_s", "MB/s", "higher", "cli_compile op_* (cold compile), every setup_s"),
    ("source.units_parsed", "count", "lower", "cli_compile op_* (cold compile), every setup_s"),
    ("source.parse_unit_ms", "ms", "lower", "edit_fold op_p50_ms (small share)"),
    ("kernel.resolve_s", "s", "lower", "cli_compile op_* (cold compile)"),
    ("kernel.resolve_fold_ms", "ms", "lower", "edit_fold op_* and edit_ms"),
    ("graph.build_s", "s", "lower", "cli_compile op_* (cold compile), edit_fold op_p50_ms"),
    ("graph.nodes", "count", "lower", "cli_compile op_* (cold compile), edit_fold op_p50_ms"),
    ("graph.edges", "count", "lower", "cli_compile op_* (cold compile), edit_fold op_p50_ms"),
    ("graph.closure_first_ms", "ms", "lower", "edit_fold class folds (op_p75_ms)"),
    ("graph.closure_warm_ms", "ms", "lower", "edit_fold class folds (op_p75_ms)"),
    *[(f"graph.dirty_size.{k}", "count", "lower", "edit_fold class folds (op_p75_ms)") for k in KINDS],
    ("compiler.validate_s", "s", "lower", "cli_compile op_* (cold compile)"),
    ("compiler.validate_us_per_element", "us", "lower", "cli_compile op_* (cold compile)"),
    *[(f"compiler.seeds.{k}", "count", "lower", "edit_fold op_p50_ms, edit_ms") for k in KINDS],
    *[(f"compiler.revalidated.{k}", "count", "lower", "edit_fold op_p50_ms, edit_ms") for k in KINDS],
    *[(f"compiler.useful_ratio.{k}", "ratio", "higher", "edit_fold op_p50_ms") for k in NO_OP_KINDS],
    ("compiler.cycle_s", "s", "lower", "cli_compile op_* (cold compile), edit_fold op_p50_ms"),
    ("compiler.conformance_ms", "ms", "lower", "vm_serve edit_ms, edit_fold op_p50_ms"),
    ("compiler.merge_ms", "ms", "lower", "vm_serve edit_ms, edit_fold op_p50_ms"),
    ("compiler.state_save_s", "s", "lower", "cli_compile op_* and peak_rss_mb"),
    ("compiler.state_load_s", "s", "lower", "cli_compile op_* and peak_rss_mb"),
    ("compiler.state_mb", "MB", "lower", "cli_compile op_* and peak_rss_mb"),
    ("compiler.fold_residual_ms", "ms", "lower", "edit_fold op_p50_ms"),
    ("cli.startup_s", "s", "lower", "cli_compile op_*"),
    ("cli.overhead_s", "s", "lower", "cli_compile op_*"),
    ("watch.idle_poll_ms", "ms", "lower", "edit_fold op_p50_ms"),
    ("watch.reparsed_units", "count", "lower", "edit_fold op_p50_ms"),
    ("watch.hash_skipped_units", "count", "higher", "edit_fold op_p50_ms"),
    ("vm.get_warm_us", "us", "lower", "vm_serve op_p50_ms"),
    ("vm.get_cold_us", "us", "lower", "vm_serve op_tail_ms"),
    ("vm.get_class_us", "us", "lower", "vm_serve op_p50_ms"),
    ("vm.cold_share", "ratio", "lower", "vm_serve op_p50_ms, op_tail_ms"),
    ("vm.reload_us", "us", "lower", "vm_serve edit_ms"),
    ("vm.model_ms", "ms", "lower", "vm_serve edit_ms"),
    ("schema.generate_ms", "ms", "lower", "edit_fold class folds, op_p50_ms"),
    ("schema.mb", "MB", "lower", "edit_fold class folds, op_p50_ms"),
    ("schema.validate_ms_per_unit", "ms", "lower", "edit_fold op_p50_ms"),
    ("rename.plan_ms", "ms", "lower", "edit_fold rename folds (op_p50_ms)"),
    ("rename.patches", "count", "lower", "edit_fold rename folds (op_p50_ms)"),
    ("rename.files", "count", "lower", "edit_fold rename folds (op_p50_ms)"),
    ("rename.apply_ms", "ms", "lower", "edit_fold rename folds (op_p50_ms)"),
    ("trace.overhead_pct", "%", "lower", "none: traced / untraced time of the named workload"),
]


def _median(values) -> float | None:
    values = sorted(values)
    if not values:
        return None
    mid = len(values) // 2
    return float(values[mid]) if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0


class Spans:
    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        self.named: dict[str, list[int]] = defaultdict(list)
        for i, (name, _s, _e, parent, _c) in enumerate(spans):
            self.children[parent].append(i)
            self.named[name].append(i)

    def seconds(self, i: int) -> float:
        return (self.spans[i][2] - self.spans[i][1]) / 1e9

    def count(self, i: int, key: str, default=0):
        return (self.spans[i][4] or {}).get(key, default)

    def kids(self, i: int, name: str) -> list[int]:
        return [c for c in self.children[i] if self.spans[c][0] == name]

    def under(self, name: str, ancestor: str, **counts) -> list[int]:
        """Spans called `name` with an ancestor called `ancestor` whose
        counts include `counts`."""
        out = []
        for i in self.named[name]:
            up = self.spans[i][3]
            while up >= 0:
                if self.spans[up][0] == ancestor and all(self.count(up, k) == v for k, v in counts.items()):
                    out.append(i)
                    break
                up = self.spans[up][3]
        return out

    def descendants(self, i: int, name: str) -> list[int]:
        out, todo = [], list(self.children[i])
        while todo:
            c = todo.pop()
            if self.spans[c][0] == name:
                out.append(c)
            todo += self.children[c]
        return out

    def self_seconds(self, i: int) -> float:
        return self.seconds(i) - sum(self.seconds(c) for c in self.children[i])


def derive(spans, overhead_pct: float) -> dict[str, float | None]:
    """Every metric of METRICS, by name; None where its spans are absent."""
    s = Spans(spans)
    m: dict[str, float] = {}
    sec = s.seconds

    parses = s.named["source.parse_workspace"]
    m["source.parse_workspace_s"] = _median(sec(i) for i in parses)
    chars = sum(s.count(u, "chars") for i in parses for u in s.kids(i, "source.parse_unit"))
    busy = sum(sec(i) for i in parses)
    m["source.parse_mb_per_s"] = chars / 1e6 / busy if busy and chars else None
    m["source.units_parsed"] = _median(n for n in (len(s.kids(i, "source.parse_unit")) for i in parses) if n)
    m["source.parse_unit_ms"] = _median(sec(i) * 1e3 for i in s.under("source.parse_unit", "bench.edit"))

    full = s.named["compiler.compile_model"]

    def in_full(name):
        return [c for i in full for c in s.kids(i, name)]

    m["kernel.resolve_s"] = _median(sec(i) for i in in_full("kernel.resolve"))
    folds = s.under("compiler.incremental_compile", "bench.edit")
    m["kernel.resolve_fold_ms"] = _median(sec(c) * 1e3 for i in folds for c in s.kids(i, "kernel.resolve"))

    builds = in_full("graph.build")
    m["graph.build_s"] = _median(sec(i) for i in builds)
    m["graph.nodes"] = _median(s.count(i, "nodes") for i in builds)
    m["graph.edges"] = _median(s.count(i, "edges") for i in builds)
    probe = s.under("graph.closure", "bench.closure_probe")
    m["graph.closure_first_ms"] = sec(probe[0]) * 1e3 if probe else None
    m["graph.closure_warm_ms"] = sec(probe[1]) * 1e3 if len(probe) > 1 else None

    # an edit that needs no closure has dirty size 0, but some edit must need one
    closures = bool(s.under("graph.closure", "bench.edit"))
    for kind in KINDS:
        edits = [i for i in s.named["bench.edit"] if s.count(i, "kind", "") == kind]
        m[f"graph.dirty_size.{kind}"] = _median(
            max([s.count(c, "n") for c in s.descendants(i, "graph.closure")], default=0)
            for i in edits) if closures else None
        m[f"compiler.seeds.{kind}"] = _median(
            s.count(c, "n") for i in edits for c in s.descendants(i, "compiler.changed_element_ids"))
        revalidated = [s.count(c, "revalidated") for i in edits
                       for c in s.descendants(i, "compiler.incremental_compile")]
        m[f"compiler.revalidated.{kind}"] = _median(revalidated)
        if kind in NO_OP_KINDS:
            # useful revalidations are 0 here; the base is the revalidated count
            m[f"compiler.useful_ratio.{kind}"] = None if not revalidated else 0.0 if sum(revalidated) else 1.0

    validate = [(sum(sec(c) for c in kids), len(kids))
                for kids in (s.kids(i, "compiler.validate_element") for i in full) if kids]
    m["compiler.validate_s"] = _median(t for t, _ in validate)
    m["compiler.validate_us_per_element"] = _median(t / n * 1e6 for t, n in validate)
    m["compiler.cycle_s"] = _median(sec(i) for i in in_full("compiler.injection_cycles"))
    m["compiler.conformance_ms"] = _median(sec(i) * 1e3 for i in s.named["compiler.check_conformance"])
    m["compiler.merge_ms"] = _median(sec(i) * 1e3 for i in s.named["compiler.all_diagnostics"])
    m["compiler.state_save_s"] = _median(sec(i) for i in s.named["compiler.save_state"])
    m["compiler.state_load_s"] = _median(
        sec(i) for mode in ("warm_noop", "warm_edit") for i in s.under("compiler.load_state", "bench.cli", mode=mode))
    cold = [i for i in s.named["bench.cli"] if s.count(i, "mode", "") == "cold"]
    m["compiler.state_mb"] = _median(s.count(i, "state_bytes") / 1e6 for i in cold)
    m["compiler.fold_residual_ms"] = _median(s.self_seconds(i) * 1e3 for i in folds)

    m["cli.startup_s"] = _median(sec(i) for i in s.named["bench.cli_kernel"])
    # a traced child's root spans are the children of its bench.cli span
    m["cli.overhead_s"] = _median(s.self_seconds(i) for i in cold)

    m["watch.idle_poll_ms"] = _median(sec(i) * 1e3 for i in s.under("watch.poll", "bench.idle_poll"))
    polls = s.under("watch.poll", "bench.edit")
    m["watch.reparsed_units"] = _median(len(s.kids(i, "source.parse_unit")) for i in polls)
    m["watch.hash_skipped_units"] = _median(
        len(s.kids(i, "source.parse_unit"))
        - sum(s.count(c, "changed_units") for c in s.kids(i, "compiler.incremental_compile"))
        for i in polls)

    # requests of the serving loop, not the gets inside reloads
    gets = s.kids(s.named["bench.vm_serve"][0], "vm.get_instance") if s.named["bench.vm_serve"] else []
    warm = [sec(i) * 1e6 for i in gets if not s.count(i, "cold")]
    cold_gets = [sec(i) * 1e6 for i in gets if s.count(i, "cold")]
    m["vm.get_warm_us"] = _median(warm)
    m["vm.get_cold_us"] = _median(cold_gets)
    m["vm.get_class_us"] = _median(sec(i) * 1e6 for i in s.named["vm.get_class"])
    m["vm.cold_share"] = len(cold_gets) / len(gets) if cold_gets else None
    m["vm.reload_us"] = _median(sec(i) * 1e6 for i in s.named["vm.reload"])
    m["vm.model_ms"] = _median(sec(i) * 1e3 for i in s.under("compiler.model", "bench.reload"))

    generated = s.named["schema.generate_schemas"]
    m["schema.generate_ms"] = _median(sec(i) * 1e3 for i in generated)
    m["schema.mb"] = _median(s.count(i, "chars") / 1e6 for i in generated)
    m["schema.validate_ms_per_unit"] = _median(sec(i) * 1e3 for i in s.named["schema.validate_with_schema"])

    plans = s.named["rename.rename_element"]
    m["rename.plan_ms"] = _median(sec(i) * 1e3 for i in plans)
    m["rename.patches"] = _median(s.count(i, "patches") for i in plans)
    m["rename.files"] = _median(s.count(i, "files") for i in plans)
    m["rename.apply_ms"] = _median(sec(i) * 1e3 for i in s.named["rename.apply_patchset"])

    m["trace.overhead_pct"] = overhead_pct
    return m
