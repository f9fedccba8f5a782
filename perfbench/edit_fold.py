"""edit_fold: one WatchSession fed a seeded script of saved edits.

Each fold is timed from the file write to poll() returning. In between, the
edited text is checked with validate_with_schema, as an editor would on save.
A rename is planned and applied through mtalk.rename, and its time includes
both. The script comes in do/undo pairs, so every cycle starts and ends on
the generated workspace.
"""

from __future__ import annotations

import os
import random
import time

from mtalk import compiler, graph, rename, schema
from mtalk.ids import ElementId
from mtalk.native import load_manifest
from mtalk.watch import WatchSession

from .harness import median, model_values, nearest_rank, same, tail_quantile
from .workspace import Step, Workspace, apply_text_step, bean_ids, written_type

KINDS = ("value", "shift", "comment", "class", "unit", "rename")


class Fixture:
    def __init__(self, ws: Workspace):
        self.ws = ws
        self.manifest = load_manifest(os.path.join(ws.root, "manifest.json"))
        self.session = WatchSession(ws.root, self.manifest)
        self.schemas = schema.generate_schemas(self.session.state)

    def read(self, rel: str) -> str:
        with open(os.path.join(self.ws.root, rel), encoding="utf-8") as f:
            return f.read()


def setup(run):
    ws = Workspace.generate(run.new_dir("ws"), run.spec)
    run.harness_built()
    return Fixture(ws)


def holds(fx: Fixture, step: Step, text: str | None) -> list[str]:
    """What is wrong with the session's model after folding `step`: it must
    hold the unit text written (`text`; None for a deleted unit) and show
    the edit's meaning. Empty when nothing is."""
    model = fx.session.state.resolved
    what = f"{step.kind} {step.phase}"
    if step.kind == "rename":
        present, gone = ElementId.parse(step.new), ElementId.parse(step.old)
        if present not in model.elements or gone in model.elements:
            return [f"{what}: the model does not have {step.new} in place of {step.old}"]
        return []
    unit = model.units.get(step.path)
    if text is None:
        return [f"{what}: the model still holds {step.path}"] if unit is not None else []
    if unit is None or unit.text != text:
        return [f"{what}: the model does not hold the text written to {step.path}"]
    if step.kind == "value":
        edited = (step.element, step.prop, step.new) if step.phase == "do" else None
        want = fx.ws.expected_values(step.element, edited)
        got = model_values(fx.session.state.model(), step.element)
        return [] if isinstance(got, dict) and same(got, want) else [f"{what}: {step.element} has {got}, the XML says {want}"]
    if step.kind == "class":
        props = model.classes[ElementId.parse(step.element)].own_properties
        types = [p.type.written for p in props if p.name == step.prop]
        want = written_type(step.new)
        return [] if types == [want] else [f"{what}: {step.element}.{step.prop} has type {types}, not {want}"]
    if step.kind == "unit":
        missing = [b for b in bean_ids(step.new) if ElementId.parse(b) not in model.elements]
        return [f"{what}: the model lacks {missing}"] if missing else []
    # shift and comment change only positions: the unit's first bean must
    # sit on the line the written text puts it
    first = unit.beans[0]
    line = text.count("\n", 0, text.index(f'<bean id="{first.written_id}"')) + 1
    found = model.elements[first.id].decl.span.line
    return [] if found == line else [f"{what}: {first.written_id} is on line {found}, not {line}"]


def fold(run, fx: Fixture, step: Step, span: str = "bench.edit") -> float:
    """Apply one step and fold it. Returns seconds from write to poll(),
    at reference host speed."""
    with run.span(span, kind=step.kind, phase=step.phase), run.timed() as timer:
        if step.kind == "rename":
            patchset, problems = rename.rename_element(fx.session.state, step.old, step.new)
            rename.apply_patchset(patchset, fx.ws.root)
            edited = patchset.paths()
            text = None
        else:
            text = apply_text_step(fx.ws.root, step)
            problems = [] if text is None else schema.validate_with_schema(fx.schemas[""], text, step.path)
        result = fx.session.poll()
    elapsed = timer.seconds
    problems = list(problems)
    if result is None:
        problems.append("poll() returned None after a write")
    elif result.diagnostics:
        problems += [d.render() for d in result.diagnostics]
    problems += holds(fx, step, text)
    if step.kind in ("class", "rename"):
        fx.schemas = schema.generate_schemas(fx.session.state)
    if step.kind == "rename":
        if not edited:
            problems.append("rename planned no patches")
        for rel in edited:
            if step.phase == "do":
                problems += schema.validate_with_schema(fx.schemas[""], fx.read(rel), rel)
            elif fx.read(rel) != fx.ws.texts[rel]:
                problems.append(f"{rel} not restored by the reverse rename")
    run.record(not problems, f"{step.kind} {step.phase} fold: {problems[:3]}")
    return elapsed


def cycle(run, fx: Fixture, k: int) -> list[tuple[str, float]]:
    """An idle poll, then one seeded do/undo pair of every edit kind."""
    with run.span("bench.idle_poll"):
        idle = fx.session.poll()
    run.record(idle is None, "idle poll reported a change")
    return [(step.kind, fold(run, fx, step)) for step in fx.ws.edit_cycle(run.seed, k)]


def final_check(run, fx: Fixture) -> None:
    """Outside any timing: the workspace is back to its generated bytes, and
    the session's diagnostics equal a from-scratch compile."""
    with run.span("bench.check"):
        found = {}
        for dirpath, _dirs, files in os.walk(fx.ws.root):
            for name in files:
                rel = os.path.relpath(os.path.join(dirpath, name), fx.ws.root).replace(os.sep, "/")
                found[rel] = fx.read(rel)
        run.record(found == fx.ws.texts, "workspace not restored to its generated files")
        _, full = compiler.compile_workspace(fx.ws.root, fx.manifest)
        run.record(fx.session.state.all_diagnostics() == full,
                   "watch diagnostics differ from a from-scratch compile")


def measure(run, fx: Fixture, seconds: float):
    """Whole cycles until the next one would end past `seconds` (at least one)."""
    folds: list[tuple[str, float]] = []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        folds += cycle(run, fx, k)
        k += 1
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    # read before the check, whose from-scratch compile holds a second state
    peak = run.peak_rss_mb()
    final_check(run, fx)
    ms = sorted(s * 1e3 for _, s in folds)
    by_kind = {kind: median([s * 1e3 for k_, s in folds if k_ == kind]) for kind in KINDS}
    e2e = {
        "op_p50_ms": nearest_rank(ms, 0.5),
        "op_p75_ms": nearest_rank(ms, 0.75),
        "op_tail_ms": nearest_rank(ms, tail_quantile(len(ms))),
        "edit_ms": by_kind["value"],
        "peak_rss_mb": peak,
    }
    report = {"fold_p50_ms": (e2e["op_p50_ms"], "ms"), "fold_p75_ms": (e2e["op_p75_ms"], "ms")}
    report.update({f"fold_{kind}_ms": (by_kind[kind], "ms") for kind in KINDS if kind != "comment"})
    report["folds"] = (len(ms), "count")
    report["op_tail_quantile"] = (tail_quantile(len(ms)), "quantile")
    return e2e, report


def traced(run, fx: Fixture, reference: bool):
    """Traced pass: one cycle, a closure probe on a fresh graph, the final
    check. With `reference`, one more value do/undo pair runs untraced then
    traced; their times are returned as (traced, untraced)."""
    cycle(run, fx, 0)
    rng = random.Random(f"edit_fold:probe:{run.seed}")
    with run.span("bench.closure_probe"):
        fresh = graph.build_dependency_graph(fx.session.state.resolved)
        seeds = {ElementId.parse(rng.choice(fx.ws.mid_classes))}
        fresh.closure(seeds, reverse=True)
        fresh.closure(seeds, reverse=True)
    pair = None
    if reference:
        do, undo, _ = fx.ws.value_edit(rng)
        run.tracer.uninstall()
        untraced = fold(run, fx, do, "bench.reference") + fold(run, fx, undo, "bench.reference")
        run.tracer.install()
        pair = (fold(run, fx, do, "bench.reference") + fold(run, fx, undo, "bench.reference"), untraced)
    final_check(run, fx)
    return pair
