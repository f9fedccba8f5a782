"""cli_compile: ``python -m mtalk.cli compile`` as a child process, three ways.

Per iteration, with a fresh state directory outside the workspace: a cold
compile, a warm compile with nothing changed, and a warm compile after one
same-length value edit (undone afterwards). Every child must exit 0 and
print nothing, since the generated workspace is clean, and the state the
edited compile writes must hold the edited value.
"""

from __future__ import annotations

import os
import random
import time

from mtalk import compiler

from .harness import median, model_values, nearest_rank, run_child, same, tail_quantile
from .workspace import Workspace, apply_text_step

MODES = ("cold", "warm_noop", "warm_edit")


def setup(run):
    return Workspace.generate(run.new_dir("ws"), run.spec)


def check_state(run, ws: Workspace, state: str, edited: tuple[str, str, str]) -> None:
    """The state a compile wrote must inject the edited value."""
    loaded = compiler.load_state(state)
    bean = edited[0]
    want = ws.expected_values(bean, edited)
    got = "no state" if loaded is None else model_values(loaded.model(), bean)
    run.record(isinstance(got, dict) and same(got, want), f"state after the edit: {bean} has {got}, the XML says {want}")


def _compile(run, ws: Workspace, state: str, mode: str, traced: bool = False):
    with run.span("bench.cli", mode=mode) as rec, run.timed() as timer:
        code, out, err, rss = run_child(run, ["compile", "--root", ws.root, "--state", state], traced)
    wall, raw = timer.seconds, timer.raw_seconds
    state_file = os.path.join(state, "state.bin")
    if mode == "cold" and os.path.exists(state_file):
        rec[4]["state_bytes"] = os.path.getsize(state_file)
    run.record(code == 0 and not out and not err,
               f"cli compile ({mode}) exit {code}: {(out + err)[:200]!r}")
    return wall, rss, raw


def iteration(run, ws: Workspace, k: int, traced: bool = False, reference: bool = False):
    """One cold / warm no-op / warm edit triple, then the check of the
    edited state. Returns {mode: (scaled s, MB, raw s)}. With `reference`,
    an untraced warm no-op follows the traced one, as the baseline of the
    tracing overhead."""
    state = run.new_dir("state")
    do, undo, edited = ws.value_edit(random.Random(f"cli_compile:{run.seed}:{k}"))
    out = {}
    for mode in MODES:
        if mode == "warm_edit":
            apply_text_step(ws.root, do)
        out[mode] = _compile(run, ws, state, mode, traced)
        if mode == "warm_noop" and reference:
            out["reference"] = _compile(run, ws, state, "reference")
    apply_text_step(ws.root, undo)
    with run.span("bench.check"):
        check_state(run, ws, state, edited)
    return out


def measure(run, ws: Workspace, seconds: float):
    """Triples until the next one would end past `seconds` (at least one)."""
    triples = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        triples.append(iteration(run, ws, len(triples)))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    walls = sorted(t[m][0] * 1e3 for t in triples for m in MODES)
    by_mode = {m: median([t[m][0] for t in triples]) for m in MODES}
    rss = max(t[m][1] for t in triples for m in MODES)
    e2e = {
        "op_p50_ms": nearest_rank(walls, 0.5),
        "op_p75_ms": nearest_rank(walls, 0.75),
        "op_tail_ms": nearest_rank(walls, tail_quantile(len(walls))),
        "edit_ms": by_mode["warm_edit"] * 1e3,
        "peak_rss_mb": rss,
    }
    report = {
        "compile_cold_s": (by_mode["cold"], "s"),
        "compile_warm_noop_s": (by_mode["warm_noop"], "s"),
        "compile_warm_edit_s": (by_mode["warm_edit"], "s"),
        "compile_peak_rss_mb": (rss, "MB"),
        # unscaled wall times, to set against the scaled ones above
        **{f"compile_{m}_raw_s": (median([t[m][2] for t in triples]), "s") for m in MODES},
        "compiles": (len(walls), "count"),
        "op_tail_quantile": (tail_quantile(len(walls)), "quantile"),
    }
    return e2e, report


def traced(run, ws: Workspace, reference: bool):
    """Traced pass: CLI start-up, then one traced triple. Returns the
    traced / untraced warm no-op pair when `reference` is set."""
    with run.span("bench.cli_kernel"):
        code, out, err, _ = run_child(run, ["kernel"])
    run.record(code == 0 and bool(out) and not err, f"mtalk kernel exit {code}")
    out = iteration(run, ws, 0, traced=True, reference=reference)
    return (out["warm_noop"][0], out["reference"][0]) if reference else None
