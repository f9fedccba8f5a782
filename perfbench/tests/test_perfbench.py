"""The benchmark's own tests: determinism of its inputs, a smoke run of every
workload on a tiny workspace, and that its checks catch wrong output.

Run: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import random

import pytest

from perfbench import cli_compile, edit_fold, layers, run, trace, vm_serve
from perfbench.harness import ROOT, Run
from perfbench.workspace import C07, VALUE_PAIRS, Workspace, script_bytes

# small enough to run in seconds, large enough for every edit kind to find a
# target: 10 units, 15 mid-hierarchy classes, 5 rename candidates
TINY = (200, 8, 3.0, 4, 7)
WORKLOADS = {"cli_compile": cli_compile, "edit_fold": edit_fold, "vm_serve": vm_serve}


@pytest.fixture
def bench_run():
    r = Run(5, spec=TINY)
    yield r
    r.close()


def test_same_seed_gives_identical_edit_script_and_request_stream(tmp_path):
    a = Workspace.generate(str(tmp_path / "a"), C07)
    b = Workspace.generate(str(tmp_path / "b"), C07)
    for seed in (1, 2):
        assert script_bytes(a.edit_cycle(seed, 0)) == script_bytes(b.edit_cycle(seed, 0))
        streams = [b"".join(x.tobytes() for x in vm_serve.request_stream(ws, seed)) for ws in (a, b)]
        assert streams[0] == streams[1]
        assert a.value_edit(random.Random(seed)) == b.value_edit(random.Random(seed))
    assert script_bytes(a.edit_cycle(1, 0)) != script_bytes(a.edit_cycle(2, 0))
    assert vm_serve.request_stream(a, 1)[1] != vm_serve.request_stream(a, 2)[1]


def test_edit_cycle_has_do_undo_pairs_of_every_kind(tmp_path):
    ws = Workspace.generate(str(tmp_path / "ws"), TINY)
    steps = ws.edit_cycle(3, 0)
    kinds = [k for k in edit_fold.KINDS if k != "value"] + ["value"] * VALUE_PAIRS
    assert sorted(s.kind for s in steps) == sorted(kinds * 2)
    for do, undo in zip(steps[::2], steps[1::2]):
        assert (do.kind, do.phase, undo.phase) == (undo.kind, "do", "undo")
        assert (do.path, do.offset, do.old, do.new) == (undo.path, undo.offset, undo.new, undo.old)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(bench_run, name):
    metrics, report = run._untraced(WORKLOADS[name], bench_run, 0.2)
    assert bench_run.attempted > 0
    assert bench_run.failed == 0
    assert set(metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert report


def test_traced_run_emits_every_layer_metric(tmp_path):
    r = Run(5, trace.Tracer("test"), spec=TINY)
    try:
        metrics, report = run._traced(WORKLOADS, "edit_fold", r)
    finally:
        r.close()
    assert r.failed == 0
    assert list(metrics) == [name for name, *_ in layers.METRICS]
    # every target was wrapped, and every metric came from spans
    assert report["untraced_targets"][0] == []
    assert report["metrics_without_spans"][0] == []
    assert metrics["rename.files"]["value"] >= 3
    path = os.path.join(ROOT, report["trace_file"][0])
    spans = trace.read(path)
    os.remove(path)
    assert len(spans) == report["spans"][0]
    assert {s[0] for s in spans} == {"test"}
    assert {s[2] for s in spans} >= {"source.parse_unit", "kernel.resolve", "vm.get_instance", "bench.cli"}
    assert not trace.Tracer("x").installed


def test_vm_check_catches_values_that_differ_from_the_xml(bench_run, monkeypatch):
    fx = vm_serve.setup(bench_run)
    server = vm_serve.Server(bench_run, fx)
    monkeypatch.setattr(fx.ws, "expected_values", lambda bean, edited=None: {"missing": 1})
    server.serve(bench_run, requests=vm_serve.RELOAD_EVERY)
    assert bench_run.failed > 0


def test_cli_check_catches_diagnostics(bench_run):
    ws = cli_compile.setup(bench_run)
    with open(os.path.join(ws.root, "broken.model.xml"), "w", encoding="utf-8") as f:
        f.write('<model>\n  <bean id="X" class="NoSuchClass"/>\n</model>\n')
    cli_compile.iteration(bench_run, ws, 0)
    # three compiles, and the state check: the VM refuses the broken model
    assert bench_run.failed == 4


def test_cli_check_catches_a_state_without_the_edit(bench_run, monkeypatch):
    ws = cli_compile.setup(bench_run)
    monkeypatch.setattr(cli_compile, "apply_text_step", lambda root, step: None)
    cli_compile.iteration(bench_run, ws, 0)
    assert bench_run.failed == 1


def test_fold_check_catches_a_poll_that_sees_nothing(bench_run, monkeypatch):
    fx = edit_fold.setup(bench_run)
    monkeypatch.setattr(fx.session, "poll", lambda: None)
    step = fx.ws.edit_cycle(1, 0)[0]
    edit_fold.fold(bench_run, fx, step)
    assert bench_run.failed == 1


def test_fold_check_catches_a_fold_that_ignores_its_edit(bench_run, monkeypatch):
    import mtalk.watch

    fx = edit_fold.setup(bench_run)
    # a fold that keeps the previous state: fast, clean, and wrong
    monkeypatch.setattr(mtalk.watch, "incremental_compile",
                        lambda prev, units, **kw: (prev, set(), prev.all_diagnostics()))
    for step in fx.ws.edit_cycle(1, 0)[::2]:
        failed = bench_run.failed
        edit_fold.fold(bench_run, fx, step)
        assert bench_run.failed == failed + 1, step.kind
        for rel in set(os.listdir(fx.ws.root)) - set(fx.ws.texts):
            os.remove(os.path.join(fx.ws.root, rel))
        for rel, text in fx.ws.texts.items():
            with open(os.path.join(fx.ws.root, rel), "w", encoding="utf-8") as f:
                f.write(text)


def test_missing_trace_targets_and_spans_are_reported(monkeypatch):
    import mtalk.compiler

    monkeypatch.delattr(mtalk.compiler, "save_state")
    tracer = trace.Tracer("x")
    try:
        assert tracer.install() == ["compiler.save_state"]
    finally:
        tracer.uninstall()
    derived = layers.derive([], 0.0)
    assert [n for n, v in derived.items() if v is not None] == ["trace.overhead_pct"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in layers.METRICS
    ]
