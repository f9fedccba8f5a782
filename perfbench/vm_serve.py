"""vm_serve: one closed-loop client reading from a loaded model VM.

The request stream is seeded: Zipf(1.1) over the concrete instance beans in
a seeded order, 95% get_instance, 2% get_class and 3% is_instance_of against
an ancestor. Every RELOAD_EVERY requests the loop reloads the VM, alternating
between two models compiled in set-up: the generated workspace and the same
workspace with one value edit. A reload drops the snapshot's instance caches,
so the tail holds the cold builds that follow it.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from array import array

from mtalk import compiler, source, vm
from mtalk.ids import ElementId
from mtalk.native import load_manifest
from mtalk.vm import RuntimeInstance

from .harness import median, observed, same, tail_quantile
from .workspace import Workspace

GET, CLASS, ISA = 0, 1, 2
ZIPF_S = 1.1
STREAM_LEN = 400_000
BLOCK = 2_000  # requests between host-speed calibrations and deadline checks
# An assumed edit rate, a multiple of BLOCK. The tail, the cold-build share
# and the reload time depend on it (README: vm_serve).
RELOAD_EVERY = 50_000
SAMPLE_EVERY = 1009  # requests between value checks against the XML
TRACED_REQUESTS = 100_000


def request_stream(ws: Workspace, seed: int):
    """(ops, bean indices, class indices) as arrays; class index -1 unless
    the op is is_instance_of. Bean and class indices point into
    ws.instances and ws.classes."""
    rng = random.Random(f"vm_serve:{seed}")
    order = list(range(len(ws.instances)))
    rng.shuffle(order)
    cum = list(itertools.accumulate(1.0 / rank ** ZIPF_S for rank in range(1, len(order) + 1)))
    class_index = {c: i for i, c in enumerate(ws.classes)}
    ops, beans, classes = array("b"), array("i"), array("i")
    for pick in rng.choices(range(len(order)), cum_weights=cum, k=STREAM_LEN):
        bean = order[pick]
        u = rng.random()
        op = CLASS if u < 0.02 else ISA if u < 0.05 else GET
        ops.append(op)
        beans.append(bean)
        if op == ISA:
            lineage = ws.lineage(ws.beans[ws.instances[bean]].cls)
            classes.append(class_index[rng.choice(lineage)])
        else:
            classes.append(-1)
    return ops, beans, classes


class Fixture:
    """The generated workspace, the request stream and the ids it names,
    then the compiled model loaded in a VM."""

    def __init__(self, run, ws: Workspace):
        self.ws = ws
        self.stream = request_stream(ws, run.seed)
        self.bean_ids = [ElementId.parse(b) for b in ws.instances]
        self.class_ids = [ElementId.parse(c) for c in ws.classes]
        run.harness_built()
        self.manifest = load_manifest(os.path.join(ws.root, "manifest.json"))
        self.state, self.diagnostics = compiler.compile_workspace(ws.root, self.manifest)
        self.handle = vm.load(self.state.model())


def setup(run):
    return Fixture(run, Workspace.generate(run.new_dir("ws"), run.spec))


class Server:
    """The fixture plus what the loop needs beyond set-up: the edited model
    and the XML's expected values."""

    def __init__(self, run, fx: Fixture):
        ws = fx.ws
        run.record(not fx.diagnostics, "generated workspace does not compile clean")
        do, _, edited = ws.value_edit(random.Random(f"vm_serve:edit:{run.seed}"))
        text = ws.texts[do.path]
        text = text[:do.offset] + do.new + text[do.offset + len(do.old):]
        unit, parse_diags = source.parse_unit(text, do.path)
        edited_state, _, diags = compiler.incremental_compile(
            fx.state, [unit], parse_diags=parse_diags, manifest=fx.manifest)
        run.record(not diags, "edited model does not compile clean")
        self.fx = fx
        self.models = (fx.state, edited_state)
        self.current = 0
        self.edited = edited
        self.edited_id = ElementId.parse(edited[0])
        self.position = 0
        self._expected: dict[str, dict] = {}

    def expected(self, bean: str) -> dict:
        if self.current == 1 and bean == self.edited[0]:
            return self.fx.ws.expected_values(bean, self.edited)
        if bean not in self._expected:
            self._expected[bean] = self.fx.ws.expected_values(bean)
        return self._expected[bean]

    def reload(self, run, get) -> float:
        """Swap to the other model; seconds until the edited bean is read."""
        self.current ^= 1
        with run.span("bench.reload"):
            t0 = time.perf_counter()
            vm.reload(self.fx.handle, self.models[self.current].model())
            inst = get(self.fx.handle, self.edited_id)
            elapsed = time.perf_counter() - t0
        run.record(same(observed(inst.values), self.expected(self.edited[0])),
                   f"after reload {self.edited[0]} has {dict(inst.values)}")
        return elapsed

    def serve(self, run, seconds: float | None = None, requests: int | None = None):
        """Serve the stream until `seconds` pass or `requests` are served.
        Returns ({get latency ns: count}, reload seconds, requests served),
        all at reference host speed: each block of requests is scaled by the
        calibrations around it. With a tracer installed, each get_instance
        span is marked cold when it built the instance rather than finding it
        cached."""
        get, get_class, is_instance_of = vm.get_instance, vm.get_class, vm.is_instance_of
        handle = self.fx.handle
        ops, beans, classes = self.fx.stream
        bean_ids, class_ids, instances = self.fx.bean_ids, self.fx.class_ids, self.fx.ws.instances
        tracer = run.tracer if run.tracer is not None and run.tracer.installed else None
        seen: set[int] = set()
        clock = time.perf_counter_ns
        latencies: dict[int, int] = {}
        reloads: list[float] = []
        i = self.position
        n = len(ops)
        served = 0
        deadline = None if seconds is None else time.perf_counter() + seconds
        before = run.calibrate()
        while True:
            block: dict[int, int] = {}
            for _ in range(BLOCK):
                op, bean = ops[i], beans[i]
                try:
                    if op == GET:
                        t0 = clock()
                        inst = get(handle, bean_ids[bean])
                        dt = clock() - t0
                        block[dt] = block.get(dt, 0) + 1
                        if tracer is not None:
                            _mark_cold(tracer, inst, seen)
                    elif op == CLASS:
                        view = get_class(handle, bean_ids[bean])
                        if view.target.render() != self.fx.ws.beans[instances[bean]].cls:
                            run.fail(f"get_class({instances[bean]}) gave {view.target.render()}")
                    else:
                        inst = get(handle, bean_ids[bean])
                        if tracer is not None:
                            _mark_cold(tracer, inst, seen)
                        if not is_instance_of(handle, inst, class_ids[classes[i]]):
                            run.fail(f"{instances[bean]} is not an instance of {class_ids[classes[i]].render()}")
                    if served % SAMPLE_EVERY == 0:
                        got = observed(get(handle, bean_ids[bean]).values)
                        if not same(got, self.expected(instances[bean])):
                            run.fail(f"{instances[bean]} has {got}, the XML says {self.expected(instances[bean])}")
                except Exception as exc:  # a failed request counts; the loop goes on
                    run.fail(f"request {op} {instances[bean]}: {exc!r}")
                served += 1
                i = (i + 1) % n
            after = run.calibrate()
            for dt, count in block.items():
                key = round(run.scaled(dt, before, after))
                latencies[key] = latencies.get(key, 0) + count
            before = after
            if served % RELOAD_EVERY == 0:
                seen.clear()
                elapsed = self.reload(run, get)
                after = run.calibrate()
                reloads.append(run.scaled(elapsed, before, after))
                before = after
            if requests is not None and served >= requests:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
        self.position = i
        run.attempted += served
        return latencies, reloads, served


def _mark_cold(tracer, inst, seen: set[int]) -> None:
    """Mark the last span cold if `inst` was not reachable from any instance
    served since the last reload, and record what it reaches."""
    if id(inst) in seen:
        return
    tracer.mark_last(cold=1)
    todo = [inst]
    while todo:
        cur = todo.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        todo += [v for v in cur.values.values() if isinstance(v, RuntimeInstance)]


def quantile_ns(latencies: dict[int, int], q: float) -> int:
    """Nearest-rank quantile of a {value: count} histogram."""
    rank = max(1, math.ceil(q * sum(latencies.values())))
    seen = 0
    for value in sorted(latencies):
        seen += latencies[value]
        if seen >= rank:
            return value
    raise ValueError("empty histogram")


def measure(run, fx: Fixture, seconds: float):
    server = Server(run, fx)
    latencies, reloads, served = server.serve(run, seconds=seconds)
    tail = tail_quantile(sum(latencies.values()))
    e2e = {
        "op_p50_ms": quantile_ns(latencies, 0.5) / 1e6,
        "op_p75_ms": quantile_ns(latencies, 0.75) / 1e6,
        "op_tail_ms": quantile_ns(latencies, tail) / 1e6,
        "edit_ms": median(reloads) * 1e3,
        "peak_rss_mb": run.peak_rss_mb(),
    }
    report = {
        "vm_get_p50_us": (e2e["op_p50_ms"] * 1e3, "us"),
        "vm_get_p999_us": (quantile_ns(latencies, 0.999) / 1e3, "us"),
        "vm_reload_ms": (e2e["edit_ms"], "ms"),
        "requests": (served, "count"),
        "gets": (sum(latencies.values()), "count"),
        "reloads": (len(reloads), "count"),
        "op_tail_quantile": (tail, "quantile"),
    }
    return e2e, report


def traced(run, fx: Fixture, reference: bool):
    """Traced pass over TRACED_REQUESTS requests. With `reference`, the same
    requests first run untraced; returns their (traced, untraced) median get
    latency, the figure op_p50_ms reports. A sum would be ruled by whether a
    full garbage collection, set off by the span records, lands in the pass."""
    server = Server(run, fx)
    pair = None
    if reference:
        run.tracer.uninstall()
        untraced, _, _ = server.serve(run, requests=TRACED_REQUESTS)
        run.tracer.install()
        server.position = 0
    latencies, _, _ = server.serve(run, requests=TRACED_REQUESTS)
    if reference:
        pair = (quantile_ns(latencies, 0.5), quantile_ns(untraced, 0.5))
    return pair
