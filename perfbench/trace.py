"""Spans for traced runs, recorded around mtalk's public calls from outside.

A Tracer replaces each target function, wherever an mtalk module bound it by
name, with a wrapper that records one span: name, start and end in
nanoseconds of the monotonic clock (comparable across processes on Linux),
the enclosing span, and counts taken from the call's arguments and result.
Spans stay in memory and are written, gzip-compressed JSON lines, when the
run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns


def _n(result, args):
    return {"n": len(result)}


# (module, attribute or Class.method, span name, counts from (result, args))
TARGETS = (
    ("mtalk.source", "parse_unit", "source.parse_unit", lambda r, a: {"chars": len(a[0])}),
    ("mtalk.source", "parse_workspace", "source.parse_workspace", None),
    ("mtalk.kernel", "resolve", "kernel.resolve", None),
    ("mtalk.graph", "build_dependency_graph", "graph.build",
     lambda r, a: {"nodes": len(r.nodes), "edges": len(r.edges)}),
    ("mtalk.graph", "DependencyGraph.closure", "graph.closure", _n),
    ("mtalk.compiler", "compile_workspace", "compiler.compile_workspace", None),
    ("mtalk.compiler", "compile_model", "compiler.compile_model", None),
    ("mtalk.compiler", "incremental_compile", "compiler.incremental_compile",
     lambda r, a: {"revalidated": len(r[1]), "changed_units": len(a[1])}),
    ("mtalk.compiler", "changed_element_ids", "compiler.changed_element_ids", _n),
    ("mtalk.compiler", "validate_element", "compiler.validate_element", None),
    # the injection-cycle SCC has no public entry point (see OPTIONAL)
    ("mtalk.compiler", "_injection_cycle_diags", "compiler.injection_cycles", None),
    ("mtalk.compiler", "check_conformance", "compiler.check_conformance", None),
    ("mtalk.compiler", "CompileState.all_diagnostics", "compiler.all_diagnostics", None),
    ("mtalk.compiler", "CompileState.model", "compiler.model", None),
    ("mtalk.compiler", "save_state", "compiler.save_state", None),
    ("mtalk.compiler", "load_state", "compiler.load_state", None),
    ("mtalk.watch", "WatchSession.poll", "watch.poll", None),
    ("mtalk.vm", "load", "vm.load", None),
    ("mtalk.vm", "reload", "vm.reload", None),
    ("mtalk.vm", "get_instance", "vm.get_instance", None),
    ("mtalk.vm", "get_class", "vm.get_class", None),
    ("mtalk.vm", "is_instance_of", "vm.is_instance_of", None),
    ("mtalk.schema", "generate_schemas", "schema.generate_schemas",
     lambda r, a: {"chars": sum(len(d.text) for d in r.values())}),
    ("mtalk.schema", "validate_with_schema", "schema.validate_with_schema", None),
    ("mtalk.rename", "rename_element", "rename.rename_element",
     lambda r, a: {"patches": len(r[0]), "files": len(r[0].paths())}),
    ("mtalk.rename", "apply_patchset", "rename.apply_patchset", None),
)

# span names whose target may be missing: private functions, reported but not
# counted as a failure when absent. Any other missing target is a failure.
OPTIONAL = frozenset({"compiler.injection_cycles"})


class Tracer:
    """One run's spans. A span is [name, start_ns, end_ns, parent, counts];
    its id is its index, and parent -1 marks a root."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **counts):
        """A span around benchmark code; yields its record so the caller can
        add counts."""
        rec = [name, _clock(), 0, self._stack[-1], counts]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = _clock()

    def mark_last(self, **counts) -> None:
        """Add counts to the most recent span."""
        rec = self.spans[-1]
        rec[4] = {**(rec[4] or {}), **counts}

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def current(self) -> int:
        """Id of the innermost open span, -1 outside any."""
        return self._stack[-1]

    def _wrap(self, fn, name: str, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, _clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = _clock()
            if count is not None:
                rec[4] = count(result, args)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target present in the imported mtalk modules. Returns
        the span names of the targets not found, which record nothing."""
        import mtalk  # noqa: F401  (loads every submodule the targets name)

        modules = [m for k, m in sorted(sys.modules.items()) if k == "mtalk" or k.startswith("mtalk.")]
        missing = []
        for module_name, attr, name, count in TARGETS:
            owner = sys.modules.get(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    missing.append(name)
                else:
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(fn, name, count))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = self._wrap(fn, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def adopt(self, path: str, parent: int) -> None:
        """Append the spans another process wrote to `path`, re-rooted under
        span `parent` of this run."""
        base = len(self.spans)
        for _run, _id, name, start, end, up, counts in read(path):
            self.spans.append([name, start, end, parent if up < 0 else up + base, counts])

    def write(self, path: str) -> None:
        """One JSON array per line: run id, span id, name, start ns, end ns,
        parent id (-1 for a root), counts. Gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                f.write(json.dumps([self.run_id, i, name, start, end, parent, counts]) + "\n")


def read(path: str) -> list[list]:
    with gzip.open(path, "rt", encoding="utf-8") as f:
        return [json.loads(line) for line in f]
