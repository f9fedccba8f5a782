"""Workspace watching: poll for unit changes and recompile incrementally."""

from __future__ import annotations

import os
import time

from .compiler import compile_workspace, incremental_compile, workspace_changes
from .diagnostics import Diagnostic
from .ids import record
from .native import NativeManifest
from .source import unit_signatures


@record
class WatchResult:
    recompiled: frozenset
    elapsed_ms: float
    new_diags: tuple[Diagnostic, ...]
    cleared_diags: tuple[Diagnostic, ...]
    diagnostics: tuple[Diagnostic, ...]


class WatchSession:
    """Tracks one workspace and folds file changes through the compiler.

    poll() returns None when nothing happened, otherwise a WatchResult for
    the batch of changes seen since the previous poll. Detection is by
    mtime/size; a touched file is read and hashed, and parsed only when its
    content changed. report is the diagnostics of the current state.
    """

    def __init__(self, root, manifest: NativeManifest | None = None):
        self.root = os.fspath(root)
        self.manifest = manifest
        # signatures first: a save during the compile then shows in the first poll
        self._sigs = unit_signatures(self.root)
        self.state, self.report = compile_workspace(self.root, manifest)
        # built here, or the session's first edits would pay for it
        self.state.graph.by_target()

    def poll(self) -> WatchResult | None:
        """One scan step: recompile and report if any unit file was touched."""
        previous, current = self._sigs, unit_signatures(self.root)
        self._sigs = current
        if current == previous:
            return None
        touched = [rel for rel, sig in current.items() if previous.get(rel) != sig]

        old_diags = self.report
        start = time.perf_counter()
        changed, removed, parse_diags = workspace_changes(self.state, self.root, list(current), read=touched)
        state, recompiled, diagnostics = incremental_compile(
            self.state, changed, removed_paths=removed, parse_diags=parse_diags, manifest=self.manifest
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.state = state
        self.report = diagnostics

        old_set = set(old_diags)
        new_set = set(diagnostics)
        return WatchResult(
            recompiled=frozenset(recompiled),
            elapsed_ms=elapsed_ms,
            new_diags=tuple(d for d in diagnostics if d not in old_set),
            cleared_diags=tuple(d for d in old_diags if d not in new_set),
            diagnostics=tuple(diagnostics),
        )


def run_watch(root, manifest: NativeManifest | None = None, interval: float = 0.5,
              emit=print, max_polls: int | None = None) -> int:
    """Poll loop. Prints changed diagnostics and a recompile summary per batch.

    max_polls bounds the number of scans (for tests); None runs until
    interrupted. Returns 0 on clean shutdown.
    """
    session = WatchSession(root, manifest)
    for d in session.report:
        emit(d.render())
    emit(f"watching {session.root}")
    polls = 0
    try:
        while max_polls is None or polls < max_polls:
            time.sleep(interval)
            polls += 1
            result = session.poll()
            if result is None:
                continue
            for d in result.cleared_diags:
                emit(f"cleared: {d.render()}")
            for d in result.new_diags:
                emit(d.render())
            emit(f"recompiled: {len(result.recompiled)} elements in {result.elapsed_ms:.0f} ms")
    except KeyboardInterrupt:
        pass
    return 0
