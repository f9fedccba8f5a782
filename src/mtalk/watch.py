"""Workspace watching: poll for unit changes and recompile incrementally."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .compiler import CompileState, compile_workspace, incremental_compile
from .diagnostics import Diagnostic
from .native import NativeManifest
from .source import discover_unit_paths, parse_unit, read_unit_text


@dataclass(frozen=True, slots=True)
class WatchResult:
    recompiled: frozenset
    elapsed_ms: float
    new_diags: tuple[Diagnostic, ...]
    cleared_diags: tuple[Diagnostic, ...]
    diagnostics: tuple[Diagnostic, ...]


@dataclass(slots=True)
class _FileSig:
    mtime_ns: int
    size: int


class WatchSession:
    """Tracks one workspace and folds file changes through the compiler.

    poll() returns None when nothing happened, otherwise a WatchResult for
    the batch of changes seen since the previous poll. Detection is by
    mtime/size, with content hashing deciding whether a touched file really
    changed.
    """

    def __init__(self, root, manifest: NativeManifest | None = None,
                 state: CompileState | None = None):
        self.root = os.fspath(root)
        self.manifest = manifest
        if state is None:
            state, _ = compile_workspace(self.root, manifest)
        self.state = state
        self._sigs: dict[str, _FileSig] = {}
        self._scan_sigs()

    def _scan_sigs(self) -> dict[str, _FileSig]:
        sigs: dict[str, _FileSig] = {}
        for rel in discover_unit_paths(self.root):
            try:
                st = os.stat(os.path.join(self.root, rel))
            except OSError:
                continue
            sigs[rel] = _FileSig(st.st_mtime_ns, st.st_size)
        previous = self._sigs
        self._sigs = sigs
        return previous

    def poll(self) -> WatchResult | None:
        """One scan step: recompile and report if any unit file was touched."""
        previous = self._scan_sigs()
        current = self._sigs
        touched = [rel for rel, sig in current.items() if previous.get(rel) != sig]
        removed = [rel for rel in previous if rel not in current]
        if not touched and not removed:
            return None

        old_diags = self.state.all_diagnostics()
        start = time.perf_counter()
        changed_units = []
        parse_diags = []
        for rel in sorted(touched):
            text, unreadable = read_unit_text(self.root, rel)
            if unreadable is not None:
                removed.append(rel)
                parse_diags.append(unreadable)
                continue
            known = self.state.units.get(rel)
            unit, diags = parse_unit(text, rel)
            if known is not None and known.content_hash == unit.content_hash:
                continue
            changed_units.append(unit)
            parse_diags.extend(diags)
        state, recompiled, diagnostics = incremental_compile(
            self.state,
            changed_units,
            removed_paths=sorted(set(removed)),
            parse_diags=parse_diags,
            manifest=self.manifest,
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.state = state

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
    for d in session.state.all_diagnostics():
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
