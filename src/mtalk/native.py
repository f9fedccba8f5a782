"""Native-binding manifest: declared signatures of natively implemented classes.

The manifest is the compiler's picture of the implementation side: which
classes exist natively, their parent linkage, and their injectable fields.
A registry additionally carries live factories so the VM can construct
native objects for bound classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ModelError, NotFoundError
from .ids import record


class ManifestError(ModelError):
    """Manifest file missing, unreadable, or structurally invalid."""


@record
class NativeFieldSig:
    name: str
    type: str


@record
class NativeClassSig:
    name: str
    parent: str | None
    fields: tuple[NativeFieldSig, ...]

    def field_map(self) -> dict[str, NativeFieldSig]:
        return {f.name: f for f in self.fields}


@dataclass(frozen=True)
class NativeManifest:
    """A manifest is its path and classes: two that agree on them give the
    same diagnostics, so a reformatted manifest is the same manifest."""

    path: str
    classes: tuple[NativeClassSig, ...]

    def __post_init__(self):
        object.__setattr__(self, "_map", {c.name: c for c in self.classes})

    def __reduce__(self):
        # the by-name map is derived: a pickled manifest holds its fields only
        return NativeManifest, (self.path, self.classes)

    def get(self, name: str) -> NativeClassSig | None:
        return self._map.get(name)  # type: ignore[attr-defined]


def _require(cond: bool, message: str):
    if not cond:
        raise ManifestError(message)


def parse_manifest(text: str, path: str) -> NativeManifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"malformed manifest {path}: {exc}") from None
    _require(isinstance(doc, dict), f"manifest {path}: top level must be an object")
    raw_classes = doc.get("classes", [])
    _require(isinstance(raw_classes, list), f"manifest {path}: 'classes' must be a list")
    classes = []
    seen = set()
    for i, raw in enumerate(raw_classes):
        where = f"manifest {path}: classes[{i}]"
        _require(isinstance(raw, dict), f"{where} must be an object")
        name = raw.get("name")
        _require(isinstance(name, str) and bool(name), f"{where} missing 'name'")
        _require(name not in seen, f"{where}: duplicate class '{name}'")
        seen.add(name)
        parent = raw.get("parent")
        _require(parent is None or isinstance(parent, str), f"{where}: 'parent' must be a string or null")
        raw_fields = raw.get("fields", [])
        _require(isinstance(raw_fields, list), f"{where}: 'fields' must be a list")
        fields = []
        fnames = set()
        for j, rf in enumerate(raw_fields):
            fwhere = f"{where}.fields[{j}]"
            _require(isinstance(rf, dict), f"{fwhere} must be an object")
            fname, ftype = rf.get("name"), rf.get("type")
            _require(isinstance(fname, str) and bool(fname), f"{fwhere} missing 'name'")
            _require(isinstance(ftype, str) and bool(ftype), f"{fwhere} missing 'type'")
            _require(fname not in fnames, f"{fwhere}: duplicate field '{fname}'")
            fnames.add(fname)
            fields.append(NativeFieldSig(fname, ftype))
        classes.append(NativeClassSig(name, parent, tuple(fields)))
    return NativeManifest(path=path, classes=tuple(classes))


def load_manifest(path) -> NativeManifest:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from None
    return parse_manifest(text, str(path))


Factory = Callable[[dict], object]


@dataclass
class NativeRegistry:
    """Manifest plus live factories for constructing native objects."""

    manifest: NativeManifest
    bindings: dict[str, Factory] = field(default_factory=dict)
    # how many bind() calls so far; the VM's reload carries built native
    # objects only while this is unchanged
    binds: int = field(default=0, init=False, compare=False, repr=False)

    def bind(self, name: str, factory: Factory) -> None:
        if self.manifest.get(name) is None:
            raise NotFoundError(f"cannot bind '{name}': not in manifest {self.manifest.path}")
        self.bindings[name] = factory
        self.binds += 1

    def factory_for(self, name: str) -> Factory | None:
        return self.bindings.get(name)
