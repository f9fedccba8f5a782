"""Rename refactoring: cross-file patch sets for element and property names.

A rename finds its sites in the declarations the compile state holds: it
visits only the units of the elements that the dependency graph's by-target
map lists as naming the renamed thing, those that declare it and those that
hold a later duplicate declaration, and reads text only at a declaration
that names the renamed thing, where it reads that bean's element again for
the exact attribute, tag name and text spans. Renames never touch the native
manifest; when the renamed name also appears there, a warning diagnostic
tells the user to update it by hand.
"""

from __future__ import annotations

import os
import re

from . import diagnostics as dx
from .compiler import CompileState
from .diagnostics import Diagnostic
from .errors import CollisionError, NotFoundError, StateError
from .graph import INSTANCE_OF, SUBCLASS_OF, breadth_first
from .ids import BUILTIN_SCALARS, UNRESOLVED, ElementId, SourceSpan, is_valid_local, record
from .kernel import ResolvedModel
from .source import SourceUnit, XmlElement, element_reader, line_starts

# property assignments are element tags, so renamed properties must scan as one
_TAG_NAME_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")
_BREAK_RE = re.compile(r"\r\n?|\n")


@record
class Patch:
    path: str
    span: SourceSpan
    replacement: str


@record
class PatchSet:
    patches: tuple[Patch, ...]

    def __len__(self) -> int:
        return len(self.patches)

    def paths(self) -> tuple[str, ...]:
        return tuple(sorted({p.path for p in self.patches}))


def _line_starts(text: str) -> list[int]:
    """Where each line of text begins. CRLF, CR and LF each end one line,
    as they do in the newline-translated text the parser's spans count."""
    # same-length stand-ins keep every offset: CRLF reads as ' \n', a lone CR as '\n'
    return line_starts(text.replace("\r\n", " \n").replace("\r", "\n"))


def _offset(starts: list[int], line: int, column: int) -> int:
    if line < 1 or line > len(starts):
        raise StateError(f"patch span outside file (line {line})")
    return starts[line - 1] + column - 1


def _respelled(replacement: str, replaced: str) -> str:
    """replacement with its k-th line break spelled as the k-th one of the
    raw text it replaces (the last one's spelling past its count). Patches
    are built from newline-translated text, so they hold LF."""
    if "\n" not in replacement or "\r" not in replaced:
        return replacement
    spellings = _BREAK_RE.findall(replaced)
    lines = replacement.split("\n")
    out = [lines[0]]
    for k, line in enumerate(lines[1:]):
        out.append(spellings[min(k, len(spellings) - 1)])
        out.append(line)
    return "".join(out)


def _patched_text(text: str, patches: list[Patch]) -> str:
    starts = _line_starts(text)
    resolved = []
    for p in patches:
        s = _offset(starts, p.span.line, p.span.column)
        e = _offset(starts, p.span.end_line, p.span.end_column)
        if not 0 <= s <= e <= len(text):
            raise StateError(f"patch span out of range in {p.path}")
        resolved.append((s, e, p.replacement))
    resolved.sort(key=lambda t: t[0])
    prev_end = -1
    for s, e, _r in resolved:
        if s < prev_end:
            raise StateError(f"overlapping patches in {patches[0].path}")
        prev_end = e
    out = []
    cursor = 0
    for s, e, r in resolved:
        out.append(text[cursor:s])
        out.append(_respelled(r, text[s:e]))
        cursor = e
    out.append(text[cursor:])
    return "".join(out)


def apply_patchset(patchset: PatchSet, root: str) -> list[str]:
    """Apply patches under the workspace root. Returns the rewritten paths.

    All target files are read and patched in memory, and every patched
    text is written to a temporary file beside its target, before any
    target is replaced. A write that fails removes the temporaries written
    so far and re-raises, leaving every unit as it was. Line endings are
    read and written as they are, so only the patched ranges change, and a
    line break inside a replacement takes the spelling of the range it
    replaces.
    """
    by_path: dict[str, list[Patch]] = {}
    for p in patchset.patches:
        by_path.setdefault(p.path, []).append(p)
    staged: list[tuple[str, str]] = []
    for rel in sorted(by_path):
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8", newline="") as f:
                text = f.read()
        except OSError as exc:
            raise NotFoundError(f"cannot read '{rel}': {exc}") from None
        staged.append((full, _patched_text(text, by_path[rel])))
    written: list[str] = []
    try:
        for full, new_text in staged:
            with open(full + ".tmp", "w", encoding="utf-8", newline="") as f:
                written.append(full)
                f.write(new_text)
    except OSError:
        for full in written:
            os.remove(full + ".tmp")
        raise
    for full in written:
        os.replace(full + ".tmp", full)
    return sorted(by_path)


def _encode_attr(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("'", "&apos;")
    )


def _requalified(written: str, new_local: str) -> str:
    cut = written.rfind(":")
    if cut == -1:
        return new_local
    return written[: cut + 1] + new_local


def _text_patch(unit: SourceUnit, node: XmlElement, core: str) -> Patch:
    """Replace the trimmed middle of node's raw content, keeping its padding."""
    region = unit.text[node.content_start:node.content_end]
    lead = region[: len(region) - len(region.lstrip())]
    trail = region[len(region.rstrip()):]
    return Patch(unit.path, node.content_span(), lead + core + trail)


def _inner(node: XmlElement, span: SourceSpan) -> XmlElement:
    """The element at span within node, node itself included."""
    at = (span.line, span.column)
    while node.span != span:
        node = next(c for c in reversed(node.children) if (c.span.line, c.span.column) <= at)
    return node


def _leaf(row: XmlElement, tag: str) -> XmlElement:
    """A property row's first <name> or <type>, the one parsing read."""
    return next(c for c in row.children if c.tag == tag)


def _naming_paths(state: CompileState, targets, kind: str | None = None) -> set[str]:
    """The units of the elements with an edge (of kind, when given) into
    one of targets, and of every later duplicate declaration (E008), which
    is not an element, so no edge leaves it."""
    by_target, elements = state.graph.by_target(), state.resolved.elements
    paths = {
        elements[e.src].decl.span.path for t in targets for e in by_target.get(t, ()) if kind in (None, e.kind)
    }
    paths.update(d.span.path for ds in state.resolved.diags.values() for d in ds if d.code == dx.DUPLICATE_ID)
    return paths


def _check_new_name(new: str) -> None:
    if not is_valid_local(new) or any(c in new for c in "&<>\"'"):
        raise CollisionError(f"'{new}' is not a usable name")


def rename_element(
    state: CompileState, old: ElementId | str, new: str
) -> tuple[PatchSet, list[Diagnostic]]:
    """Patches for renaming a bean id everywhere it is written.

    Covers the declaration, class/parent/ref attributes, and property type
    texts, preserving namespace qualifiers as written. Raises CollisionError
    when the new name already resolves, is reserved, or would change how any
    other written reference resolves.
    """
    model = state.resolved
    old_id = model.resolve_id(old, "element")
    if old_id in model.kernel_ids:
        raise NotFoundError(f"'{old_id.render()}' is not declared in a source unit")
    _check_new_name(new)
    if new == old_id.local:
        return PatchSet(()), []
    if new in BUILTIN_SCALARS:
        raise CollisionError(f"'{new}' is a builtin type name")
    new_id = ElementId(old_id.namespace, new)
    if new_id in model.elements:
        raise CollisionError(f"'{new_id.render()}' already exists")

    # creating ns:new would capture bare references that fall back to root
    # new; a padded spelling resolves to nothing, and it shadows too
    if old_id.namespace and ElementId("", new) in model.elements:
        spelled = _naming_paths(state, (ElementId("", new), UNRESOLVED))
        for unit in state.units.values():
            if unit.namespace != old_id.namespace or unit.path not in spelled:
                continue
            for decl in unit.beans:
                if any(":" not in written and written.strip() == new for written, *_ in decl.references()):
                    raise CollisionError(
                        f"renaming would shadow '{new}' referenced in {unit.path}"
                    )

    paths = _naming_paths(state, (old_id,)) | {model.elements[old_id].decl.span.path}
    patches: list[Patch] = []
    for unit in state.units.values():
        if unit.path not in paths:
            continue
        element_at = element_reader(unit)
        for decl in unit.beans:
            sites = [
                (written.strip(), span, where)
                for written, target, span, where in decl.references()
                if target.local == old_id.local and model.lookup(target) == old_id
            ]
            if decl.id == old_id:
                sites.append((decl.written_id, decl.span, "id"))
            if not sites:
                continue
            bean = element_at(decl.span)
            for written, span, where in sites:
                # a bare fallback reference from another namespace must not
                # land on a different element after the rename
                if (
                    ":" not in written
                    and unit.namespace != old_id.namespace
                    and ElementId(unit.namespace, new) in model.elements
                ):
                    raise CollisionError(
                        f"'{unit.namespace}:{new}' would capture the reference in {unit.path}"
                    )
                replacement = _requalified(written, new)
                node = _inner(bean, span)
                if where == "type":
                    patches.append(_text_patch(unit, _leaf(node, "type"), replacement))
                else:
                    patches.append(Patch(unit.path, node.attr_span(where), _encode_attr(replacement)))

    warnings: list[Diagnostic] = []
    manifest = state.manifest
    if manifest is not None and manifest.get(old_id.render()) is not None:
        warnings.append(
            dx.warning(
                dx.MANIFEST_ORPHAN,
                f"native manifest still names '{old_id.render()}'; update it to '{new_id.render()}' by hand",
                SourceSpan(manifest.path, 1, 1, 1, 1),
            )
        )
    patches.sort(key=lambda p: (p.path, p.span.line, p.span.column))
    return PatchSet(tuple(patches)), warnings


def _topmost_declaring(model: ResolvedModel, class_id: ElementId, prop: str) -> ElementId | None:
    top = None
    for cls in model.lineage(class_id):
        if any(p.name == prop for p in model.classes[cls].own_properties):
            top = cls
    return top


def rename_property(
    state: CompileState, class_id: ElementId | str, old: str, new: str
) -> tuple[PatchSet, list[Diagnostic]]:
    """Patches for renaming a property across the declaring hierarchy.

    The scope is the topmost ancestor declaring the property and every
    subclass of it: their definition rows and every assignment tag in beans
    of those classes. Collides when any affected class already has a
    property named new.
    """
    model = state.resolved
    class_id = model.resolve_id(class_id, "class")
    model.require_class(class_id)
    top = _topmost_declaring(model, class_id, old)
    if top is None:
        raise NotFoundError(f"class '{class_id.render()}' has no property '{old}'")
    _check_new_name(new)
    if not _TAG_NAME_OK.match(new) or new == "properties":
        raise CollisionError(f"'{new}' cannot be used as a property tag")
    if new == old:
        return PatchSet(()), []

    # top and every class whose parent chain reaches it
    into = state.graph.by_target()
    scope = set(breadth_first([top], lambda c: [e for e in into.get(c, ()) if e.kind == SUBCLASS_OF], reverse=True))
    for cls in sorted(scope, key=ElementId.render):
        if any(p.name == new for p in model.effective_properties(cls)):
            raise CollisionError(
                f"class '{cls.render()}' already has a property '{new}'"
            )

    # rows are in the units that declare a scope class, assignments in those
    # whose beans, or inline beans, are instances of one
    paths = _naming_paths(state, scope, INSTANCE_OF) | {model.elements[cls].decl.span.path for cls in scope}
    patches: list[Patch] = []
    for unit in state.units.values():
        if unit.path not in paths:
            continue
        element_at = element_reader(unit)
        for decl in unit.beans:
            rows = [d.span for d in decl.property_defs if d.name == old] if decl.id in scope else []
            tagged = [expr.span for owner, tag, expr in decl.values() if tag == old and model.lookup(owner) in scope]
            if not rows and not tagged:
                continue
            bean = element_at(decl.span)
            for span in rows:
                patches.append(_text_patch(unit, _leaf(_inner(bean, span), "name"), new))
            for span in tagged:
                patches.extend(Patch(unit.path, s, new) for s in _inner(bean, span).tag_name_spans())

    warnings: list[Diagnostic] = []
    manifest = state.manifest
    if manifest is not None:
        for cls in sorted(scope, key=ElementId.render):
            sig = manifest.get(cls.render())
            if sig is not None and old in sig.field_map():
                warnings.append(
                    dx.warning(
                        dx.MANIFEST_ORPHAN,
                        f"native manifest field '{cls.render()}.{old}' still uses the old name; "
                        f"update it to '{new}' by hand",
                        SourceSpan(manifest.path, 1, 1, 1, 1),
                    )
                )
    patches.sort(key=lambda p: (p.path, p.span.line, p.span.column))
    return PatchSet(tuple(patches)), warnings
