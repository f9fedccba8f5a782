"""Textual model units: one XML document reader with source spans.

A unit is one ``*.model.xml`` file. Its document is a prolog (a BOM,
whitespace, comments, processing instructions and markup declarations such
as ``<!DOCTYPE ...>``), one root element (its ``xmlns`` names the unit's
namespace) containing ``bean`` elements, and then only whitespace, comments
and processing instructions. Anything else after the root is an E000
``content after document root``.

Two readers share that skeleton and one element tree, ``XmlElement``:
``parse_unit`` is tolerant per bean (a malformed bean produces a diagnostic
and the parser resynchronizes at the next ``<bean`` so the rest of the unit
still loads), and ``read_document`` is strict (the first problem ends the
read). Elements keep offsets; line and column are computed only when a span
is asked for. This parser is hand-rolled because recovery and exact
attribute/text spans (needed for diagnostics and rename patches) are outside
what stdlib XML parsers expose; rename reads parsed beans' elements again,
at their spans, with ``element_reader``. An open tag, its attributes
included, is read with one regular-expression match; only when that match
fails does the reader walk the tag step by step, to report its first fault.
Text content is read one run up to the next ``<`` at a time, and entities
are decoded only in runs and attribute values that hold an ``&``.

A changed unit is re-read with its previous unit when that one parsed with
no diagnostics: every bean the edit did not touch, in bytes, line or
column, is taken over as the same ``BeanDecl`` inside the one reader loop
(see ``parse_unit``), so a saved edit re-reads only the beans it touched.

Workspace discovery is one ``os.scandir`` walk, ``unit_signatures``, that
returns every unit's sorted root-relative path with its ``(mtime_ns, size)``;
``parse_workspace``, ``workspace_changes`` and a watch poll all read it.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from stat import S_ISREG
from typing import NoReturn

from . import diagnostics as dx
from .diagnostics import Diagnostic
from .errors import NotFoundError
from .ids import BUILTIN_SCALARS, FLAG, XML_SPACE, ElementId, SourceSpan, is_valid_local, record

BEAN_ATTRS = ("id", "class", "parent", "abstract", "declarative")
PROPERTIES_TAG = "properties"
MODEL_FILE_SUFFIX = ".model.xml"


# ---------------------------------------------------------------------------
# Parsed structure


@record
class ScalarValue:
    """Literal text content of a value element, exact (no trimming)."""

    text: str
    span: SourceSpan


@record
class RefValue:
    """Reference to another bean by id (``ref`` attribute)."""

    target: ElementId
    written: str
    span: SourceSpan


@record
class InlineBean:
    """Anonymous nested bean: a value element with a ``class`` attribute."""

    class_ref: ElementId
    written_class: str
    assignments: tuple[tuple[str, "ValueExpr"], ...]
    span: SourceSpan


ValueExpr = ScalarValue | RefValue | InlineBean


@record
class RawPropertyDef:
    """One ``<property>`` row of a ``<properties>`` block, unresolved."""

    name: str
    type_written: str
    type_ref: ElementId
    description: str | None
    span: SourceSpan


@record
class BeanDecl:
    id: ElementId
    written_id: str
    class_ref: ElementId
    written_class: str
    parent_ref: ElementId | None
    written_parent: str | None
    abstract: bool
    declarative: bool
    property_defs: tuple[RawPropertyDef, ...]
    assignments: tuple[tuple[str, ValueExpr], ...]
    span: SourceSpan

    def values(self):
        """(class, tag, value) of every assignment of the bean, its inline
        beans' included; class is the one written for whichever assigns it."""
        owners = [(self.class_ref, self.assignments)]
        while owners:
            owner, assignments = owners.pop()
            for tag, expr in assignments:
                yield owner, tag, expr
                if isinstance(expr, InlineBean):
                    owners.append((expr.class_ref, expr.assignments))

    def references(self):
        """(written, target, span, where) of every reference the bean writes:
        class, parent, property type, value reference and inline bean class.
        span is the bean's, property row's or value's that writes it, where
        the attribute that holds it, or 'type' for a property row's <type>."""
        yield self.written_class, self.class_ref, self.span, "class"
        if self.parent_ref is not None:
            yield self.written_parent, self.parent_ref, self.span, "parent"
        for d in self.property_defs:
            yield d.type_written, d.type_ref, d.span, "type"
        for _, _, expr in self.values():
            if isinstance(expr, RefValue):
                yield expr.written, expr.target, expr.span, "ref"
            elif isinstance(expr, InlineBean):
                yield expr.written_class, expr.class_ref, expr.span, "class"


@record
class SourceUnit:
    path: str
    namespace: str
    text: str
    beans: tuple[BeanDecl, ...]
    root_tag: str | None


# ---------------------------------------------------------------------------
# Low-level scanning

_TAG_NAME_RE = re.compile(r"<([A-Za-z_][A-Za-z0-9_.\-]*)")
_CLOSE_TAG_RE = re.compile(r"</([A-Za-z_][A-Za-z0-9_.\-]*)\s*>")
_ATTR_RE = re.compile(r"\s+([A-Za-z_][A-Za-z0-9_.\-:]*)\s*=\s*(\"([^\"<]*)\"|'([^'<]*)')")
# a whole open tag: its name, its attributes as one group, and '/' if it closes itself
_OPEN_TAG_RE = re.compile(
    r"<([A-Za-z_][A-Za-z0-9_.\-]*)"
    r"((?:\s+[A-Za-z_][A-Za-z0-9_.\-:]*\s*=\s*(?:\"[^\"<]*\"|'[^'<]*'))*)"
    r"\s*(/?)>"
)
_ENTITY_RE = re.compile(r"&(#x[0-9A-Fa-f]+|#[0-9]+|[A-Za-z]+);")
_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_MAX_DEPTH = 120


class _Malformed(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset
        self.message = message


@dataclass(slots=True)
class XmlElement:
    """Well-formed XML element (no bean semantics) with offsets into its
    document; spans are computed when asked for."""

    tag: str
    attrs: dict[str, str]
    attr_bounds: dict[str, tuple[int, int]]  # attribute value offsets
    children: list["XmlElement"]
    text: str
    start: int
    end: int
    name_offset: int
    content_start: int | None  # just past the open tag's '>'
    content_end: int | None    # at the '<' of the close tag
    close_name_offset: int | None
    doc: "_Scanner"

    @property
    def span(self) -> SourceSpan:
        return self.doc.span(self.start, self.end)

    def attr_span(self, name: str) -> SourceSpan:
        """Span of the value of attribute name."""
        return self.doc.span(*self.attr_bounds[name])

    def content_span(self) -> SourceSpan:
        """Span of the raw content between the open and the close tag."""
        return self.doc.span(self.content_start, self.content_end)

    def tag_name_spans(self) -> list[SourceSpan]:
        """Spans of the tag name in the open tag and, unless the element
        closes itself, in the close tag."""
        return [self.doc.span(o, o + len(self.tag)) for o in (self.name_offset, self.close_name_offset)
                if o is not None]


def line_starts(text: str) -> list[int]:
    """The offset at which each line of text begins; LF ends a line."""
    starts = [0]
    idx = text.find("\n")
    while idx != -1:
        starts.append(idx + 1)
        idx = text.find("\n", idx + 1)
    return starts


class _Scanner:
    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path

    @cached_property
    def _line_starts(self) -> list[int]:
        return line_starts(self.text)

    def pos(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def span(self, start: int, end: int) -> SourceSpan:
        starts = self._line_starts
        l1 = bisect_right(starts, start)
        l2 = bisect_right(starts, end, l1 - 1)
        return SourceSpan(self.path, l1, start - starts[l1 - 1] + 1, l2, end - starts[l2 - 1] + 1)

    def point(self, offset: int) -> SourceSpan:
        l1, c1 = self.pos(offset)
        return SourceSpan(self.path, l1, c1, l1, c1 + 1)

    def decode(self, raw: str, base: int) -> str:
        """raw, which holds an '&', with its entity references replaced."""
        out = []
        i = 0
        while True:
            amp = raw.find("&", i)
            if amp == -1:
                out.append(raw[i:])
                return "".join(out)
            out.append(raw[i:amp])
            m = _ENTITY_RE.match(raw, amp)
            if not m:
                raise _Malformed(base + amp, "bad entity reference")
            body = m.group(1)
            if body.startswith("#x"):
                ch = chr(int(body[2:], 16))
            elif body.startswith("#"):
                ch = chr(int(body[1:]))
            else:
                if body not in _NAMED_ENTITIES:
                    raise _Malformed(base + amp, f"unknown entity '&{body};'")
                ch = _NAMED_ENTITIES[body]
            out.append(ch)
            i = m.end()

    def read_open_tag(self, p: int):
        """Returns (tag, attrs, attr_bounds, name_offset, after, self_closing)."""
        m = _OPEN_TAG_RE.match(self.text, p)
        if m is None:
            self._open_tag_error(p)
        attrs: dict[str, str] = {}
        bounds: dict[str, tuple[int, int]] = {}
        if m.end(2) > m.start(2):
            for am in _ATTR_RE.finditer(self.text, m.start(2), m.end(2)):
                self._add_attr(am, attrs, bounds)
        return m.group(1), attrs, bounds, m.start(1), m.end(), m.group(3) == "/"

    def _add_attr(self, am: re.Match, attrs: dict[str, str], bounds: dict[str, tuple[int, int]]) -> None:
        name = am.group(1)
        if name in attrs:
            raise _Malformed(am.start(1), f"duplicate attribute '{name}'")
        raw, vstart = (am.group(3), am.start(3)) if am.group(3) is not None else (am.group(4), am.start(4))
        attrs[name] = self.decode(raw, vstart) if "&" in raw else raw
        bounds[name] = (vstart, vstart + len(raw))

    def _open_tag_error(self, p: int) -> NoReturn:
        """Raise the first fault of the open tag at p, which _OPEN_TAG_RE
        did not match: the name, then each attribute in turn, then the end."""
        text = self.text
        m = _TAG_NAME_RE.match(text, p)
        if not m:
            raise _Malformed(p, "malformed tag")
        q = m.end()
        attrs: dict[str, str] = {}
        while am := _ATTR_RE.match(text, q):
            self._add_attr(am, attrs, {})
            q = am.end()
        raise _Malformed(q, f"malformed tag '<{m.group(1)}'")

    def read_element(self, p: int, depth: int = 0) -> tuple[XmlElement, int]:
        if depth > _MAX_DEPTH:
            raise _Malformed(p, "element nesting too deep")
        text = self.text
        start = p
        tag, attrs, bounds, name_offset, p, self_closing = self.read_open_tag(p)
        node = XmlElement(tag, attrs, bounds, [], "", start, p, name_offset, None, None, None, self)
        if self_closing:
            return node, p
        node.content_start = p
        parts: list[str] = []
        while True:
            lt = text.find("<", p)
            if lt == -1:
                raise _Malformed(start, f"unclosed element '{tag}'")
            if lt > p:
                run = text[p:lt]
                parts.append(self.decode(run, p) if "&" in run else run)
            p = lt
            after = text[lt + 1 : lt + 2]
            if after == "/":
                cm = _CLOSE_TAG_RE.match(text, p)
                if not cm:
                    raise _Malformed(p, "malformed closing tag")
                if cm.group(1) != tag:
                    raise _Malformed(p, f"mismatched closing tag '</{cm.group(1)}>' (expected '</{tag}>')")
                node.content_end = p
                node.close_name_offset = cm.start(1)
                node.end = cm.end()
                node.text = "".join(parts)
                return node, cm.end()
            if after == "!" and text.startswith("--", p + 2):
                e = text.find("-->", p + 4)
                if e == -1:
                    raise _Malformed(p, "unterminated comment")
                p = e + 3
            elif after == "!" and text.startswith("[CDATA[", p + 2):
                e = text.find("]]>", p + 9)
                if e == -1:
                    raise _Malformed(p, "unterminated CDATA section")
                parts.append(text[p + 9 : e])
                p = e + 3
            elif after == "?":
                e = text.find("?>", p + 2)
                if e == -1:
                    raise _Malformed(p, "unterminated processing instruction")
                p = e + 2
            else:
                child, p = self.read_element(p, depth + 1)
                node.children.append(child)


def _skip_misc(text: str, p: int) -> int:
    """Offset past the whitespace (space, tab, CR, LF), comments and
    processing instructions at p: what XML allows around the root element."""
    n = len(text)
    while p < n:
        if text[p] in XML_SPACE:
            p += 1
        elif text.startswith("<!--", p):
            e = text.find("-->", p + 4)
            if e == -1:
                raise _Malformed(p, "unterminated comment")
            p = e + 3
        elif text.startswith("<?", p):
            e = text.find("?>", p + 2)
            if e == -1:
                raise _Malformed(p, "unterminated processing instruction")
            p = e + 2
        else:
            break
    return p


def _skip_declaration(text: str, p: int) -> int:
    """Offset past the markup declaration at p ('<!'). A '>' inside a quoted
    literal or the bracketed internal subset does not end it; the subset is
    skipped, so nothing declared there is known to the readers."""
    n = len(text)
    q = p + 2
    in_subset = False
    while q < n:
        c = text[q]
        if c == '"' or c == "'":
            q = text.find(c, q + 1)
            if q == -1:
                break
        elif in_subset and text.startswith(("<!--", "<?"), q):
            close = "-->" if text[q + 1] == "!" else "?>"
            q = text.find(close, q + 2)
            if q == -1:
                break
            q += len(close) - 1
        elif c == "[":
            in_subset = True
        elif c == "]":
            in_subset = False
        elif c == ">" and not in_subset:
            return q + 1
        q += 1
    raise _Malformed(p, "unterminated markup declaration")


def _skip_prolog(text: str) -> int:
    """Offset of the root element: past a BOM, markup declarations and
    what _skip_misc skips."""
    p = _skip_misc(text, 1 if text.startswith("\ufeff") else 0)
    while text.startswith("<!", p):
        p = _skip_misc(text, _skip_declaration(text, p))
    if p >= len(text):
        raise _Malformed(max(0, len(text) - 1), "missing root element")
    if text[p] != "<":
        raise _Malformed(p, "content before document root")
    return p


def _check_trailer(text: str, p: int) -> None:
    """After the root element only what _skip_misc skips may follow."""
    p = _skip_misc(text, p)
    if p < len(text):
        raise _Malformed(p, "content after document root")


_RESYNC_BEAN_RE = re.compile(r"<bean[\s/>]")


# ---------------------------------------------------------------------------
# Unit parsing


class _UnitParser:
    def __init__(self, text: str, path: str, ids: dict | None = None, prev: SourceUnit | None = None):
        self.sc = _Scanner(text, path)
        self.text = text
        self.path = path
        self.namespace = ""
        self.diags: list[Diagnostic] = []
        self.beans: list[BeanDecl] = []
        self.root_tag: str | None = None
        self._ids: dict[str, BeanDecl] = {}
        # one ElementId object per distinct id, shared by every unit parsed with the same ids
        self._interned: dict[ElementId, ElementId] = {} if ids is None else ids
        self._prev = prev
        # top-level offset -> (decl, end offset) of each previous bean taken whole there
        self._reuse: dict[int, tuple[BeanDecl, int]] = {}

    def _id(self, written: str) -> ElementId:
        eid = ElementId.parse(written, self.namespace)
        return self._interned.setdefault(eid, eid)

    # -- helpers

    def _err(self, offset: int, message: str, element: ElementId | None = None):
        self.diags.append(dx.error(dx.PARSE, message, self.sc.point(offset), element))

    def _err_span(self, span: SourceSpan, message: str, element: ElementId | None = None):
        self.diags.append(dx.error(dx.PARSE, message, span, element))

    # -- driver

    def parse(self) -> tuple[SourceUnit, list[Diagnostic]]:
        try:
            p = _skip_prolog(self.text)
        except _Malformed as m:
            self._err(m.offset, m.message)
            return self._finish()
        # root open tag
        try:
            tag, attrs, _spans, _noff, p, self_closing = self.sc.read_open_tag(p)
        except _Malformed as m:
            self._err(m.offset, m.message)
            self._scan_beans(m.offset + 1, None)
            return self._finish()
        self.root_tag = tag
        self.namespace = attrs.get("xmlns", "")
        prev = self._prev
        if prev is not None and (prev.path, prev.root_tag, prev.namespace) == (self.path, tag, self.namespace):
            self._reuse = _unchanged_beans(prev, self.text)
        if not self_closing:
            p = self._scan_beans(p, tag)
        if p is not None:
            try:
                _check_trailer(self.text, p)
            except _Malformed as m:
                self._err(m.offset, m.message)
        return self._finish()

    def _scan_beans(self, p: int, root_tag: str | None) -> int | None:
        """Top-level loop: collect beans, recover at the next '<bean' on errors.
        Returns the offset past the root's close tag, None if it has none."""
        text = self.text
        n = len(text)
        reuse = self._reuse
        while True:
            try:
                p = _skip_misc(text, p)
            except _Malformed as m:
                self._err(m.offset, m.message)
                p = self._resync(m.offset + 1, root_tag)
                continue
            taken = reuse.get(p)
            if taken is not None:
                decl, p = taken
                self._accept(decl)
                continue
            if p >= n:
                if root_tag is not None:
                    self._err(n - 1 if n else 0, f"unclosed root element '{root_tag}'")
                return None
            if text.startswith("</", p):
                cm = _CLOSE_TAG_RE.match(text, p)
                if cm and cm.group(1) == root_tag:
                    return cm.end()
                self._err(p, "unexpected closing tag")
                p = cm.end() if cm else self._resync(p + 1, root_tag)
                continue
            if text[p] != "<":
                nxt = text.find("<", p)
                if text[p : nxt if nxt != -1 else n].strip():
                    self._err(p, "stray content at root level")
                if nxt == -1:
                    if root_tag is not None:
                        self._err(n - 1, f"unclosed root element '{root_tag}'")
                    return None
                p = nxt
                continue
            m = _TAG_NAME_RE.match(text, p)
            if not m:
                self._err(p, "malformed tag")
                p = self._resync(p + 1, root_tag)
                continue
            if m.group(1) != "bean":
                self._err(p, f"unknown top-level element '{m.group(1)}'")
                try:
                    _, p = self.sc.read_element(p)
                except _Malformed as mf:
                    self._err(mf.offset, mf.message)
                    p = self._resync(max(mf.offset, p) + 1, root_tag)
                continue
            try:
                node, p = self.sc.read_element(p)
            except _Malformed as mf:
                self._err(mf.offset, mf.message)
                p = self._resync(max(mf.offset, p) + 1, root_tag)
                continue
            self._add_bean(node)

    def _resync(self, offset: int, root_tag: str | None) -> int:
        """Find the next plausible bean start (or the root close tag)."""
        m = _RESYNC_BEAN_RE.search(self.text, offset)
        close_at = -1
        if root_tag is not None:
            cm = re.compile(r"</" + re.escape(root_tag) + r"\s*>").search(self.text, offset)
            if cm:
                close_at = cm.start()
        if m and (close_at == -1 or m.start() < close_at):
            return m.start()
        if close_at != -1:
            return close_at
        return len(self.text)

    # -- bean mapping

    def _add_bean(self, node: XmlElement):
        span = node.span
        written_id = node.attrs.get("id")
        if written_id is None:
            self._err_span(span, "bean missing required 'id' attribute")
            return
        if not is_valid_local(written_id):
            self._err_span(node.attr_span("id"), f"invalid bean id '{written_id}'")
            return
        bean_id = self._id(written_id)
        written_class = node.attrs.get("class")
        if written_class is None:
            self._err_span(span, "bean missing required 'class' attribute", bean_id)
            return
        if not written_class.strip():
            self._err_span(node.attr_span("class"), "empty class reference", bean_id)
            return
        for a in node.attrs:
            if a not in BEAN_ATTRS:
                self._err_span(node.attr_span(a), f"unknown attribute '{a}' on bean", bean_id)

        class_ref = self._id(written_class)

        written_parent = node.attrs.get("parent")
        parent_ref = None
        if written_parent is not None:
            if not written_parent.strip():
                self._err_span(node.attr_span("parent"), "empty parent reference", bean_id)
                written_parent = None
            else:
                parent_ref = self._id(written_parent)

        abstract = self._flag(node, "abstract", bean_id)
        declarative = self._flag(node, "declarative", bean_id)

        defs: list[RawPropertyDef] | None = None
        assignments: list[tuple[str, ValueExpr]] = []
        assigned: set[str] = set()
        if node.text.strip():
            self._err_span(span, "stray text content in bean", bean_id)
        for child in node.children:
            if child.tag == PROPERTIES_TAG:
                if defs is not None:
                    self._err_span(child.span, "duplicate properties block", bean_id)
                    continue
                defs = self._parse_defs(child, bean_id)
            else:
                if child.tag in assigned:
                    self._err_span(child.span, f"duplicate assignment '{child.tag}'", bean_id)
                    continue
                expr = self._value_expr(child, bean_id)
                if expr is not None:
                    assigned.add(child.tag)
                    assignments.append((child.tag, expr))

        self._accept(BeanDecl(
            id=bean_id,
            written_id=written_id,
            class_ref=class_ref,
            written_class=written_class,
            parent_ref=parent_ref,
            written_parent=written_parent,
            abstract=abstract,
            declarative=declarative,
            property_defs=tuple(defs or ()),
            assignments=tuple(assignments),
            span=span,
        ))

    def _accept(self, decl: BeanDecl) -> None:
        """Add a read or reused bean to the unit unless its id is a reserved
        builtin name or already declared earlier in the unit."""
        written_id, span = decl.written_id, decl.span
        if written_id in BUILTIN_SCALARS:
            self.diags.append(
                dx.error(dx.DUPLICATE_ID, f"'{written_id}' is a reserved builtin type name", span, decl.id)
            )
            return
        prior = self._ids.get(written_id)
        if prior is not None:
            self.diags.append(
                dx.error(
                    dx.DUPLICATE_ID,
                    f"duplicate element id '{decl.id.render()}' (first declared at {prior.span.render()})",
                    span,
                    decl.id,
                )
            )
            return
        self._ids[written_id] = decl
        self.beans.append(decl)

    def _flag(self, node: XmlElement, name: str, bean_id: ElementId) -> bool:
        raw = node.attrs.get(name)
        if raw is None:
            return False
        if FLAG.conforms(raw):
            return FLAG.value(raw)
        self._err_span(node.attr_span(name), f"attribute '{name}' must be 'true' or 'false'", bean_id)
        return False

    def _leaf_text(self, node: XmlElement, bean_id: ElementId) -> str | None:
        if node.children:
            self._err_span(node.span, f"'{node.tag}' must contain only text", bean_id)
            return None
        return node.text

    def _parse_defs(self, block: XmlElement, bean_id: ElementId) -> list[RawPropertyDef]:
        defs: list[RawPropertyDef] = []
        names: set[str] = set()
        if block.text.strip():
            self._err_span(block.span, "stray text in properties block", bean_id)
        for a in block.attrs:
            self._err_span(block.attr_span(a), f"unknown attribute '{a}' on properties block", bean_id)
        for row in block.children:
            if row.tag != "property":
                self._err_span(row.span, f"unexpected element '{row.tag}' in properties block", bean_id)
                continue
            name_node = type_node = desc_node = None
            for part in row.children:
                if part.tag == "name" and name_node is None:
                    name_node = part
                elif part.tag == "type" and type_node is None:
                    type_node = part
                elif part.tag == "description" and desc_node is None:
                    desc_node = part
                else:
                    self._err_span(part.span, f"unexpected element '{part.tag}' in property", bean_id)
            if name_node is None or type_node is None:
                self._err_span(row.span, "property must declare <name> and <type>", bean_id)
                continue
            raw_name = self._leaf_text(name_node, bean_id)
            raw_type = self._leaf_text(type_node, bean_id)
            if raw_name is None or raw_type is None:
                continue
            name = raw_name.strip()
            type_written = raw_type.strip(XML_SPACE)  # as the schema's xs:token reads it
            if not is_valid_local(name) or name == PROPERTIES_TAG:
                self._err_span(name_node.span, f"invalid property name '{name}'", bean_id)
                continue
            if not type_written:
                self._err_span(type_node.span, "empty property type", bean_id)
                continue
            if name in names:
                self._err_span(row.span, f"duplicate property definition '{name}'", bean_id)
                continue
            names.add(name)
            description = None
            if desc_node is not None:
                description = self._leaf_text(desc_node, bean_id)
            type_ref = self._id(type_written)
            defs.append(RawPropertyDef(name, type_written, type_ref, description, row.span))
        return defs

    def _value_expr(self, node: XmlElement, bean_id: ElementId) -> ValueExpr | None:
        span = node.span
        prop = node.tag
        ref_written = node.attrs.get("ref")
        class_written = node.attrs.get("class")
        for a in node.attrs:
            if a not in ("ref", "class"):
                self._err_span(node.attr_span(a), f"unknown attribute '{a}' on value element", bean_id)
        if ref_written is not None and class_written is not None:
            self._err_span(span, f"value '{prop}' has both 'ref' and 'class'", bean_id)
            class_written = None

        if ref_written is not None:
            if not ref_written.strip():
                self._err_span(node.attr_span("ref"), "empty bean reference", bean_id)
                return None
            if node.children or node.text.strip():
                self._err_span(span, f"reference value '{prop}' must be empty", bean_id)
            return RefValue(self._id(ref_written), ref_written, span)

        if class_written is not None:
            if not class_written.strip():
                self._err_span(node.attr_span("class"), "empty class reference", bean_id)
                return None
            inline_class = self._id(class_written)
            if node.text.strip():
                self._err_span(span, f"stray text content in inline bean '{prop}'", bean_id)
            inner: list[tuple[str, ValueExpr]] = []
            seen: set[str] = set()
            for child in node.children:
                if child.tag == PROPERTIES_TAG:
                    self._err_span(child.span, "inline beans cannot declare properties", bean_id)
                    continue
                if child.tag in seen:
                    self._err_span(child.span, f"duplicate assignment '{child.tag}'", bean_id)
                    continue
                expr = self._value_expr(child, bean_id)
                if expr is not None:
                    seen.add(child.tag)
                    inner.append((child.tag, expr))
            return InlineBean(inline_class, class_written, tuple(inner), span)

        if node.children:
            self._err_span(span, f"inline bean '{prop}' missing 'class' attribute", bean_id)
            return None
        return ScalarValue(node.text, span)

    def _finish(self) -> tuple[SourceUnit, list[Diagnostic]]:
        unit = SourceUnit(
            path=self.path,
            namespace=self.namespace,
            text=self.text,
            beans=tuple(self.beans),
            root_tag=self.root_tag,
        )
        return unit, self.diags


def _common_prefix(a: str, b: str) -> int:
    """Length of a's and b's longest common prefix, by a binary search whose
    probes compare slices at C speed."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a.startswith(b[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _unchanged_beans(prev: SourceUnit, text: str) -> dict[int, tuple[BeanDecl, int]]:
    """prev's beans that text holds byte for byte at the same line and
    column, by their offset in text, each with its end offset there: those
    wholly before the edited range, and those wholly after it on a later
    line when the edit adds or removes no line break. prev parsed clean, so
    its beans are its top-level elements; their offsets come from the spans.
    """
    old = prev.text
    head = _common_prefix(old, text)
    tail = min(_common_prefix(old[::-1], text[::-1]), len(old) - head, len(text) - head)
    old_end = len(old) - tail
    delta = len(text) - len(old)
    same_lines = old.count("\n", head, old_end) == text.count("\n", head, old_end + delta)
    starts = line_starts(old)
    found: dict[int, tuple[BeanDecl, int]] = {}
    for decl in prev.beans:
        span = decl.span
        line_start = starts[span.line - 1]
        end = starts[span.end_line - 1] + span.end_column - 1
        if end <= head:
            found[line_start + span.column - 1] = (decl, end)
        elif same_lines and line_start > old_end:
            found[line_start + span.column - 1 + delta] = (decl, end + delta)
    return found


def parse_unit(text: str, path: str, ids: dict | None = None,
               prev: SourceUnit | None = None) -> tuple[SourceUnit, list[Diagnostic]]:
    """Parse one unit's text. Never raises on bad input: maximal recovery.
    Units parsed with the same ids dict share one ElementId per distinct id.

    prev is the path's previous unit, given only when it parsed with no
    diagnostics. Where the reader reaches a bean of it that the edit did not
    touch, it takes that BeanDecl itself, through the same reserved-name and
    duplicate-id checks as a bean read afresh; a changed root tag or
    namespace takes none. The result equals a parse without prev.
    """
    return _UnitParser(text, path, ids=ids, prev=prev).parse()


def read_document(text: str, path: str) -> tuple[XmlElement | None, list[Diagnostic]]:
    """Strict single-pass read of a whole document. The first structural
    problem yields a diagnostic and None (no recovery)."""
    sc = _Scanner(text, path)
    try:
        root, p = sc.read_element(_skip_prolog(text))
        _check_trailer(text, p)
    except _Malformed as m:
        return None, [dx.error(dx.PARSE, m.message, sc.point(m.offset))]
    return root, []


def element_reader(unit: SourceUnit):
    """A function that takes the span of a bean, property row or value that
    parsing unit gave and returns the element of unit starting there, read
    again by the same reader. Its reads share one scanner, so the unit's
    line starts are found once."""
    sc = _Scanner(unit.text, unit.path)

    def read(span: SourceSpan) -> XmlElement:
        return sc.read_element(sc._line_starts[span.line - 1] + span.column - 1)[0]

    return read


def unit_signatures(root) -> dict[str, tuple[int, int]]:
    """Workspace discovery: every *.model.xml file under root with its
    (mtime_ns, size), keyed by POSIX path relative to root, in sorted order.

    One os.scandir walk (PEP 471). Names starting with '.' are skipped at
    any depth, a symlinked directory is not entered, and a symlink to a
    regular file counts as that file.
    """
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise NotFoundError(f"workspace root is not a directory: {root}")
    found = []
    pending = [("", root)]
    while pending:
        prefix, directory = pending.pop()
        try:
            entries = os.scandir(directory)
        except OSError:
            continue
        with entries:
            for entry in entries:
                name = entry.name
                if name.startswith("."):
                    continue
                try:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append((prefix + name + "/", entry.path))
                        continue
                    if not name.endswith(MODEL_FILE_SUFFIX):
                        continue
                    st = entry.stat()
                except OSError:
                    continue
                if S_ISREG(st.st_mode):
                    found.append((prefix + name, (st.st_mtime_ns, st.st_size)))
    found.sort()
    return dict(found)


def read_unit_text(root, rel: str) -> tuple[str | None, Diagnostic | None]:
    """Read one unit as UTF-8 text. A file that cannot be read or decoded
    gives (None, E000 diagnostic), and the unit counts as absent."""
    try:
        return (Path(root) / rel).read_text(encoding="utf-8"), None
    except (OSError, UnicodeDecodeError) as exc:
        return None, dx.error(dx.PARSE, f"unreadable unit: {exc}", SourceSpan(rel, 1, 1, 1, 1))


def read_units(root, paths, known=None, clean=()) -> tuple[list[SourceUnit], list[str], list[Diagnostic]]:
    """The workspace reader: read and parse the units at paths.

    A path whose text equals ``known[path].text`` is skipped unparsed. A
    path in clean, whose known unit parsed with no diagnostics, is parsed
    with that unit as prev (see parse_unit). A file that cannot be read or
    decoded gives an E000 diagnostic and counts as absent.
    Returns the parsed units, the unreadable paths and the diagnostics.
    """
    known = known or {}
    ids: dict[ElementId, ElementId] = {}  # interned for this call only
    units: list[SourceUnit] = []
    unreadable: list[str] = []
    diags: list[Diagnostic] = []
    for rel in paths:
        text, error = read_unit_text(root, rel)
        if error is not None:
            unreadable.append(rel)
            diags.append(error)
            continue
        prior = known.get(rel)
        if prior is not None and prior.text == text:
            continue
        unit, udiags = parse_unit(text, rel, ids, prior if rel in clean else None)
        units.append(unit)
        diags.extend(udiags)
    return units, unreadable, diags


def parse_workspace(root) -> tuple[list[SourceUnit], list[Diagnostic]]:
    """Parse every unit under root (recursive, sorted paths, UTF-8).

    Unit paths are stored root-relative with POSIX separators. Unreadable
    files produce a diagnostic and are skipped. Cross-unit duplicate ids
    are left to resolution.
    """
    units, _unreadable, diags = read_units(root, list(unit_signatures(root)))
    return units, diags
