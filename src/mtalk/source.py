"""Textual model units: tolerant XML parsing with source spans.

A unit is one ``*.model.xml`` file: a root element (its ``xmlns`` names the
unit's namespace) containing ``bean`` elements. Parsing is tolerant per bean:
a malformed bean produces a diagnostic and the parser resynchronizes at the
next ``<bean`` so the rest of the unit still loads. This parser is hand-rolled
because recovery and exact attribute/text spans (needed for diagnostics and
rename patches) are outside what stdlib XML parsers expose.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from . import diagnostics as dx
from .diagnostics import Diagnostic
from .errors import NotFoundError
from .ids import BUILTIN_SCALARS, ElementId, SourceSpan, is_valid_local

BEAN_ATTRS = ("id", "class", "parent", "abstract", "declarative")
PROPERTIES_TAG = "properties"
MODEL_FILE_SUFFIX = ".model.xml"


# ---------------------------------------------------------------------------
# Parsed structure


@dataclass(frozen=True, slots=True)
class ScalarValue:
    """Literal text content of a value element, exact (no trimming)."""

    text: str
    span: SourceSpan


@dataclass(frozen=True, slots=True)
class RefValue:
    """Reference to another bean by id (``ref`` attribute)."""

    target: ElementId
    written: str
    span: SourceSpan


@dataclass(frozen=True, slots=True)
class InlineBean:
    """Anonymous nested bean: a value element with a ``class`` attribute."""

    class_ref: ElementId
    written_class: str
    assignments: tuple[tuple[str, "ValueExpr"], ...]
    span: SourceSpan


ValueExpr = ScalarValue | RefValue | InlineBean


@dataclass(frozen=True, slots=True)
class RawPropertyDef:
    """One ``<property>`` row of a ``<properties>`` block, unresolved."""

    name: str
    type_written: str
    type_ref: ElementId
    description: str | None
    span: SourceSpan


@dataclass(frozen=True, slots=True)
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

    def assignment_map(self) -> dict[str, ValueExpr]:
        return dict(self.assignments)


@dataclass(frozen=True, slots=True)
class RefSite:
    """One renameable occurrence of a name in the source text.

    kind is one of:
      bean-id     written id of a bean declaration
      class-attr  class attribute of a bean or inline bean
      parent-attr parent attribute of a bean
      ref-attr    ref attribute of a value element
      type-text   text of a <type> inside a property definition
      name-text   text of a <name> inside a property definition
      prop-tag    a value element's tag name (open or close tag occurrence)
    """

    kind: str
    written: str
    span: SourceSpan
    bean: ElementId
    target: ElementId | None = None
    prop: str | None = None
    owner_class: ElementId | None = None


@dataclass(slots=True)
class SourceUnit:
    path: str
    namespace: str
    text: str
    content_hash: str
    beans: tuple[BeanDecl, ...]
    root_tag: str | None

    @property
    def ref_sites(self) -> tuple[RefSite, ...]:
        """Every renameable occurrence, in source order.

        Only rename reads these, so they are not kept: each access rescans
        the text with the unit parser.
        """
        parser = _UnitParser(self.text, self.path, sites=True)
        parser.parse()
        return tuple(parser.sites)


# ---------------------------------------------------------------------------
# Low-level scanning

_TAG_NAME_RE = re.compile(r"<([A-Za-z_][A-Za-z0-9_.\-]*)")
_CLOSE_TAG_RE = re.compile(r"</([A-Za-z_][A-Za-z0-9_.\-]*)\s*>")
_ATTR_RE = re.compile(r"\s+([A-Za-z_][A-Za-z0-9_.\-:]*)\s*=\s*(\"([^\"<]*)\"|'([^'<]*)')")
_TAG_END_RE = re.compile(r"\s*(/>|>)")
_ENTITY_RE = re.compile(r"&(#x[0-9A-Fa-f]+|#[0-9]+|[A-Za-z]+);")
_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_MAX_DEPTH = 120


class _Malformed(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset
        self.message = message


@dataclass(slots=True)
class _XmlNode:
    tag: str
    attrs: dict[str, str]
    attr_value_spans: dict[str, tuple[int, int]]
    children: list["_XmlNode"]
    text: str
    start: int
    end: int
    name_offset: int
    content_start: int | None  # just past the open tag's '>'
    content_end: int | None    # at the '<' of the close tag
    close_name_offset: int | None


class _Scanner:
    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        starts = [0]
        idx = text.find("\n")
        while idx != -1:
            starts.append(idx + 1)
            idx = text.find("\n", idx + 1)
        self._line_starts = starts

    def pos(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def span(self, start: int, end: int) -> SourceSpan:
        l1, c1 = self.pos(start)
        l2, c2 = self.pos(end)
        return SourceSpan(self.path, l1, c1, l2, c2)

    def point(self, offset: int) -> SourceSpan:
        l1, c1 = self.pos(offset)
        return SourceSpan(self.path, l1, c1, l1, c1 + 1)

    def decode(self, raw: str, base: int) -> str:
        if "&" not in raw:
            return raw
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
        """Returns (tag, attrs, attr_value_spans, name_offset, after, self_closing)."""
        text = self.text
        m = _TAG_NAME_RE.match(text, p)
        if not m:
            raise _Malformed(p, "malformed tag")
        tag = m.group(1)
        name_offset = m.start(1)
        q = m.end()
        attrs: dict[str, str] = {}
        spans: dict[str, tuple[int, int]] = {}
        while True:
            am = _ATTR_RE.match(text, q)
            if not am:
                break
            name = am.group(1)
            raw = am.group(3) if am.group(3) is not None else am.group(4)
            vstart = am.start(3) if am.group(3) is not None else am.start(4)
            if name in attrs:
                raise _Malformed(am.start(1), f"duplicate attribute '{name}'")
            attrs[name] = self.decode(raw, vstart)
            spans[name] = (vstart, vstart + len(raw))
            q = am.end()
        em = _TAG_END_RE.match(text, q)
        if not em:
            raise _Malformed(q, f"malformed tag '<{tag}'")
        return tag, attrs, spans, name_offset, em.end(), em.group(1) == "/>"

    def read_element(self, p: int, depth: int = 0) -> tuple[_XmlNode, int]:
        if depth > _MAX_DEPTH:
            raise _Malformed(p, "element nesting too deep")
        text = self.text
        start = p
        tag, attrs, spans, name_offset, p, self_closing = self.read_open_tag(p)
        node = _XmlNode(tag, attrs, spans, [], "", start, p, name_offset, None, None, None)
        if self_closing:
            return node, p
        node.content_start = p
        parts: list[str] = []
        n = len(text)
        while True:
            if p >= n:
                raise _Malformed(start, f"unclosed element '{tag}'")
            if text.startswith("<!--", p):
                e = text.find("-->", p + 4)
                if e == -1:
                    raise _Malformed(p, "unterminated comment")
                p = e + 3
            elif text.startswith("<![CDATA[", p):
                e = text.find("]]>", p + 9)
                if e == -1:
                    raise _Malformed(p, "unterminated CDATA section")
                parts.append(text[p + 9 : e])
                p = e + 3
            elif text.startswith("<?", p):
                e = text.find("?>", p + 2)
                if e == -1:
                    raise _Malformed(p, "unterminated processing instruction")
                p = e + 2
            elif text.startswith("</", p):
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
            elif text[p] == "<":
                child, p = self.read_element(p, depth + 1)
                node.children.append(child)
            else:
                nxt = text.find("<", p)
                if nxt == -1:
                    raise _Malformed(start, f"unclosed element '{tag}'")
                parts.append(self.decode(text[p:nxt], p))
                p = nxt


def _skip_prolog(text: str) -> int:
    """Offset of the root element: past a BOM, whitespace, processing
    instructions, comments and markup declarations."""
    p = 1 if text.startswith("\ufeff") else 0
    n = len(text)
    while p < n:
        if text[p].isspace():
            p += 1
        elif text.startswith("<?", p):
            e = text.find("?>", p + 2)
            if e == -1:
                raise _Malformed(p, "unterminated processing instruction")
            p = e + 2
        elif text.startswith("<!--", p):
            e = text.find("-->", p + 4)
            if e == -1:
                raise _Malformed(p, "unterminated comment")
            p = e + 3
        elif text.startswith("<!", p):
            e = text.find(">", p)
            if e == -1:
                raise _Malformed(p, "unterminated markup declaration")
            p = e + 1
        else:
            return p
    raise _Malformed(max(0, n - 1), "missing root element")


_RESYNC_BEAN_RE = re.compile(r"<bean[\s/>]")


# ---------------------------------------------------------------------------
# Unit parsing


class _UnitParser:
    def __init__(self, text: str, path: str, sites: bool = False):
        self.sc = _Scanner(text, path)
        self.text = text
        self.path = path
        self.namespace = ""
        self.diags: list[Diagnostic] = []
        self.beans: list[BeanDecl] = []
        # None unless a ref_sites rescan asked for them
        self.sites: list[RefSite] | None = [] if sites else None
        self.root_tag: str | None = None
        self._ids: dict[str, BeanDecl] = {}

    # -- helpers

    def _err(self, offset: int, message: str, element: ElementId | None = None):
        self.diags.append(dx.error(dx.PARSE, message, self.sc.point(offset), element))

    def _err_span(self, span: SourceSpan, message: str, element: ElementId | None = None):
        self.diags.append(dx.error(dx.PARSE, message, span, element))

    def _site(self, sites: list[RefSite], kind: str, written: str, start: int, end: int,
              bean: ElementId, **extra) -> None:
        """Record one rename site; only a ref_sites rescan collects them."""
        if self.sites is not None:
            sites.append(RefSite(kind, written, self.sc.span(start, end), bean, **extra))

    def _attr_span(self, node: _XmlNode, name: str) -> SourceSpan:
        s, e = node.attr_value_spans[name]
        return self.sc.span(s, e)

    def _node_span(self, node: _XmlNode) -> SourceSpan:
        return self.sc.span(node.start, node.end)

    def _skip_intertag(self, p: int) -> int:
        """Advance past whitespace, comments and PIs between elements."""
        text = self.text
        n = len(text)
        while p < n:
            c = text[p]
            if c.isspace():
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
                return p
        return p

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
        if not self_closing:
            self._scan_beans(p, tag)
        return self._finish()

    def _scan_beans(self, p: int, root_tag: str | None):
        """Top-level loop: collect beans, recover at the next '<bean' on errors."""
        text = self.text
        n = len(text)
        closed = root_tag is None
        while True:
            try:
                p = self._skip_intertag(p)
            except _Malformed as m:
                self._err(m.offset, m.message)
                p = self._resync(m.offset + 1, root_tag)
                continue
            if p >= n:
                if root_tag is not None and not closed:
                    self._err(n - 1 if n else 0, f"unclosed root element '{root_tag}'")
                return
            if text.startswith("</", p):
                cm = _CLOSE_TAG_RE.match(text, p)
                if cm and root_tag is not None and cm.group(1) == root_tag:
                    closed = True
                    tail = cm.end()
                    while tail < n and text[tail].isspace():
                        tail += 1
                    if tail < n:
                        self._err(tail, "content after document root")
                    return
                self._err(p, "unexpected closing tag")
                p = cm.end() if cm else self._resync(p + 1, root_tag)
                continue
            if text[p] != "<":
                nxt = text.find("<", p)
                if text[p : nxt if nxt != -1 else n].strip():
                    self._err(p, "stray content at root level")
                if nxt == -1:
                    if root_tag is not None and not closed:
                        self._err(n - 1, f"unclosed root element '{root_tag}'")
                    return
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

    def _add_bean(self, node: _XmlNode):
        span = self._node_span(node)
        written_id = node.attrs.get("id")
        if written_id is None:
            self._err_span(span, "bean missing required 'id' attribute")
            return
        if not is_valid_local(written_id):
            self._err_span(self._attr_span(node, "id"), f"invalid bean id '{written_id}'")
            return
        bean_id = ElementId(self.namespace, written_id)
        written_class = node.attrs.get("class")
        if written_class is None:
            self._err_span(span, "bean missing required 'class' attribute", bean_id)
            return
        if not written_class.strip():
            self._err_span(self._attr_span(node, "class"), "empty class reference", bean_id)
            return
        for a in node.attrs:
            if a not in BEAN_ATTRS:
                self._err_span(self._attr_span(node, a), f"unknown attribute '{a}' on bean", bean_id)

        sites: list[RefSite] = []
        class_ref = ElementId.parse(written_class, self.namespace)
        self._site(sites, "class-attr", written_class, *node.attr_value_spans["class"], bean_id, target=class_ref)

        written_parent = node.attrs.get("parent")
        parent_ref = None
        if written_parent is not None:
            if not written_parent.strip():
                self._err_span(self._attr_span(node, "parent"), "empty parent reference", bean_id)
                written_parent = None
            else:
                parent_ref = ElementId.parse(written_parent, self.namespace)
                self._site(
                    sites, "parent-attr", written_parent, *node.attr_value_spans["parent"], bean_id, target=parent_ref
                )

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
                    self._err_span(self._node_span(child), "duplicate properties block", bean_id)
                    continue
                defs = self._parse_defs(child, bean_id, sites)
            else:
                if child.tag in assigned:
                    self._err_span(self._node_span(child), f"duplicate assignment '{child.tag}'", bean_id)
                    continue
                expr = self._value_expr(child, bean_id, class_ref, sites)
                if expr is not None:
                    assigned.add(child.tag)
                    assignments.append((child.tag, expr))

        decl = BeanDecl(
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
        )

        if written_id in BUILTIN_SCALARS:
            self.diags.append(
                dx.error(dx.DUPLICATE_ID, f"'{written_id}' is a reserved builtin type name", span, bean_id)
            )
            return
        prior = self._ids.get(written_id)
        if prior is not None:
            self.diags.append(
                dx.error(
                    dx.DUPLICATE_ID,
                    f"duplicate element id '{bean_id.render()}' (first declared at {prior.span.render()})",
                    span,
                    bean_id,
                )
            )
            return
        self._ids[written_id] = decl
        self.beans.append(decl)
        if self.sites is not None:
            self._site(sites, "bean-id", written_id, *node.attr_value_spans["id"], bean_id, target=bean_id)
            self.sites.extend(sites)

    def _flag(self, node: _XmlNode, name: str, bean_id: ElementId) -> bool:
        raw = node.attrs.get(name)
        if raw is None:
            return False
        if raw == "true":
            return True
        if raw == "false":
            return False
        self._err_span(self._attr_span(node, name), f"attribute '{name}' must be 'true' or 'false'", bean_id)
        return False

    def _leaf_text(self, node: _XmlNode, bean_id: ElementId) -> str | None:
        if node.children:
            self._err_span(self._node_span(node), f"'{node.tag}' must contain only text", bean_id)
            return None
        return node.text

    @staticmethod
    def _leaf_bounds(node: _XmlNode) -> tuple[int, int]:
        if node.content_start is None:
            return node.start, node.end
        return node.content_start, node.content_end

    def _parse_defs(self, block: _XmlNode, bean_id: ElementId, sites: list[RefSite]) -> list[RawPropertyDef]:
        defs: list[RawPropertyDef] = []
        names: set[str] = set()
        if block.text.strip():
            self._err_span(self._node_span(block), "stray text in properties block", bean_id)
        for a in block.attrs:
            self._err_span(self._attr_span(block, a), f"unknown attribute '{a}' on properties block", bean_id)
        for row in block.children:
            if row.tag != "property":
                self._err_span(self._node_span(row), f"unexpected element '{row.tag}' in properties block", bean_id)
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
                    self._err_span(self._node_span(part), f"unexpected element '{part.tag}' in property", bean_id)
            if name_node is None or type_node is None:
                self._err_span(self._node_span(row), "property must declare <name> and <type>", bean_id)
                continue
            raw_name = self._leaf_text(name_node, bean_id)
            raw_type = self._leaf_text(type_node, bean_id)
            if raw_name is None or raw_type is None:
                continue
            name = raw_name.strip()
            type_written = raw_type.strip()
            if not is_valid_local(name) or name == PROPERTIES_TAG:
                self._err_span(self._node_span(name_node), f"invalid property name '{name}'", bean_id)
                continue
            if not type_written:
                self._err_span(self._node_span(type_node), "empty property type", bean_id)
                continue
            if name in names:
                self._err_span(self._node_span(row), f"duplicate property definition '{name}'", bean_id)
                continue
            names.add(name)
            description = None
            if desc_node is not None:
                description = self._leaf_text(desc_node, bean_id)
            type_ref = ElementId.parse(type_written, self.namespace)
            defs.append(RawPropertyDef(name, type_written, type_ref, description, self._node_span(row)))
            self._site(sites, "name-text", raw_name, *self._leaf_bounds(name_node), bean_id, prop=name)
            self._site(
                sites, "type-text", type_written, *self._leaf_bounds(type_node), bean_id, target=type_ref, prop=name
            )
        return defs

    def _value_expr(
        self, node: _XmlNode, bean_id: ElementId, owner_class: ElementId, sites: list[RefSite]
    ) -> ValueExpr | None:
        span = self._node_span(node)
        prop = node.tag
        pending: list[RefSite] = []
        for offset in (node.name_offset, node.close_name_offset):
            if offset is not None:
                self._site(pending, "prop-tag", prop, offset, offset + len(prop), bean_id,
                           prop=prop, owner_class=owner_class)
        ref_written = node.attrs.get("ref")
        class_written = node.attrs.get("class")
        for a in node.attrs:
            if a not in ("ref", "class"):
                self._err_span(self._attr_span(node, a), f"unknown attribute '{a}' on value element", bean_id)
        if ref_written is not None and class_written is not None:
            self._err_span(span, f"value '{prop}' has both 'ref' and 'class'", bean_id)
            class_written = None

        if ref_written is not None:
            if not ref_written.strip():
                self._err_span(self._attr_span(node, "ref"), "empty bean reference", bean_id)
                return None
            if node.children or node.text.strip():
                self._err_span(span, f"reference value '{prop}' must be empty", bean_id)
            target = ElementId.parse(ref_written, self.namespace)
            self._site(
                pending, "ref-attr", ref_written, *node.attr_value_spans["ref"], bean_id, target=target, prop=prop
            )
            sites.extend(pending)
            return RefValue(target, ref_written, span)

        if class_written is not None:
            if not class_written.strip():
                self._err_span(self._attr_span(node, "class"), "empty class reference", bean_id)
                return None
            inline_class = ElementId.parse(class_written, self.namespace)
            self._site(
                pending, "class-attr", class_written, *node.attr_value_spans["class"], bean_id, target=inline_class
            )
            sites.extend(pending)
            if node.text.strip():
                self._err_span(span, f"stray text content in inline bean '{prop}'", bean_id)
            inner: list[tuple[str, ValueExpr]] = []
            seen: set[str] = set()
            for child in node.children:
                if child.tag == PROPERTIES_TAG:
                    self._err_span(self._node_span(child), "inline beans cannot declare properties", bean_id)
                    continue
                if child.tag in seen:
                    self._err_span(self._node_span(child), f"duplicate assignment '{child.tag}'", bean_id)
                    continue
                expr = self._value_expr(child, bean_id, inline_class, sites)
                if expr is not None:
                    seen.add(child.tag)
                    inner.append((child.tag, expr))
            return InlineBean(inline_class, class_written, tuple(inner), span)

        if node.children:
            self._err_span(span, f"inline bean '{prop}' missing 'class' attribute", bean_id)
            return None
        sites.extend(pending)
        return ScalarValue(node.text, span)

    def _finish(self) -> tuple[SourceUnit, list[Diagnostic]]:
        unit = SourceUnit(
            path=self.path,
            namespace=self.namespace,
            text=self.text,
            content_hash=unit_hash(self.text),
            beans=tuple(self.beans),
            root_tag=self.root_tag,
        )
        return unit, self.diags


def unit_hash(text: str) -> str:
    """A unit's content hash: hex sha256 of its text as UTF-8."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_unit(text: str, path: str) -> tuple[SourceUnit, list[Diagnostic]]:
    """Parse one unit's text. Never raises on bad input: maximal recovery."""
    return _UnitParser(text, path).parse()


@dataclass(slots=True)
class XmlElement:
    """Generic well-formed XML element tree with spans (no bean semantics)."""

    tag: str
    attrs: dict[str, str]
    children: list["XmlElement"]
    text: str
    span: SourceSpan
    attr_spans: dict[str, SourceSpan]


def read_document(text: str, path: str) -> tuple[XmlElement | None, list[Diagnostic]]:
    """Strict single-pass read of a whole document. The first structural
    problem yields a diagnostic and None (no recovery)."""
    sc = _Scanner(text, path)
    n = len(text)
    try:
        node, p = sc.read_element(_skip_prolog(text))
        while p < n:
            if text[p].isspace():
                p += 1
            elif text.startswith("<!--", p):
                e = text.find("-->", p + 4)
                if e == -1:
                    raise _Malformed(p, "unterminated comment")
                p = e + 3
            else:
                raise _Malformed(p, "content after document root")
    except _Malformed as m:
        return None, [dx.error(dx.PARSE, m.message, sc.point(m.offset))]

    def convert(raw: _XmlNode) -> XmlElement:
        return XmlElement(
            tag=raw.tag,
            attrs=raw.attrs,
            children=[convert(c) for c in raw.children],
            text=raw.text,
            span=sc.span(raw.start, raw.end),
            attr_spans={k: sc.span(s, e) for k, (s, e) in raw.attr_value_spans.items()},
        )

    return convert(node), []


def duplicate_id_diags(units) -> list[Diagnostic]:
    """Cross-unit E008s: a later unit's bean that reuses an earlier unit's id.
    Resolution reports them, so they follow every fold."""
    first: dict[ElementId, SourceSpan] = {}
    out: list[Diagnostic] = []
    for unit in units:
        for bean in unit.beans:
            prior = first.get(bean.id)
            if prior is None:
                first[bean.id] = bean.span
            elif prior.path != bean.span.path:
                out.append(
                    dx.error(
                        dx.DUPLICATE_ID,
                        f"duplicate element id '{bean.id.render()}' (first declared at {prior.render()})",
                        bean.span,
                        bean.id,
                    )
                )
    return out


def _hidden(rel: Path) -> bool:
    return any(part.startswith(".") for part in rel.parts)


def discover_unit_paths(root) -> list[str]:
    """Workspace discovery: every *.model.xml under root, sorted, dot-dirs skipped."""
    rootp = Path(root)
    if not rootp.is_dir():
        raise NotFoundError(f"workspace root is not a directory: {root}")
    rels = []
    for p in rootp.rglob("*" + MODEL_FILE_SUFFIX):
        if not p.is_file():
            continue
        rel = p.relative_to(rootp)
        if _hidden(rel):
            continue
        rels.append(rel.as_posix())
    return sorted(rels)


def read_unit_text(root, rel: str) -> tuple[str | None, Diagnostic | None]:
    """Read one unit as UTF-8 text. A file that cannot be read or decoded
    gives (None, E000 diagnostic), and the unit counts as absent."""
    try:
        return (Path(root) / rel).read_text(encoding="utf-8"), None
    except (OSError, UnicodeDecodeError) as exc:
        return None, dx.error(dx.PARSE, f"unreadable unit: {exc}", SourceSpan(rel, 1, 1, 1, 1))


def read_units(root, paths, known=None) -> tuple[list[SourceUnit], list[str], list[Diagnostic]]:
    """The workspace reader: read and parse the units at paths.

    A path whose text hashes to ``known[path].content_hash`` is skipped
    unparsed. A file that cannot be read or decoded gives an E000
    diagnostic and counts as absent. Returns the parsed units, the
    unreadable paths and the diagnostics.
    """
    known = known or {}
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
        if prior is not None and prior.content_hash == unit_hash(text):
            continue
        unit, udiags = parse_unit(text, rel)
        units.append(unit)
        diags.extend(udiags)
    return units, unreadable, diags


def parse_workspace(root) -> tuple[list[SourceUnit], list[Diagnostic]]:
    """Parse every unit under root (recursive, sorted paths, UTF-8).

    Unit paths are stored root-relative with POSIX separators. Unreadable
    files produce a diagnostic and are skipped. Cross-unit duplicate ids
    are left to resolution.
    """
    units, _unreadable, diags = read_units(root, discover_unit_paths(root))
    return units, diags


def span_of(unit: SourceUnit, element_id: ElementId) -> SourceSpan:
    for bean in unit.beans:
        if bean.id == element_id:
            return bean.span
    raise NotFoundError(f"no element '{element_id.render()}' in {unit.path}")
