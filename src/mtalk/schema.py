"""XML Schema generation from a compiled model, plus a validator for it.

One schema per namespace. Each schema accepts exactly the documents the
parser and compiler accept for units of that namespace: bean elements with
the generic content model (the union of all property names, each typed by
the strictest type every declaring class agrees on), the class attribute
restricted to known class names, and the properties definition block.

A schema has one description, the `_Schema` IR: its root elements, and the
complex and simple types they reach. The generator builds it from the model,
and `SchemaDoc.text` is its rendering. Validating against a `SchemaDoc`
reads its IR. The text parser, `_parse_schema`, is for schemas from outside:
it reads the XSD subset the generator emits and raises SchemaError on
anything else. A test parses every generated text back and compares it with
its IR, so a rendering bug that drops or mistypes a construct fails there.
"""

from __future__ import annotations

import hashlib
import io
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import diagnostics as dx
from .compiler import CompileState
from .diagnostics import Diagnostic
from .errors import ModelError
from .ids import BUILTIN_SCALARS, FLAG, SCALARS, XSD_LEXICAL, Scalar
from .kernel import ResolvedModel
from .source import XmlElement, read_document


class SchemaError(ModelError):
    """The schema document itself is unusable."""


@dataclass
class _Particle:
    name: str
    type: str
    min: int
    max: int | None  # None = unbounded


@dataclass
class _ComplexType:
    mode: str  # "all" (unordered unique) or "sequence" (ordered particles)
    all_elems: dict[str, tuple[str, bool]] = field(default_factory=dict)  # name -> (type, required)
    sequence: tuple[_Particle, ...] = ()
    attrs: dict[str, tuple[str, bool]] = field(default_factory=dict)  # name -> (type, required)

    @cached_property
    def required_elems(self) -> tuple[str, ...]:  # the required names of all_elems, in order
        return tuple(name for name, (_t, required) in self.all_elems.items() if required)


@dataclass
class _Schema:
    target_ns: str
    elements: dict[str, str] = field(default_factory=dict)  # root tag -> type
    complex: dict[str, _ComplexType] = field(default_factory=dict)
    simple: dict[str, tuple[Scalar, frozenset | None]] = field(default_factory=dict)  # name -> (rule, enumeration)


def _keep_reachable(sch: _Schema) -> None:
    """Drop the types no root element reaches, such as the unused pattern
    types: validation never looks them up."""
    reached: set[str] = set()
    todo = list(sch.elements.values())
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        ct = sch.complex.get(name)
        if ct is not None:
            todo += {t for t, _required in ct.all_elems.values()}
            todo += {p.type for p in ct.sequence}
            todo += {t for t, _required in ct.attrs.values()}
    sch.complex = {k: v for k, v in sch.complex.items() if k in reached}
    sch.simple = {k: v for k, v in sch.simple.items() if k in reached}


@dataclass(frozen=True)
class SchemaDoc:
    namespace: str
    text: str  # renders ir before its unreached types were dropped
    generated_from: str
    # what validation reads; equal texts have equal IRs, so the text decides equality
    ir: _Schema = field(repr=False, compare=False)


_RULES = {**SCALARS, "flag": FLAG}
# Each rule's generated type: its XSD builtin, or a restriction named after it.
_TYPE_NAMES = {name: f"{name.lower()}Type" if rule.pattern else rule.xsd for name, rule in _RULES.items()}
_PATTERN_TYPES = {_TYPE_NAMES[n]: (Scalar(r.xsd, r.pattern, None), None) for n, r in _RULES.items() if r.pattern}
# The bean attributes: their type, and whether a bean in a unit must carry them.
_BEAN_ATTRS = {"id": ("xs:string", True), "class": ("classNameType", True), "parent": ("xs:string", False),
               "abstract": ("flagType", False), "declarative": ("flagType", False)}
# The slot, (type, required), of an optional property element by the property's
# builtin, None for a class: a class-typed property takes a bean. Shared, so a
# schema's thousands of slots allocate nothing.
_SLOTS = {None: ("beanValueType", False), **{b: (_TYPE_NAMES[b], False) for b in BUILTIN_SCALARS}}
_ANY_SLOT = ("xs:anyType", False)


def _model_fingerprint(units) -> str:
    """sha256 over each unit's path and the hex sha256 of its text."""
    h = hashlib.sha256()
    for path in sorted(units):
        h.update(path.encode("utf-8"))
        h.update(b"\x00")
        h.update(hashlib.sha256(units[path].text.encode("utf-8")).hexdigest().encode("ascii"))
        h.update(b"\x00")
    return h.hexdigest()


def _merged_property_slots(model: ResolvedModel) -> dict[str, tuple[str, bool]]:
    """Property name -> its slot in a bean: typed as every declaring class types
    it, or 'xs:anyType' when unresolved or typed differently by two classes."""
    merged: dict[str, tuple[str, bool]] = {}
    for cd in model.classes.values():
        for p in cd.own_properties:
            slot = _ANY_SLOT if p.type.is_unresolved else _SLOTS[p.type.builtin]
            if merged.setdefault(p.name, slot) != slot:
                merged[p.name] = _ANY_SLOT
    return merged


def _writable_class_names(model: ResolvedModel, ns: str) -> set[str]:
    """Every written form that resolves to a class from a unit in namespace ns."""
    out = set()
    for eid in model.classes:
        if eid.namespace:
            out.add(eid.render())
        if eid.namespace == ns or eid.namespace == "":
            out.add(eid.local)
    return out


def _schema_ir(model: ResolvedModel, ns: str, root_tags) -> _Schema:
    """Every type of the schema for namespace ns."""
    merged = _merged_property_slots(model)
    props = {name: merged[name] for name in sorted(merged)}
    class_names = _writable_class_names(model, ns)
    any_beans = (_Particle("bean", "beanType", 0, None),)
    return _Schema(
        target_ns=ns,
        elements={tag: "modelType" for tag in sorted(set(root_tags) | {"model"})},
        complex={
            "modelType": _ComplexType("sequence", sequence=any_beans),
            "beanType": _ComplexType("all", {"properties": ("propertiesType", False), **props}, attrs=_BEAN_ATTRS),
            "beanValueType": _ComplexType("all", props, attrs={"class": ("classNameType", False), "ref": ("xs:string", False)}),
            "propertiesType": _ComplexType("sequence", sequence=(_Particle("property", "propertyDefType", 0, None),)),
            "propertyDefType": _ComplexType("all", {"name": ("xs:string", True), "type": ("typeNameType", True),
                                                    "description": ("xs:string", False)}),
        },
        simple={
            "classNameType": (Scalar("xs:string", None, None), frozenset(class_names)),
            "typeNameType": (Scalar("xs:token", None, None), frozenset(class_names.union(BUILTIN_SCALARS))),
            **_PATTERN_TYPES,
        },
    )


def _esc(text: str) -> str:
    if "&" not in text and "<" not in text and ">" not in text and '"' not in text:
        return text  # most names: skip the four copies
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


_OPTIONAL = ' minOccurs="0"'
_REQUIRED = ' use="required"'


# The renderers escape the names and text that come from the model. Type and
# attribute names are the generator's own XML names and are written as they are.


def _render_complex(w: list[str], name: str, ct: _ComplexType) -> None:
    w.append(f'  <xs:complexType name="{_esc(name)}">')
    if ct.mode == "all":
        w.append("    <xs:all>")
        w += [
            f'      <xs:element name="{_esc(el)}" type="{t}"{"" if required else _OPTIONAL}/>'
            for el, (t, required) in ct.all_elems.items()
        ]
        w.append("    </xs:all>")
    else:
        w.append("    <xs:sequence>")
        for p in ct.sequence:
            occurs = "" if p.min == 1 else f' minOccurs="{p.min}"'
            if p.max != 1:
                occurs += f' maxOccurs="{"unbounded" if p.max is None else p.max}"'
            w.append(f'      <xs:element name="{_esc(p.name)}" type="{p.type}"{occurs}/>')
        w.append("    </xs:sequence>")
    w += [f'    <xs:attribute name="{a}" type="{t}"{_REQUIRED if required else ""}/>' for a, (t, required) in ct.attrs.items()]
    w.append("  </xs:complexType>")


def _render(sch: _Schema, fingerprint: str) -> str:
    w = ['<?xml version="1.0" encoding="UTF-8"?>']
    attrs = 'xmlns:xs="http://www.w3.org/2001/XMLSchema"'
    if sch.target_ns:
        ns = _esc(sch.target_ns)
        attrs += f' targetNamespace="{ns}" xmlns="{ns}" elementFormDefault="qualified"'
    w += [f"<xs:schema {attrs}>", "  <xs:annotation>",
          f"    <xs:documentation>Generated from model build {fingerprint}. Do not edit.</xs:documentation>",
          "  </xs:annotation>"]
    w += [f'  <xs:element name="{_esc(tag)}" type="{t}"/>' for tag, t in sch.elements.items()]
    for name, ct in sch.complex.items():
        _render_complex(w, name, ct)
    for name, (rule, enum) in sch.simple.items():
        w += [f'  <xs:simpleType name="{_esc(name)}">', f'    <xs:restriction base="{rule.xsd}">']
        if rule.pattern is not None:
            w.append(f'      <xs:pattern value="{_esc(rule.pattern.pattern)}"/>')
        if enum:  # one string for all the values: an enumeration has thousands
            w.append('      <xs:enumeration value="' + '"/>\n      <xs:enumeration value="'.join(map(_esc, sorted(enum))) + '"/>')
        w += ["    </xs:restriction>", "  </xs:simpleType>"]
    w += ["</xs:schema>", ""]
    return "\n".join(w)


def generate_schemas(state: CompileState) -> dict[str, SchemaDoc]:
    """One SchemaDoc per namespace appearing in the workspace (root included)."""
    if not isinstance(state, CompileState):
        raise TypeError("expected CompileState")
    model, units = state.resolved, state.units
    fingerprint = _model_fingerprint(units)
    namespaces: dict[str, set] = {"": set()}
    for u in units.values():
        namespaces.setdefault(u.namespace, set())
        if u.root_tag:
            namespaces[u.namespace].add(u.root_tag)
    docs = {}
    for ns, tags in sorted(namespaces.items()):
        sch = _schema_ir(model, ns, tags)
        text = _render(sch, fingerprint)
        _keep_reachable(sch)
        docs[ns] = SchemaDoc(namespace=ns, text=text, generated_from=fingerprint, ir=sch)
    return docs


def schema_files(docs: dict[str, SchemaDoc], target: str) -> dict[str, str]:
    """File name -> text of the schema files for the namespaces of docs, plus
    at target an aggregate that includes the root namespace's file and
    imports the others.

    A namespace's file name is target's stem, a dot, 'root' for the root
    namespace or else the namespace with each character other than a letter
    or digit replaced by '_', and target's extension. A name that a namespace
    earlier in sorted order took gets '-2', '-3', ... after the namespace part.
    """
    stem, ext = os.path.splitext(target)
    files: dict[str, str] = {}
    agg = ['<?xml version="1.0" encoding="UTF-8"?>', '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">']
    for ns in sorted(docs):
        part = "".join(c if c.isalnum() else "_" for c in ns) if ns else "root"
        name, n = f"{stem}.{part}{ext}", 1
        while name in files:
            n += 1
            name = f"{stem}.{part}-{n}{ext}"
        files[name] = docs[ns].text
        if ns:
            agg.append(f'  <xs:import namespace="{_esc(ns)}" schemaLocation="{_esc(name)}"/>')
        else:
            agg.append(f'  <xs:include schemaLocation="{_esc(name)}"/>')
    agg.append("</xs:schema>")
    files[target] = "\n".join(agg) + "\n"
    return files


# ---------------------------------------------------------------------------
# Schema interpretation (the subset the generator emits), for schemas from outside

_XS = "{http://www.w3.org/2001/XMLSchema}"


@lru_cache(maxsize=1)
def _parse_schema(text: str) -> _Schema:
    """Interpret a schema text into the IR. Validating a run of units against
    one schema text parses it once; the parse is read-only from then on.

    The text is read incrementally and each top-level construct is dropped
    from the tree once interpreted, so a schema of several MB never sits in
    memory as a whole element tree. Every type is interpreted, so an
    unsupported construct raises SchemaError even in a type no root element
    reaches; only the reachable ones are kept.
    """
    sch = root = None
    depth = 0
    try:
        for event, node in ET.iterparse(io.StringIO(text), events=("start", "end")):
            if event == "start":
                depth += 1
                if depth == 1:
                    if node.tag != _XS + "schema":
                        raise SchemaError("not an XML Schema document")
                    root = node
                    sch = _Schema(node.get("targetNamespace", ""))
                continue
            depth -= 1
            if depth == 1:
                _add_top_level(sch, node)
                root.remove(node)
    except ET.ParseError as exc:
        raise SchemaError(f"schema is not well-formed: {exc}") from None
    _keep_reachable(sch)
    return sch


def _add_top_level(sch: _Schema, child) -> None:
    if child.tag == _XS + "element":
        sch.elements[child.get("name")] = child.get("type")
    elif child.tag == _XS + "complexType":
        sch.complex[child.get("name")] = _parse_complex(child)
    elif child.tag == _XS + "simpleType":
        sch.simple[child.get("name")] = _parse_simple(child)
    elif child.tag != _XS + "annotation":
        raise SchemaError(f"unsupported schema construct {child.tag}")


def _parse_complex(node) -> _ComplexType:
    mode, all_elems, sequence, attrs = None, {}, [], {}
    for child in node:
        if child.tag == _XS + "all":
            mode = "all"
            for el in child:
                if el.tag != _XS + "element":
                    raise SchemaError("xs:all may contain only xs:element")
                required = el.get("minOccurs", "1") != "0"
                all_elems[el.get("name")] = (el.get("type"), required)
        elif child.tag == _XS + "sequence":
            mode = "sequence"
            for el in child:
                if el.tag != _XS + "element":
                    raise SchemaError("unsupported sequence particle")
                mx = el.get("maxOccurs", "1")
                sequence.append(
                    _Particle(
                        name=el.get("name"),
                        type=el.get("type"),
                        min=int(el.get("minOccurs", "1")),
                        max=None if mx == "unbounded" else int(mx),
                    )
                )
        elif child.tag == _XS + "attribute":
            attrs[child.get("name")] = (child.get("type"), child.get("use") == "required")
        elif child.tag != _XS + "annotation":
            raise SchemaError(f"unsupported complexType construct {child.tag}")
    if mode is None:
        raise SchemaError(f"complexType '{node.get('name')}' has no xs:all or xs:sequence")
    return _ComplexType(mode, all_elems, tuple(sequence), attrs)


def _parse_simple(node) -> tuple[Scalar, frozenset | None]:
    for child in node:
        if child.tag == _XS + "restriction":
            enum, pattern = [], None
            for facet in child:
                if facet.tag == _XS + "enumeration":
                    enum.append(facet.get("value"))
                elif facet.tag == _XS + "pattern" and pattern is None and facet.get("value") in _PATTERNS:
                    pattern = _PATTERNS[facet.get("value")]
                elif facet.tag != _XS + "annotation":
                    raise SchemaError(f"unsupported facet {facet.tag} {facet.get('value')!r}")
            return Scalar(child.get("base"), pattern, None), frozenset(enum) if enum else None
        if child.tag == _XS + "annotation":
            continue
    raise SchemaError("unsupported simpleType construct")


# The patterns read: those of the generated types, which Python's re reads
# exactly as XSD does. Another pattern raises SchemaError.
_PATTERNS = {rule.pattern.pattern: rule.pattern for rule in _RULES.values() if rule.pattern is not None}


def _is_namespace_declaration(attr: str) -> bool:
    return attr == "xmlns" or attr.startswith("xmlns:")


class _Validator:
    def __init__(self, schema: _Schema):
        self.schema = schema
        self.diags: list[Diagnostic] = []

    def fail(self, span, message: str):
        self.diags.append(dx.error(dx.SCHEMA_VIOLATION, message, span))

    def simple_problem(self, type_name: str, text: str) -> str | None:
        """What makes text not a value of type_name, or None when it is one."""
        rule, enum = self.schema.simple.get(type_name) or (Scalar(type_name, None, None), None)
        if rule.xsd not in XSD_LEXICAL:
            raise SchemaError(f"unsupported simple type '{type_name}'")
        value = rule.lexeme(text)
        if enum is not None and value not in enum:
            return f"value '{value}' is not allowed"
        if not XSD_LEXICAL[rule.xsd](value):
            return f"value '{value}' is not a valid {rule.xsd}"
        if rule.pattern is not None and not rule.pattern.fullmatch(value):
            return f"value '{value}' is not allowed"
        return None

    def is_simple(self, type_name: str) -> bool:
        return type_name.startswith("xs:") and type_name != "xs:anyType" or type_name in self.schema.simple

    def validate_element(self, node: XmlElement, type_name: str):
        if type_name == "xs:anyType":
            return
        if self.is_simple(type_name):
            if node.children:
                self.fail(node.span, f"element '{node.tag}' must not have child elements")
                return
            bad_attrs = [a for a in node.attrs if not _is_namespace_declaration(a)]
            if bad_attrs:
                self.fail(node.span, f"attribute '{bad_attrs[0]}' not allowed on '{node.tag}'")
            problem = self.simple_problem(type_name, node.text)
            if problem:
                self.fail(node.span, f"{problem} for element '{node.tag}'")
            return
        ct = self.schema.complex.get(type_name)
        if ct is None:
            raise SchemaError(f"unknown type '{type_name}'")
        self.check_attrs(node, ct)
        if node.text.strip():
            self.fail(node.span, f"element '{node.tag}' must not contain text")
        if ct.mode == "all":
            seen = set()
            for child in node.children:
                spec = ct.all_elems.get(child.tag)
                if spec is None:
                    self.fail(child.span, f"element '{child.tag}' not allowed in '{node.tag}'")
                    continue
                if child.tag in seen:
                    self.fail(child.span, f"element '{child.tag}' appears more than once in '{node.tag}'")
                    continue
                seen.add(child.tag)
                self.validate_element(child, spec[0])
            for name in ct.required_elems:
                if name not in seen:
                    self.fail(node.span, f"required element '{name}' missing in '{node.tag}'")
        else:
            i = 0
            children = node.children
            for part in ct.sequence:
                count = 0
                while i < len(children) and children[i].tag == part.name:
                    self.validate_element(children[i], part.type)
                    count += 1
                    i += 1
                    if part.max is not None and count == part.max:
                        break
                if count < part.min:
                    self.fail(node.span, f"expected element '{part.name}' in '{node.tag}'")
            for extra in children[i:]:
                self.fail(extra.span, f"element '{extra.tag}' not allowed in '{node.tag}'")

    def check_attrs(self, node: XmlElement, ct: _ComplexType):
        for name, value in node.attrs.items():
            if _is_namespace_declaration(name):
                continue
            spec = ct.attrs.get(name)
            if spec is None:
                self.fail(node.attr_span(name), f"attribute '{name}' not allowed on '{node.tag}'")
                continue
            problem = self.simple_problem(spec[0], value)
            if problem:
                self.fail(node.attr_span(name), f"{problem} for attribute '{name}'")
        for name, (_t, required) in ct.attrs.items():
            if required and name not in node.attrs:
                self.fail(node.span, f"required attribute '{name}' missing on '{node.tag}'")


def validate_with_schema(schema: SchemaDoc | str, unit_text: str, path: str = "<unit>") -> list[Diagnostic]:
    """Validate a unit document against a generated schema, read from its IR,
    or against a schema text.

    Returns diagnostics (code E015); empty means the document conforms.
    A schema text that fails to parse raises SchemaError.
    """
    sch = schema.ir if isinstance(schema, SchemaDoc) else _parse_schema(schema)
    root, parse_diags = read_document(unit_text, path)
    if root is None:
        return [
            dx.error(dx.SCHEMA_VIOLATION, f"document is not well-formed: {d.message}", d.span)
            for d in parse_diags
        ]
    v = _Validator(sch)
    declared = sch.elements.get(root.tag)
    if declared is None:
        v.fail(root.span, f"unknown root element '{root.tag}'")
        return v.diags
    doc_ns = root.attrs.get("xmlns", "")
    if doc_ns != sch.target_ns:
        v.fail(
            root.span,
            f"document namespace '{doc_ns}' does not match schema namespace '{sch.target_ns}'",
        )
        return v.diags
    v.validate_element(root, declared)
    return v.diags
