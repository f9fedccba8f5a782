"""XML Schema generation from a compiled model, plus a validator for it.

One schema per namespace. Each schema accepts exactly the documents the
parser and compiler accept for units of that namespace: bean elements with
the generic content model (the union of all property names, each typed by
the strictest type every declaring class agrees on), the class attribute
restricted to known class names, and the properties definition block.
Per-class named types are also emitted as editor metadata; the generic
bean type does not reference them.

validate_with_schema interprets the generated schema text itself (the XSD
subset the generator emits), so a generation bug that drops or mistypes a
construct shows up as a validation failure rather than being masked.
"""

from __future__ import annotations

import hashlib
import io
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import lru_cache

from . import diagnostics as dx
from .compiler import CompiledModel, CompileState
from .diagnostics import Diagnostic
from .errors import ModelError
from .ids import BUILTIN_SCALARS, FLAG, SCALARS, XSD_LEXICAL, ElementId, Scalar
from .kernel import ElementKind, ResolvedModel
from .source import XmlElement, read_document


class SchemaError(ModelError):
    """The schema document itself is unusable."""


@dataclass(frozen=True)
class SchemaDoc:
    namespace: str
    text: str
    generated_from: str


_RULES = {**SCALARS, "flag": FLAG}
# Each rule's generated type: its XSD builtin, or a restriction named after it.
_TYPE_NAMES = {name: f"{name.lower()}Type" if rule.pattern else rule.xsd for name, rule in _RULES.items()}


def _model_fingerprint(units) -> str:
    h = hashlib.sha256()
    for path in sorted(units):
        h.update(path.encode("utf-8"))
        h.update(b"\x00")
        h.update(units[path].content_hash.encode("ascii"))
        h.update(b"\x00")
    return h.hexdigest()


def _type_name_for_class(eid: ElementId) -> str:
    return "t." + eid.render().replace(":", ".")


def _merged_property_kinds(model: ResolvedModel) -> dict[str, str]:
    """Property name -> scalar type ('xs:long', 'doubleType'...), 'bean', or 'any' when mixed."""
    merged: dict[str, str] = {}
    for eid in sorted(model.classes, key=ElementId.render):
        for p in model.classes[eid].own_properties:
            if p.type.is_builtin:
                kind = _TYPE_NAMES[p.type.builtin]
            elif p.type.is_class:
                kind = "bean"
            else:
                kind = "any"
            prior = merged.get(p.name)
            if prior is None:
                merged[p.name] = kind
            elif prior != kind:
                merged[p.name] = "any"
    return merged


def _writable_class_names(model: ResolvedModel, ns: str, metaclass_only: bool = False) -> list[str]:
    """Every written form that resolves to a class from a unit in namespace ns."""
    out = set()
    for eid, cd in model.classes.items():
        if metaclass_only and cd.kind is not ElementKind.METACLASS:
            continue
        if eid.namespace:
            out.add(eid.render())
        if eid.namespace == ns or eid.namespace == "":
            out.add(eid.local)
    return sorted(out)


def _writable_type_names(model: ResolvedModel, ns: str) -> list[str]:
    names = set(_writable_class_names(model, ns))
    names.update(BUILTIN_SCALARS)
    return sorted(names)


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _property_element_lines(merged: dict[str, str], indent: str) -> list[str]:
    lines = []
    for name in sorted(merged):
        kind = merged[name]
        if kind == "bean":
            t = "beanValueType"
        elif kind == "any":
            t = "xs:anyType"
        else:
            t = kind
        lines.append(f'{indent}<xs:element name="{_esc(name)}" type="{t}" minOccurs="0"/>')
    return lines


def _generate_for_namespace(model: ResolvedModel, ns: str, root_tags, fingerprint: str) -> SchemaDoc:
    merged = _merged_property_kinds(model)
    class_names = _writable_class_names(model, ns)
    type_names = _writable_type_names(model, ns)

    w: list[str] = []
    w.append('<?xml version="1.0" encoding="UTF-8"?>')
    attrs = 'xmlns:xs="http://www.w3.org/2001/XMLSchema"'
    if ns:
        attrs += f' targetNamespace="{_esc(ns)}" xmlns="{_esc(ns)}" elementFormDefault="qualified"'
    w.append(f"<xs:schema {attrs}>")
    w.append("  <xs:annotation>")
    w.append(f"    <xs:documentation>Generated from model build {fingerprint}. Do not edit.</xs:documentation>")
    w.append("  </xs:annotation>")
    for tag in sorted(set(root_tags) | {"model"}):
        w.append(f'  <xs:element name="{_esc(tag)}" type="modelType"/>')
    w.append('  <xs:complexType name="modelType">')
    w.append("    <xs:sequence>")
    w.append('      <xs:element name="bean" type="beanType" minOccurs="0" maxOccurs="unbounded"/>')
    w.append("    </xs:sequence>")
    w.append("  </xs:complexType>")

    prop_lines = _property_element_lines(merged, "      ")

    w.append('  <xs:complexType name="beanType">')
    w.append("    <xs:all>")
    w.append('      <xs:element name="properties" type="propertiesType" minOccurs="0"/>')
    w.extend(prop_lines)
    w.append("    </xs:all>")
    w.append('    <xs:attribute name="id" type="xs:string" use="required"/>')
    w.append('    <xs:attribute name="class" type="classNameType" use="required"/>')
    w.append('    <xs:attribute name="parent" type="xs:string"/>')
    w.append('    <xs:attribute name="abstract" type="flagType"/>')
    w.append('    <xs:attribute name="declarative" type="flagType"/>')
    w.append("  </xs:complexType>")

    w.append('  <xs:complexType name="beanValueType">')
    w.append("    <xs:all>")
    w.extend(prop_lines)
    w.append("    </xs:all>")
    w.append('    <xs:attribute name="class" type="classNameType"/>')
    w.append('    <xs:attribute name="ref" type="xs:string"/>')
    w.append("  </xs:complexType>")

    w.append('  <xs:complexType name="propertiesType">')
    w.append("    <xs:sequence>")
    w.append('      <xs:element name="property" type="propertyDefType" minOccurs="0" maxOccurs="unbounded"/>')
    w.append("    </xs:sequence>")
    w.append("  </xs:complexType>")
    w.append('  <xs:complexType name="propertyDefType">')
    w.append("    <xs:all>")
    w.append('      <xs:element name="name" type="xs:string"/>')
    w.append('      <xs:element name="type" type="typeNameType"/>')
    w.append('      <xs:element name="description" type="xs:string" minOccurs="0"/>')
    w.append("    </xs:all>")
    w.append("  </xs:complexType>")

    w.append('  <xs:simpleType name="classNameType">')
    w.append('    <xs:restriction base="xs:string">')
    for name in class_names:
        w.append(f'      <xs:enumeration value="{_esc(name)}"/>')
    w.append("    </xs:restriction>")
    w.append("  </xs:simpleType>")
    w.append('  <xs:simpleType name="typeNameType">')
    w.append('    <xs:restriction base="xs:token">')
    for name in type_names:
        w.append(f'      <xs:enumeration value="{_esc(name)}"/>')
    w.append("    </xs:restriction>")
    w.append("  </xs:simpleType>")
    for name, rule in _RULES.items():
        if rule.pattern is not None:
            w.append(f'  <xs:simpleType name="{_TYPE_NAMES[name]}">')
            w.append(f'    <xs:restriction base="{rule.xsd}">')
            w.append(f'      <xs:pattern value="{_esc(rule.pattern.pattern)}"/>')
            w.append("    </xs:restriction>")
            w.append("  </xs:simpleType>")

    # per-class named types: editor metadata, not referenced by beanType
    for eid in sorted(model.classes, key=ElementId.render):
        cd = model.classes[eid]
        tname = _type_name_for_class(eid)
        broken = model.in_parent_cycle(eid) or any(p.type.is_unresolved for p in cd.own_properties)
        w.append(f'  <xs:complexType name="{_esc(tname)}">')
        w.append("    <xs:annotation>")
        w.append(f"      <xs:documentation>Beans of class {_esc(eid.render())}.</xs:documentation>")
        w.append("    </xs:annotation>")
        if broken:
            w.append("    <xs:sequence>")
            w.append('      <xs:any minOccurs="0" maxOccurs="unbounded" processContents="skip"/>')
            w.append("    </xs:sequence>")
            w.append('    <xs:anyAttribute processContents="skip"/>')
        else:
            w.append("    <xs:all>")
            w.append('      <xs:element name="properties" type="propertiesType" minOccurs="0"/>')
            for p in model.effective_properties(eid):
                if p.type.is_builtin:
                    t = _TYPE_NAMES[p.type.builtin]
                else:
                    t = "beanValueType"
                w.append(f'      <xs:element name="{_esc(p.name)}" type="{t}" minOccurs="0"/>')
            w.append("    </xs:all>")
            w.append('    <xs:attribute name="id" type="xs:string"/>')
            w.append('    <xs:attribute name="class" type="classNameType"/>')
            w.append('    <xs:attribute name="parent" type="xs:string"/>')
            w.append('    <xs:attribute name="abstract" type="flagType"/>')
            w.append('    <xs:attribute name="declarative" type="flagType"/>')
        w.append("  </xs:complexType>")

    w.append("</xs:schema>")
    w.append("")
    return SchemaDoc(namespace=ns, text="\n".join(w), generated_from=fingerprint)


def _state_parts(compiled) -> tuple[ResolvedModel, dict]:
    if isinstance(compiled, CompileState):
        return compiled.resolved, compiled.units
    if isinstance(compiled, CompiledModel):
        resolved = compiled.resolved
        units = {p: u for p, u in resolved.units.items() if not p.startswith("<")}
        return resolved, units
    raise TypeError("expected CompiledModel or CompileState")


def generate_schemas(compiled) -> dict[str, SchemaDoc]:
    """One SchemaDoc per namespace appearing in the workspace (root included)."""
    model, units = _state_parts(compiled)
    fingerprint = _model_fingerprint(units)
    namespaces: dict[str, set] = {"": set()}
    for u in units.values():
        namespaces.setdefault(u.namespace, set())
        if u.root_tag:
            namespaces[u.namespace].add(u.root_tag)
    return {
        ns: _generate_for_namespace(model, ns, tags, fingerprint)
        for ns, tags in sorted(namespaces.items())
    }


def generate_schema(compiled) -> SchemaDoc:
    """The root-namespace schema (the kernel's namespace)."""
    return generate_schemas(compiled)[""]


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
# Schema interpretation (the subset the generator emits)

_XS = "{http://www.w3.org/2001/XMLSchema}"


@dataclass
class _Particle:
    name: str
    type: str
    min: int
    max: int | None  # None = unbounded


@dataclass
class _ComplexType:
    # mode: "all" (unordered unique), "sequence" (ordered particles), "open" (xs:any)
    mode: str
    all_elems: dict[str, tuple[str, bool]]  # name -> (type, required)
    sequence: list[_Particle]
    attrs: dict[str, tuple[str, bool]]  # name -> (type, required)
    any_attrs: bool
    required_elems: tuple[str, ...] = ()  # the required names of all_elems, in order


class _Schema:
    def __init__(self, target_ns: str):
        self.target_ns = target_ns
        self.elements: dict[str, str] = {}
        self.complex: dict[str, _ComplexType] = {}
        self.simple: dict[str, tuple[Scalar, frozenset | None]] = {}


@lru_cache(maxsize=1)
def _parse_schema(text: str) -> _Schema:
    """Interpret a schema text. Validating a run of units against one schema
    parses it once; the parse is read-only from then on.

    The text is read incrementally and each top-level construct is dropped
    from the tree once interpreted, so a generated schema of several MB
    never sits in memory as a whole element tree.
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


def _keep_reachable(sch: _Schema) -> None:
    """Drop the types no root element reaches, such as the per-class editor
    types: validation never looks them up. They were parsed all the same,
    so an unsupported construct in one still raised SchemaError."""
    reached: set[str] = set()
    todo = list(sch.elements.values())
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        ct = sch.complex.get(name)
        if ct is not None:
            todo.extend(t for t, _required in ct.all_elems.values())
            todo.extend(p.type for p in ct.sequence)
            todo.extend(t for t, _required in ct.attrs.values())
    sch.complex = {k: v for k, v in sch.complex.items() if k in reached}
    sch.simple = {k: v for k, v in sch.simple.items() if k in reached}


def _parse_complex(node) -> _ComplexType:
    ct = _ComplexType(mode="empty", all_elems={}, sequence=[], attrs={}, any_attrs=False)
    for child in node:
        if child.tag == _XS + "all":
            ct.mode = "all"
            for el in child:
                if el.tag != _XS + "element":
                    raise SchemaError("xs:all may contain only xs:element")
                required = el.get("minOccurs", "1") != "0"
                ct.all_elems[el.get("name")] = (el.get("type"), required)
        elif child.tag == _XS + "sequence":
            ct.mode = "sequence"
            for el in child:
                if el.tag == _XS + "any":
                    ct.mode = "open"
                    continue
                if el.tag != _XS + "element":
                    raise SchemaError("unsupported sequence particle")
                mx = el.get("maxOccurs", "1")
                ct.sequence.append(
                    _Particle(
                        name=el.get("name"),
                        type=el.get("type"),
                        min=int(el.get("minOccurs", "1")),
                        max=None if mx == "unbounded" else int(mx),
                    )
                )
        elif child.tag == _XS + "attribute":
            ct.attrs[child.get("name")] = (child.get("type"), child.get("use") == "required")
        elif child.tag == _XS + "anyAttribute":
            ct.any_attrs = True
        elif child.tag == _XS + "annotation":
            continue
        else:
            raise SchemaError(f"unsupported complexType construct {child.tag}")
    ct.required_elems = tuple(name for name, (_t, required) in ct.all_elems.items() if required)
    return ct


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
        if not rule.conforms(text):
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
        if ct.mode == "open":
            return
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
        elif ct.mode == "sequence":
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
        else:  # empty content
            for child in node.children:
                self.fail(child.span, f"element '{child.tag}' not allowed in '{node.tag}'")

    def check_attrs(self, node: XmlElement, ct: _ComplexType):
        for name, value in node.attrs.items():
            if _is_namespace_declaration(name):
                continue
            spec = ct.attrs.get(name)
            if spec is None:
                if not ct.any_attrs:
                    self.fail(node.attr_span(name), f"attribute '{name}' not allowed on '{node.tag}'")
                continue
            problem = self.simple_problem(spec[0], value)
            if problem:
                self.fail(node.attr_span(name), f"{problem} for attribute '{name}'")
        for name, (_t, required) in ct.attrs.items():
            if required and name not in node.attrs:
                self.fail(node.span, f"required attribute '{name}' missing on '{node.tag}'")


def validate_with_schema(schema: SchemaDoc | str, unit_text: str, path: str = "<unit>") -> list[Diagnostic]:
    """Validate a unit document against a generated schema.

    Returns diagnostics (code E015); empty means the document conforms.
    The schema itself failing to parse raises SchemaError.
    """
    text = schema.text if isinstance(schema, SchemaDoc) else schema
    sch = _parse_schema(text)
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
