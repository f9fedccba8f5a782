"""Self-describing type system: kernel beans, classification, lineage, conformance.

Instances, classes and metaclasses live in one type system. The kernel is a
model unit like any other: ``Object`` is the root class and ``Class`` is the
root metaclass, an instance of itself. A bean is a metaclass when it is
``Class`` or reaches ``Class`` through explicit parent edges; a bean whose
class resolves to a metaclass is a model class; everything else is an
ordinary instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from . import diagnostics as dx
from .diagnostics import Diagnostic
from .errors import NotFoundError, WrongKindError
from .ids import BUILTIN_SCALARS, ElementId, SourceSpan
from .source import BeanDecl, SourceUnit, ValueExpr, duplicate_id_diags, parse_unit

KERNEL_PATH = "<kernel>"
OBJECT_ID = ElementId("", "Object")
CLASS_ID = ElementId("", "Class")

KERNEL_SOURCE = """\
<model>
  <bean id="Object" class="Class" declarative="true"/>
  <bean id="Class" class="Class" parent="Object" declarative="true"/>
</model>
"""


@lru_cache(maxsize=1)
def kernel_unit() -> SourceUnit:
    unit, diags = parse_unit(KERNEL_SOURCE, KERNEL_PATH)
    if diags:
        raise RuntimeError("embedded kernel failed to parse: " + "; ".join(d.render() for d in diags))
    return unit


class ElementKind(enum.Enum):
    METACLASS = "Metaclass"
    MODEL_CLASS = "ModelClass"
    INSTANCE = "Instance"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class TypeRef:
    """A property's declared type: builtin scalar, class, or unresolved."""

    builtin: str | None
    class_id: ElementId | None
    written: str

    @property
    def is_builtin(self) -> bool:
        return self.builtin is not None

    @property
    def is_class(self) -> bool:
        return self.class_id is not None

    @property
    def is_unresolved(self) -> bool:
        return self.builtin is None and self.class_id is None

    def render(self) -> str:
        if self.builtin is not None:
            return self.builtin
        if self.class_id is not None:
            return self.class_id.render()
        return self.written

    def same_as(self, other: "TypeRef") -> bool:
        return self.builtin == other.builtin and self.class_id == other.class_id


@dataclass(frozen=True, slots=True)
class PropertyDefinition:
    name: str
    type: TypeRef
    description: str | None
    declared_by: ElementId
    span: SourceSpan


@dataclass(frozen=True, slots=True)
class ClassDef:
    id: ElementId
    kind: ElementKind
    metaclass: ElementId | None  # resolved classRef target, None when unresolved
    parent: ElementId | None     # resolved superclass (implicit Object applies)
    explicit_parent: bool
    own_properties: tuple[PropertyDefinition, ...]
    class_assignments: tuple[tuple[str, ValueExpr], ...]
    is_declarative: bool
    is_abstract: bool


@dataclass(frozen=True, slots=True)
class ResolvedElement:
    decl: BeanDecl
    kind: ElementKind
    unit_path: str


class ResolvedModel:
    """Name-resolved view of a workspace: element table, classes, memoized queries."""

    def __init__(
        self,
        units: dict[str, SourceUnit],
        elements: dict[ElementId, ResolvedElement],
        classes: dict[ElementId, ClassDef],
    ):
        self.units = units
        self.elements = elements
        self.classes = classes
        self.kernel_ids = frozenset((OBJECT_ID, CLASS_ID))
        self._lineage: dict[ElementId, tuple[ElementId, ...]] = {}
        self._ancestors: dict[ElementId, frozenset[ElementId]] = {}
        self._effective: dict[ElementId, tuple[PropertyDefinition, ...]] = {}

    # -- reference resolution

    def lookup(self, ref: ElementId) -> ElementId | None:
        """Exact namespace match, then root-namespace fallback."""
        if ref in self.elements:
            return ref
        if ref.namespace:
            fb = ElementId("", ref.local)
            if fb in self.elements:
                return fb
        return None

    def resolve_type(self, ref: ElementId, written: str) -> TypeRef:
        target = self.lookup(ref)
        if target is not None:
            if self.elements[target].kind is not ElementKind.INSTANCE:
                return TypeRef(None, target, written)
            return TypeRef(None, None, written)  # names an instance: not a type
        if ref.local in BUILTIN_SCALARS:
            return TypeRef(ref.local, None, written)
        return TypeRef(None, None, written)

    # -- queries

    def kind_of(self, element_id: ElementId) -> ElementKind:
        entry = self.elements.get(element_id)
        if entry is None:
            raise NotFoundError(f"unknown element '{element_id.render()}'")
        return entry.kind

    def require_class(self, class_id: ElementId) -> ClassDef:
        cd = self.classes.get(class_id)
        if cd is None:
            if class_id in self.elements:
                raise WrongKindError(f"'{class_id.render()}' is not a class")
            raise NotFoundError(f"unknown class '{class_id.render()}'")
        return cd

    def lineage(self, class_id: ElementId) -> tuple[ElementId, ...]:
        """Subclass chain from class_id up, truncated at the first repeat."""
        cached = self._lineage.get(class_id)
        if cached is not None:
            return cached
        self.require_class(class_id)
        chain = [class_id]
        seen = {class_id}
        cur = self.classes[class_id].parent
        while cur is not None and cur in self.classes and cur not in seen:
            chain.append(cur)
            seen.add(cur)
            cur = self.classes[cur].parent
        result = tuple(chain)
        self._lineage[class_id] = result
        return result

    def ancestor_set(self, class_id: ElementId) -> frozenset[ElementId]:
        cached = self._ancestors.get(class_id)
        if cached is None:
            cached = frozenset(self.lineage(class_id))
            self._ancestors[class_id] = cached
        return cached

    def in_parent_cycle(self, class_id: ElementId) -> bool:
        """True when class_id itself sits on a parent cycle: its lineage
        stops at the first repeat, so the last class's parent is class_id."""
        return self.classes[self.lineage(class_id)[-1]].parent == class_id

    def template_chain(self, bean_id: ElementId) -> tuple[ElementId, ...]:
        """Instance bean and its parent templates, nearest first, truncated
        at the first repeat and at a parent that is not an instance bean."""
        chain = [bean_id]
        seen = {bean_id}
        pref = self.elements[bean_id].decl.parent_ref
        while pref is not None:
            cur = self.lookup(pref)
            if cur is None or cur in seen or self.elements[cur].kind is not ElementKind.INSTANCE:
                break
            chain.append(cur)
            seen.add(cur)
            pref = self.elements[cur].decl.parent_ref
        return tuple(chain)

    def effective_properties(self, class_id: ElementId) -> tuple[PropertyDefinition, ...]:
        cached = self._effective.get(class_id)
        if cached is not None:
            return cached
        slots: dict[str, PropertyDefinition] = {}
        for cls in reversed(self.lineage(class_id)):
            for p in self.classes[cls].own_properties:
                # overrides keep the ancestor's position in the order
                slots[p.name] = p
        result = tuple(slots.values())
        self._effective[class_id] = result
        return result


# ---------------------------------------------------------------------------
# Resolution


def resolve(units, prev: ResolvedModel | None = None) -> tuple[ResolvedModel, list[Diagnostic]]:
    """Build the element table, classify every element, derive ClassDefs.

    Maximal: every resolvable element is resolved even when others fail.
    With prev, the model of an earlier resolve, an element whose declaration
    is the same object and whose kind is unchanged keeps its ResolvedElement,
    and a class whose references also resolve alike keeps its ClassDef, so a
    fold allocates only for what it changed.
    """
    by_path: dict[str, SourceUnit] = {kernel_unit().path: kernel_unit()}
    for u in units:
        by_path[u.path] = u
    ordered = dict(sorted(by_path.items()))
    unit_list = list(ordered.values())

    diags = duplicate_id_diags(unit_list)
    decls: dict[ElementId, BeanDecl] = {}
    for unit in unit_list:
        for decl in unit.beans:
            if decl.id not in decls:
                decls[decl.id] = decl

    def lookup(ref: ElementId) -> ElementId | None:
        if ref in decls:
            return ref
        if ref.namespace:
            fb = ElementId("", ref.local)
            if fb in decls:
                return fb
        return None

    # metaclass = Class itself, or reaches Class via explicit parent edges
    meta: dict[ElementId, bool] = {}

    def is_meta(eid: ElementId) -> bool:
        known = meta.get(eid)
        if known is not None:
            return known
        chain = []
        cur: ElementId | None = eid
        result = False
        seen = set()
        while cur is not None and cur not in meta:
            if cur == CLASS_ID:
                result = True
                break
            if cur in seen:
                break
            seen.add(cur)
            chain.append(cur)
            pref = decls[cur].parent_ref
            cur = lookup(pref) if pref is not None else None
        else:
            if cur is not None:
                result = meta[cur]
        for c in chain:
            meta[c] = result
        meta[eid] = result
        return result

    kinds: dict[ElementId, ElementKind] = {}
    for eid in decls:
        if is_meta(eid):
            kinds[eid] = ElementKind.METACLASS
    for eid, decl in decls.items():
        if eid in kinds:
            continue
        target = lookup(decl.class_ref)
        if target is not None and kinds.get(target) is ElementKind.METACLASS:
            kinds[eid] = ElementKind.MODEL_CLASS
        else:
            kinds[eid] = ElementKind.INSTANCE

    prev_elements = prev.elements if prev is not None else {}
    prev_classes = prev.classes if prev is not None else {}
    elements: dict[ElementId, ResolvedElement] = {}
    for eid, decl in decls.items():
        entry = prev_elements.get(eid)
        if entry is None or entry.decl is not decl or entry.kind is not kinds[eid]:
            # a declaration's span path is its unit's path
            entry = ResolvedElement(decl, kinds[eid], decl.span.path)
        elements[eid] = entry

    model = ResolvedModel(ordered, elements, {})

    # class/parent reference diagnostics
    for eid, decl in decls.items():
        target = lookup(decl.class_ref)
        if target is None:
            diags.append(
                dx.error(dx.UNRESOLVED_CLASS, f"unresolved class reference '{decl.written_class}'", decl.span, eid)
            )
        elif kinds[target] is ElementKind.INSTANCE:
            diags.append(
                dx.error(
                    dx.UNRESOLVED_CLASS,
                    f"class reference '{decl.written_class}' does not name a class",
                    decl.span,
                    eid,
                )
            )
        elif kinds[eid] is ElementKind.METACLASS and kinds[target] is ElementKind.MODEL_CLASS:
            diags.append(
                dx.error(
                    dx.UNRESOLVED_CLASS,
                    f"class reference '{decl.written_class}' of a metaclass must name a metaclass",
                    decl.span,
                    eid,
                )
            )
        if decl.parent_ref is not None and lookup(decl.parent_ref) is None:
            diags.append(
                dx.error(dx.UNRESOLVED_PARENT, f"unresolved parent reference '{decl.written_parent}'", decl.span, eid)
            )

    # class definitions
    for eid, decl in decls.items():
        kind = kinds[eid]
        if kind is ElementKind.INSTANCE:
            continue
        if decl.parent_ref is not None:
            parent = lookup(decl.parent_ref)
            explicit = True
        else:
            parent = OBJECT_ID if eid != OBJECT_ID else None
            explicit = False
        metaclass = lookup(decl.class_ref)
        types = [model.resolve_type(d.type_ref, d.type_written) for d in decl.property_defs]
        kept = prev_classes.get(eid)
        if (
            kept is not None
            and elements[eid] is prev_elements[eid]
            and kept.metaclass == metaclass
            and kept.parent == parent
            and all(p.type == t for p, t in zip(kept.own_properties, types))
        ):
            model.classes[eid] = kept
            continue
        own = tuple(
            PropertyDefinition(d.name, t, d.description, eid, d.span)
            for d, t in zip(decl.property_defs, types)
        )
        model.classes[eid] = ClassDef(
            id=eid,
            kind=kind,
            metaclass=metaclass,
            parent=parent,
            explicit_parent=explicit,
            own_properties=own,
            class_assignments=decl.assignments,
            is_declarative=decl.declarative,
            is_abstract=decl.abstract,
        )

    return model, diags


def bootstrap_kernel() -> ResolvedModel:
    """The kernel alone, resolved. Never produces diagnostics."""
    model, diags = resolve([])
    if diags:
        raise RuntimeError("kernel resolution produced diagnostics")
    return model


# ---------------------------------------------------------------------------
# Public query wrappers (operate on a ResolvedModel)


def classify(model: ResolvedModel, element_id: ElementId) -> ElementKind:
    return model.kind_of(element_id)


def lineage(model: ResolvedModel, class_id: ElementId) -> tuple[ElementId, ...]:
    return model.lineage(class_id)


def effective_properties(model: ResolvedModel, class_id: ElementId) -> tuple[PropertyDefinition, ...]:
    model.require_class(class_id)
    return model.effective_properties(class_id)


def conforms(model: ResolvedModel, t: TypeRef, u: TypeRef) -> bool:
    """Type conformance: nominal scalars; classes by subclass lineage."""
    if t.builtin is not None or u.builtin is not None:
        return t.builtin == u.builtin and t.builtin is not None
    if t.class_id is None or u.class_id is None:
        return False
    if t.class_id == u.class_id:
        return True
    return u.class_id in model.ancestor_set(t.class_id)
