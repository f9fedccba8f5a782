"""Self-describing type system: kernel beans, classification, lineage, conformance.

Instances, classes and metaclasses live in one type system. The kernel is a
model unit like any other: ``Object`` is the root class and ``Class`` is the
root metaclass, an instance of itself. A bean is a metaclass when it is
``Class`` or reaches ``Class`` through explicit parent edges; a bean whose
class resolves to a metaclass is a model class; everything else is an
ordinary instance.

Resolution folds: given the model of an earlier resolve, resolve derives
only the ids declared in the units that changed, appeared or went away, and
keeps every other element as it was. An edit that could change how an id
outside those units resolves (an added or removed id that a reference
elsewhere names, a surviving id that changes kind, an id declared twice)
makes it derive every id, as a resolve from scratch does.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from . import diagnostics as dx
from .diagnostics import Diagnostic
from .errors import NotFoundError, WrongKindError
from .ids import BUILTIN_SCALARS, UNRESOLVED, ElementId, SourceSpan, record
from .source import (
    BeanDecl,
    SourceUnit,
    ValueExpr,
    duplicate_id_diags,
    parse_unit,
)

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


@record
class TypeRef:
    """A property's declared type: builtin scalar, class, or unresolved."""

    builtin: str | None
    class_id: ElementId | None
    written: str

    @property
    def is_builtin(self) -> bool:
        return self.builtin is not None

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


@record
class PropertyDefinition:
    name: str
    type: TypeRef
    description: str | None
    declared_by: ElementId
    span: SourceSpan


@record
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


@record
class ResolvedElement:
    decl: BeanDecl
    kind: ElementKind
    unit_path: str


class ResolvedModel:
    """Name-resolved view of a workspace: element table, classes, memoized queries.

    diags holds resolution's diagnostics by element. touched names the ids
    that the resolve which made this model derived, None when it derived
    every id (see resolve). touched and the memos are caches, which a
    pickled model does not hold.
    """

    kernel_ids = frozenset((OBJECT_ID, CLASS_ID))

    def __init__(
        self,
        units: dict[str, SourceUnit],
        elements: dict[ElementId, ResolvedElement],
        classes: dict[ElementId, ClassDef],
        diags: dict[ElementId, tuple[Diagnostic, ...]] | None = None,
    ):
        self.units = units
        self.elements = elements
        self.classes = classes
        self.diags = {} if diags is None else diags
        self.touched: set[ElementId] | None = None
        self._lineage: dict[ElementId, tuple[ElementId, ...]] = {}
        self._ancestors: dict[ElementId, frozenset[ElementId]] = {}
        self._effective: dict[ElementId, tuple[PropertyDefinition, ...]] = {}

    def __reduce__(self):
        return ResolvedModel, (self.units, self.elements, self.classes, self.diags)

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

    def resolve_id(self, ref, noun: str) -> ElementId:
        """The id ref names, an ElementId or its string spelling, found as a
        reference is (lookup); NotFoundError "unknown {noun}" otherwise."""
        if isinstance(ref, ElementId):
            eid = self.lookup(ref)
        elif isinstance(ref, str):
            eid = self.lookup(ElementId.parse(ref))
        else:
            raise TypeError(f"{noun} reference must be an ElementId or string")
        if eid is None:
            shown = ref.render() if isinstance(ref, ElementId) else ref
            raise NotFoundError(f"unknown {noun} '{shown}'")
        return eid

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


def _first_declarations(units) -> tuple[dict[ElementId, BeanDecl], bool]:
    """Each id's first declaration in unit order, and whether a later unit
    declares an id again."""
    decls: dict[ElementId, BeanDecl] = {}
    shared = False
    for unit in units:
        for decl in unit.beans:
            if decl.id in decls:
                shared = True
            else:
                decls[decl.id] = decl
    return decls, shared


class _Table:
    """The declarations one resolve reads: decls for the ids it derives, and
    prev_elements' for every other id unless touched is None (every id)."""

    def __init__(self, decls, touched, prev_elements):
        self.decls = decls
        self.touched = touched
        self.prev_elements = prev_elements
        self.meta: dict[ElementId, bool] = {}

    def decl(self, eid: ElementId) -> BeanDecl | None:
        found = self.decls.get(eid)
        if found is None and self.touched is not None and eid not in self.touched:
            entry = self.prev_elements.get(eid)
            if entry is not None:
                return entry.decl
        return found

    def lookup(self, ref: ElementId) -> ElementId | None:
        if self.decl(ref) is not None:
            return ref
        if ref.namespace:
            fb = ElementId("", ref.local)
            if self.decl(fb) is not None:
                return fb
        return None

    def is_meta(self, eid: ElementId) -> bool:
        """Class itself, or reaches Class via explicit parent edges."""
        meta = self.meta
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
            pref = self.decl(cur).parent_ref
            cur = self.lookup(pref) if pref is not None else None
        else:
            if cur is not None:
                result = meta[cur]
        for c in chain:
            meta[c] = result
        meta[eid] = result
        return result

    def kind(self, eid: ElementId) -> ElementKind:
        if self.is_meta(eid):
            return ElementKind.METACLASS
        target = self.lookup(self.decls[eid].class_ref)
        if target is not None and self.is_meta(target):
            return ElementKind.MODEL_CLASS
        return ElementKind.INSTANCE


def _fold_scope(prev: ResolvedModel, in_edges, units, changed) -> tuple[set | None, dict | None]:
    """The ids a fold from prev derives, with their declarations: those
    declared in a changed unit, before or after. (None, None) when an id
    outside them could resolve differently, so the fold derives every id."""
    touched: set[ElementId] = set()
    for p in changed:
        for unit in (prev.units.get(p), units.get(p)):
            if unit is not None:
                touched.update(decl.id for decl in unit.beans)
    decls, shared = _first_declarations(units[p] for p in sorted(changed) if p in units)
    if shared:
        return None, None
    for eid in touched:
        entry = prev.elements.get(eid)
        # declared by an unchanged unit too, now or before
        if entry is not None and entry.unit_path not in changed:
            return None, None
        if any(d.code == dx.DUPLICATE_ID for d in prev.diags.get(eid, ())):
            return None, None
    moved = [eid for eid in touched if (eid in prev.elements) != (eid in decls)]
    if moved:
        # an added or removed id may capture, or drop, a reference written
        # outside the changed units: exactly, or by namespace fallback. In
        # prev, such a reference resolves to the id, to its root namesake or
        # to nothing, so its element has an edge into one of the three
        by_target = in_edges()
        sources = {
            e.src
            for eid in moved
            for target in (eid, ElementId("", eid.local), UNRESOLVED)
            for e in by_target.get(target, ())
        }
        table = _Table(decls, touched, prev.elements)
        spelled = {eid.local for eid in moved}
        for src in sources:
            entry = prev.elements[src]
            if entry.unit_path not in changed and any(
                ref.local in spelled and prev.lookup(ref) != table.lookup(ref)
                for _, ref, _, _ in entry.decl.references()
            ):
                return None, None
    return touched, decls


def resolve(
    units, prev: ResolvedModel | None = None, in_edges=None
) -> tuple[ResolvedModel, list[Diagnostic]]:
    """Build the element table, classify elements, derive ClassDefs.

    Maximal: every resolvable element is resolved even when others fail.

    Without prev, every id is derived. With prev, the model of an earlier
    resolve, only the touched ids are: those declared in a unit that
    changed, appeared or went away. Every other id keeps prev's entry, kind,
    ClassDef and diagnostics. That holds while each reference outside the
    touched ids resolves as before, to an element of the same kind. The
    fold widens to every id when an edit could break that:
      - an added or removed id that a reference outside resolves to, before
        or after (namespace fallback included)
      - a touched id that exists before and after and changes kind
      - a touched id declared in two units
    in_edges, given with prev, returns the by-target map of prev's
    dependency graph (each target's in-edges). It is called only when an id
    is added or removed: the references that id could capture or drop are
    written by elements with an edge into it, into its root namesake or into
    UNRESOLVED. A declaration that is not an element (a later duplicate)
    resolves nothing, so what it writes cannot change the fold.
    A derived entry or ClassDef equal to prev's is prev's object, so a fold
    allocates only for what it changed. model.touched is the touched set,
    None when every id was derived.
    """
    by_path: dict[str, SourceUnit] = {kernel_unit().path: kernel_unit()}
    for u in units:
        by_path[u.path] = u
    ordered = dict(sorted(by_path.items()))

    touched = decls = None
    prev_elements = prev.elements if prev is not None else {}
    if prev is not None:
        changed = {p for p in ordered.keys() | prev.units.keys() if ordered.get(p) is not prev.units.get(p)}
        touched, decls = _fold_scope(prev, in_edges, ordered, changed)
    while True:
        if touched is None:
            decls = _first_declarations(ordered.values())[0]
        table = _Table(decls, touched, prev_elements)
        kinds = {eid: table.kind(eid) for eid in decls}
        if touched is None or all(
            prev_elements[eid].kind is kind for eid, kind in kinds.items() if eid in prev_elements
        ):
            break
        touched = None  # a surviving id changed kind

    if touched is None:
        elements: dict[ElementId, ResolvedElement] = {}
        classes: dict[ElementId, ClassDef] = {}
        diags: dict[ElementId, tuple[Diagnostic, ...]] = {}
    else:
        elements, classes, diags = dict(prev.elements), dict(prev.classes), dict(prev.diags)
        for eid in touched:
            diags.pop(eid, None)
            if eid not in decls:
                del elements[eid]
                classes.pop(eid, None)
    for eid, decl in decls.items():
        entry = prev_elements.get(eid)
        if entry is None or entry.decl is not decl or entry.kind is not kinds[eid]:
            # a declaration's span path is its unit's path
            entry = ResolvedElement(decl, kinds[eid], decl.span.path)
        elements[eid] = entry

    model = ResolvedModel(ordered, elements, classes, diags)
    model.touched = touched
    lookup = model.lookup

    # class/parent reference diagnostics
    found: dict[ElementId, list[Diagnostic]] = {}
    if touched is None:
        for d in duplicate_id_diags(ordered.values()):
            found.setdefault(d.element, []).append(d)
    for eid, decl in decls.items():
        target = lookup(decl.class_ref)
        message = None
        if target is None:
            message = f"unresolved class reference '{decl.written_class}'"
        elif elements[target].kind is ElementKind.INSTANCE:
            message = f"class reference '{decl.written_class}' does not name a class"
        elif kinds[eid] is ElementKind.METACLASS and elements[target].kind is ElementKind.MODEL_CLASS:
            message = f"class reference '{decl.written_class}' of a metaclass must name a metaclass"
        if message is not None:
            found.setdefault(eid, []).append(dx.error(dx.UNRESOLVED_CLASS, message, decl.span, eid))
        if decl.parent_ref is not None and lookup(decl.parent_ref) is None:
            found.setdefault(eid, []).append(
                dx.error(dx.UNRESOLVED_PARENT, f"unresolved parent reference '{decl.written_parent}'", decl.span, eid)
            )
    for eid, ds in found.items():
        diags[eid] = tuple(ds)

    # class definitions
    prev_classes = prev.classes if prev is not None else {}
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
            classes[eid] = kept
            continue
        own = tuple(
            PropertyDefinition(d.name, t, d.description, eid, d.span)
            for d, t in zip(decl.property_defs, types)
        )
        classes[eid] = ClassDef(
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

    return model, [d for ds in diags.values() for d in ds]


def bootstrap_kernel() -> ResolvedModel:
    """The kernel alone, resolved. Never produces diagnostics."""
    model, diags = resolve([])
    if diags:
        raise RuntimeError("kernel resolution produced diagnostics")
    return model


# ---------------------------------------------------------------------------
# Type conformance


def conforms(model: ResolvedModel, t: TypeRef, u: TypeRef) -> bool:
    """Type conformance: nominal scalars; classes by subclass lineage."""
    if t.builtin is not None or u.builtin is not None:
        return t.builtin == u.builtin and t.builtin is not None
    if t.class_id is None or u.class_id is None:
        return False
    if t.class_id == u.class_id:
        return True
    return u.class_id in model.ancestor_set(t.class_id)
