"""Cross-model validating compiler with dependency-driven incremental builds.

A full compile resolves every element, validates each against the model, and
derives the dependency graph. An incremental compile (a fold) re-resolves
only the ids declared in the units it changes (see kernel.resolve). Its
dirty set, the ids whose meaning may differ, holds the elements whose
declarations changed (the seeds) plus everything reachable from them over
the reverse dependency graph (previous and new graphs combined); the VM
drops what it cached for them on reload. Its recheck set, the ids whose
diagnostics may differ, is re-validated; untouched elements keep their
previous diagnostics. The two differ only where a class seed changed
nothing but property types: what only such seeds reach is rechecked when
it assigns or declares one of those properties. The fold patches the
previous graph at the re-resolved ids, reruns the injection-cycle check
only on the forward closure of the changed injection edges, and rechecks
the manifest only for the re-resolved classes unless the manifest changed.
When resolution widens to every id, the fold rebuilds the graph and reruns
every check, as a full compile does. The result is observably identical to
a full compile.
"""

from __future__ import annotations

import gc
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import diagnostics as dx
from .diagnostics import Diagnostic, has_errors, sort_diagnostics
from .errors import NotFoundError
from .graph import (
    PARENT_BEAN,
    SUBCLASS_OF,
    VALUE_REF,
    DependencyGraph,
    Edge,
    build_dependency_graph,
    element_edges,
)
from .ids import SCALARS, XML_SPACE, ElementId, SourceSpan
from .kernel import (
    ClassDef,
    ElementKind,
    ResolvedModel,
    TypeRef,
    conforms,
    resolve,
)
from .native import NativeManifest
from .source import (
    BeanDecl,
    InlineBean,
    RefValue,
    ScalarValue,
    SourceUnit,
    discover_unit_paths,
    parse_workspace,
    read_units,
)

def scalar_conforms(text: str, builtin: str) -> bool:
    """Lexical conformance of literal text to a builtin scalar type."""
    rule = SCALARS.get(builtin)
    if rule is None:
        raise ValueError(f"unknown builtin '{builtin}'")
    return rule.conforms(text)


def _clip(text: str, limit: int = 40) -> str:
    text = text.strip(XML_SPACE)  # the literal as the scalar rule reads it
    return text if len(text) <= limit else text[: limit - 1] + "…"


# ---------------------------------------------------------------------------
# Per-element validation


def _class_type(model: ResolvedModel, class_id: ElementId) -> TypeRef:
    return TypeRef(None, class_id, class_id.render())


def _check_assignments(model, owner, assignments, props, diags):
    """Validate a list of (name, value) against a property table. Uniform for
    instance values, class-level values, and nested inline beans."""
    for name, expr in assignments:
        p = props.get(name)
        if p is None:
            diags.append(dx.error(dx.UNKNOWN_PROPERTY, f"unknown property '{name}'", expr.span, owner))
            if isinstance(expr, InlineBean):
                _check_inline(model, owner, expr, None, diags)
            continue
        t = p.type
        if t.is_unresolved:
            continue  # E012 reported at the declaring class
        if t.is_builtin:
            if isinstance(expr, ScalarValue):
                if not scalar_conforms(expr.text, t.builtin):
                    diags.append(
                        dx.error(
                            dx.TYPE_MISMATCH,
                            f"value '{_clip(expr.text)}' does not conform to {t.builtin} for property '{name}'",
                            expr.span,
                            owner,
                        )
                    )
            else:
                diags.append(
                    dx.error(dx.TYPE_MISMATCH, f"property '{name}' expects a {t.builtin} value", expr.span, owner)
                )
            continue
        # class-typed property
        if isinstance(expr, ScalarValue):
            diags.append(
                dx.error(
                    dx.TYPE_MISMATCH,
                    f"property '{name}' expects a bean conforming to {t.render()}",
                    expr.span,
                    owner,
                )
            )
        elif isinstance(expr, RefValue):
            _check_ref(model, owner, name, expr, t, diags)
        else:
            _check_inline(model, owner, expr, t, diags)


def _check_ref(model, owner, name, expr: RefValue, t: TypeRef, diags):
    target = model.lookup(expr.target)
    if target is None:
        diags.append(
            dx.error(dx.TYPE_MISMATCH, f"unresolved bean reference '{expr.written}'", expr.span, owner)
        )
        return
    entry = model.elements[target]
    if entry.kind is ElementKind.INSTANCE:
        if entry.decl.abstract:
            diags.append(
                dx.error(
                    dx.TYPE_MISMATCH,
                    f"reference '{expr.written}' targets an abstract bean",
                    expr.span,
                    owner,
                )
            )
        cls = model.lookup(entry.decl.class_ref)
        if cls is not None and cls in model.classes and not conforms(model, _class_type(model, cls), t):
            diags.append(
                dx.error(
                    dx.TYPE_MISMATCH,
                    f"value of '{name}' must conform to {t.render()} (got {cls.render()})",
                    expr.span,
                    owner,
                )
            )
    else:
        # a ref to a class injects the class reified as an instance of its metaclass
        mc = model.classes[target].metaclass
        if mc is not None and mc in model.classes and not conforms(model, _class_type(model, mc), t):
            diags.append(
                dx.error(
                    dx.TYPE_MISMATCH,
                    f"value of '{name}' must conform to {t.render()} (got {mc.render()})",
                    expr.span,
                    owner,
                )
            )


def _check_inline(model, owner, expr: InlineBean, t: TypeRef | None, diags):
    cls = model.lookup(expr.class_ref)
    if cls is None:
        diags.append(
            dx.error(dx.UNRESOLVED_CLASS, f"unresolved class reference '{expr.written_class}'", expr.span, owner)
        )
        cls_def = None
    elif cls not in model.classes:
        diags.append(
            dx.error(
                dx.UNRESOLVED_CLASS,
                f"class reference '{expr.written_class}' does not name a class",
                expr.span,
                owner,
            )
        )
        cls_def = None
    else:
        cls_def = model.classes[cls]
    if cls_def is not None:
        if cls_def.is_abstract:
            diags.append(
                dx.error(
                    dx.ABSTRACT_INSTANTIATION,
                    f"class '{cls.render()}' is abstract and cannot be instantiated",
                    expr.span,
                    owner,
                )
            )
        if t is not None and not conforms(model, _class_type(model, cls), t):
            diags.append(
                dx.error(
                    dx.TYPE_MISMATCH,
                    f"inline bean of class {cls.render()} does not conform to {t.render()}",
                    expr.span,
                    owner,
                )
            )
        props = {p.name: p for p in model.effective_properties(cls)}
        _check_assignments(model, owner, expr.assignments, props, diags)
    else:
        # still validate nested structure where possible
        for _, inner in expr.assignments:
            if isinstance(inner, InlineBean):
                _check_inline(model, owner, inner, None, diags)


def check_override(model: ResolvedModel, class_id: ElementId) -> list[Diagnostic]:
    """Covariance: an overriding property must narrow the inherited type."""
    cd = model.require_class(class_id)
    diags: list[Diagnostic] = []
    inherited: dict[str, object] = {}
    for cls in reversed(model.lineage(class_id)[1:]):
        for p in model.classes[cls].own_properties:
            inherited[p.name] = p
    for p in cd.own_properties:
        base = inherited.get(p.name)
        if base is None:
            continue
        if p.type.is_unresolved or base.type.is_unresolved:
            continue
        if p.type.same_as(base.type):
            continue
        if not conforms(model, p.type, base.type):
            diags.append(
                dx.error(
                    dx.COVARIANCE,
                    f"override of '{p.name}' must narrow {base.type.render()} "
                    f"(declared by {base.declared_by.render()}), got {p.type.render()}",
                    p.span,
                    class_id,
                )
            )
    return diags


def _check_instance(model, eid, decl: BeanDecl, diags):
    if decl.property_defs:
        diags.append(
            dx.error(dx.PROPERTIES_ON_INSTANCE, "only classes may declare properties", decl.span, eid)
        )
    cls = model.lookup(decl.class_ref)
    cls_def = model.classes.get(cls) if cls is not None else None
    if cls_def is not None and cls_def.is_abstract and not decl.abstract:
        diags.append(
            dx.error(
                dx.ABSTRACT_INSTANTIATION,
                f"class '{cls.render()}' is abstract and cannot be instantiated",
                decl.span,
                eid,
            )
        )
    # parent template legality and parent chain cycle
    if decl.parent_ref is not None:
        parent = model.lookup(decl.parent_ref)
        if parent is not None:
            pentry = model.elements[parent]
            if pentry.kind is not ElementKind.INSTANCE:
                diags.append(
                    dx.error(
                        dx.INCOMPATIBLE_PARENT,
                        f"parent '{decl.written_parent}' of an instance bean must be an instance bean",
                        decl.span,
                        eid,
                    )
                )
            else:
                pcls = model.lookup(pentry.decl.class_ref)
                if (
                    cls is not None
                    and cls in model.classes
                    and pcls is not None
                    and pcls in model.classes
                    and pcls not in model.ancestor_set(cls)
                ):
                    diags.append(
                        dx.error(
                            dx.INCOMPATIBLE_PARENT,
                            f"parent bean's class {pcls.render()} is not an ancestor of {cls.render()}",
                            decl.span,
                            eid,
                        )
                    )
                # the chain stops at the first repeat, so eid is on a parent
                # cycle when the last template's parent is eid itself
                last = model.elements[model.template_chain(eid)[-1]].decl.parent_ref
                if last is not None and model.lookup(last) == eid:
                    diags.append(dx.error(dx.CYCLE, "cycle in parent chain", decl.span, eid))
    # values against the class
    if cls is not None and cls in model.classes:
        props = {p.name: p for p in model.effective_properties(cls)}
        _check_assignments(model, eid, decl.assignments, props, diags)


def _check_class(model, eid, decl: BeanDecl, diags):
    cd = model.classes[eid]
    if decl.parent_ref is not None:
        parent = model.lookup(decl.parent_ref)
        if parent is not None and parent not in model.classes:
            diags.append(
                dx.error(
                    dx.INCOMPATIBLE_PARENT,
                    f"parent '{decl.written_parent}' of a class must be a class",
                    decl.span,
                    eid,
                )
            )
    if model.in_parent_cycle(eid):
        diags.append(dx.error(dx.CYCLE, "cycle in parent chain", decl.span, eid))
    # own property types
    for d in decl.property_defs:
        tr = model.resolve_type(d.type_ref, d.type_written)
        if tr.is_unresolved:
            named = model.lookup(d.type_ref)
            if named is not None:
                msg = f"property type '{d.type_written}' does not name a class"
            else:
                msg = f"unresolved property type '{d.type_written}'"
            diags.append(dx.error(dx.UNRESOLVED_TYPE, msg, d.span, eid))
    diags.extend(check_override(model, eid))
    # class-level values against the metaclass
    mc = cd.metaclass
    if mc is not None and mc in model.classes:
        props = {p.name: p for p in model.effective_properties(mc)}
        _check_assignments(model, eid, cd.class_assignments, props, diags)


def validate_element(model: ResolvedModel, element_id: ElementId) -> list[Diagnostic]:
    """All element-local validation rules. Same routine for every kind."""
    entry = model.elements.get(element_id)
    if entry is None:
        raise NotFoundError(f"unknown element '{element_id.render()}'")
    diags: list[Diagnostic] = []
    if entry.kind is ElementKind.INSTANCE:
        _check_instance(model, element_id, entry.decl, diags)
    else:
        _check_class(model, element_id, entry.decl, diags)
    return diags


# ---------------------------------------------------------------------------
# Graph-level validation: injection cycles

# edge kinds that injection follows at runtime
_INJECTION_KINDS = frozenset((VALUE_REF, PARENT_BEAN, SUBCLASS_OF))


def _injection_cycle_diags(model: ResolvedModel, graph: DependencyGraph) -> list[Diagnostic]:
    """E004 for strongly connected injection loops.

    Injection at runtime recurses through value refs, parent templates,
    and superclass chains; a strong component with at least one value-ref
    edge would never terminate. Pure parent/subclass cycles are already
    reported per element.
    """
    return _cycle_diags(model, graph.by_source, graph.by_source)[0]


def _cycle_diags(model: ResolvedModel, by_source, roots) -> tuple[list[Diagnostic], dict[ElementId, int]]:
    """E004 for the injection cycles reachable from roots over the edge store
    by_source, and every element the walk reached (mapped to its index)."""
    elements = model.elements

    def successors(v):
        return iter([e.dst for e in by_source.get(v, ()) if e.kind in _INJECTION_KINDS and e.dst in elements])

    # iterative Tarjan
    index: dict[ElementId, int] = {}
    low: dict[ElementId, int] = {}
    on_stack: set[ElementId] = set()
    stack: list[ElementId] = []
    components: list[list[ElementId]] = []

    for root in roots:
        if root in index or root not in elements:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, successors(root))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, successors(w)))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)

    diags: list[Diagnostic] = []
    for comp in components:
        # a lone element is a cycle only through a value-ref to itself
        members = set(comp)
        if not any(e.kind == VALUE_REF and e.dst in members for v in comp for e in by_source.get(v, ())):
            continue
        names = ", ".join(sorted(m.render() for m in members))
        for m in sorted(members, key=ElementId.render):
            diags.append(
                dx.error(
                    dx.CYCLE,
                    f"injection cycle through {names}",
                    model.elements[m].decl.span,
                    m,
                )
            )
    return diags, index


# ---------------------------------------------------------------------------
# Conformance against the native manifest


def check_conformance(model: ResolvedModel, manifest: NativeManifest, ids=None) -> list[Diagnostic]:
    """E007/W001: non-declarative classes vs their manifest entries.

    Checks names and own fields only. Whether the native hierarchy mirrors
    the model hierarchy is not validated. Metaclasses and the kernel are
    model-side only and exempt. With ids, only the classes among them and
    the manifest entries that name one are checked.
    """
    diags: list[Diagnostic] = []
    classes = model.classes if ids is None else [eid for eid in ids if eid in model.classes]
    for eid in sorted(classes, key=ElementId.render):
        cd = model.classes[eid]
        if cd.is_declarative or cd.kind is ElementKind.METACLASS or eid in model.kernel_ids:
            continue
        name = eid.render()
        sig = manifest.get(name)
        span = model.elements[eid].decl.span
        if sig is None:
            diags.append(
                dx.error(dx.CONFORMANCE, f"no manifest entry for native class '{name}'", span, eid)
            )
            continue
        fields = sig.field_map()
        for p in cd.own_properties:
            f = fields.get(p.name)
            if f is None:
                diags.append(
                    dx.error(
                        dx.CONFORMANCE,
                        f"manifest entry '{name}' lacks field '{p.name}'",
                        p.span,
                        eid,
                    )
                )
            elif not p.type.is_unresolved and f.type != p.type.render():
                diags.append(
                    dx.error(
                        dx.CONFORMANCE,
                        f"field '{p.name}' of '{name}': manifest type '{f.type}' "
                        f"does not match declared {p.type.render()}",
                        p.span,
                        eid,
                    )
                )
    if ids is None:
        sigs = manifest.classes
    else:
        sigs = [sig for sig in map(manifest.get, {eid.render() for eid in ids}) if sig is not None]
    for sig in sigs:
        named = ElementId.parse(sig.name)
        cd = model.classes.get(named) if named.render() == sig.name else None
        if cd is None or cd.is_declarative:
            diags.append(_orphan_warning(manifest, sig.name, cd is not None))
    return diags


def _orphan_warning(manifest: NativeManifest, name: str, declarative: bool) -> Diagnostic:
    problem = "names a declarative class" if declarative else "has no model class"
    return dx.warning(dx.MANIFEST_ORPHAN, f"manifest entry '{name}' {problem}", SourceSpan(manifest.path, 1, 1, 1, 1))


# ---------------------------------------------------------------------------
# Compile state


@dataclass(frozen=True)
class CompileState:
    """Everything needed to answer queries and recompile incrementally: what
    the VM loads and schema generation and rename read. Frozen, so a VM
    snapshot's model cannot change under it; a fold builds a new state.

    token is fresh per compile. A fold's state records the token of the
    state it was folded from (a token, not a reference, so no state keeps
    its parent alive) and the fold's dirty set: every id whose meaning may
    differ between the two. A full compile's folded_from is None.
    validate_by_element holds the elements that have diagnostics.
    """

    units: dict[str, SourceUnit]
    parse_by_path: dict[str, tuple[Diagnostic, ...]]
    resolved: ResolvedModel
    graph: DependencyGraph
    validate_by_element: dict[ElementId, tuple[Diagnostic, ...]]
    graph_diags: tuple[Diagnostic, ...]
    conformance_diags: tuple[Diagnostic, ...]
    manifest: NativeManifest | None = None
    token: object = field(default_factory=object, compare=False, repr=False)
    folded_from: object = field(default=None, compare=False, repr=False)
    dirty: frozenset = field(default=frozenset(), compare=False, repr=False)

    def all_diagnostics(self) -> list[Diagnostic]:
        merged: list[Diagnostic] = []
        for ds in self.parse_by_path.values():
            merged.extend(ds)
        for ds in self.resolved.diags.values():
            merged.extend(ds)
        for ds in self.validate_by_element.values():
            merged.extend(ds)
        merged.extend(self.graph_diags)
        merged.extend(self.conformance_diags)
        return sort_diagnostics(merged)

    @property
    def has_errors(self) -> bool:
        return has_errors(self.all_diagnostics())

    def content_hash_by_unit(self) -> dict[str, str]:
        return {path: u.content_hash for path, u in self.units.items()}

    def model(self) -> CompileState:
        """The state itself, the compiled model the VM and schema generation
        read. Kept for the benchmark, which calls it and traces it as
        compiler.model."""
        return self


def _group_parse_diags(units, parse_diags) -> dict[str, tuple[Diagnostic, ...]]:
    grouped: dict[str, list[Diagnostic]] = {u.path: [] for u in units}
    for d in parse_diags:
        grouped.setdefault(d.span.path, []).append(d)
    return {p: tuple(ds) for p, ds in grouped.items()}


def compile_model(
    units,
    manifest: NativeManifest | None = None,
    parse_diags=(),
) -> tuple[CompileState, list[Diagnostic]]:
    """Full compile of already-parsed units. parse_diags are carried into the
    report and tracked per unit for incremental updates."""
    units = list(units)
    resolved, _ = resolve(units)
    graph = build_dependency_graph(resolved)
    validate_by_element = {}
    for eid in resolved.elements:
        diags = validate_element(resolved, eid)
        if diags:
            validate_by_element[eid] = tuple(diags)
    graph_diags = tuple(_injection_cycle_diags(resolved, graph))
    conf = tuple(check_conformance(resolved, manifest)) if manifest is not None else ()
    state = CompileState(
        units={u.path: u for u in units},
        parse_by_path=_group_parse_diags(units, parse_diags),
        resolved=resolved,
        graph=graph,
        validate_by_element=validate_by_element,
        graph_diags=graph_diags,
        conformance_diags=conf,
        manifest=manifest,
    )
    return state, state.all_diagnostics()


def compile_workspace(root, manifest: NativeManifest | None = None):
    """Parse and compile a workspace directory."""
    units, parse_diags = parse_workspace(root)
    return compile_model(units, manifest, parse_diags)


def workspace_changes(
    prev: CompileState, root, paths=None, read=None
) -> tuple[list[SourceUnit], list[str], list[Diagnostic]]:
    """What changed in a workspace directory since prev, as the changed
    units, removed paths and parse diagnostics that incremental_compile folds.

    paths are the unit paths present now (default: discover them); read is
    the subset to read (default: all of them), and a path not read keeps its
    unit. A read unit whose text is unchanged is not reparsed, and one that
    parsed clean in prev keeps the beans its edit did not touch. A path that
    is gone or unreadable counts as removed.
    """
    if paths is None:
        paths = discover_unit_paths(root)
    if read is None:
        read = paths
    clean = {p for p in read if prev.parse_by_path.get(p) == ()}
    units, unreadable, parse_diags = read_units(root, read, prev.units, clean)
    removed = (prev.units.keys() | prev.parse_by_path.keys()) - set(paths) | set(unreadable)
    return units, sorted(removed), parse_diags


def changed_element_ids(prev: ResolvedModel, new: ResolvedModel) -> set[ElementId]:
    """Dirty seeds: every id new's resolve touched (every id of both models
    when it touched all) whose winning declaration differs between them."""
    seeds: set[ElementId] = set()
    ids = new.touched if new.touched is not None else prev.elements.keys() | new.elements.keys()
    for eid in ids:
        a = prev.elements.get(eid)
        b = new.elements.get(eid)
        if a is None or b is None:
            seeds.add(eid)
            continue
        if a.decl is b.decl:
            continue
        if a.decl != b.decl:
            seeds.add(eid)
    return seeds


def _property_changes(prev: ResolvedModel, new: ResolvedModel, seeds) -> tuple[set[ElementId], set[str]]:
    """The seeds whose change is confined to their own property table, and
    the names of the properties whose type differs among them (added and
    removed ones included).

    Such a seed is a class in both models whose kind, metaclass, parent,
    abstractness, declarativeness and class-level values are unchanged, so
    its lineage, its conformance and every other class's property table but
    for those names stay as they were. Spans and descriptions are left out:
    they appear only in the class's own diagnostics.
    """
    narrow: set[ElementId] = set()
    names: set[str] = set()
    for eid in seeds:
        a = prev.classes.get(eid)
        b = new.classes.get(eid)
        if a is None or b is None or _shape(a) != _shape(b):
            continue
        narrow.add(eid)
        types_a, types_b = _types_by_name(a), _types_by_name(b)
        names.update(n for n in types_a.keys() | types_b.keys() if types_a.get(n) != types_b.get(n))
    return narrow, names


def _shape(cd: ClassDef) -> tuple:
    return (cd.kind, cd.metaclass, cd.parent, cd.explicit_parent, cd.class_assignments,
            cd.is_declarative, cd.is_abstract)


def _types_by_name(cd: ClassDef) -> dict[str, list[TypeRef]]:
    # own properties are declared by the class itself, so the type tells them apart
    types: dict[str, list[TypeRef]] = {}
    for p in cd.own_properties:
        types.setdefault(p.name, []).append(p.type)
    return types


def _writes(decl: BeanDecl, names) -> bool:
    """Whether decl declares or assigns one of names: a property row, or an
    assignment tag of the bean or of an inline bean in it."""
    # plain loops: any() over generators doubles the walk of a class fold
    for d in decl.property_defs:
        if d.name in names:
            return True
    for _, tag, _ in decl.values():
        if tag in names:
            return True
    return False


def _injection_edges(edges) -> set[Edge]:
    return {e for e in edges if e.kind in _INJECTION_KINDS}


def _refolded_cycle_diags(prev_diags, model: ResolvedModel, prev: DependencyGraph, graph: DependencyGraph,
                          out, seeds) -> tuple[Diagnostic, ...]:
    """The injection-cycle report after a fold that patched prev into graph
    with the re-derived out-edges out, from the previous report prev_diags.

    Tarjan reruns on the forward injection closure of every element whose
    injection edges changed, plus the members of each reported cycle that
    holds such an element or a seed. That region is forward-closed, so it
    holds whole strong components. Every reported cycle outside it has the
    same edges and spans as before and is kept.
    """
    region = {v for v, edges in out.items() if _injection_edges(edges) != _injection_edges(prev.by_source.get(v, ()))}
    cycles: dict[str, list[Diagnostic]] = {}  # one message per reported cycle
    for d in prev_diags:
        cycles.setdefault(d.message, []).append(d)
    hit = region | seeds
    for ds in cycles.values():
        if any(d.element in hit for d in ds):
            region.update(d.element for d in ds)
    if not region:
        return prev_diags
    # removed ids stay in the region, so the cycles they were on are dropped
    found, reached = _cycle_diags(model, graph.by_source, region)
    region.update(reached)
    kept = [d for ds in cycles.values() if region.isdisjoint(d.element for d in ds) for d in ds]
    return tuple(kept + found)


def incremental_compile(
    prev: CompileState,
    changed_units,
    removed_paths=(),
    parse_diags=(),
    manifest: NativeManifest | None = None,
) -> tuple[CompileState, set[ElementId], list[Diagnostic]]:
    """Recompile after edits. changed_units are parsed units (new or updated),
    removed_paths are unit paths that no longer exist. Returns the new state,
    the set of re-validated element ids (the recheck set) and the full
    diagnostic report."""
    units = dict(prev.units)
    parse_by_path = dict(prev.parse_by_path)
    for path in removed_paths:
        units.pop(path, None)
        parse_by_path.pop(path, None)
    changed_units = list(changed_units)
    for u in changed_units:
        units[u.path] = u
    parse_by_path.update(_group_parse_diags(changed_units, parse_diags))

    old = prev.resolved
    resolved, _ = resolve(units.values(), prev=old, in_edges=prev.graph.by_target)
    seeds = changed_element_ids(old, resolved)
    touched = resolved.touched
    # dirty: ids whose meaning may differ (the VM's reload drops them);
    # recheck: ids whose diagnostics may differ. What only property-table
    # seeds reach is rechecked where it writes a changed name, since
    # validation reads another class's properties by the names an element
    # assigns or declares and nothing else of them. A widened resolve keeps
    # the full fan-out.
    narrow, names = _property_changes(old, resolved, seeds) if touched is not None else (set(), set())
    wide = seeds - narrow
    dirty = set(seeds)
    # the previous graph's reverse index is built first, so a patch keeps it
    dirty |= prev.graph.closure(wide, reverse=True)
    reached = prev.graph.closure(narrow, reverse=True)
    if touched is None:
        graph = build_dependency_graph(resolved)
        graph_diags = tuple(_injection_cycle_diags(resolved, graph))
    else:
        # only the touched ids' out-edges can differ, and only the seeds'
        # while the id set stays the same
        gone = {e for e in touched if e not in resolved.elements}
        new = {e for e in touched if e not in old.elements}
        rederived = touched if gone or new else seeds
        out = element_edges(resolved, [e for e in rederived if e not in gone])
        out.update(dict.fromkeys(gone, ()))
        graph = prev.graph.patched(out, gone, new)
        graph_diags = _refolded_cycle_diags(prev.graph_diags, resolved, prev.graph, graph, out, seeds)
    if graph is not prev.graph:
        dirty |= graph.closure(wide, reverse=True)
        reached |= graph.closure(narrow, reverse=True)
    elements = resolved.elements
    recheck = dirty | {e for e in reached - dirty if e in elements and _writes(elements[e].decl, names)}
    dirty |= reached

    validate_by_element = dict(prev.validate_by_element)
    recompiled = recheck & elements.keys()
    for eid in recheck:
        diags = validate_element(resolved, eid) if eid in recompiled else None
        if diags:
            validate_by_element[eid] = tuple(diags)
        else:
            validate_by_element.pop(eid, None)

    if manifest is None:
        conf = ()
    elif touched is None or manifest != prev.manifest:
        conf = tuple(check_conformance(resolved, manifest))
    else:
        # only the touched classes and the manifest entries naming them
        names = {eid.render() for eid in touched if manifest.get(eid.render()) is not None}
        stale = {_orphan_warning(manifest, name, flag) for name in names for flag in (False, True)}
        conf = tuple(d for d in prev.conformance_diags if d.element not in touched and d not in stale)
        conf += tuple(check_conformance(resolved, manifest, touched))
    state = CompileState(
        units=units,
        parse_by_path=parse_by_path,
        resolved=resolved,
        graph=graph,
        validate_by_element=validate_by_element,
        graph_diags=graph_diags,
        conformance_diags=conf,
        manifest=manifest,
        folded_from=prev.token,
        dirty=frozenset(dirty),
    )
    return state, recompiled, state.all_diagnostics()


# ---------------------------------------------------------------------------
# State persistence

_STATE_MAGIC = b"MTALKST6\n"
STATE_FILENAME = "state.bin"


@contextmanager
def _collector_paused():
    """The cyclic collector off for one bulk pickle pass, then as it was: a
    state is one long-lived graph, which collections would walk and not free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def save_state(state: CompileState, state_dir) -> Path:
    d = Path(state_dir)
    d.mkdir(parents=True, exist_ok=True)
    target = d / STATE_FILENAME
    tmp = target.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(_STATE_MAGIC)
        with _collector_paused():
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(target)
    return target


def load_state(state_dir) -> CompileState | None:
    """Best effort: anything unusable means 'no cached state'."""
    target = Path(state_dir) / STATE_FILENAME
    try:
        with open(target, "rb") as fh:
            if fh.read(len(_STATE_MAGIC)) != _STATE_MAGIC:
                return None
            with _collector_paused():
                state = pickle.load(fh)
    except Exception:
        return None
    return state if isinstance(state, CompileState) else None
