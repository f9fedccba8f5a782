"""Cross-model validating compiler with dependency-driven incremental builds.

A full compile resolves every element, validates each against the model, and
derives the dependency graph. An incremental compile re-validates only the
elements whose declarations changed plus everything reachable from them over
the reverse dependency graph (previous and new graphs combined); untouched
elements keep their previous diagnostics. An edit that keeps every element id
and kind patches the previous graph at the changed elements, and keeps the
previous injection-cycle report unless it changes an injection edge or
touches a reported cycle. The result is observably identical to a full
compile.
"""

from __future__ import annotations

import pickle
import re
from dataclasses import dataclass
from pathlib import Path

from . import diagnostics as dx
from .diagnostics import Diagnostic, Severity, sort_diagnostics
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
from .ids import ElementId, SourceSpan
from .kernel import (
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

LONG_MIN = -(2**63)
LONG_MAX = 2**63 - 1
_LONG_RE = re.compile(r"[+-]?[0-9]+")
_DOUBLE_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def scalar_conforms(text: str, builtin: str) -> bool:
    """Lexical conformance of literal text to a builtin scalar type."""
    if builtin == "String":
        return True
    s = text.strip()
    if builtin == "Long":
        return bool(_LONG_RE.fullmatch(s)) and LONG_MIN <= int(s) <= LONG_MAX
    if builtin == "Double":
        return bool(_DOUBLE_RE.fullmatch(s))
    if builtin == "Boolean":
        return s in ("true", "false")
    raise ValueError(f"unknown builtin '{builtin}'")


def _clip(text: str, limit: int = 40) -> str:
    text = text.strip()
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
    # parent template legality
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
    # parent chain cycle
    seen = {eid}
    cur = eid
    while True:
        pref = model.elements[cur].decl.parent_ref
        if pref is None:
            break
        nxt = model.lookup(pref)
        if nxt is None or model.elements[nxt].kind is not ElementKind.INSTANCE:
            break
        if nxt == eid:
            diags.append(dx.error(dx.CYCLE, "cycle in parent chain", decl.span, eid))
            break
        if nxt in seen:
            break
        seen.add(nxt)
        cur = nxt
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
    adj: dict[ElementId, list[tuple[ElementId, str]]] = {}
    for e in graph.edges:
        if e.kind in _INJECTION_KINDS and e.src in model.elements and e.dst in model.elements:
            adj.setdefault(e.src, []).append((e.dst, e.kind))

    # iterative Tarjan
    index: dict[ElementId, int] = {}
    low: dict[ElementId, int] = {}
    on_stack: set[ElementId] = set()
    stack: list[ElementId] = []
    counter = [0]
    components: list[list[ElementId]] = []

    def strongconnect(root: ElementId):
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w, _kind in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
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

    for v in adj:
        if v not in index:
            strongconnect(v)

    diags: list[Diagnostic] = []
    for comp in components:
        members = set(comp)
        if len(comp) == 1:
            v = comp[0]
            if not any(d == v and k == VALUE_REF for d, k in adj.get(v, ())):
                continue
        else:
            has_ref = any(
                k == VALUE_REF for v in comp for d, k in adj.get(v, ()) if d in members
            )
            if not has_ref:
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
    return diags


# ---------------------------------------------------------------------------
# Conformance against the native manifest


def check_conformance(model: ResolvedModel, manifest: NativeManifest) -> list[Diagnostic]:
    """E007/W001: non-declarative classes vs their manifest entries.

    Checks names and own fields only. Whether the native hierarchy mirrors
    the model hierarchy is not validated. Metaclasses and the kernel are
    model-side only and exempt.
    """
    diags: list[Diagnostic] = []
    mspan = SourceSpan(manifest.path, 1, 1, 1, 1)
    by_name = {eid.render(): eid for eid in model.classes}
    for eid in sorted(model.classes, key=ElementId.render):
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
    for sig in manifest.classes:
        eid = by_name.get(sig.name)
        if eid is None:
            diags.append(
                dx.warning(dx.MANIFEST_ORPHAN, f"manifest entry '{sig.name}' has no model class", mspan)
            )
        else:
            if model.classes[eid].is_declarative:
                diags.append(
                    dx.warning(
                        dx.MANIFEST_ORPHAN,
                        f"manifest entry '{sig.name}' names a declarative class",
                        mspan,
                    )
                )
    return diags


# ---------------------------------------------------------------------------
# Compile state


@dataclass(frozen=True)
class CompiledModel:
    """Queryable result of a compile: what the VM and tools consume."""

    resolved: ResolvedModel
    graph: DependencyGraph
    diagnostics: tuple[Diagnostic, ...]
    manifest: NativeManifest | None

    @property
    def error_free(self) -> bool:
        return all(d.severity is not Severity.ERROR for d in self.diagnostics)


@dataclass
class CompileState:
    """Everything needed to answer queries and recompile incrementally."""

    units: dict[str, SourceUnit]
    parse_by_path: dict[str, tuple[Diagnostic, ...]]
    resolved: ResolvedModel
    graph: DependencyGraph
    resolve_diags: tuple[Diagnostic, ...]
    validate_by_element: dict[ElementId, tuple[Diagnostic, ...]]
    graph_diags: tuple[Diagnostic, ...]
    conformance_diags: tuple[Diagnostic, ...]
    manifest: NativeManifest | None = None

    def all_diagnostics(self) -> list[Diagnostic]:
        merged: list[Diagnostic] = []
        for ds in self.parse_by_path.values():
            merged.extend(ds)
        merged.extend(self.resolve_diags)
        for ds in self.validate_by_element.values():
            merged.extend(ds)
        merged.extend(self.graph_diags)
        merged.extend(self.conformance_diags)
        return sort_diagnostics(merged)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.all_diagnostics())

    def content_hash_by_unit(self) -> dict[str, str]:
        return {path: u.content_hash for path, u in self.units.items()}

    def model(self) -> CompiledModel:
        return CompiledModel(self.resolved, self.graph, tuple(self.all_diagnostics()), self.manifest)


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
    resolved, resolve_diags = resolve(units)
    graph = build_dependency_graph(resolved)
    validate_by_element = {
        eid: tuple(validate_element(resolved, eid)) for eid in resolved.elements
    }
    graph_diags = tuple(_injection_cycle_diags(resolved, graph))
    conf = tuple(check_conformance(resolved, manifest)) if manifest is not None else ()
    state = CompileState(
        units={u.path: u for u in units},
        parse_by_path=_group_parse_diags(units, parse_diags),
        resolved=resolved,
        graph=graph,
        resolve_diags=tuple(resolve_diags),
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
    unit. A read unit whose text is unchanged is not reparsed. A path that is
    gone or unreadable counts as removed.
    """
    if paths is None:
        paths = discover_unit_paths(root)
    units, unreadable, parse_diags = read_units(root, paths if read is None else read, prev.units)
    removed = (prev.units.keys() | prev.parse_by_path.keys()) - set(paths) | set(unreadable)
    return units, sorted(removed), parse_diags


# canonical operation name; compile_model avoids shadowing the builtin inside this module
compile = compile_model  # noqa: A001


def changed_element_ids(prev: ResolvedModel, new: ResolvedModel) -> set[ElementId]:
    """Dirty seeds: every id whose winning declaration differs between models."""
    seeds: set[ElementId] = set()
    keys = set(prev.elements) | set(new.elements)
    for eid in keys:
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


def _same_shape(prev: ResolvedModel, new: ResolvedModel) -> bool:
    """Same element ids, each of the same kind. Then every reference
    resolves alike in both models, so an element's out-edges differ only
    where its declaration does."""
    if prev.elements.keys() != new.elements.keys():
        return False
    new_elements = new.elements
    return all(entry.kind is new_elements[eid].kind for eid, entry in prev.elements.items())


def _injection_edges(edges) -> set[Edge]:
    return {e for e in edges if e.kind in _INJECTION_KINDS}


def incremental_compile(
    prev: CompileState,
    changed_units,
    removed_paths=(),
    parse_diags=(),
    manifest: NativeManifest | None = None,
) -> tuple[CompileState, set[ElementId], list[Diagnostic]]:
    """Recompile after edits. changed_units are parsed units (new or updated),
    removed_paths are unit paths that no longer exist. Returns the new state,
    the set of re-validated element ids, and the full diagnostic report."""
    units = dict(prev.units)
    parse_by_path = dict(prev.parse_by_path)
    for path in removed_paths:
        units.pop(path, None)
        parse_by_path.pop(path, None)
    changed_units = list(changed_units)
    for u in changed_units:
        units[u.path] = u
        parse_by_path[u.path] = ()
    for d in parse_diags:
        parse_by_path.setdefault(d.span.path, ())
        parse_by_path[d.span.path] = parse_by_path[d.span.path] + (d,)

    resolved, resolve_diags = resolve(units.values(), prev=prev.resolved)
    seeds = changed_element_ids(prev.resolved, resolved)
    keep_cycles = False
    if _same_shape(prev.resolved, resolved):
        # only the seeds' out-edges can differ: patch the previous graph
        old_edges = element_edges(prev.resolved, seeds)
        new_edges = element_edges(resolved, seeds)
        graph = prev.graph.patched(old_edges, new_edges)
        # the injection subgraph is unchanged, and so are the spans of the
        # members of every reported cycle
        keep_cycles = _injection_edges(old_edges) == _injection_edges(new_edges) and not any(
            d.element in seeds for d in prev.graph_diags
        )
    else:
        graph = build_dependency_graph(resolved)

    dirty = set(seeds)
    dirty |= prev.graph.closure(seeds, reverse=True)
    if graph is not prev.graph:
        dirty |= graph.closure(seeds, reverse=True)

    validate_by_element: dict[ElementId, tuple[Diagnostic, ...]] = {}
    recompiled: set[ElementId] = set()
    for eid in resolved.elements:
        if eid in dirty:
            validate_by_element[eid] = tuple(validate_element(resolved, eid))
            recompiled.add(eid)
        else:
            validate_by_element[eid] = prev.validate_by_element[eid]

    if keep_cycles:
        graph_diags = prev.graph_diags
    else:
        graph_diags = tuple(_injection_cycle_diags(resolved, graph))
    conf = tuple(check_conformance(resolved, manifest)) if manifest is not None else ()
    state = CompileState(
        units=units,
        parse_by_path=parse_by_path,
        resolved=resolved,
        graph=graph,
        resolve_diags=tuple(resolve_diags),
        validate_by_element=validate_by_element,
        graph_diags=graph_diags,
        conformance_diags=conf,
        manifest=manifest,
    )
    return state, recompiled, state.all_diagnostics()


# ---------------------------------------------------------------------------
# State persistence

_STATE_MAGIC = b"MTALKST3\n"
STATE_FILENAME = "state.bin"


def save_state(state: CompileState, state_dir) -> Path:
    d = Path(state_dir)
    d.mkdir(parents=True, exist_ok=True)
    target = d / STATE_FILENAME
    tmp = target.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(_STATE_MAGIC)
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
            state = pickle.load(fh)
    except Exception:
        return None
    return state if isinstance(state, CompileState) else None
