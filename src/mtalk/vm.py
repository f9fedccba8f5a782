"""Model VM: the runtime that turns compiled models into live object graphs.

Loading takes an error-free CompileState. Instances are built on demand,
one per bean id (inline beans are anonymous and fresh), with property values
injected in declared property order. A reference to a class injects the class
reified as an instance of its metaclass (its MetaView). One routine builds
and caches both, in one map keyed by element id. Native bindings are
resolved along the class lineage: a declarative class is served by its
nearest natively bound ancestor. Reload swaps the entire model snapshot in
one step: a request observes either the old model or the new one, never a
mixture. After a fold, the new snapshot keeps the objects in that map that
the fold did not touch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType

from .compiler import CompileState
from .diagnostics import Severity, has_errors
from .errors import ModelError, NotFoundError, WrongKindError
from .ids import SCALARS, ElementId
from .kernel import ElementKind, PropertyDefinition, ResolvedModel, TypeRef
from .native import NativeManifest, NativeRegistry
from .source import InlineBean, RefValue, ScalarValue, ValueExpr


class VmError(ModelError):
    pass


class LoadRefusedError(VmError):
    """The model has compile errors; the VM keeps whatever it had."""


class AbstractInstantiationError(VmError):
    """E005 at runtime: the requested bean is an abstract template."""


class InjectionError(VmError):
    """Injection hit a state only possible for unvalidated models."""


@dataclass(frozen=True)
class RuntimeInstance:
    """A materialized bean: identity, class, native binding, injected values."""

    class_id: ElementId
    bean_id: ElementId | None
    native: str | None
    values: MappingProxyType
    native_object: object = None


@dataclass(frozen=True)
class MetaView(RuntimeInstance):
    """A class reified as an instance of its metaclass.

    class_id is the metaclass; target is the class being viewed; values are
    the class-level assignments merged down the subclass chain.
    """

    target: ElementId = None  # type: ignore[assignment]


class _Snapshot:
    """One immutable world: compile state, registry, and the runtime objects
    built so far, bean instances and class MetaViews, by element id (an id
    has one kind, so the two never share a key)."""

    __slots__ = ("compiled", "model", "registry", "binds", "manifest", "built", "lock")

    def __init__(self, compiled: CompileState, registry: NativeRegistry | None):
        self.compiled = compiled
        self.model: ResolvedModel = compiled.resolved
        self.registry = registry
        self.binds = registry.binds if registry is not None else 0
        self.manifest: NativeManifest | None = (
            registry.manifest if registry is not None else compiled.manifest
        )
        self.built: dict[ElementId, RuntimeInstance] = {}
        self.lock = threading.RLock()


class VmHandle:
    """Handle to a running VM; reload swaps its snapshot atomically."""

    def __init__(self, snapshot: _Snapshot):
        self._snap = snapshot

    @property
    def compiled(self) -> CompileState:
        """The compile state the current snapshot was loaded from."""
        return self._snap.compiled


def _loadable(state, refusal: str) -> CompileState:
    """state, refused with LoadRefusedError when it has compile errors."""
    if not isinstance(state, CompileState):
        raise TypeError("expected CompileState")
    diagnostics = state.all_diagnostics()
    if has_errors(diagnostics):
        n = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
        raise LoadRefusedError(f"model has {n} compile error(s); {refusal}")
    return state


def load(compiled, registry: NativeRegistry | None = None) -> VmHandle:
    """Load the CompileState of an error-free compile."""
    return VmHandle(_Snapshot(_loadable(compiled, "refusing to load"), registry))


def reload(vm: VmHandle, compiled, registry: NativeRegistry | None = None) -> None:
    """Atomically replace the VM's model. On refusal the old model stays.

    The new snapshot starts with the old one's built map (instances and
    MetaViews alike), less the fold's dirty ids, when the new model is an
    incremental_compile fold of the loaded one, the registry and the
    manifest are the same objects, and no factory was bound since the old
    snapshot was made. Otherwise it starts empty.

    Carrying is sound because every model read that builds an instance or a
    MetaView follows a dependency edge out of its id, and the dirty set
    holds the fold's seeds with their reverse closures over the old and the
    new graph:
      - template chain (effective_values of a bean): parent-bean
      - lineage, effective properties and class-level values: subclass-of
      - property types (_build skips unresolved ones): property-type
      - value references and the instances or MetaViews they inject:
        value-ref
      - a bean's class, inline classes and a class's metaclass: instance-of
      - resolve_native: native-binding, plus the manifest-identity gate;
        the factory that builds a native object: the bind-count gate
    A reference whose lookup flips to or from the root-namespace fallback
    names an id that was added or removed, a seed, through an edge of the
    graph that holds it. So a carried object equals what the new model
    builds, and a request, which reads one snapshot, sees one model version.
    """
    compiled = _loadable(compiled, "keeping current model")
    old = vm._snap
    snap = _Snapshot(compiled, registry if registry is not None else old.registry)
    if (
        compiled.folded_from is old.compiled.token
        and snap.registry is old.registry
        and snap.binds == old.binds
        and snap.manifest is old.manifest
    ):
        with old.lock:
            snap.built = dict(old.built)
        for eid in compiled.dirty:
            snap.built.pop(eid, None)
    vm._snap = snap


# ---------------------------------------------------------------------------
# Value merging


def effective_values(vm_or_model, bean_id) -> dict[str, ValueExpr]:
    """Raw merged assignment map for a bean.

    Instance beans merge down the parent-template chain; class beans merge
    class-level assignments down the subclass chain. Nearer wins.
    """
    if isinstance(vm_or_model, VmHandle):
        model = vm_or_model._snap.model
    else:
        model = vm_or_model
    bean_id = model.resolve_id(bean_id, "bean")
    if model.elements[bean_id].kind is ElementKind.INSTANCE:
        sources = [model.elements[b].decl.assignments for b in model.template_chain(bean_id)]
    else:
        sources = [model.classes[c].class_assignments for c in model.lineage(bean_id)]
    merged: dict[str, ValueExpr] = {}
    for assignments in reversed(sources):
        for name, expr in assignments:
            merged[name] = expr
    return merged


# ---------------------------------------------------------------------------
# Instantiation


def _convert(snap: _Snapshot, expr: ValueExpr, t: TypeRef, stack: tuple):
    if t.is_builtin:
        if not isinstance(expr, ScalarValue):
            raise InjectionError(f"non-scalar value for {t.builtin} property")
        return SCALARS[t.builtin].value(expr.text)
    if isinstance(expr, RefValue):
        target = snap.model.lookup(expr.target)
        if target is None:
            raise InjectionError(f"unresolved reference '{expr.written}'")
        return _object(snap, target, stack)
    if isinstance(expr, InlineBean):
        cls = snap.model.lookup(expr.class_ref)
        if cls is None or cls not in snap.model.classes:
            raise InjectionError(f"unresolved inline class '{expr.written_class}'")
        return _build(snap, None, cls, dict(expr.assignments), stack)
    raise InjectionError(f"scalar value where {t.render()} was expected")


def _build(
    snap: _Snapshot,
    bean_id: ElementId | None,
    class_id: ElementId,
    raw: dict[str, ValueExpr],
    stack: tuple,
    target: ElementId | None = None,
) -> RuntimeInstance:
    """Inject raw into an instance of class_id: a named bean, an inline bean
    (bean_id None), or with target the MetaView of that class."""
    key = bean_id if bean_id is not None else ("inline", id(raw))
    if key in stack:
        if target is not None:
            raise InjectionError(f"injection cycle at metaview '{target.render()}'")
        raise InjectionError(f"injection cycle at '{class_id.render()}'")
    stack = stack + (key,)
    values: dict[str, object] = {}
    for p in snap.model.effective_properties(class_id):
        if p.name not in raw or p.type.is_unresolved:
            continue
        values[p.name] = _convert(snap, raw[p.name], p.type, stack)
    native = resolve_native(snap, class_id)
    native_object = None
    if native is not None and snap.registry is not None:
        factory = snap.registry.factory_for(native)
        if factory is not None:
            native_object = factory(dict(values))
    if target is None:
        return RuntimeInstance(class_id, bean_id, native, MappingProxyType(values), native_object)
    return MetaView(class_id, bean_id, native, MappingProxyType(values), native_object, target)


def _class_of(snap: _Snapshot, eid: ElementId) -> ElementId:
    """The resolved class of instance bean eid."""
    cls = snap.model.lookup(snap.model.elements[eid].decl.class_ref)
    if cls is None or cls not in snap.model.classes:
        raise InjectionError(f"bean '{eid.render()}' has no resolvable class")
    return cls


def _object(snap: _Snapshot, eid: ElementId, stack: tuple) -> RuntimeInstance:
    """The cached runtime object of eid, built on first use: a bean's
    instance of its class, or a class's MetaView, an instance of its
    metaclass that targets it."""
    cached = snap.built.get(eid)
    if cached is not None:
        return cached
    entry = snap.model.elements[eid]
    if entry.kind is ElementKind.INSTANCE:
        if entry.decl.abstract:
            raise AbstractInstantiationError(f"bean '{eid.render()}' is abstract")
        cls, target = _class_of(snap, eid), None
    else:
        cls, target = snap.model.classes[eid].metaclass, eid
        if cls is None or cls not in snap.model.classes:
            raise InjectionError(f"class '{eid.render()}' has no resolvable metaclass")
    with snap.lock:
        cached = snap.built.get(eid)
        if cached is not None:
            return cached
        obj = _build(snap, eid, cls, effective_values(snap.model, eid), stack, target)
        snap.built[eid] = obj
        return obj


# ---------------------------------------------------------------------------
# Public operations


def get_instance(vm: VmHandle, bean_id) -> RuntimeInstance:
    """The singleton runtime instance for a named instance bean."""
    snap = vm._snap  # one read: the whole request sees one snapshot
    eid = snap.model.resolve_id(bean_id, "bean")
    obj = snap.built.get(eid)
    if type(obj) is not RuntimeInstance:  # a miss, or a class's MetaView
        if obj is not None or snap.model.elements[eid].kind is not ElementKind.INSTANCE:
            raise WrongKindError(f"'{eid.render()}' is a class; request its MetaView instead")
        obj = _object(snap, eid, ())
    return obj


def get_class(vm: VmHandle, ref) -> MetaView:
    """The MetaView for a class (by id, by instance, or by instance bean id)."""
    snap = vm._snap
    if isinstance(ref, RuntimeInstance):
        class_id = ref.class_id
        if class_id not in snap.model.classes:  # an instance of an older model
            raise WrongKindError(f"'{class_id.render()}' is not a class")
    else:
        eid = snap.model.resolve_id(ref, "class")
        class_id = eid if eid in snap.model.classes else _class_of(snap, eid)
    return _object(snap, class_id, ())


def resolve_native(vm_or_snap, class_id) -> str | None:
    """Nearest natively bound class in the lineage: non-declarative and
    present in the manifest. None when the whole chain is declarative."""
    if isinstance(vm_or_snap, VmHandle):
        snap = vm_or_snap._snap
    else:
        snap = vm_or_snap
    model = snap.model
    class_id = model.resolve_id(class_id, "class")
    model.require_class(class_id)
    manifest = snap.manifest
    if manifest is None:
        return None
    for anc in model.lineage(class_id):
        cd = model.classes[anc]
        if not cd.is_declarative and manifest.get(anc.render()) is not None:
            return anc.render()
    return None


def is_instance_of(vm: VmHandle, inst: RuntimeInstance, class_ref) -> bool:
    """True when inst's class is class_ref or a subclass of it."""
    snap = vm._snap
    try:
        target = snap.model.resolve_id(class_ref, "class")
    except NotFoundError:
        return False
    if target not in snap.model.classes:
        return False
    return target in snap.model.ancestor_set(inst.class_id)


def reflect_properties(vm: VmHandle, ref) -> tuple[PropertyDefinition, ...]:
    """Effective (inherited plus own) properties of a class or an instance's class."""
    snap = vm._snap
    if isinstance(ref, RuntimeInstance):
        class_id = ref.class_id
    else:
        class_id = snap.model.resolve_id(ref, "class")
    snap.model.require_class(class_id)
    return snap.model.effective_properties(class_id)


def dump_instance(inst: RuntimeInstance) -> dict:
    """JSON-ready view: class, native binding, values in injection order."""
    values = {}
    for name, v in inst.values.items():
        values[name] = dump_instance(v) if isinstance(v, RuntimeInstance) else v
    return {"class": inst.class_id.render(), "native": inst.native, "values": values}
