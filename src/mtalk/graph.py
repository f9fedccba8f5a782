"""Typed dependency graph over model elements, with closure queries.

Edges capture every way one element's meaning can depend on another's.
An element's out-edges follow from its own declaration, the element-id set
and the kinds of the elements it names, so the graph keeps one edge store,
each source's tuple of out-edges, and a fold replaces only the tuples of the
ids it re-derived. The store is the whole graph: the node set, the flat
edge set and a node's sorted edges are derived when asked for; a by-target
map is built on the first reverse walk and patched from then on. One
breadth-first walk serves closures and the CLI's dependency listing.
"""

from __future__ import annotations

from typing import NamedTuple

from .ids import BUILTIN_SCALARS, UNRESOLVED, ElementId
from .kernel import ElementKind, ResolvedModel
from .source import InlineBean, RefValue

# the closure routine, named in benchmark reports: a breadth-first walk in Python
REACH_IMPL = "pure"

INSTANCE_OF = "instance-of"
SUBCLASS_OF = "subclass-of"
PARENT_BEAN = "parent-bean"
PROPERTY_TYPE = "property-type"
VALUE_REF = "value-ref"
NATIVE_BINDING = "native-binding"

# pseudo-namespace for manifest entry nodes; NUL can never appear in parsed names
MANIFEST_NS = "\x00manifest"


def manifest_node(class_id: ElementId) -> ElementId:
    return ElementId(MANIFEST_NS, class_id.render())


class Edge(NamedTuple):
    src: ElementId
    dst: ElementId
    kind: str


def breadth_first(seeds, edges_of, reverse: bool = False) -> dict[ElementId, Edge | None]:
    """Every node reachable from the seeds, in breadth-first order, mapped to
    the edge that first reached it (None for a seed). edges_of(v) gives v's
    out-edges, or its in-edges when reverse, in the order they are followed,
    or None when there are none."""
    reached = dict.fromkeys(seeds)
    end = 0 if reverse else 1
    order = list(reached)
    for v in order:  # the list grows as the walk reaches nodes
        for e in edges_of(v) or ():
            w = e[end]
            if w not in reached:
                reached[w] = e
                order.append(w)
    return reached


class DependencyGraph:
    """Immutable: each source's tuple of out-edges (no edge twice), plus a
    by-target map built on first need. The nodes are derived from them."""

    def __init__(self, edges):
        by_source: dict[ElementId, list[Edge]] = {}
        for e in dict.fromkeys(edges):
            by_source.setdefault(e.src, []).append(e)
        self.by_source: dict[ElementId, tuple[Edge, ...]] = {src: tuple(es) for src, es in by_source.items()}
        self._by_target: dict[ElementId, tuple[Edge, ...]] | None = None

    @classmethod
    def _of(cls, by_source) -> DependencyGraph:
        graph = cls.__new__(cls)
        graph.by_source, graph._by_target = by_source, None
        return graph

    def __reduce__(self):
        # the by-target map is a cache: a pickled graph holds its store only
        return DependencyGraph._of, (self.by_source,)

    @property
    def nodes(self) -> frozenset[ElementId]:
        """The sources, the edge targets and the UNRESOLVED sentinel."""
        return frozenset((*self.by_source, *(e.dst for edges in self.by_source.values() for e in edges), UNRESOLVED))

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(e for edges in self.by_source.values() for e in edges)

    def by_target(self) -> dict[ElementId, tuple[Edge, ...]]:
        if self._by_target is None:
            into: dict[ElementId, list[Edge]] = {}
            for edges in self.by_source.values():
                for e in edges:
                    into.setdefault(e.dst, []).append(e)
            self._by_target = {dst: tuple(es) for dst, es in into.items()}
        return self._by_target

    def outgoing(self, element_id: ElementId) -> tuple[Edge, ...]:
        return tuple(sorted(self.by_source.get(element_id, ()), key=lambda e: (e.dst.render(), e.kind)))

    def incoming(self, element_id: ElementId) -> tuple[Edge, ...]:
        return tuple(sorted(self.by_target().get(element_id, ()), key=lambda e: (e.src.render(), e.kind)))

    def closure(self, seeds, reverse: bool = False) -> set[ElementId]:
        """The seeds and everything reachable from them. reverse=True walks
        edges backwards: everything that depends on the seeds."""
        seeds = list(seeds)
        if not seeds:
            return set()  # builds no by-target map
        index = self.by_target() if reverse else self.by_source
        return set(breadth_first(seeds, index.get, reverse))

    def patched(self, out) -> DependencyGraph:
        """This graph with out[src] as the out-edges of each source in `out`
        (none for a source mapped to ()); the graph itself when nothing
        changes. A by-target map built so far is patched, not dropped."""
        by_source = self.by_source
        changed, removed, added = {}, [], []
        for src, edges in out.items():
            old = by_source.get(src, ())
            if edges != old:
                changed[src] = edges
                removed += set(old).difference(edges)
                added += set(edges).difference(old)
        if not changed:
            return self
        by_source = by_source.copy()  # copy() stays a block copy after deletions; {**d} and dict(d) do not
        by_source.update(changed)
        for src, edges in changed.items():
            if not edges:
                del by_source[src]
        graph = DependencyGraph._of(by_source)
        if self._by_target is not None:
            drop = set(removed)
            more: dict[ElementId, list[Edge]] = {}
            for e in added:
                more.setdefault(e.dst, []).append(e)
            into = graph._by_target = self._by_target.copy()
            for dst in {e.dst for e in removed}.union(more):
                edges = tuple(e for e in into.get(dst, ()) if e not in drop) + tuple(more.get(dst, ()))
                if edges:
                    into[dst] = edges
                else:
                    del into[dst]
        return graph


def _target(model: ResolvedModel, ref: ElementId) -> ElementId:
    found = model.lookup(ref)
    return found if found is not None else UNRESOLVED


def _value_edges(model: ResolvedModel, owner: ElementId, expr, edges: list[Edge]):
    if isinstance(expr, RefValue):
        edges.append(Edge(owner, _target(model, expr.target), VALUE_REF))
    elif isinstance(expr, InlineBean):
        edges.append(Edge(owner, _target(model, expr.class_ref), INSTANCE_OF))
        for _, inner in expr.assignments:
            _value_edges(model, owner, inner, edges)


def element_edges(model: ResolvedModel, element_ids) -> dict[ElementId, tuple[Edge, ...]]:
    """The out-edges of each of the given elements, each edge once:

      instance-of    bean -> its class (inline beans' classes included)
      subclass-of    class -> its superclass (implicit Object included)
      parent-bean    instance -> its parent template
      property-type  class -> each element its own properties' types name
      value-ref      bean -> each bean referenced by an assignment value
      native-binding non-declarative class -> its manifest entry node

    Unresolved references point at the UNRESOLVED sentinel node. Besides
    the element's own declaration, its edges depend only on which ids exist
    and on the kinds of the elements the declaration names.
    """
    out: dict[ElementId, tuple[Edge, ...]] = {}
    for eid in element_ids:
        entry = model.elements[eid]
        decl = entry.decl
        edges = [Edge(eid, _target(model, decl.class_ref), INSTANCE_OF)]
        if entry.kind is ElementKind.INSTANCE:
            if decl.parent_ref is not None:
                edges.append(Edge(eid, _target(model, decl.parent_ref), PARENT_BEAN))
        else:
            cd = model.classes[eid]
            if decl.parent_ref is not None:
                edges.append(Edge(eid, _target(model, decl.parent_ref), SUBCLASS_OF))
            elif cd.parent is not None:
                edges.append(Edge(eid, cd.parent, SUBCLASS_OF))
            for d in decl.property_defs:
                named = model.lookup(d.type_ref)
                if named is not None:
                    edges.append(Edge(eid, named, PROPERTY_TYPE))
                elif d.type_ref.local not in BUILTIN_SCALARS:
                    edges.append(Edge(eid, UNRESOLVED, PROPERTY_TYPE))
            if not cd.is_declarative:
                edges.append(Edge(eid, manifest_node(eid), NATIVE_BINDING))
        for _, expr in decl.assignments:
            _value_edges(model, eid, expr, edges)
        out[eid] = tuple(dict.fromkeys(edges))
    return out


def build_dependency_graph(model: ResolvedModel) -> DependencyGraph:
    """The out-edges of every element. Its nodes are then the elements, the
    UNRESOLVED sentinel and one manifest node per non-declarative class."""
    return DependencyGraph._of(element_edges(model, model.elements))
