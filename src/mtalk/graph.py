"""Typed dependency graph over model elements, with closure queries.

Edges capture every way one element's meaning can depend on another's.
An element's out-edges follow from its own declaration, the element-id set
and the kinds of the elements it names, so a graph can be patched one
element at a time. Closures are a plain walk over a lazily built index.
"""

from __future__ import annotations

from collections import Counter
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

EDGE_KINDS = frozenset(
    (INSTANCE_OF, SUBCLASS_OF, PARENT_BEAN, PROPERTY_TYPE, VALUE_REF, NATIVE_BINDING)
)

# pseudo-namespace for manifest entry nodes; NUL can never appear in parsed names
MANIFEST_NS = "\x00manifest"


def manifest_node(class_id: ElementId) -> ElementId:
    return ElementId(MANIFEST_NS, class_id.render())


class Edge(NamedTuple):
    src: ElementId
    dst: ElementId
    kind: str


class DependencyGraph:
    """Immutable node and edge sets plus lazily built indexes for queries."""

    def __init__(self, nodes, edges):
        self.nodes = frozenset(nodes)
        self.edges = frozenset(edges)
        self._out: dict[ElementId, tuple[Edge, ...]] | None = None
        self._in: dict[ElementId, tuple[Edge, ...]] | None = None
        self._neighbours: dict[bool, dict[ElementId, tuple[ElementId, ...]]] = {}

    def __reduce__(self):
        # the indexes are caches: a pickled graph holds its nodes and edges only
        return DependencyGraph, (self.nodes, self.edges)

    def outgoing(self, element_id: ElementId) -> tuple[Edge, ...]:
        if self._out is None:
            buckets: dict[ElementId, list[Edge]] = {}
            for e in self.edges:
                buckets.setdefault(e.src, []).append(e)
            self._out = {k: tuple(sorted(v, key=lambda e: (e.dst.render(), e.kind))) for k, v in buckets.items()}
        return self._out.get(element_id, ())

    def incoming(self, element_id: ElementId) -> tuple[Edge, ...]:
        if self._in is None:
            buckets: dict[ElementId, list[Edge]] = {}
            for e in self.edges:
                buckets.setdefault(e.dst, []).append(e)
            self._in = {k: tuple(sorted(v, key=lambda e: (e.src.render(), e.kind))) for k, v in buckets.items()}
        return self._in.get(element_id, ())

    def _index(self, reverse: bool) -> dict[ElementId, tuple[ElementId, ...]]:
        index = self._neighbours.get(reverse)
        if index is None:
            buckets: dict[ElementId, list[ElementId]] = {}
            for src, dst, _kind in self.edges:
                if reverse:
                    src, dst = dst, src
                buckets.setdefault(src, []).append(dst)
            index = self._neighbours[reverse] = {k: tuple(v) for k, v in buckets.items()}
        return index

    def closure(self, seeds, reverse: bool = False) -> set[ElementId]:
        """Elements reachable from seeds (seeds included; seeds that are not
        nodes are ignored). reverse=True walks edges backwards: everything
        that depends on the seeds."""
        nodes = self.nodes
        found = {s for s in seeds if s in nodes}
        if not found:
            return found
        index = self._index(reverse)
        frontier = list(found)
        while frontier:
            reached = []
            for v in frontier:
                for w in index.get(v, ()):
                    if w not in found:
                        found.add(w)
                        reached.append(w)
            frontier = reached
        return found

    def dependencies_of(self, element_id: ElementId) -> set[ElementId]:
        return self.closure([element_id], reverse=False)

    def dependents_of(self, element_id: ElementId) -> set[ElementId]:
        return self.closure([element_id], reverse=True)

    def patched(self, removed: set[Edge], added: set[Edge], gone=(), new=()) -> DependencyGraph:
        """This graph without the `removed` edges and the `gone` nodes, and
        with the `added` edges and the `new` nodes; the graph itself when
        nothing changes. Manifest nodes come and go with their native-binding
        edges. The neighbour indexes built so far are patched, not dropped."""
        removed, added = removed - added, added - removed
        if not removed and not added and not gone and not new:
            return self
        gone = {*gone, *(e.dst for e in removed if e.kind == NATIVE_BINDING)}
        new = {*new, *(e.dst for e in added if e.kind == NATIVE_BINDING)}
        graph = DependencyGraph(self.nodes.difference(gone).union(new), self.edges.difference(removed).union(added))
        for reverse, index in self._neighbours.items():
            graph._neighbours[reverse] = _patched_index(index, removed, added, reverse)
        return graph


def _patched_index(index, removed, added, reverse: bool) -> dict[ElementId, tuple[ElementId, ...]]:
    """A neighbour index with the removed edges taken out and the added put in."""
    delta: dict[ElementId, tuple[list[ElementId], list[ElementId]]] = {}
    for edges, side in ((removed, 0), (added, 1)):
        for src, dst, _kind in edges:
            if reverse:
                src, dst = dst, src
            delta.setdefault(src, ([], []))[side].append(dst)
    index = dict(index)
    for key, (out, into) in delta.items():
        drop = Counter(out)
        kept = []
        for v in index.get(key, ()):
            if drop[v]:
                drop[v] -= 1
            else:
                kept.append(v)
        kept += into
        if kept:
            index[key] = tuple(kept)
        else:
            index.pop(key, None)
    return index


def _target(model: ResolvedModel, ref: ElementId) -> ElementId:
    found = model.lookup(ref)
    return found if found is not None else UNRESOLVED


def _value_edges(model: ResolvedModel, owner: ElementId, expr, edges: set[Edge]):
    if isinstance(expr, RefValue):
        edges.add(Edge(owner, _target(model, expr.target), VALUE_REF))
    elif isinstance(expr, InlineBean):
        edges.add(Edge(owner, _target(model, expr.class_ref), INSTANCE_OF))
        for _, inner in expr.assignments:
            _value_edges(model, owner, inner, edges)


def element_edges(model: ResolvedModel, element_ids) -> set[Edge]:
    """Out-edges of the given elements:

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
    edges: set[Edge] = set()
    for eid in element_ids:
        entry = model.elements[eid]
        decl = entry.decl
        edges.add(Edge(eid, _target(model, decl.class_ref), INSTANCE_OF))
        if entry.kind is ElementKind.INSTANCE:
            if decl.parent_ref is not None:
                edges.add(Edge(eid, _target(model, decl.parent_ref), PARENT_BEAN))
        else:
            cd = model.classes[eid]
            if decl.parent_ref is not None:
                edges.add(Edge(eid, _target(model, decl.parent_ref), SUBCLASS_OF))
            elif cd.parent is not None:
                edges.add(Edge(eid, cd.parent, SUBCLASS_OF))
            for d in decl.property_defs:
                named = model.lookup(d.type_ref)
                if named is not None:
                    edges.add(Edge(eid, named, PROPERTY_TYPE))
                elif d.type_ref.local not in BUILTIN_SCALARS:
                    edges.add(Edge(eid, UNRESOLVED, PROPERTY_TYPE))
            if not cd.is_declarative:
                edges.add(Edge(eid, manifest_node(eid), NATIVE_BINDING))
        for _, expr in decl.assignments:
            _value_edges(model, eid, expr, edges)
    return edges


def build_dependency_graph(model: ResolvedModel) -> DependencyGraph:
    """The out-edges of every element. The nodes are the elements, the
    UNRESOLVED sentinel and one manifest node per native-binding edge."""
    edges = element_edges(model, model.elements)
    nodes = set(model.elements)
    nodes.add(UNRESOLVED)
    nodes.update(e.dst for e in edges if e.kind == NATIVE_BINDING)
    return DependencyGraph(nodes, edges)
