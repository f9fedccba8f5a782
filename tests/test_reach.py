"""The closure contract of DependencyGraph.closure, checked against a naive
walk, and DependencyGraph.patched checked against a freshly built graph."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from mtalk import graph as graphmod
from mtalk.compiler import compile_workspace
from mtalk.graph import INSTANCE_OF, NATIVE_BINDING, VALUE_REF, DependencyGraph, Edge, manifest_node
from mtalk.ids import UNRESOLVED, ElementId
from mtalk.synthetic import BenchmarkSpec, generate_synthetic


def node(i: int) -> ElementId:
    return ElementId("g", f"n{i}")


def make_graph(n: int, pairs, extra=()) -> DependencyGraph:
    """A value-ref edge per pair of nodes 0..n-1, plus the extra edges."""
    return DependencyGraph([Edge(node(a), node(b), VALUE_REF) for a, b in pairs] + list(extra))


def reach(n, pairs, seeds, reverse=False) -> set[int]:
    found = make_graph(n, pairs).closure([node(s) for s in seeds], reverse=reverse)
    return {int(e.local[1:]) for e in found}


def naive_reach(edges, seeds, reverse=False) -> set:
    """Reference: grow the reached set until no edge leaves it."""
    found = set(seeds)
    while True:
        more = {
            (e.src if reverse else e.dst)
            for e in edges
            if (e.dst if reverse else e.src) in found
        } - found
        if not more:
            return found
        found |= more


def test_selected_impl_matches_environment():
    assert graphmod.REACH_IMPL == "pure"


def test_chain_reaches_downstream_only():
    assert reach(4, [(0, 1), (1, 2)], [1]) == {1, 2}


def test_chain_reverse_reaches_upstream_only():
    assert reach(4, [(0, 1), (1, 2)], [1], reverse=True) == {0, 1}


def test_seeds_are_included_even_without_edges():
    assert reach(3, [], [2]) == {2}


def test_empty_seed_set_reaches_nothing():
    assert reach(3, [(0, 1)], []) == set()


def test_a_seed_outside_the_graph_reaches_only_itself():
    g = make_graph(2, [(0, 1)])
    elsewhere = ElementId("g", "elsewhere")
    assert g.closure([elsewhere]) == {elsewhere}
    assert g.closure([elsewhere], reverse=True) == {elsewhere}
    assert g.closure([elsewhere, node(0)]) == {elsewhere, node(0), node(1)}


def test_cycle_is_fully_visited_once():
    assert reach(3, [(0, 1), (1, 2), (2, 0)], [0]) == {0, 1, 2}
    assert reach(3, [(0, 1), (1, 2), (2, 0)], [0], reverse=True) == {0, 1, 2}


def test_self_loop_and_duplicate_seeds():
    assert reach(2, [(0, 0)], [0, 0, 0]) == {0}


def test_closure_accepts_any_seed_iterable():
    g = make_graph(3, [(0, 1)])
    want = {node(0), node(1)}
    assert g.closure([node(0)]) == want
    assert g.closure({node(0)}) == want
    assert g.closure(frozenset({node(0)})) == want
    assert g.closure(s for s in [node(0)]) == want


def test_zero_node_graph():
    g = DependencyGraph([])
    assert g.nodes == {UNRESOLVED}
    assert g.closure([]) == set()
    assert g.closure([node(0)], reverse=True) == {node(0)}


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=120))
    seeds = draw(st.lists(index, max_size=n))
    return n, pairs, seeds


@settings(max_examples=150, deadline=None)
@given(random_graphs(), st.booleans())
def test_closure_matches_naive_walk_on_random_graphs(case, reverse):
    n, pairs, seeds = case
    g = make_graph(n, pairs)
    want = naive_reach(g.edges, {node(s) for s in seeds}, reverse)
    assert g.closure([node(s) for s in seeds], reverse=reverse) == want


def test_c07_reverse_closure_matches_naive_walk(tmp_path):
    root = tmp_path / "c07"
    generate_synthetic(BenchmarkSpec(4800, 200, 4.75, 4, 42), str(root))
    state, diags = compile_workspace(root)
    assert diags == []
    g = state.graph
    assert (len(g.nodes), len(g.edges)) == (25685, 51981)
    dependents: dict[ElementId, list[ElementId]] = {}
    for e in g.edges:
        dependents.setdefault(e.dst, []).append(e.src)
    for seed in (ElementId("", "Object"), ElementId("", "C0000"), ElementId("", "C2400")):
        want = {seed}
        todo = [seed]
        while todo:
            for src in dependents.get(todo.pop(), ()):
                if src not in want:
                    want.add(src)
                    todo.append(src)
        assert len(want) > 1
        assert g.closure([seed], reverse=True) == want


# ---------------------------------------------------------------------------
# patched


def stores_equal(a: dict, b: dict) -> bool:
    """Equal edge stores: the same edges under each key, none twice."""
    assert all(len(set(v)) == len(v) for v in a.values())
    return {k: Counter(v) for k, v in a.items()} == {k: Counter(v) for k, v in b.items()}


@st.composite
def patches(draw):
    """A graph, the edges a patch takes out and puts in, the sources it
    drops, and whether the by-target map is built before the patch."""
    n = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=n + 3)  # n..n+3 are new nodes
    plain = st.builds(lambda a, b, k: Edge(node(a), node(b), k), index, index, st.sampled_from((VALUE_REF, INSTANCE_OF)))
    native = st.builds(lambda a: Edge(node(a), manifest_node(node(a)), NATIVE_BINDING), index)
    old_index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(old_index, old_index), max_size=30))
    extra = draw(st.lists(plain.filter(lambda e: int(e.src.local[1:]) < n) | native.filter(lambda e: int(e.src.local[1:]) < n), max_size=15))
    graph = make_graph(n, pairs, extra)
    edges = graph.edges
    removed = draw(st.sets(st.sampled_from(sorted(edges)))) if edges else set()
    added = draw(st.sets(plain | native, max_size=12))
    gone = draw(st.sets(st.sampled_from([node(i) for i in range(n)])))
    return graph, removed, added, gone, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(patches(), st.lists(st.integers(min_value=0, max_value=15), max_size=4))
def test_patched_equals_a_freshly_built_graph(case, seeds):
    graph, removed, added, gone, built = case
    gone = {v for v in gone if not any(e.src == v for e in added)}
    after = {e for e in graph.edges - removed | added if e.src not in gone}
    fresh = DependencyGraph(after)
    # the ids a fold re-derives: every source whose edges it touched, each
    # mapped to all its out-edges after the patch
    sources = {e.src for e in removed | added} | gone
    out = {v: tuple(e for e in after if e.src == v) for v in sources}
    if built:
        graph.by_target()
    before = (graph.nodes, dict(graph.by_source), graph._by_target and dict(graph._by_target))
    patched = graph.patched(out)
    # the graph the patch started from is left as it was
    assert (graph.nodes, graph.by_source, graph._by_target and dict(graph._by_target)) == before
    assert patched.nodes == fresh.nodes
    assert stores_equal(patched.by_source, fresh.by_source)
    assert (patched._by_target is not None) == built
    if built:
        assert stores_equal(patched._by_target, fresh.by_target())
    for reverse in (False, True):
        want = fresh.closure([node(s) for s in seeds], reverse)
        assert patched.closure([node(s) for s in seeds], reverse) == want
        assert patched.closure(fresh.nodes, reverse) == fresh.closure(fresh.nodes, reverse)
