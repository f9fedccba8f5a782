"""The closure contract of DependencyGraph.closure, checked against a naive walk."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mtalk import graph as graphmod
from mtalk.compiler import compile_workspace
from mtalk.graph import VALUE_REF, DependencyGraph, Edge
from mtalk.ids import ElementId
from mtalk.synthetic import BenchmarkSpec, generate_synthetic


def node(i: int) -> ElementId:
    return ElementId("g", f"n{i}")


def make_graph(n: int, pairs) -> DependencyGraph:
    return DependencyGraph(
        [node(i) for i in range(n)], [Edge(node(a), node(b), VALUE_REF) for a, b in pairs]
    )


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


def test_seeds_outside_the_graph_are_ignored():
    g = make_graph(2, [(0, 1)])
    assert g.closure([ElementId("g", "elsewhere")]) == set()
    assert g.closure([ElementId("g", "elsewhere"), node(0)]) == {node(0), node(1)}


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
    g = DependencyGraph([], [])
    assert g.closure([]) == set()
    assert g.closure([node(0)], reverse=True) == set()


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
