"""Dependency graph derivation and closure queries."""

import pickle

from mtalk.graph import (
    INSTANCE_OF,
    MANIFEST_NS,
    NATIVE_BINDING,
    PARENT_BEAN,
    PROPERTY_TYPE,
    SUBCLASS_OF,
    VALUE_REF,
    DependencyGraph,
    Edge,
    build_dependency_graph,
    manifest_node,
)
from mtalk.ids import UNRESOLVED, ElementId
from mtalk.kernel import OBJECT_ID

from golden import compile_golden, compile_texts


def eid(render):
    return ElementId.parse(render, "")


def edges_from(graph, src):
    return {(e.dst, e.kind) for e in graph.outgoing(src)}


def golden_graph():
    state, diags = compile_golden()
    assert diags == []
    return state.graph


# ---------------------------------------------------------------------------
# Edge derivation


def test_instance_of_edges():
    g = golden_graph()
    assert (eid("HTTP_Client"), INSTANCE_OF) in edges_from(g, eid("PontisLogoRetriever"))
    assert (eid("MetaCache"), INSTANCE_OF) in edges_from(g, eid("HTTP_Client"))
    assert (eid("Class"), INSTANCE_OF) in edges_from(g, eid("MetaCache"))


def test_parent_bean_edge():
    g = golden_graph()
    assert (eid("FastHTTP_Client"), PARENT_BEAN) in edges_from(g, eid("PontisLogoRetriever"))
    assert (eid("RobustHTTP_Client"), PARENT_BEAN) in edges_from(g, eid("LogoPictureRetriever"))


def test_subclass_edges_explicit_and_implicit():
    g = golden_graph()
    assert (eid("HTTP_Client"), SUBCLASS_OF) in edges_from(g, eid("NewsRetriever"))
    # no written parent: implicit Object
    assert (OBJECT_ID, SUBCLASS_OF) in edges_from(g, eid("HTTP_Client"))


def test_property_type_edges():
    g = golden_graph()
    assert (eid("CacheManager"), PROPERTY_TYPE) in edges_from(g, eid("MetaCache"))
    assert (eid("SecuredCacheManager"), PROPERTY_TYPE) in edges_from(g, eid("MetaSecuredCache"))


def test_inline_bean_contributes_instance_of():
    g = golden_graph()
    # HTTP_Client's class-level <cache class="StandardCache"> assignment
    assert (eid("StandardCache"), INSTANCE_OF) in edges_from(g, eid("HTTP_Client"))


def test_native_binding_edges_only_for_non_declarative_classes():
    g = golden_graph()
    assert (manifest_node(eid("HTTP_Client")), NATIVE_BINDING) in edges_from(g, eid("HTTP_Client"))
    # declarative classes bind to nothing native
    assert not any(k == NATIVE_BINDING for _, k in edges_from(g, eid("NewsRetriever")))
    assert not any(k == NATIVE_BINDING for _, k in edges_from(g, eid("BankBalanceRetriever")))
    # instances never have binding edges
    assert not any(k == NATIVE_BINDING for _, k in edges_from(g, eid("PontisLogoRetriever")))


def test_manifest_node_namespace_collision_free():
    node = manifest_node(eid("HTTP_Client"))
    assert node.namespace == MANIFEST_NS
    assert node.local == "HTTP_Client"


def test_value_ref_edge():
    state, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>peer</name><type>C</type></property></properties>"
        "</bean>"
        '<bean id="A" class="C"/>'
        '<bean id="B" class="C"><peer ref="A"/></bean>'
        "</model>"
    )
    assert diags == []
    assert (eid("m:A"), VALUE_REF) in edges_from(state.graph, eid("m:B"))


def test_unresolved_reference_points_at_sentinel():
    state, _ = compile_texts(
        m='<model xmlns="m"><bean id="X" class="Ghost"/></model>'
    )
    assert (UNRESOLVED, INSTANCE_OF) in edges_from(state.graph, eid("m:X"))
    assert UNRESOLVED in state.graph.nodes


def test_pickled_graph_carries_its_edge_store_alone():
    g = golden_graph()
    g.by_target()
    rebuild, args = g.__reduce__()
    assert rebuild == DependencyGraph._of and args == (g.by_source,)
    back = pickle.loads(pickle.dumps(g))
    assert back.by_source == g.by_source
    assert (back.nodes, back.edges) == (g.nodes, g.edges)
    assert back._by_target is None


def test_incoming_is_outgoing_transposed():
    g = golden_graph()
    for e in g.edges:
        assert e in g.incoming(e.dst)
        assert e in g.outgoing(e.src)


def test_adjacency_tuples_sorted_deterministically():
    g = golden_graph()
    for n in g.nodes:
        out = g.outgoing(n)
        assert list(out) == sorted(out, key=lambda e: (e.dst.render(), e.kind))


# ---------------------------------------------------------------------------
# Closures


def test_forward_closure_collects_dependencies():
    g = golden_graph()
    deps = g.closure([eid("PontisLogoRetriever")])
    for expect in ("PontisLogoRetriever", "HTTP_Client", "FastHTTP_Client", "MetaCache", "StandardCache"):
        assert eid(expect) in deps, expect
    assert OBJECT_ID in deps


def test_reverse_closure_collects_dependents():
    g = golden_graph()
    back = g.closure([eid("HTTP_Client")], reverse=True)
    for expect in (
        "PontisLogoRetriever",
        "CNN_NewsRetriever",
        "NewsRetriever",
        "PictureRetriever",
        "StockQuoteRetriever",
        "LogoPictureRetriever",
        "RobustHTTP_Client",
        "FastHTTP_Client",
        "BankBalanceRetriever",
    ):
        assert eid(expect) in back, expect
    # caches do not depend on the client
    assert eid("CacheManager") not in back


def test_closure_includes_seeds():
    g = golden_graph()
    assert eid("Object") in g.closure([eid("Object")])


def test_closure_empty_seeds():
    g = golden_graph()
    assert g.closure([]) == set()
    # a seed that is no node reaches only itself
    assert g.closure([ElementId("zz", "NotHere")]) == {ElementId("zz", "NotHere")}


def test_closure_matches_naive_bfs():
    g = golden_graph()
    adj = {}
    for e in g.edges:
        adj.setdefault(e.src, set()).add(e.dst)
    for seed in sorted(g.nodes, key=ElementId.render):
        want = set()
        work = [seed]
        while work:
            cur = work.pop()
            if cur in want:
                continue
            want.add(cur)
            work.extend(adj.get(cur, ()))
        assert g.closure([seed]) == want, seed.render()


def test_edge_dataclass_identity():
    e1 = Edge(eid("A"), eid("B"), VALUE_REF)
    e2 = Edge(eid("A"), eid("B"), VALUE_REF)
    assert e1 == e2 and hash(e1) == hash(e2)
