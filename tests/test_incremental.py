"""Incremental recompilation: dirty seeds, reverse closure, equivalence, state cache."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from mtalk import compiler
from mtalk.compiler import (
    _STATE_MAGIC,
    STATE_FILENAME,
    changed_element_ids,
    compile_model,
    compile_workspace,
    incremental_compile,
    load_state,
    save_state,
)
from mtalk.ids import ElementId
from mtalk.source import parse_unit
from mtalk.synthetic import BenchmarkSpec, generate_synthetic

from golden import GOLDEN_UNITS, compile_golden


def eid(render):
    return ElementId.parse(render, "")


def parse_clean(text, path):
    unit, diags = parse_unit(text, path)
    assert diags == [], [d.render() for d in diags]
    return unit


def golden_state():
    state, diags = compile_golden()
    assert diags == []
    return state


def renders(ids):
    return sorted(i.render() for i in ids)


# ---------------------------------------------------------------------------
# Seeds


def test_no_change_produces_no_seeds():
    state = golden_state()
    # reparse identical text: same decl values, so no seeds
    unit = parse_clean(GOLDEN_UNITS["caches.model.xml"], "caches.model.xml")
    new, recompiled, diags = incremental_compile(state, [unit])
    assert recompiled == set()
    assert diags == []
    assert new.resolved.elements.keys() == state.resolved.elements.keys()


def test_changed_element_ids_detects_value_edit():
    state = golden_state()
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<timeout>2</timeout>", "<timeout>9</timeout>"
    )
    unit = parse_clean(edited, "core.model.xml")
    new_resolved, _ = __import__("mtalk.kernel", fromlist=["resolve"]).resolve(
        [unit] + [parse_clean(t, p) for p, t in GOLDEN_UNITS.items() if p != "core.model.xml"]
    )
    seeds = changed_element_ids(state.resolved, new_resolved)
    assert eid("FastHTTP_Client") in seeds


def test_value_edit_recompiles_dependents_only():
    state = golden_state()
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<timeout>2</timeout>", "<timeout>3</timeout>"
    )
    unit = parse_clean(edited, "core.model.xml")
    _, recompiled, diags = incremental_compile(state, [unit])
    assert diags == []
    # FastHTTP_Client changed; its dependents follow; nothing else does
    assert renders(recompiled) == [
        "CNN_NewsRetriever",
        "FastHTTP_Client",
        "PontisLogoRetriever",
    ]


def test_class_edit_recompiles_whole_subtree():
    state = golden_state()
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<name>timeout</name>", "<name>timeoutSeconds</name>"
    )
    unit = parse_clean(edited, "core.model.xml")
    _, recompiled, _ = incremental_compile(state, [unit])
    # every element that depends on HTTP_Client must be revalidated
    for expect in (
        "HTTP_Client",
        "NewsRetriever",
        "PictureRetriever",
        "StockQuoteRetriever",
        "CNN_NewsRetriever",
        "PontisLogoRetriever",
        "LogoPictureRetriever",
        "RobustHTTP_Client",
        "FastHTTP_Client",
        "BankBalanceRetriever",
    ):
        assert eid(expect) in recompiled, expect
    assert eid("CacheManager") not in recompiled
    assert eid("MetaCache") not in recompiled


def test_length_changing_edit_dirties_shifted_beans():
    # spans are part of a declaration, so moving later beans re-seeds them
    state = golden_state()
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<timeout>2</timeout>", "<timeout>2000</timeout>"
    )
    unit = parse_clean(edited, "core.model.xml")
    _, recompiled, diags = incremental_compile(state, [unit])
    assert diags == []
    assert eid("FastHTTP_Client") in recompiled
    # PontisLogoRetriever sits below the edit in the same file: span shifted
    assert eid("PontisLogoRetriever") in recompiled


# ---------------------------------------------------------------------------
# Equivalence with a full compile


def assert_equivalent(inc_state, units_by_path, manifest=None):
    full_state, full_diags = compile_model(list(units_by_path.values()), manifest)
    assert [d.render() for d in inc_state.all_diagnostics()] == [
        d.render() for d in full_diags
    ]
    assert inc_state.resolved.elements.keys() == full_state.resolved.elements.keys()
    for k in inc_state.resolved.elements:
        assert inc_state.resolved.elements[k].kind == full_state.resolved.elements[k].kind
    assert inc_state.graph.edges == full_state.graph.edges


def test_error_introduction_and_clearing():
    state = golden_state()
    units = dict(GOLDEN_UNITS)

    # introduce a type error in secured.model.xml
    broken = units["secured.model.xml"].replace('class="SecuredCacheManager"', 'class="StandardCache"')
    unit = parse_clean(broken, "secured.model.xml")
    state2, recompiled2, diags2 = incremental_compile(state, [unit])
    assert renders(recompiled2) == ["BankBalanceRetriever"]
    assert len(diags2) == 1 and diags2[0].code == "E003"
    units2 = {p: parse_clean(t if p != "secured.model.xml" else broken, p) for p, t in units.items()}
    assert_equivalent(state2, units2)

    # revert: error clears, again only that bean recompiles
    unit3 = parse_clean(units["secured.model.xml"], "secured.model.xml")
    state3, recompiled3, diags3 = incremental_compile(state2, [unit3])
    assert renders(recompiled3) == ["BankBalanceRetriever"]
    assert diags3 == []


def test_untouched_errors_carried_without_revalidation():
    units = dict(GOLDEN_UNITS)
    units["broken.model.xml"] = '<model xmlns="b"><bean id="X" class="Ghost"/></model>'
    parsed = {p: parse_clean(t, p) for p, t in units.items()}
    state, diags = compile_model(parsed.values())
    assert [d.code for d in diags] == ["E001"]

    # edit an unrelated unit: the E001 must survive verbatim
    edited = units["caches.model.xml"].replace(
        'id="StandardCache"', 'id="StandardCache" abstract="false"'
    )
    unit = parse_clean(edited, "caches.model.xml")
    state2, recompiled, diags2 = incremental_compile(state, [unit])
    assert eid("b:X") not in recompiled
    assert [d.render() for d in diags2] == [d.render() for d in diags]


def test_unit_addition():
    state = golden_state()
    extra = parse_clean(
        '<model xmlns="x"><bean id="Extra" class="MetaCache" declarative="true"/></model>',
        "extra.model.xml",
    )
    state2, recompiled, diags = incremental_compile(state, [extra])
    assert diags == []
    assert eid("x:Extra") in recompiled
    assert "extra.model.xml" in state2.units
    units = dict(GOLDEN_UNITS)
    parsed = {p: parse_clean(t, p) for p, t in units.items()}
    parsed["extra.model.xml"] = extra
    assert_equivalent(state2, parsed)


def test_unit_removal_breaks_dependents():
    state = golden_state()
    state2, recompiled, diags = incremental_compile(
        state, [], removed_paths=["caches.model.xml"]
    )
    # cache classes vanished: metaclass property types and inline beans break
    assert eid("MetaCache") in recompiled
    assert any(d.code in ("E001", "E012") for d in diags)
    assert "caches.model.xml" not in state2.units
    parsed = {p: parse_clean(t, p) for p, t in GOLDEN_UNITS.items() if p != "caches.model.xml"}
    assert_equivalent(state2, parsed)


def test_readding_removed_unit_restores_clean_state():
    state = golden_state()
    state2, _, _ = incremental_compile(state, [], removed_paths=["caches.model.xml"])
    unit = parse_clean(GOLDEN_UNITS["caches.model.xml"], "caches.model.xml")
    state3, _, diags3 = incremental_compile(state2, [unit])
    assert diags3 == []


def test_incremental_with_parse_errors():
    state = golden_state()
    bad_text = '<model xmlns="p"><bean id="Ok" class="MetaCache" declarative="true"/><bean id="broken"</model>'
    unit, pdiags = parse_unit(bad_text, "partial.model.xml")
    assert pdiags != []
    state2, _, diags = incremental_compile(state, [unit], parse_diags=pdiags)
    assert any(d.code == "E000" for d in diags)
    # parse diags are tied to the unit and replaced wholesale on the next edit
    unit3 = parse_clean(
        '<model xmlns="p"><bean id="Ok" class="MetaCache" declarative="true"/></model>',
        "partial.model.xml",
    )
    _, _, diags3 = incremental_compile(state2, [unit3])
    assert diags3 == []


def test_manifest_from_argument_not_prior_state():
    from mtalk.native import parse_manifest

    state = golden_state()
    mani = parse_manifest('{"classes": [{"name": "Phantom", "fields": []}]}', "manifest.json")
    _, _, diags = incremental_compile(state, [], manifest=mani)
    assert any(d.code == "W001" for d in diags)
    # omitting the manifest drops conformance checking entirely
    _, _, diags2 = incremental_compile(state, [])
    assert diags2 == []


def test_cross_unit_duplicate_clears_when_the_first_unit_drops_it(tmp_path):
    thing = '<model>\n  <bean id="Thing" class="Class"/>\n</model>\n'
    (tmp_path / "a.model.xml").write_text(thing, encoding="utf-8")
    (tmp_path / "b.model.xml").write_text(thing, encoding="utf-8")
    state, diags = compile_workspace(tmp_path)
    assert [(d.code, d.span.path) for d in diags] == [("E008", "b.model.xml")]
    renamed = thing.replace('id="Thing"', 'id="Other"')
    state, _, diags = incremental_compile(state, [parse_clean(renamed, "a.model.xml")])
    (tmp_path / "a.model.xml").write_text(renamed, encoding="utf-8")
    assert compile_workspace(tmp_path)[1] == []
    assert diags == []


# ---------------------------------------------------------------------------
# State persistence


def test_state_roundtrip(tmp_path):
    state = golden_state()
    target = save_state(state, tmp_path / "cache")
    assert target.name == STATE_FILENAME
    loaded = load_state(tmp_path / "cache")
    assert loaded is not None
    assert loaded.content_hash_by_unit() == state.content_hash_by_unit()
    assert [d.render() for d in loaded.all_diagnostics()] == []
    # the reloaded state keeps working incrementally
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<timeout>2</timeout>", "<timeout>4</timeout>"
    )
    unit = parse_clean(edited, "core.model.xml")
    _, recompiled, diags = incremental_compile(loaded, [unit])
    assert diags == []
    assert eid("FastHTTP_Client") in recompiled


def test_compiled_state_holds_no_ref_sites():
    # rename derives ref sites from the unit text; a state must not carry them
    state = golden_state()
    assert state.units["core.model.xml"].ref_sites
    assert b"RefSite" not in pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def test_load_state_rejects_garbage(tmp_path):
    d = tmp_path / "cache"
    d.mkdir()
    (d / STATE_FILENAME).write_bytes(b"not a state file")
    assert load_state(d) is None
    (d / STATE_FILENAME).write_bytes(_STATE_MAGIC + pickle.dumps({"not": "a state"}))
    assert load_state(d) is None
    assert load_state(tmp_path / "missing") is None


# ---------------------------------------------------------------------------
# Folds that keep every element id and kind patch the graph and keep the
# injection-cycle report


def test_same_shape_folds_neither_rebuild_the_graph_nor_rerun_cycles(tmp_path, monkeypatch):
    root = tmp_path / "ws"
    generate_synthetic(BenchmarkSpec(40, 3, 2.5, 2, 13), str(root))
    state, diags = compile_workspace(root)
    assert diags == []
    calls = {"build_dependency_graph": 0, "_injection_cycle_diags": 0}
    for name in calls:
        def counted(*args, _fn=getattr(compiler, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(compiler, name, counted)

    path = "classes_000.model.xml"
    text = (root / path).read_text(encoding="utf-8")
    edits = {
        "value": text.replace("<m000>129</m000>", "<m000>130</m000>", 1),
        "shift": text.replace("<model>\n", "<model>\n\n", 1),
        "comment": text.replace("<model>\n", "<model>\n  <!-- saved -->\n", 1),
        "class": text.replace("<type>Double</type>", "<type>String</type>", 1),
    }
    others = [parse_clean((root / p).read_text(encoding="utf-8"), p)
              for p in ("classes_001.model.xml", "meta.model.xml")]
    for kind, edited in edits.items():
        assert edited != text, kind
        unit = parse_clean(edited, path)
        calls.update(dict.fromkeys(calls, 0))
        new, recompiled, diags = incremental_compile(state, [unit])
        assert calls == {"build_dependency_graph": 0, "_injection_cycle_diags": 0}, kind
        if kind == "value":
            assert new.graph is state.graph and eid("C0001") in recompiled
        full, full_diags = compile_model([unit, *others])
        assert diags == full_diags == []
        assert new.graph.nodes == full.graph.nodes and new.graph.edges == full.graph.edges
        state = new

    # a fold that adds an element rebuilds both
    extra = parse_clean('<model xmlns="x"><bean id="X" class="C0000"/></model>', "x.model.xml")
    calls.update(dict.fromkeys(calls, 0))
    incremental_compile(state, [extra])
    assert calls == {"build_dependency_graph": 1, "_injection_cycle_diags": 1}


def test_value_fold_keeps_untouched_resolved_elements_and_class_defs(tmp_path):
    root = tmp_path / "ws"
    generate_synthetic(BenchmarkSpec(40, 3, 2.5, 2, 13), str(root))
    state, diags = compile_workspace(root)
    assert diags == []
    path = "classes_000.model.xml"
    text = (root / path).read_text(encoding="utf-8")
    unit = parse_clean(text.replace("<m000>129</m000>", "<m000>130</m000>", 1), path)
    new, recompiled, diags = incremental_compile(state, [unit])
    assert diags == [] and eid("C0001") in recompiled
    before, after = state.resolved, new.resolved
    untouched = [e for e, entry in before.elements.items() if entry.unit_path != path]
    assert len(untouched) < len(before.elements)
    assert sum(e in before.classes for e in untouched) > 10
    for e in untouched:
        assert after.elements[e] is before.elements[e], e
        if e in before.classes:
            assert after.classes[e] is before.classes[e], e
    # the edited unit's elements take its new declarations
    for decl in unit.beans:
        assert after.elements[decl.id].decl is decl


# ---------------------------------------------------------------------------
# Property: any edit sequence matches a from-scratch compile

_CYCLE_ACYCLIC = """\
<model xmlns="cy">
  <bean id="Node" class="Class">
    <properties><property><name>next</name><type>Node</type></property></properties>
  </bean>
  <bean id="A" class="Node"><next ref="B"/></bean>
  <bean id="B" class="Node"/>
</model>
"""
_CYCLE_CLOSED = _CYCLE_ACYCLIC.replace('<bean id="B" class="Node"/>', '<bean id="B" class="Node"><next ref="A"/></bean>')
_NS_USER = '<model xmlns="ns"><bean id="User" class="StandardCache"><timeToLive>5</timeToLive></bean></model>'
# a class whose metaclass and parent fall back to root until ns declares them
_NS_CLASS = '<model xmlns="ns"><bean id="Sub" class="MetaCache" parent="CacheManager" declarative="true"/></model>'
_NS_CAPTURE_META = (
    '<model xmlns="ns"><bean id="MetaCache" class="Class" parent="Class" declarative="true"/></model>'
)
_NS_CAPTURE_PARENT = '<model xmlns="ns"><bean id="CacheManager" class="Class" declarative="true"/></model>'

# per unit path, the texts an edit may write; None removes the unit
_VARIANTS = {
    "core.model.xml": [
        GOLDEN_UNITS["core.model.xml"],
        # line shift: every bean of the unit moves down
        GOLDEN_UNITS["core.model.xml"].replace("<model>\n", "<model>\n\n", 1),
        # MetaCache stops being a metaclass, so the beans of class MetaCache
        # turn from classes into instances without a change of their own
        GOLDEN_UNITS["core.model.xml"].replace(
            '<bean id="MetaCache" class="Class" parent="Class">', '<bean id="MetaCache" class="Class">'
        ),
    ],
    "caches.model.xml": [
        GOLDEN_UNITS["caches.model.xml"],
        GOLDEN_UNITS["caches.model.xml"].replace(
            "<name>timeToLive</name>", "<name>ttl</name>"
        ),
        GOLDEN_UNITS["caches.model.xml"].replace(
            'id="SecuredCacheManager" class="Class" parent="CacheManager"',
            'id="SecuredCacheManager" class="Class"',
        ),
        # a class becomes an instance
        GOLDEN_UNITS["caches.model.xml"].replace(
            '<bean id="StandardCache" class="Class" parent="CacheManager"/>',
            '<bean id="StandardCache" class="CacheManager"/>',
        ),
    ],
    "secured.model.xml": [
        GOLDEN_UNITS["secured.model.xml"],
        GOLDEN_UNITS["secured.model.xml"].replace(
            "<timeToLive>10</timeToLive>", "<timeToLive>99</timeToLive>"
        ),
        GOLDEN_UNITS["secured.model.xml"].replace(
            'class="SecuredCacheManager"', 'class="StandardCache"'
        ),
        # a declarative class turns native: it gains a manifest node
        GOLDEN_UNITS["secured.model.xml"].replace(
            'parent="HTTP_Client" declarative="true"', 'parent="HTTP_Client"'
        ),
    ],
    "pictures.model.xml": [
        GOLDEN_UNITS["pictures.model.xml"],
        GOLDEN_UNITS["pictures.model.xml"].replace(
            'parent="RobustHTTP_Client"', 'parent="FastHTTP_Client"'
        ),
        '<model xmlns=""><bean id="LogoPictureRetriever" class="Nowhere"/></model>',
        None,
    ],
    # ns:User names StandardCache, which falls back to the root class until
    # a unit declares ns:StandardCache
    "ns_user.model.xml": [None, _NS_USER, _NS_USER.replace(">5<", ">soon<")],
    "ns_capture.model.xml": [
        None,
        '<model xmlns="ns"><bean id="StandardCache" class="Class"/></model>',
        '<model xmlns="ns"><bean id="StandardCache" class="CacheManager"/></model>',
        _NS_CAPTURE_META,
        _NS_CAPTURE_PARENT,
    ],
    "ns_class.model.xml": [None, _NS_CLASS],
    # an injection cycle made, broken, and moved by a line shift
    "cycle.model.xml": [
        None,
        _CYCLE_ACYCLIC,
        _CYCLE_CLOSED,
        _CYCLE_CLOSED.replace('  <bean id="A"', '\n  <bean id="A"'),
    ],
}
_EDITS = [(path, i) for path, texts in _VARIANTS.items() for i in range(len(texts))]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=6))
def test_incremental_equals_full_for_edit_sequences(steps):
    current = dict(GOLDEN_UNITS)
    state, _ = compile_golden()
    for path, variant in steps:
        text = _VARIANTS[path][variant]
        if text is None:
            current.pop(path, None)
            state, _, inc_diags = incremental_compile(state, [], removed_paths=[path])
        else:
            current[path] = text
            unit, pdiags = parse_unit(text, path)
            state, _, inc_diags = incremental_compile(state, [unit], parse_diags=pdiags)
        parsed = []
        all_pdiags = []
        for p, t in current.items():
            u, pd = parse_unit(t, p)
            parsed.append(u)
            all_pdiags.extend(pd)
        full, full_diags = compile_model(parsed, parse_diags=all_pdiags)
        assert [d.render() for d in inc_diags] == [d.render() for d in full_diags]
        assert state.resolved.elements == full.resolved.elements
        assert state.resolved.classes == full.resolved.classes
        assert state.graph.nodes == full.graph.nodes
        assert state.graph.edges == full.graph.edges


def test_fold_rebinds_an_untouched_class_whose_references_are_captured():
    state, _ = compile_model([parse_clean(t, p) for p, t in GOLDEN_UNITS.items()]
                             + [parse_clean(_NS_CLASS, "ns_class.model.xml")])
    sub = eid("ns:Sub")
    assert (state.resolved.classes[sub].metaclass, state.resolved.classes[sub].parent) == (
        eid("MetaCache"), eid("CacheManager"))
    for text, bound in (
        (_NS_CAPTURE_META, (eid("ns:MetaCache"), eid("CacheManager"))),
        (_NS_CAPTURE_PARENT, (eid("MetaCache"), eid("ns:CacheManager"))),
    ):
        new, recompiled, _ = incremental_compile(state, [parse_clean(text, "ns_capture.model.xml")])
        # Sub's declaration and kind are unchanged, but a reference now binds in ns
        assert new.resolved.elements[sub] is state.resolved.elements[sub]
        assert (new.resolved.classes[sub].metaclass, new.resolved.classes[sub].parent) == bound
        assert sub in recompiled


def test_edit_variants_reach_their_cases():
    """The oracle's edits do what their comments say."""
    def diags_with(**texts):
        units = {**GOLDEN_UNITS, **texts}
        return compile_model([parse_clean(t, p) for p, t in units.items()])

    state, diags = diags_with(**{"cycle.model.xml": _CYCLE_CLOSED})
    assert {d.element.render() for d in diags if d.code == "E004"} == {"cy:A", "cy:B"}
    _, diags = diags_with(**{"cycle.model.xml": _CYCLE_ACYCLIC})
    assert diags == []
    state, diags = diags_with(**{"ns_user.model.xml": _NS_USER})
    assert diags == []
    _, captured = diags_with(**{"ns_user.model.xml": _NS_USER,
                                "ns_capture.model.xml": _VARIANTS["ns_capture.model.xml"][1]})
    assert [d.code for d in captured] == ["E002"]
    flipped, _ = diags_with(**{"core.model.xml": _VARIANTS["core.model.xml"][2]})
    assert flipped.resolved.kind_of(eid("HTTP_Client")) != state.resolved.kind_of(eid("HTTP_Client"))
