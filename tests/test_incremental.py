"""Incremental recompilation: dirty seeds, reverse closure, equivalence, state cache."""

import dataclasses
import gc
import importlib
import json
import os
import pickle
import pkgutil
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtalk
from mtalk import compiler, rename
from mtalk.compiler import (
    _STATE_MAGIC,
    STATE_FILENAME,
    changed_element_ids,
    compile_model,
    compile_workspace,
    incremental_compile,
    load_state,
    save_state,
    workspace_changes,
)
from mtalk.errors import CollisionError, NotFoundError
from mtalk.graph import MANIFEST_NS, DependencyGraph, manifest_node
from mtalk.ids import UNRESOLVED, ElementId
from mtalk.native import load_manifest, parse_manifest
from mtalk.source import parse_unit
from mtalk.synthetic import BenchmarkSpec, generate_synthetic
from mtalk.watch import WatchSession

from golden import CORE_XML, GOLDEN_UNITS, MANIFEST, compile_golden, write_golden


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


# every element that depends on HTTP_Client
_HTTP_SUBTREE = {eid(r) for r in (
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
)}


def test_property_edit_rechecks_the_beans_that_write_it():
    state = golden_state()
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<name>timeout</name>", "<name>timeoutSeconds</name>"
    )
    unit = parse_clean(edited, "core.model.xml")
    new, recompiled, _ = incremental_compile(state, [unit])
    # only HTTP_Client's property table changed, so only the beans that
    # assign timeout or timeoutSeconds can report something else
    assert renders(recompiled) == ["FastHTTP_Client", "HTTP_Client", "RobustHTTP_Client"]
    # every dependent may still read other values
    assert _HTTP_SUBTREE <= new.dirty
    assert eid("CacheManager") not in new.dirty
    assert eid("MetaCache") not in new.dirty


def test_class_edit_recompiles_whole_subtree():
    state = golden_state()
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        '<bean id="HTTP_Client" class="MetaCache">', '<bean id="HTTP_Client" class="MetaCache" parent="CacheManager">'
    )
    unit = parse_clean(edited, "core.model.xml")
    _, recompiled, _ = incremental_compile(state, [unit])
    # a parent change alters the lineage, so every dependent is rechecked
    assert _HTTP_SUBTREE <= recompiled
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


def test_fold_records_its_parent_and_dirty_set():
    state = golden_state()
    assert state.folded_from is None and state.dirty == frozenset()
    edited = GOLDEN_UNITS["core.model.xml"].replace("<timeout>2</timeout>", "<timeout>4</timeout>")
    state2, recompiled, _ = incremental_compile(state, [parse_clean(edited, "core.model.xml")])
    assert state2.folded_from is state.token
    assert state2.token is not state.token
    assert state2.dirty == recompiled
    model = state2.model()
    assert (model.token, model.folded_from, model.dirty) == (state2.token, state.token, state2.dirty)
    # removed ids are dirty although nothing revalidates them
    state3, recompiled3, _ = incremental_compile(state2, [], removed_paths=["caches.model.xml"])
    assert state3.folded_from is state2.token
    assert eid("StandardCache") in state3.dirty - recompiled3


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
    assert {p: u.content_hash for p, u in loaded.units.items()} == {
        p: u.content_hash for p, u in state.units.items()
    }
    assert [d.render() for d in loaded.all_diagnostics()] == []
    # the reloaded state keeps working incrementally
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<timeout>2</timeout>", "<timeout>4</timeout>"
    )
    unit = parse_clean(edited, "core.model.xml")
    _, recompiled, diags = incremental_compile(loaded, [unit])
    assert diags == []
    assert eid("FastHTTP_Client") in recompiled


def test_load_state_rejects_garbage(tmp_path):
    d = tmp_path / "cache"
    d.mkdir()
    (d / STATE_FILENAME).write_bytes(b"not a state file")
    assert load_state(d) is None
    (d / STATE_FILENAME).write_bytes(_STATE_MAGIC + pickle.dumps({"not": "a state"}))
    assert load_state(d) is None
    assert load_state(tmp_path / "missing") is None


@pytest.fixture
def collector_on():
    """GC enabled for the test, and the caller's setting restored after it."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def test_state_io_restores_the_collector(tmp_path, collector_on):
    d = tmp_path / "cache"
    save_state(golden_state(), d)
    assert gc.isenabled()
    assert load_state(d) is not None
    assert gc.isenabled()
    (d / STATE_FILENAME).write_bytes(_STATE_MAGIC + b"garbage")  # pickle.load raises
    assert load_state(d) is None
    assert gc.isenabled()
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        save_state(golden_state(), tmp_path / "file" / "cache")
    assert gc.isenabled()
    unpicklable = dataclasses.replace(golden_state(), manifest=lambda: None)
    with pytest.raises((pickle.PicklingError, AttributeError)):  # a local lambda does not pickle
        save_state(unpicklable, d)
    assert gc.isenabled()


def test_state_io_leaves_a_disabled_collector_disabled(tmp_path, collector_on):
    d = tmp_path / "cache"
    gc.disable()
    save_state(golden_state(), d)
    assert not gc.isenabled()
    assert load_state(d) is not None
    assert not gc.isenabled()
    (d / STATE_FILENAME).write_bytes(_STATE_MAGIC + b"garbage")
    assert load_state(d) is None
    assert not gc.isenabled()


def record_classes():
    """Every frozen slotted dataclass defined in the mtalk package."""
    found = []
    for info in pkgutil.iter_modules(mtalk.__path__):
        module = importlib.import_module(f"mtalk.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                    and cls.__dataclass_params__.frozen and "__slots__" in vars(cls)):
                found.append(cls)
    return found


def test_every_record_pickles_as_its_field_tuple():
    # a record pickled through the dataclass's __getstate__ calls fields() per object
    classes = record_classes()
    assert {c.__name__ for c in classes} >= {"SourceSpan", "BeanDecl", "ResolvedElement", "Diagnostic", "ScalarValue"}
    for cls in classes:
        assert "__reduce__" in vars(cls), cls
        obj = object.__new__(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        for i, name in enumerate(names):
            object.__setattr__(obj, name, f"value {i}")
        assert obj.__reduce__() == (cls, tuple(f"value {i}" for i in range(len(names)))), cls


def states_with_diagnostics(tmp_path):
    broken, parse_diags = parse_unit(
        '<model><bean id="Orphan" class="NoSuchClass"><x>1</x></bean><bean id="Orphan" class="Object"/>\n',
        "broken.model.xml")
    units = [parse_clean(text, path) for path, text in GOLDEN_UNITS.items()]
    golden, diags = compile_model([*units, broken], parse_manifest(json.dumps(MANIFEST), "manifest.json"), parse_diags)
    assert {d.code for d in diags} >= {"E000", "E001", "E008"} and any(d.element for d in diags)
    generate_synthetic(BenchmarkSpec(40, 3, 2.5, 2, 13), str(tmp_path / "ws"))
    synthetic, _ = compile_workspace(tmp_path / "ws")
    return golden, synthetic


def assert_same_state(loaded, state):
    assert loaded is not None
    assert [d.to_dict() for d in loaded.all_diagnostics()] == [d.to_dict() for d in state.all_diagnostics()]
    assert loaded.resolved.elements == state.resolved.elements
    assert loaded.units == state.units
    assert loaded.graph.by_source == state.graph.by_source
    assert loaded.manifest == state.manifest


def test_states_round_trip_equal(tmp_path):
    for state in states_with_diagnostics(tmp_path):
        save_state(state, tmp_path / "cache")
        assert_same_state(load_state(tmp_path / "cache"), state)


def test_a_state_pickled_through_getstate_still_loads(tmp_path, monkeypatch):
    golden, _ = states_with_diagnostics(tmp_path)
    new = save_state(golden, tmp_path / "new").read_bytes()
    for cls in record_classes():
        monkeypatch.delattr(cls, "__reduce__")
    old = save_state(golden, tmp_path / "old").read_bytes()
    monkeypatch.undo()
    assert old.startswith(_STATE_MAGIC) and old != new
    assert_same_state(load_state(tmp_path / "old"), golden)


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

    # a fold that adds an element no other unit can name patches the graph too
    extra = parse_clean('<model xmlns="x"><bean id="X" class="C0000"/></model>', "x.model.xml")
    calls.update(dict.fromkeys(calls, 0))
    new, recompiled, diags = incremental_compile(state, [extra])
    assert calls == {"build_dependency_graph": 0, "_injection_cycle_diags": 0}
    assert new.resolved.touched == {eid("x:X")} and recompiled == {eid("x:X")}
    full, full_diags = compile_model([unit, *others, extra])
    assert diags == full_diags == []
    assert new.graph.nodes == full.graph.nodes and new.graph.edges == full.graph.edges

    # a unit whose ids capture references written elsewhere widens to every id
    state, _ = compile_model([parse_clean(t, p) for p, t in GOLDEN_UNITS.items()]
                             + [parse_clean(_NS_CLASS, "ns_class.model.xml")])
    for capture in (_NS_CAPTURE_META, _NS_CAPTURE_PARENT):
        calls.update(dict.fromkeys(calls, 0))
        new, _, _ = incremental_compile(state, [parse_clean(capture, "ns_capture.model.xml")])
        assert new.resolved.touched is None
        assert calls == {"build_dependency_graph": 1, "_injection_cycle_diags": 1}


def _clean_fold_steps(root):
    """A compiled synthetic workspace and a seeded script of clean folds over
    it: a value edit, a class retype, a unit add and remove, and a rename
    there and back. Returns (state, manifest, texts, steps); each step is
    (kind, edit, removed), where edit(state) gives the edited unit texts."""
    generate_synthetic(BenchmarkSpec(60, 3, 2.5, 2, 17), str(root))
    manifest = load_manifest(root / "manifest.json")
    state, diags = compile_workspace(root, manifest)
    assert diags == []
    texts = {p.name: p.read_text(encoding="utf-8") for p in root.glob("*.model.xml")}
    model = state.resolved

    # a declarative class with a scalar property, retyped to String: every value still conforms
    cls = next(c for c in sorted(model.classes, key=ElementId.render)
               if model.classes[c].is_declarative and c not in model.kernel_ids
               and any(p.type.builtin in ("Long", "Double") for p in model.classes[c].own_properties))
    cpath = model.elements[cls].unit_path
    ctext = texts[cpath]
    at = ctext.index(f'<bean id="{cls.local}"')
    typed = min(i for i in (ctext.find("<type>Long</type>", at), ctext.find("<type>Double</type>", at)) if i >= 0)
    retyped = ctext[:typed] + "<type>String</type>" + ctext[ctext.index("</type>", typed) + len("</type>"):]
    vtext = texts["classes_000.model.xml"]
    m = re.search(r"<(p\d+_\d+)>(\d+)</\1>", vtext)
    value = vtext[:m.start(2)] + str(int(m.group(2)) + 1) + vtext[m.end(2):]
    # a declarative class named from several units and by no native field
    native_types = {p.type.class_id for cd in model.classes.values() if not cd.is_declarative
                    for p in cd.own_properties}
    old = next(c for c in sorted(model.classes, key=ElementId.render)
               if model.classes[c].is_declarative and c not in model.kernel_ids and c not in native_types
               and len({model.elements[e.src].unit_path for e in state.graph.incoming(c)}) >= 2)
    extra = '<model>\n  <bean id="Extra" class="C0003"/>\n</model>\n'

    def renamed(st, a, b):
        patchset, warnings = rename.rename_element(st, a, b)
        assert warnings == [] and len(patchset.paths()) >= 2
        return {p: rename._patched_text(texts[p], [x for x in patchset.patches if x.path == p])
                for p in patchset.paths()}

    steps = [
        ("value", lambda st: {"classes_000.model.xml": value}, ()),
        ("class", lambda st: {cpath: retyped}, ()),
        ("unit add", lambda st: {"extra.model.xml": extra}, ()),
        ("unit remove", lambda st: {}, ("extra.model.xml",)),
        ("rename", lambda st: renamed(st, old.local, old.local + "_rn"), ()),
        ("rename back", lambda st: renamed(st, old.local + "_rn", old.local), ()),
    ]
    return state, manifest, texts, steps


def test_clean_folds_never_derive_every_id_rebuild_the_graph_or_rerun_all_cycles(tmp_path, monkeypatch):
    state, manifest, texts, steps = _clean_fold_steps(tmp_path / "ws")
    calls = {"build_dependency_graph": 0, "_injection_cycle_diags": 0}
    for name in calls:
        def counted(*args, _fn=getattr(compiler, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(compiler, name, counted)
    for kind, edit, removed in steps:
        edited = edit(state)
        assert edited or removed, kind
        calls.update(dict.fromkeys(calls, 0))
        new, _, diags = incremental_compile(
            state, [parse_clean(t, p) for p, t in edited.items()], removed_paths=list(removed), manifest=manifest
        )
        assert calls == {"build_dependency_graph": 0, "_injection_cycle_diags": 0}, kind
        assert new.resolved.touched and new.dirty, kind
        texts.update(edited)
        for p in removed:
            del texts[p]
        full, full_diags = compile_model([parse_clean(t, p) for p, t in texts.items()], manifest)
        assert diags == full_diags == [], kind
        assert new.graph.nodes == full.graph.nodes and new.graph.edges == full.graph.edges, kind
        state = new


def test_patched_neighbour_indexes_equal_freshly_built_ones(tmp_path):
    state, manifest, texts, steps = _clean_fold_steps(tmp_path / "ws")
    patched_folds = []
    for kind, edit, removed in steps:
        # build the by-target map, so the fold patches it
        state.graph.by_target()
        edited = edit(state)
        new, _, diags = incremental_compile(
            state, [parse_clean(t, p) for p, t in edited.items()], removed_paths=list(removed), manifest=manifest
        )
        assert diags == [], kind
        assert new.graph._by_target is not None, kind
        if new.graph is not state.graph:
            patched_folds.append(kind)
        fresh = DependencyGraph(new.graph.edges)
        stores = {"by_source": (new.graph.by_source, fresh.by_source),
                  "by_target": (new.graph._by_target, fresh.by_target())}
        for name, (patched, built) in stores.items():
            assert {k: Counter(v) for k, v in patched.items()} == {k: Counter(v) for k, v in built.items()}, (kind, name)
        texts.update(edited)
        for p in removed:
            del texts[p]
        state = new
    assert patched_folds == ["unit add", "unit remove", "rename", "rename back"]


def test_graph_nodes_are_the_elements_the_sentinel_and_the_manifest_nodes(tmp_path):
    # the node set is derived from the edge store; this is what it must equal
    def declared(st):
        model = st.resolved
        natives = (manifest_node(c) for c, cd in model.classes.items() if not cd.is_declarative)
        return {*model.elements, UNRESOLVED, *natives}

    golden, diags = compile_golden(parse_manifest(json.dumps(MANIFEST), "manifest.json"))
    assert diags == []
    assert any(n.namespace == MANIFEST_NS for n in golden.graph.nodes)
    assert golden.graph.nodes == declared(golden)
    state, manifest, texts, steps = _clean_fold_steps(tmp_path / "ws")
    assert state.graph.nodes == declared(state)
    for kind, edit, removed in steps:
        edited = edit(state)
        state, _, diags = incremental_compile(
            state, [parse_clean(t, p) for p, t in edited.items()], removed_paths=list(removed), manifest=manifest
        )
        assert diags == [], kind
        assert state.graph.nodes == declared(state), kind
        texts.update(edited)
        for p in removed:
            del texts[p]


def test_removing_an_instance_named_as_a_property_type_revalidates_its_class():
    # the class's E012 names what the type resolves to, so it depends on the instance
    holder = parse_clean(_PTYPE_HOLDER, "ptype.model.xml")
    thing = parse_clean(_PTYPE_THING, "pthing.model.xml")
    state, diags = compile_model([holder, thing])
    assert [d.message for d in diags] == ["property type 'Thing' does not name a class"]
    state, recompiled, diags = incremental_compile(state, [], removed_paths=["pthing.model.xml"])
    assert eid("pt:Holder") in recompiled
    assert [d.message for d in diags] == ["unresolved property type 'Thing'"]
    _, _, diags = incremental_compile(state, [thing])
    assert [d.message for d in diags] == ["property type 'Thing' does not name a class"]


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
# A re-read unit keeps the beans its edit did not touch


def _fold_core_edit(root, new_text):
    """Compile the golden workspace, save core.model.xml as new_text and fold
    it as a watch poll does. Returns the state before, the state after and
    the re-read unit."""
    write_golden(root, manifest=False)
    state, _ = compile_workspace(root)
    (root / "core.model.xml").write_text(new_text, encoding="utf-8")
    units, removed, parse_diags = workspace_changes(state, root, read=["core.model.xml"])
    new, _, _ = incremental_compile(state, units, removed_paths=removed, parse_diags=parse_diags)
    (unit,) = units
    assert unit == parse_unit(new_text, "core.model.xml")[0]
    return state, new, unit


def _kept(state, new, unit) -> list[str]:
    """The ids of unit's beans taken over from state as the same objects,
    resolved entries included."""
    before = {b.id: b for b in state.units[unit.path].beans}
    kept = [b.written_id for b in unit.beans if before.get(b.id) is b]
    for b in unit.beans:
        if before.get(b.id) is b:
            assert new.resolved.elements[b.id] is state.resolved.elements[b.id], b.written_id
    return kept


def _core_ids():
    return [b.written_id for b in parse_clean(CORE_XML, "core.model.xml").beans]


def test_same_length_value_edit_rereads_only_its_bean(tmp_path):
    state, new, unit = _fold_core_edit(tmp_path, CORE_XML.replace("<timeToLive>60<", "<timeToLive>61<"))
    assert _kept(state, new, unit) == [i for i in _core_ids() if i != "HTTP_Client"]


def test_comment_on_the_root_line_keeps_every_bean(tmp_path):
    state, new, unit = _fold_core_edit(tmp_path, CORE_XML.replace("<model>", "<model><!-- note -->", 1))
    assert _kept(state, new, unit) == _core_ids()


def test_leading_newline_rereads_the_beans_after_it(tmp_path):
    state, new, unit = _fold_core_edit(tmp_path, "\n" + CORE_XML)
    assert _kept(state, new, unit) == []
    old_lines = [b.span.line for b in state.units["core.model.xml"].beans]
    assert [b.span.line for b in unit.beans] == [line + 1 for line in old_lines]


def test_namespace_change_rereads_every_bean(tmp_path):
    state, new, unit = _fold_core_edit(tmp_path, CORE_XML.replace("<model>", '<model xmlns="core">', 1))
    assert _kept(state, new, unit) == []
    assert {b.id.namespace for b in unit.beans} == {"core"}


def _rename_plans(state) -> list:
    """Every element and property rename of state's workspace, planned: the
    patch set and warnings, or the refusal."""
    model = state.resolved
    plans = []
    renames = [(rename.rename_element, e, e.local + "Renamed") for e in sorted(model.elements)]
    renames += [(rename.rename_property, c, p.name, p.name + "Renamed")
                for c, cd in sorted(model.classes.items()) for p in cd.own_properties]
    for plan, *args in renames:
        try:
            plans.append(plan(state, *args))
        except (CollisionError, NotFoundError) as exc:
            plans.append(str(exc))
    return plans


def test_rename_on_a_folded_state_equals_rename_on_a_fresh_compile(tmp_path):
    # rename reads the spans of the declarations a state holds, reused ones
    # included: after a value edit that keeps the untouched beans, and after
    # an edit that moves the beans below it down a line
    write_golden(tmp_path, manifest=False)
    session = WatchSession(tmp_path)
    value = CORE_XML.replace("<timeToLive>60<", "<timeToLive>61<")
    shifted = value.replace('  <bean id="FastHTTP_Client"', '\n  <bean id="FastHTTP_Client"')
    target = tmp_path / "core.model.xml"
    for text in (value, shifted):
        before = session.state.units["core.model.xml"].beans
        target.write_text(text, encoding="utf-8")
        st = target.stat()
        os.utime(target, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        assert session.poll() is not None
        beans = session.state.units["core.model.xml"].beans
        kept = [b for b in beans if any(b is a for a in before)]
        assert kept and len(kept) < len(beans)
        assert _rename_plans(session.state) == _rename_plans(compile_workspace(tmp_path)[0])


def test_a_unit_that_parsed_with_diagnostics_is_read_afresh(tmp_path):
    # the flagged bean follows the edit: taken over, its E000 would be lost
    flagged = CORE_XML.replace('<bean id="PontisLogoRetriever"', '<bean id="PontisLogoRetriever" colour="red"')
    write_golden(tmp_path, manifest=False)
    (tmp_path / "core.model.xml").write_text(flagged, encoding="utf-8")
    state, diags = compile_workspace(tmp_path)
    assert [d.message for d in diags] == ["unknown attribute 'colour' on bean"]
    (tmp_path / "core.model.xml").write_text(flagged.replace("<timeToLive>60<", "<timeToLive>61<"), encoding="utf-8")
    (unit,), _, parse_diags = workspace_changes(state, tmp_path)
    assert [d.message for d in parse_diags] == ["unknown attribute 'colour' on bean"]
    assert _kept(state, state, unit) == []


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
_PTYPE_HOLDER = (
    '<model xmlns="pt"><bean id="Holder" class="Class">'
    "<properties><property><name>x</name><type>Thing</type></property></properties></bean></model>"
)
_PTYPE_THING = '<model xmlns="pt"><bean id="Thing" class="Object"/></model>'
_URL_ROW = """\
      <property>
        <name>URL</name>
        <type>String</type>
        <description>The target URL</description>
      </property>
"""


def _retyped(text: str, prop: str, old: str, new: str) -> str:
    """text with the declared type of its first property named prop replaced."""
    at = text.index(f"<name>{prop}</name>")
    return text[:at] + text[at:].replace(f"<type>{old}</type>", f"<type>{new}</type>", 1)


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
        # edits inside the unit: a value, a comment between beans, an id that
        # a later bean of the unit already has, and a namespace
        GOLDEN_UNITS["core.model.xml"].replace("<timeToLive>60<", "<timeToLive>61<"),
        GOLDEN_UNITS["core.model.xml"].replace(
            '</bean>\n\n  <bean id="RobustHTTP_Client"', '</bean><!-- note -->\n\n  <bean id="RobustHTTP_Client"'
        ),
        GOLDEN_UNITS["core.model.xml"].replace('<bean id="RobustHTTP_Client"', '<bean id="FastHTTP_Client"'),
        GOLDEN_UNITS["core.model.xml"].replace("<model>", '<model xmlns="core">', 1),
        # class edits that change only HTTP_Client's or MetaCache's property
        # table: a retype of a property that the FastHTTP_Client template
        # assigns and PontisLogoRetriever inherits, a removed property (added
        # again by the next edit), and a narrowed type that makes
        # MetaSecuredCache's override a covariance error
        _retyped(GOLDEN_UNITS["core.model.xml"], "timeout", "Long", "Boolean"),
        GOLDEN_UNITS["core.model.xml"].replace(_URL_ROW, ""),
        _retyped(GOLDEN_UNITS["core.model.xml"], "cache", "CacheManager", "StandardCache"),
        # a metaclass change and a parent change
        GOLDEN_UNITS["core.model.xml"].replace('id="HTTP_Client" class="MetaCache"', 'id="HTTP_Client" class="Class"'),
        GOLDEN_UNITS["core.model.xml"].replace(
            'id="HTTP_Client" class="MetaCache">', 'id="HTTP_Client" class="MetaCache" parent="CacheManager">'
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
        # a retype of a property that only inline beans assign
        _retyped(GOLDEN_UNITS["caches.model.xml"], "timeToLive", "Long", "Boolean"),
        # a parent change that keeps an explicit parent
        GOLDEN_UNITS["caches.model.xml"].replace(
            'id="SecuredCacheManager" class="Class" parent="CacheManager"',
            'id="SecuredCacheManager" class="Class" parent="HTTP_Client"',
        ),
        # an added property that overrides an inherited one and retypes
        # BankBalanceRetriever's inline value
        GOLDEN_UNITS["caches.model.xml"].replace(
            '<bean id="SecuredCacheManager" class="Class" parent="CacheManager"/>',
            '<bean id="SecuredCacheManager" class="Class" parent="CacheManager"><properties><property>'
            "<name>maxElementsInMemory</name><type>Boolean</type></property></properties></bean>",
        ),
    ],
    "retrievers.model.xml": [
        GOLDEN_UNITS["retrievers.model.xml"],
        # a class's metaclass changes under its instance CNN_NewsRetriever
        GOLDEN_UNITS["retrievers.model.xml"].replace(
            'id="NewsRetriever" class="MetaCache"', 'id="NewsRetriever" class="MetaSecuredCache"'
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
    # a property type that names an instance, which changes kind or goes
    "ptype.model.xml": [None, _PTYPE_HOLDER],
    "pthing.model.xml": [None, _PTYPE_THING, _PTYPE_THING.replace('class="Object"', 'class="Class"')],
    # an injection cycle made, broken, and moved by a line shift
    "cycle.model.xml": [
        None,
        _CYCLE_ACYCLIC,
        _CYCLE_CLOSED,
        _CYCLE_CLOSED.replace('  <bean id="A"', '\n  <bean id="A"'),
    ],
}
# one fold renames StandardCache, or its new name back, in every unit naming it
_RENAME = "<rename>"
_RENAMES = ("StandardCache", "PlainCache")
# the manifest a fold is given: none, the golden one, or one that drops a
# field, names a phantom class and names the renamed cache
_MANIFEST = "<manifest>"
_EDITED_MANIFEST = {"classes": [
    *({**c, "fields": c["fields"][:1]} if c["name"] == "CacheManager" else c for c in MANIFEST["classes"]),
    {"name": "Phantom", "fields": []},
    {"name": "PlainCache", "fields": []},
]}
_MANIFESTS = [None, *(parse_manifest(json.dumps(m), "manifest.json") for m in (MANIFEST, _EDITED_MANIFEST))]
_EDITS = [(path, i) for path, texts in _VARIANTS.items() for i in range(len(texts))]
_EDITS += [(_RENAME, 0)] + [(_MANIFEST, i) for i in range(len(_MANIFESTS))]


def _renamed_everywhere(state, texts) -> dict[str, str]:
    """The unit texts a rename of StandardCache (or back) patches, patched."""
    old, new = _RENAMES if eid(_RENAMES[0]) in state.resolved.elements else _RENAMES[::-1]
    try:
        patchset, _ = rename.rename_element(state, old, new)
    except (CollisionError, NotFoundError):
        return {}
    return {p: rename._patched_text(texts[p], [x for x in patchset.patches if x.path == p])
            for p in patchset.paths()}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=6))
# consecutive edits inside core.model.xml, so reused beans are reused again
@example([("core.model.xml", i) for i in (3, 4, 5, 4, 6, 0)])
@example([("core.model.xml", i) for i in (4, 3, 1, 3, 0)])
# property-table edits and back, each between shape edits
@example([("core.model.xml", i) for i in (7, 9, 0, 8, 0, 10, 7, 11, 0)] + [("retrievers.model.xml", 1)])
@example([("caches.model.xml", i) for i in (4, 5, 4, 6, 0)])
def test_incremental_equals_full_for_edit_sequences(steps):
    current = dict(GOLDEN_UNITS)
    manifest = None
    state, _ = compile_golden()
    for path, variant in steps:
        if path == _MANIFEST:
            manifest = _MANIFESTS[variant]
            edited, removed = {}, []
        elif path == _RENAME:
            edited, removed = _renamed_everywhere(state, current), []
        elif _VARIANTS[path][variant] is None:
            edited, removed = {}, [path]
        else:
            edited, removed = {path: _VARIANTS[path][variant]}, []
        for p in removed:
            current.pop(p, None)
        current.update(edited)
        units, pdiags = [], []
        for p, t in edited.items():
            # as workspace_changes reads: with the previous unit if it parsed clean
            u, pd = parse_unit(t, p, prev=state.units.get(p) if state.parse_by_path.get(p) == () else None)
            units.append(u)
            pdiags.extend(pd)
        state, _, inc_diags = incremental_compile(
            state, units, removed_paths=removed, parse_diags=pdiags, manifest=manifest
        )
        parsed = []
        all_pdiags = []
        for p, t in current.items():
            u, pd = parse_unit(t, p)
            parsed.append(u)
            all_pdiags.extend(pd)
        full, full_diags = compile_model(parsed, manifest, parse_diags=all_pdiags)
        assert [d.render() for d in inc_diags] == [d.render() for d in full_diags]
        assert state.resolved.elements == full.resolved.elements
        assert state.resolved.classes == full.resolved.classes
        assert state.graph.nodes == full.graph.nodes
        assert state.graph.edges == full.graph.edges


def test_fold_that_reaches_a_reported_cycle_keeps_one_copy_of_it():
    # C is on no cycle, but its value-ref reaches the A <-> B cycle: the fold
    # reruns Tarjan through that cycle and must drop the copy it reported
    reacher = '<model xmlns="cy"><bean id="C" class="Node"><next ref="{}"/></bean></model>'
    texts = {"cycle.model.xml": _CYCLE_CLOSED, "c.model.xml": reacher.format("A")}
    state, _ = compile_model([parse_clean(t, p) for p, t in texts.items()])
    assert sorted(d.element.render() for d in state.graph_diags) == ["cy:A", "cy:B"]
    texts["c.model.xml"] = reacher.format("B")
    new, _, diags = incremental_compile(state, [parse_clean(texts["c.model.xml"], "c.model.xml")])
    full, full_diags = compile_model([parse_clean(t, p) for p, t in texts.items()])
    assert [d.render() for d in diags] == [d.render() for d in full_diags]
    assert sorted(d.render() for d in new.graph_diags) == sorted(d.render() for d in full.graph_diags)


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
        # removing the capturing unit drops the reference that bound exactly
        # to the removed id, and it falls back to root again
        back, recompiled, _ = incremental_compile(new, [], removed_paths=["ns_capture.model.xml"])
        assert (back.resolved.classes[sub].metaclass, back.resolved.classes[sub].parent) == (
            eid("MetaCache"), eid("CacheManager"))
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
    flip = eid("HTTP_Client")
    assert flipped.resolved.elements[flip].kind != state.resolved.elements[flip].kind
    _, dup = parse_unit(_VARIANTS["core.model.xml"][5], "core.model.xml")
    assert [(d.code, d.element.render()) for d in dup] == [("E008", "FastHTTP_Client")]
    _, held = diags_with(**{"ptype.model.xml": _PTYPE_HOLDER, "pthing.model.xml": _PTYPE_THING})
    _, dangling = diags_with(**{"ptype.model.xml": _PTYPE_HOLDER})
    assert [d.message for d in held + dangling] == [
        "property type 'Thing' does not name a class", "unresolved property type 'Thing'"]
    assert sorted(_renamed_everywhere(golden_state(), GOLDEN_UNITS)) == [
        "caches.model.xml", "core.model.xml", "retrievers.model.xml"]
    _, narrowed = diags_with(**{"core.model.xml": _VARIANTS["core.model.xml"][9]})
    assert [(d.code, d.element.render()) for d in narrowed] == [("E006", "MetaSecuredCache")]
    _, inline = diags_with(**{"caches.model.xml": _VARIANTS["caches.model.xml"][4]})
    assert {d.element.render() for d in inline} == {
        "HTTP_Client", "PictureRetriever", "NewsRetriever", "StockQuoteRetriever", "BankBalanceRetriever"}
    golden = [parse_clean(t, p) for p, t in GOLDEN_UNITS.items()]
    assert compile_model(golden, _MANIFESTS[1])[1] == []
    assert sorted(d.code for d in compile_model(golden, _MANIFESTS[2])[1]) == ["E007", "W001", "W001"]
