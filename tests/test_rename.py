"""Rename refactoring: patch sets, collision guards, workspace rewrites."""

import pytest

from mtalk.compiler import compile_model, compile_workspace
from mtalk.errors import CollisionError, NotFoundError, StateError
from mtalk.ids import ElementId, SourceSpan
from mtalk.rename import (
    Patch,
    PatchSet,
    apply_patchset,
    rename_element,
    rename_property,
)
from mtalk.source import parse_unit

from golden import GOLDEN_UNITS, compile_golden, compile_texts, write_golden


def eid(render):
    return ElementId.parse(render, "")


def golden_state():
    state, diags = compile_golden()
    assert diags == []
    return state


def apply_in_memory(patchset, texts):
    """Apply a patch set to an in-memory {path: text} map."""
    from mtalk.rename import _line_starts, _offset

    out = dict(texts)
    by_path = {}
    for p in patchset.patches:
        by_path.setdefault(p.path, []).append(p)
    for path, patches in by_path.items():
        text = out[path]
        starts = _line_starts(text)
        resolved = sorted(
            (
                _offset(starts, p.span.line, p.span.column),
                _offset(starts, p.span.end_line, p.span.end_column),
                p.replacement,
            )
            for p in patches
        )
        buf = []
        cursor = 0
        for s, e, r in resolved:
            buf.append(text[cursor:s])
            buf.append(r)
            cursor = e
        buf.append(text[cursor:])
        out[path] = "".join(buf)
    return out


def recompile(texts, manifest=None):
    units = [parse_unit(t, p)[0] for p, t in texts.items()]
    return compile_model(units, manifest)


# ---------------------------------------------------------------------------
# Element rename


def test_rename_element_patch_inventory():
    state = golden_state()
    patchset, warnings = rename_element(state, eid("HTTP_Client"), "HttpClient")
    # 1 bean id + 3 class attrs (retrievers) + 4 parent attrs
    assert len(patchset) == 8
    assert patchset.paths() == ("core.model.xml", "retrievers.model.xml", "secured.model.xml")
    assert all(p.replacement == "HttpClient" for p in patchset.patches)
    # the declaration's patch covers exactly the raw id value between the quotes
    lines = GOLDEN_UNITS["core.model.xml"].split("\n")
    line = next(i for i, text in enumerate(lines) if 'id="HTTP_Client"' in text)
    column = lines[line].index('"HTTP_Client"') + 2
    assert patchset.patches[0].span == SourceSpan(
        "core.model.xml", line + 1, column, line + 1, column + len("HTTP_Client")
    )


def test_rename_element_roundtrip_compiles_clean():
    # every element declared in a unit: renamed, the workspace compiles
    # clean; renamed back, every file is restored byte for byte
    state = golden_state()
    declared = sorted(e for e in state.resolved.elements if e not in state.resolved.kernel_ids)
    assert len(declared) == 15
    for old in declared:
        new = eid(old.local + "Renamed")
        patchset, _ = rename_element(state, old, new.local)
        texts = apply_in_memory(patchset, GOLDEN_UNITS)
        new_state, diags = recompile(texts)
        assert diags == [], old
        assert new in new_state.resolved.elements and old not in new_state.resolved.elements
        assert (old in state.resolved.classes) == (new in new_state.resolved.classes)
        back, _ = rename_element(new_state, new, old.local)
        assert apply_in_memory(back, texts) == GOLDEN_UNITS, old


def test_rename_instance_bean():
    state = golden_state()
    patchset, warnings = rename_element(state, eid("FastHTTP_Client"), "QuickClient")
    texts = apply_in_memory(patchset, GOLDEN_UNITS)
    _, diags = recompile(texts)
    assert diags == []
    assert warnings == []
    # parent attributes in core and retrievers were rewritten
    assert 'parent="QuickClient"' in texts["core.model.xml"]
    assert 'parent="QuickClient"' in texts["retrievers.model.xml"]


def test_rename_preserves_qualifier_prefix():
    # b's bare T names b's own T, which shares the renamed element's local
    texts = {
        "a.model.xml": '<model xmlns="a"><bean id="T" class="Class" declarative="true"/></model>',
        "b.model.xml": '<model xmlns="b"><bean id="U" class="a:T" declarative="true"/>'
        '<bean id="T" class="Class" declarative="true"/><bean id="W" class="T" declarative="true"/></model>',
    }
    state, diags = recompile(texts)
    assert diags == []
    patchset, _ = rename_element(state, eid("a:T"), "V")
    texts = apply_in_memory(patchset, texts)
    assert 'class="a:V"' in texts["b.model.xml"]
    assert '<bean id="T" class="Class" declarative="true"/><bean id="W" class="T"' in texts["b.model.xml"]
    _, diags2 = recompile(texts)
    assert diags2 == []


def test_rename_rewrites_property_type_text():
    state = golden_state()
    patchset, _ = rename_element(state, eid("CacheManager"), "CacheBase")
    texts = apply_in_memory(patchset, GOLDEN_UNITS)
    assert "<type>CacheBase</type>" in texts["core.model.xml"]
    assert 'parent="CacheBase"' in texts["caches.model.xml"]
    _, diags = recompile(texts)
    assert diags == []


def test_rename_same_name_is_empty():
    state = golden_state()
    patchset, warnings = rename_element(state, eid("HTTP_Client"), "HTTP_Client")
    assert len(patchset) == 0
    assert warnings == []


def test_rename_unknown_element():
    state = golden_state()
    with pytest.raises(NotFoundError):
        rename_element(state, eid("Nobody"), "Somebody")


def test_rename_resolves_both_id_spellings_alike():
    # ns declares no C, so ns:C names root C through the namespace fallback
    state, diags = compile_texts(
        root_model_xml='<model><bean id="C" class="Class"><properties>'
        "<property><name>x</name><type>Long</type></property></properties></bean>"
        '<bean id="I" class="C"><x>1</x></bean></model>',
        ns_model_xml='<model xmlns="ns"><bean id="J" class="C"><x>2</x></bean></model>',
    )
    assert diags == []
    by_text, _ = rename_element(state, "ns:C", "K")
    by_id, _ = rename_element(state, ElementId("ns", "C"), "K")
    assert len(by_text) == 3 and by_id == by_text
    by_text, _ = rename_property(state, "ns:C", "x", "y")
    by_id, _ = rename_property(state, ElementId("ns", "C"), "x", "y")
    assert len(by_text) == 5 and by_id == by_text
    for missing in ("ns:Nope", ElementId("ns", "Nope")):
        with pytest.raises(NotFoundError, match="unknown element 'ns:Nope'"):
            rename_element(state, missing, "K")
        with pytest.raises(NotFoundError, match="unknown class 'ns:Nope'"):
            rename_property(state, missing, "x", "y")


def test_rename_kernel_ids_refused():
    state = golden_state()
    with pytest.raises(NotFoundError, match="not declared in a source unit"):
        rename_element(state, eid("Object"), "Root")
    with pytest.raises(NotFoundError, match="not declared in a source unit"):
        rename_element(state, eid("Class"), "Type")


def test_rename_to_existing_name_collides():
    state = golden_state()
    with pytest.raises(CollisionError, match="'CacheManager' already exists"):
        rename_element(state, eid("StandardCache"), "CacheManager")


def test_rename_to_builtin_collides():
    state = golden_state()
    with pytest.raises(CollisionError, match="builtin type name"):
        rename_element(state, eid("StandardCache"), "Long")


def test_rename_to_invalid_name():
    state = golden_state()
    with pytest.raises(CollisionError):
        rename_element(state, eid("StandardCache"), "has space")
    with pytest.raises(CollisionError):
        rename_element(state, eid("StandardCache"), 'has"quote')


def test_rename_shadow_capture_guard():
    # creating ns:new would capture bare references that currently fall back to root:new
    state, diags = compile_texts(
        root_model_xml='<model><bean id="Shared" class="Class" declarative="true"/></model>',
        ns_model_xml='<model xmlns="ns">'
        '<bean id="Mine" class="Class" declarative="true"/>'
        '<bean id="User" class="Shared" declarative="true"/>'
        "</model>",
    )
    assert diags == []
    with pytest.raises(CollisionError, match="would shadow 'Shared'"):
        rename_element(state, eid("ns:Mine"), "Shared")


def test_rename_fallback_target_guard():
    # renaming the root element would strand a bare fallback reference in
    # another namespace on that namespace's own element
    state, diags = compile_texts(
        root_model_xml='<model><bean id="Shared" class="Class" declarative="true"/></model>',
        ns_model_xml='<model xmlns="ns">'
        '<bean id="Fresh" class="Class" declarative="true"/>'
        '<bean id="User" class="Shared" declarative="true"/>'
        "</model>",
    )
    assert diags == []
    with pytest.raises(CollisionError):
        rename_element(state, eid("Shared"), "Fresh")


def test_rename_patches_every_declaration_of_a_duplicate_id():
    # an id declared in two units (E008) is renamed in both, though only
    # a third unit names it
    texts = {
        "a.model.xml": '<model><bean id="Dup" class="Class" declarative="true"/></model>',
        "b.model.xml": '<model><bean id="Dup" class="Class" declarative="true"/></model>',
        "c.model.xml": '<model><bean id="Use" class="Dup"/></model>',
    }
    state, diags = recompile(texts)
    assert [d.code for d in diags] == ["E008"]
    patchset, _ = rename_element(state, "Dup", "Single")
    assert apply_in_memory(patchset, texts) == {p: t.replace('"Dup"', '"Single"') for p, t in texts.items()}


def test_rename_patches_a_reference_inside_a_later_duplicate_declaration():
    # b's Y repeats a's (E008), so it is no element and no graph edge leaves
    # it, yet its class attribute is written text that names Base
    texts = {
        "a.model.xml": '<model>\n'
        '  <bean id="Base" class="Class" declarative="true"/>\n'
        '  <bean id="Y" class="Class" declarative="true"/>\n'
        "</model>\n",
        "b.model.xml": '<model>\n  <bean id="Y" class="Base"/>\n</model>\n',
    }
    state, diags = recompile(texts)
    assert [(d.code, d.span.path) for d in diags] == [("E008", "b.model.xml")]
    patchset, _ = rename_element(state, "Base", "Root")
    assert [(p.path, p.span.line, p.span.column) for p in patchset.patches] == [
        ("a.model.xml", 2, 13),
        ("b.model.xml", 2, 23),
    ]
    assert apply_in_memory(patchset, texts) == {p: t.replace('"Base"', '"Root"') for p, t in texts.items()}


def test_rename_manifest_entry_warns():
    import json

    from mtalk.native import parse_manifest

    from golden import MANIFEST

    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json")
    state, diags = compile_golden(manifest=mani)
    assert diags == []
    patchset, warnings = rename_element(state, eid("HTTP_Client"), "HttpClient")
    assert len(patchset) == 8
    assert len(warnings) == 1
    assert warnings[0].code == "W001"
    assert "manifest" in warnings[0].message


# ---------------------------------------------------------------------------
# Property rename


def test_rename_property_patch_inventory():
    state = golden_state()
    patchset, warnings = rename_property(state, eid("HTTP_Client"), "URL", "targetUrl")
    # one <name> text + three assignment tags (open+close pairs count as sites
    # but self-closing never happens for scalar values here)
    by_path = {}
    for p in patchset.patches:
        by_path.setdefault(p.path, []).append(p)
    assert set(by_path) == {"core.model.xml", "pictures.model.xml", "retrievers.model.xml"}
    assert len(patchset) == 7
    assert warnings == []  # compiled without a manifest
    # an assignment is patched at its open tag's name and its close tag's
    text = GOLDEN_UNITS["pictures.model.xml"]
    line = text.split("\n")[2]
    opens, closes = line.index("<URL>") + 2, line.index("</URL>") + 3
    assert [(p.span.line, p.span.column, p.span.end_column) for p in by_path["pictures.model.xml"]] == [
        (3, opens, opens + 3), (3, closes, closes + 3)
    ]


def test_rename_property_roundtrip():
    state = golden_state()
    patchset, _ = rename_property(state, eid("HTTP_Client"), "URL", "targetUrl")
    texts = apply_in_memory(patchset, GOLDEN_UNITS)
    assert "<name>targetUrl</name>" in texts["core.model.xml"]
    assert "<targetUrl>www.pontis.com/logo.bmp</targetUrl>" in texts["core.model.xml"]
    assert "<targetUrl>www.example.org/logo.png</targetUrl>" in texts["pictures.model.xml"]
    _, diags = recompile(texts)
    assert diags == []
    # every declared property: renamed, the workspace compiles clean;
    # renamed back, every file is restored byte for byte
    declared = [(c, p.name) for c, cd in sorted(state.resolved.classes.items()) for p in cd.own_properties]
    assert len(declared) == 7
    for cls, prop in declared:
        patchset, _ = rename_property(state, cls, prop, prop + "Renamed")
        texts = apply_in_memory(patchset, GOLDEN_UNITS)
        new_state, diags = recompile(texts)
        assert diags == [], (cls, prop)
        assert prop + "Renamed" in {p.name for p in new_state.resolved.classes[cls].own_properties}
        back, _ = rename_property(new_state, cls, prop + "Renamed", prop)
        assert apply_in_memory(back, texts) == GOLDEN_UNITS, (cls, prop)


def test_rename_property_reaches_inline_bean_assignments():
    # an inline bean's value tags belong to its own class, not its owner's
    state = golden_state()
    patchset, _ = rename_property(state, eid("StandardCache"), "timeToLive", "ttl")
    assert patchset.paths() == ("caches.model.xml", "core.model.xml", "retrievers.model.xml", "secured.model.xml")
    texts = apply_in_memory(patchset, GOLDEN_UNITS)
    assert "<ttl>60</ttl>" in texts["core.model.xml"]
    assert "<ttl>10</ttl>" in texts["secured.model.xml"]
    assert recompile(texts)[1] == []


def test_rename_property_scoped_to_declaring_subtree():
    # two unrelated classes may carry the same property name; renaming one
    # leaves the other alone
    texts = {
        "m.model.xml": (
            '<model xmlns="m">'
            '<bean id="A" class="Class" declarative="true">'
            "<properties><property><name>size</name><type>Long</type></property></properties>"
            "</bean>"
            '<bean id="B" class="Class" declarative="true">'
            "<properties><property><name>size</name><type>Long</type></property></properties>"
            "</bean>"
            '<bean id="IA" class="A" declarative="true"><size>1</size></bean>'
            '<bean id="IB" class="B" declarative="true"><size>2</size></bean>'
            "</model>"
        )
    }
    state, diags = recompile(texts)
    assert diags == []
    patchset, _ = rename_property(state, eid("m:A"), "size", "bulk")
    out = apply_in_memory(patchset, texts)["m.model.xml"]
    assert "<bulk>1</bulk>" in out
    assert "<size>2</size>" in out
    _, diags2 = recompile({"m.model.xml": out})
    assert diags2 == []


def test_rename_property_keeps_name_padding():
    texts = {
        "m.model.xml": "<model><bean id='C' class='Class' declarative='true'><properties>"
        "<property><name> pad </name><type>Long</type></property>"
        "</properties></bean><bean id='I' class='C'><pad>1</pad></bean></model>"
    }
    state, diags = recompile(texts)
    assert diags == []
    patchset, _ = rename_property(state, "C", "pad", "bulk")
    out = apply_in_memory(patchset, texts)["m.model.xml"]
    assert "<name> bulk </name>" in out and "<bulk>1</bulk>" in out


def test_rename_skips_a_bean_that_parsing_skipped():
    # the second A is a duplicate within its unit: it is no declaration, so
    # neither its id nor its class reference is patched; nor is a second
    # <type> of a property row, which parsing reports and does not read
    texts = {"m.model.xml": "<model><bean id='A' class='Class'/><bean id='A' class='B'/>"
                            "<bean id='B' class='Class'><properties><property>"
                            "<name>p</name><type>A</type><type>A</type></property></properties></bean></model>"}
    state, _ = recompile(texts)
    assert [b.written_id for b in state.units["m.model.xml"].beans] == ["A", "B"]
    patchset, _ = rename_element(state, "A", "Z")
    text = texts["m.model.xml"]
    assert [p.span.column for p in patchset.patches] == [text.index("'A'") + 2, text.index("<type>A") + 7]
    patchset, _ = rename_element(state, "B", "Y")
    assert apply_in_memory(patchset, texts)["m.model.xml"] == texts["m.model.xml"].replace(
        "id='B'", "id='Y'"
    )


def test_rename_property_scope_is_topmost_declarer():
    # renaming via a subclass renames the inherited slot everywhere
    state = golden_state()
    patchset, _ = rename_property(state, eid("NewsRetriever"), "timeout", "waitSeconds")
    texts = apply_in_memory(patchset, GOLDEN_UNITS)
    assert "<name>waitSeconds</name>" in texts["core.model.xml"]
    assert "<waitSeconds>2</waitSeconds>" in texts["core.model.xml"]
    _, diags = recompile(texts)
    assert diags == []


def test_rename_property_scope_follows_parent_chains_only():
    # A and X form a parent cycle, so both are in A's scope with B; E names
    # the instance I as its parent, so E and its instance J are not, although
    # I is an instance of B
    texts = {"m.model.xml": (
        "<model>"
        "<bean id='A' class='Class' parent='X' declarative='true'><properties>"
        "<property><name>p</name><type>Long</type></property></properties></bean>"
        "<bean id='X' class='Class' parent='A' declarative='true'/>"
        "<bean id='B' class='Class' parent='A' declarative='true'/>"
        "<bean id='I' class='B'><p>1</p></bean>"
        "<bean id='E' class='Class' parent='I' declarative='true'><properties>"
        "<property><name>p</name><type>Long</type></property></properties></bean>"
        "<bean id='J' class='E'><p>2</p></bean>"
        "</model>"
    )}
    state, diags = recompile(texts)
    assert sorted(d.code for d in diags) == ["E004", "E004", "E010"]
    patchset, _ = rename_property(state, "B", "p", "q")
    out = apply_in_memory(patchset, texts)["m.model.xml"]
    assert out.count("<name>q</name>") == 1 and out.count("<name>p</name>") == 1
    assert "<q>1</q>" in out and "<p>2</p>" in out


def test_rename_property_unknown():
    state = golden_state()
    with pytest.raises(NotFoundError):
        rename_property(state, eid("HTTP_Client"), "nope", "better")


def test_rename_property_collision_with_effective_name():
    state = golden_state()
    with pytest.raises(CollisionError):
        rename_property(state, eid("HTTP_Client"), "URL", "timeout")


def test_rename_property_collision_in_subclass():
    # the new name exists only on a class inside the rename scope
    texts = {
        "m.model.xml": (
            '<model xmlns="m">'
            '<bean id="A" class="Class" declarative="true">'
            "<properties><property><name>x</name><type>Long</type></property></properties>"
            "</bean>"
            '<bean id="B" class="Class" parent="A" declarative="true">'
            "<properties><property><name>y</name><type>Long</type></property></properties>"
            "</bean>"
            "</model>"
        )
    }
    state, diags = recompile(texts)
    assert diags == []
    with pytest.raises(CollisionError):
        rename_property(state, eid("m:A"), "x", "y")


def test_rename_property_invalid_tag_name():
    state = golden_state()
    with pytest.raises(CollisionError):
        rename_property(state, eid("HTTP_Client"), "URL", "9bad")
    with pytest.raises(CollisionError):
        rename_property(state, eid("HTTP_Client"), "URL", "properties")


def test_rename_property_manifest_warning():
    import json

    from mtalk.native import parse_manifest

    from golden import MANIFEST

    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json")
    state, diags = compile_golden(manifest=mani)
    assert diags == []
    _, warnings = rename_property(state, eid("HTTP_Client"), "URL", "targetUrl")
    assert len(warnings) == 1
    assert warnings[0].code == "W001"


# ---------------------------------------------------------------------------
# apply_patchset against real files


def test_apply_patchset_on_disk(tmp_path):
    write_golden(tmp_path, manifest=False)
    state, diags = compile_workspace(tmp_path)
    assert diags == []
    patchset, _ = rename_element(state, eid("HTTP_Client"), "HttpClient")
    written = apply_patchset(patchset, str(tmp_path))
    assert written == ["core.model.xml", "retrievers.model.xml", "secured.model.xml"]
    state2, diags2 = compile_workspace(tmp_path)
    assert diags2 == []
    assert eid("HttpClient") in state2.resolved.classes


def test_apply_patchset_keeps_line_endings(tmp_path):
    # the parser counts CRLF, CR and LF alike as one line break, so the same
    # patch set applies to every spelling and changes only the patched names;
    # a <type> text that spans lines keeps its line breaks' spelling too
    multiline = dict(GOLDEN_UNITS)
    for name, written in (("core.model.xml", "CacheManager"), ("secured.model.xml", "SecuredCacheManager")):
        multiline[name] = multiline[name].replace(
            f"<type>{written}</type>", f"<type>\n          {written}\n        </type>"
        )
    breaks = {"core.model.xml": ["\r\n"], "retrievers.model.xml": ["\r"], "secured.model.xml": ["\r\n", "\n", "\r"]}
    for case, (units, old, new) in enumerate((
        (GOLDEN_UNITS, "HTTP_Client", "HttpClient"),
        (multiline, "CacheManager", "CacheBase"),
        (multiline, "SecuredCacheManager", "SecuredBase"),
    )):
        lf = tmp_path / f"lf{case}"
        root = tmp_path / f"mixed{case}"
        spelled = {}
        for d in (lf, root):
            d.mkdir()
            for name, text in units.items():
                (d / name).write_text(text, encoding="utf-8")
        lf_state, _ = compile_workspace(lf)
        lf_patchset, _ = rename_element(lf_state, eid(old), new)
        apply_patchset(lf_patchset, str(lf))
        for name, seps in breaks.items():
            lines = units[name].split("\n")
            spelled[name] = [seps[i % len(seps)] for i in range(len(lines) - 1)] + [""]
            raw = "".join(line + sep for line, sep in zip(lines, spelled[name]))
            (root / name).write_bytes(raw.encode("utf-8"))
        state, diags = compile_workspace(root)
        assert diags == []
        patchset, _ = rename_element(state, eid(old), new)
        assert patchset == lf_patchset
        assert apply_patchset(patchset, str(root)) == list(lf_patchset.paths())
        for name, seps in spelled.items():
            renamed = (lf / name).read_text(encoding="utf-8").split("\n")
            expected = "".join(line + sep for line, sep in zip(renamed, seps))
            assert (root / name).read_bytes() == expected.encode("utf-8"), (old, name)
        state2, diags2 = compile_workspace(root)
        assert diags2 == [] and eid(new) in state2.resolved.classes


def test_apply_patchset_that_cannot_write_changes_nothing(tmp_path):
    texts = {"a.model.xml": '<model>\n  <bean id="C" class="Class"/>\n</model>\n',
             "b.model.xml": '<model>\n  <bean id="I" class="C"/>\n</model>\n'}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "b.model.xml.tmp").mkdir()  # where b's temporary file would go
    state, diags = compile_workspace(tmp_path)
    assert diags == []
    patchset, _ = rename_element(state, "C", "D")
    assert patchset.paths() == ("a.model.xml", "b.model.xml")
    with pytest.raises(IsADirectoryError):
        apply_patchset(patchset, str(tmp_path))
    # a's temporary file is gone and neither unit was replaced
    assert {n: (tmp_path / n).read_bytes() for n in texts} == {n: t.encode() for n, t in texts.items()}
    assert {p.name for p in tmp_path.iterdir()} == {*texts, "b.model.xml.tmp"}
    assert compile_workspace(tmp_path)[1] == []


def test_apply_patchset_missing_file(tmp_path):
    span = SourceSpan("ghost.model.xml", 1, 1, 1, 2)
    ps = PatchSet((Patch("ghost.model.xml", span, "x"),))
    with pytest.raises(NotFoundError):
        apply_patchset(ps, str(tmp_path))


def test_overlapping_patches_rejected(tmp_path):
    (tmp_path / "a.model.xml").write_text("<model/>", encoding="utf-8")
    s1 = SourceSpan("a.model.xml", 1, 1, 1, 5)
    s2 = SourceSpan("a.model.xml", 1, 3, 1, 7)
    ps = PatchSet((Patch("a.model.xml", s1, "x"), Patch("a.model.xml", s2, "y")))
    with pytest.raises(StateError, match="overlapping"):
        apply_patchset(ps, str(tmp_path))


def test_patch_span_out_of_range(tmp_path):
    (tmp_path / "a.model.xml").write_text("<model/>", encoding="utf-8")
    ps = PatchSet((Patch("a.model.xml", SourceSpan("a.model.xml", 99, 1, 99, 2), "x"),))
    with pytest.raises(StateError):
        apply_patchset(ps, str(tmp_path))


def test_attribute_values_escaped_when_needed():
    # a qualified prefix with no special characters stays readable; the
    # encoder still guards the XML-significant ones
    from mtalk.rename import _encode_attr

    assert _encode_attr("plain:Name") == "plain:Name"
    assert _encode_attr('a&b<c"d\'e') == "a&amp;b&lt;c&quot;d&apos;e"


# ---------------------------------------------------------------------------
# A name written otherwise than plainly: an entity, a qualifier, CDATA or a
# comment inside the text

PREFILTER_UNITS = {
    "core.model.xml": """\
<model>
  <bean id="Cache" class="Class" declarative="true">
    <properties>
      <property><name><![CDATA[size]]></name><type>Long</type></property>
    </properties>
  </bean>
</model>
""",
    # the class reference is written as a character entity
    "entity.model.xml": '<model><bean id="Small" class="&#67;ache"><size>1</size></bean></model>\n',
    # a qualified reference that falls back to the root class
    "qualified.model.xml": '<model xmlns="ns"><bean id="Big" class="ns:Cache"><size>2</size></bean></model>\n',
    # a comment splits the property type's text
    "split.model.xml": """\
<model>
  <bean id="Store" class="Class" declarative="true">
    <properties>
      <property><name>cache</name><type>Ca<!-- split -->che</type></property>
    </properties>
  </bean>
</model>
""",
    "other.model.xml": '<model><bean id="Other" class="Class" declarative="true"/></model>\n',
}


def test_rename_reaches_every_spelling_of_a_name():
    state, diags = recompile(PREFILTER_UNITS)
    assert diags == []

    def element():
        return rename_element(state, "Cache", "Pool")

    def prop():
        return rename_property(state, "Cache", "size", "capacity")

    for plan, paths in (
        (element, ("core.model.xml", "entity.model.xml", "qualified.model.xml", "split.model.xml")),
        (prop, ("core.model.xml", "entity.model.xml", "qualified.model.xml")),
    ):
        patchset, warnings = plan()
        assert warnings == []
        assert patchset.paths() == paths
    renamed = apply_in_memory(element()[0], PREFILTER_UNITS)
    assert 'class="Pool"' in renamed["entity.model.xml"]
    assert 'class="ns:Pool"' in renamed["qualified.model.xml"]
    assert "<type>Pool</type>" in renamed["split.model.xml"]
    assert recompile(renamed)[1] == []
    renamed = apply_in_memory(prop()[0], PREFILTER_UNITS)
    assert "<name>capacity</name>" in renamed["core.model.xml"]
    assert "<capacity>1</capacity>" in renamed["entity.model.xml"]
    assert "<capacity>2</capacity>" in renamed["qualified.model.xml"]
    assert recompile(renamed)[1] == []


def test_rename_shadow_guard_sees_entity_and_padded_references():
    # the bare reference that ns:Shared would capture is written as an
    # entity, which falls back to root Shared, or padded, which resolves to
    # nothing (an edge into UNRESOLVED)
    for written in ("&#83;hared", " Shared "):
        state, diags = compile_texts(
            root_model_xml='<model><bean id="Shared" class="Class" declarative="true"/></model>',
            ns_model_xml='<model xmlns="ns"><bean id="Mine" class="Class" declarative="true"/></model>',
            user_model_xml=f'<model xmlns="ns"><bean id="User" class="{written}" declarative="true"/></model>',
        )
        # a padded class names no element (E001), yet still shadows once stripped
        assert [d.code for d in diags] == ([] if written.startswith("&") else ["E001"])
        with pytest.raises(CollisionError, match="would shadow 'Shared' referenced in user.model.xml"):
            rename_element(state, eid("ns:Mine"), "Shared")
