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


def test_rename_element_roundtrip_compiles_clean():
    state = golden_state()
    patchset, _ = rename_element(state, eid("HTTP_Client"), "HttpClient")
    texts = apply_in_memory(patchset, GOLDEN_UNITS)
    new_state, diags = recompile(texts)
    assert diags == []
    assert eid("HttpClient") in new_state.resolved.classes
    assert eid("HTTP_Client") not in new_state.resolved.elements


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
    state, diags = compile_texts(
        a_model_xml='<model xmlns="a"><bean id="T" class="Class" declarative="true"/></model>',
        b_model_xml='<model xmlns="b"><bean id="U" class="a:T" declarative="true"/></model>',
    )
    assert diags == []
    patchset, _ = rename_element(state, eid("a:T"), "V")
    texts = apply_in_memory(
        patchset,
        {
            "a.model.xml": '<model xmlns="a"><bean id="T" class="Class" declarative="true"/></model>',
            "b.model.xml": '<model xmlns="b"><bean id="U" class="a:T" declarative="true"/></model>',
        },
    )
    assert 'class="a:V"' in texts["b.model.xml"]
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


def test_rename_property_roundtrip():
    state = golden_state()
    patchset, _ = rename_property(state, eid("HTTP_Client"), "URL", "targetUrl")
    texts = apply_in_memory(patchset, GOLDEN_UNITS)
    assert "<name>targetUrl</name>" in texts["core.model.xml"]
    assert "<targetUrl>www.pontis.com/logo.bmp</targetUrl>" in texts["core.model.xml"]
    assert "<targetUrl>www.example.org/logo.png</targetUrl>" in texts["pictures.model.xml"]
    _, diags = recompile(texts)
    assert diags == []


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


def test_rename_property_scope_is_topmost_declarer():
    # renaming via a subclass renames the inherited slot everywhere
    state = golden_state()
    patchset, _ = rename_property(state, eid("NewsRetriever"), "timeout", "waitSeconds")
    texts = apply_in_memory(patchset, GOLDEN_UNITS)
    assert "<name>waitSeconds</name>" in texts["core.model.xml"]
    assert "<waitSeconds>2</waitSeconds>" in texts["core.model.xml"]
    _, diags = recompile(texts)
    assert diags == []


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
# Units are skipped unless their text can spell the name; no site is dropped

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


def _unfiltered(monkeypatch, plan):
    """The plan from a scan of every unit's ref sites."""
    import mtalk.rename as rename

    with monkeypatch.context() as m:
        m.setattr(rename, "_may_mention", lambda unit, name: True)
        return plan()


def test_rename_prefilter_keeps_every_site(monkeypatch):
    from mtalk.rename import _may_mention

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
        assert (patchset, warnings) == _unfiltered(monkeypatch, plan)
        assert patchset.paths() == paths
    assert not _may_mention(state.units["other.model.xml"], "Cache")
    renamed = apply_in_memory(element()[0], PREFILTER_UNITS)
    assert 'class="Pool"' in renamed["entity.model.xml"]
    assert "<type>Pool</type>" in renamed["split.model.xml"]
    assert recompile(renamed)[1] == []


def test_rename_prefilter_keeps_the_shadow_guard(monkeypatch):
    # the bare reference that ns:Shared would capture is written as an entity
    state, diags = compile_texts(
        root_model_xml='<model><bean id="Shared" class="Class" declarative="true"/></model>',
        ns_model_xml='<model xmlns="ns"><bean id="Mine" class="Class" declarative="true"/></model>',
        user_model_xml='<model xmlns="ns"><bean id="User" class="&#83;hared" declarative="true"/></model>',
    )
    assert diags == []
    with pytest.raises(CollisionError, match="would shadow 'Shared' referenced in user.model.xml"):
        rename_element(state, eid("ns:Mine"), "Shared")
