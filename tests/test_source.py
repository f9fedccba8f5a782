"""Unit-text parsing: spans, recovery, reference sites, workspace discovery."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtalk.compiler import compile_workspace
from mtalk.diagnostics import PARSE, DUPLICATE_ID
from mtalk.errors import NotFoundError
from mtalk.ids import ElementId
from mtalk.source import (
    InlineBean,
    RefValue,
    ScalarValue,
    discover_unit_paths,
    duplicate_id_diags,
    parse_unit,
    parse_workspace,
    read_document,
    read_unit_text,
    span_of,
)

from golden import CORE_XML, write_golden


def parse(text, path="u.model.xml"):
    return parse_unit(text, path)


# ---------------------------------------------------------------------------
# Well-formed input


def test_parse_minimal_bean():
    unit, diags = parse('<model xmlns="app"><bean id="A" class="Object"/></model>')
    assert diags == []
    assert unit.namespace == "app"
    assert unit.root_tag == "model"
    assert len(unit.beans) == 1
    bean = unit.beans[0]
    assert bean.id == ElementId("app", "A")
    assert bean.class_ref == ElementId("app", "Object")
    assert bean.parent_ref is None
    assert not bean.abstract and not bean.declarative


def test_parse_empty_root_self_closing():
    unit, diags = parse("<model/>")
    assert diags == []
    assert unit.beans == ()
    assert unit.root_tag == "model"
    assert unit.namespace == ""


def test_root_tag_is_arbitrary():
    unit, diags = parse('<retrievers xmlns="x"><bean id="A" class="Object"/></retrievers>')
    assert diags == []
    assert unit.root_tag == "retrievers"
    assert unit.beans[0].id == ElementId("x", "A")


def test_missing_xmlns_means_root_namespace():
    unit, _ = parse('<model><bean id="A" class="Object"/></model>')
    assert unit.namespace == ""
    assert unit.beans[0].id == ElementId("", "A")


def test_flags_and_parent():
    unit, diags = parse(
        '<model xmlns="n">'
        '<bean id="T" class="C" parent="other:P" abstract="true" declarative="true"/>'
        "</model>"
    )
    assert diags == []
    bean = unit.beans[0]
    assert bean.abstract and bean.declarative
    assert bean.parent_ref == ElementId("other", "P")
    assert bean.written_parent == "other:P"


def test_qualified_and_bare_references():
    unit, _ = parse('<model xmlns="a"><bean id="X" class="b:C" parent="P"/></model>')
    bean = unit.beans[0]
    assert bean.class_ref == ElementId("b", "C")
    assert bean.parent_ref == ElementId("a", "P")


def test_property_definitions_parsed():
    unit, diags = parse(
        """<model xmlns="app">
  <bean id="C" class="Class">
    <properties>
      <property>
        <name>timeout</name>
        <type>Long</type>
        <description>Seconds to wait</description>
      </property>
      <property><name>peer</name><type>other:Node</type></property>
    </properties>
  </bean>
</model>"""
    )
    assert diags == []
    defs = unit.beans[0].property_defs
    assert [d.name for d in defs] == ["timeout", "peer"]
    assert defs[0].type_written == "Long"
    assert defs[0].description == "Seconds to wait"
    assert defs[1].type_ref == ElementId("other", "Node")
    assert defs[1].description is None


def test_scalar_ref_and_inline_values():
    unit, diags = parse(
        """<model xmlns="app">
  <bean id="B" class="C">
    <timeout>60</timeout>
    <peer ref="other:N"/>
    <cache class="StandardCache"><size>10</size></cache>
  </bean>
</model>"""
    )
    assert diags == []
    values = unit.beans[0].assignment_map()
    assert isinstance(values["timeout"], ScalarValue)
    assert values["timeout"].text == "60"
    assert isinstance(values["peer"], RefValue)
    assert values["peer"].target == ElementId("other", "N")
    inline = values["cache"]
    assert isinstance(inline, InlineBean)
    assert inline.class_ref == ElementId("app", "StandardCache")
    assert dict(inline.assignments)["size"].text == "10"


def test_scalar_text_kept_verbatim():
    unit, _ = parse("<model><bean id='B' class='C'><v>  padded  </v></bean></model>")
    assert unit.beans[0].assignment_map()["v"].text == "  padded  "


def test_entity_decoding_in_attrs_and_text():
    unit, diags = parse(
        '<model><bean id="B" class="C">'
        "<v>a &amp; b &lt;c&gt; &#65;&#x42; &quot;q&quot;</v>"
        "</bean></model>"
    )
    assert diags == []
    assert unit.beans[0].assignment_map()["v"].text == 'a & b <c> AB "q"'


def test_comments_pi_and_cdata():
    unit, diags = parse(
        """<?xml version="1.0"?>
<!-- header -->
<model xmlns="app">
  <!-- between beans -->
  <bean id="B" class="C">
    <v><![CDATA[<raw&stuff>]]></v>
  </bean>
  <?pi ignored?>
</model>"""
    )
    assert diags == []
    assert unit.beans[0].assignment_map()["v"].text == "<raw&stuff>"


def test_doctype_prolog_skipped():
    unit, diags = parse('<!DOCTYPE model>\n<model><bean id="A" class="C"/></model>')
    assert diags == []
    assert len(unit.beans) == 1


def test_single_quoted_attributes():
    unit, diags = parse("<model xmlns='q'><bean id='A' class='C'/></model>")
    assert diags == []
    assert unit.beans[0].id == ElementId("q", "A")


def test_content_hash_is_sha256_of_text():
    import hashlib

    text = '<model><bean id="A" class="C"/></model>'
    unit, _ = parse(text)
    assert unit.content_hash == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_parse_is_deterministic():
    text = CORE_XML
    a, da = parse(text, "core.model.xml")
    b, db = parse(text, "core.model.xml")
    assert a.beans == b.beans
    assert a.ref_sites == b.ref_sites
    assert da == db


# ---------------------------------------------------------------------------
# Spans


def test_bean_span_is_one_based_and_covers_element():
    text = '<model>\n  <bean id="A" class="C"/>\n</model>'
    unit, _ = parse(text)
    span = unit.beans[0].span
    assert (span.line, span.column) == (2, 3)
    # end is exclusive: column just past the closing '/>'
    assert (span.end_line, span.end_column) == (2, 3 + len('<bean id="A" class="C"/>'))


def test_span_of_finds_bean():
    unit, _ = parse('<model xmlns="n">\n<bean id="A" class="C"/>\n</model>')
    span = span_of(unit, ElementId("n", "A"))
    assert span.line == 2
    with pytest.raises(NotFoundError):
        span_of(unit, ElementId("n", "missing"))


def test_attr_value_span_points_inside_quotes():
    text = '<model><bean id="Alpha" class="C"/></model>'
    unit, _ = parse(text)
    site = next(s for s in unit.ref_sites if s.kind == "bean-id")
    # span covers exactly the raw value between the quotes
    start = text.index("Alpha")
    assert (site.span.line, site.span.column) == (1, start + 1)
    assert site.span.end_column == start + 1 + len("Alpha")


def test_multiline_value_span():
    text = "<model><bean id='B' class='C'><v>1\n2</v></bean></model>"
    unit, _ = parse(text)
    val = unit.beans[0].assignment_map()["v"]
    assert val.span.line == 1 and val.span.end_line == 2
    assert val.text == "1\n2"


# ---------------------------------------------------------------------------
# Recovery and structural errors


def test_malformed_bean_recovers_at_next_bean():
    text = """<model xmlns="app">
  <bean id="Broken" class="C"
  <bean id="Good" class="C"/>
</model>"""
    unit, diags = parse(text)
    assert [b.written_id for b in unit.beans] == ["Good"]
    assert any(d.code == PARSE for d in diags)


def test_mismatched_close_tag_recovers():
    text = '<model><bean id="A" class="C"><v>1</w></bean><bean id="B" class="C"/></model>'
    unit, diags = parse(text)
    assert [b.written_id for b in unit.beans] == ["B"]
    assert any("mismatched closing tag" in d.message for d in diags)


def test_missing_id_is_parse_error():
    unit, diags = parse('<model><bean class="C"/></model>')
    assert unit.beans == ()
    assert any("missing required 'id'" in d.message and d.code == PARSE for d in diags)


def test_missing_class_is_parse_error():
    unit, diags = parse('<model><bean id="A"/></model>')
    assert unit.beans == ()
    assert any("missing required 'class'" in d.message for d in diags)


def test_invalid_bean_id_rejected():
    unit, diags = parse('<model><bean id="has space" class="C"/></model>')
    assert unit.beans == ()
    assert any("invalid bean id" in d.message for d in diags)


def test_unknown_bean_attribute_flagged_but_bean_kept():
    unit, diags = parse('<model><bean id="A" class="C" lazy="true"/></model>')
    assert len(unit.beans) == 1
    assert any("unknown attribute 'lazy'" in d.message for d in diags)


def test_bad_flag_value_defaults_false():
    unit, diags = parse('<model><bean id="A" class="C" abstract="yes"/></model>')
    assert len(unit.beans) == 1
    assert not unit.beans[0].abstract
    assert any("must be 'true' or 'false'" in d.message for d in diags)


def test_duplicate_id_in_unit_keeps_first():
    text = '<model xmlns="n"><bean id="A" class="C"/><bean id="A" class="D"/></model>'
    unit, diags = parse(text)
    assert len(unit.beans) == 1
    assert unit.beans[0].written_class == "C"
    dups = [d for d in diags if d.code == DUPLICATE_ID]
    assert len(dups) == 1
    assert "n:A" in dups[0].message


def test_builtin_name_reserved_for_bean_id():
    unit, diags = parse('<model><bean id="Long" class="C"/></model>')
    assert unit.beans == ()
    assert any(d.code == DUPLICATE_ID and "reserved builtin" in d.message for d in diags)


def test_duplicate_assignment_keeps_first():
    unit, diags = parse(
        "<model><bean id='B' class='C'><v>1</v><v>2</v></bean></model>"
    )
    values = unit.beans[0].assignment_map()
    assert values["v"].text == "1"
    assert any("duplicate assignment 'v'" in d.message for d in diags)


def test_duplicate_property_definition_dropped():
    unit, diags = parse(
        "<model><bean id='C' class='Class'><properties>"
        "<property><name>p</name><type>Long</type></property>"
        "<property><name>p</name><type>String</type></property>"
        "</properties></bean></model>"
    )
    defs = unit.beans[0].property_defs
    assert len(defs) == 1 and defs[0].type_written == "Long"
    assert any("duplicate property definition" in d.message for d in diags)


def test_property_missing_name_or_type():
    unit, diags = parse(
        "<model><bean id='C' class='Class'><properties>"
        "<property><name>p</name></property>"
        "</properties></bean></model>"
    )
    assert unit.beans[0].property_defs == ()
    assert any("must declare <name> and <type>" in d.message for d in diags)


def test_property_named_properties_rejected():
    unit, diags = parse(
        "<model><bean id='C' class='Class'><properties>"
        "<property><name>properties</name><type>Long</type></property>"
        "</properties></bean></model>"
    )
    assert unit.beans[0].property_defs == ()
    assert any("invalid property name" in d.message for d in diags)


def test_value_with_both_ref_and_class_keeps_ref():
    unit, diags = parse(
        "<model><bean id='B' class='C'><v ref='X' class='Y'/></bean></model>"
    )
    val = unit.beans[0].assignment_map()["v"]
    assert isinstance(val, RefValue)
    assert any("both 'ref' and 'class'" in d.message for d in diags)


def test_ref_value_must_be_empty():
    unit, diags = parse(
        "<model><bean id='B' class='C'><v ref='X'>junk</v></bean></model>"
    )
    assert isinstance(unit.beans[0].assignment_map()["v"], RefValue)
    assert any("must be empty" in d.message for d in diags)


def test_inline_bean_cannot_declare_properties():
    unit, diags = parse(
        "<model><bean id='B' class='C'>"
        "<v class='D'><properties><property><name>x</name><type>Long</type></property></properties></v>"
        "</bean></model>"
    )
    inline = unit.beans[0].assignment_map()["v"]
    assert isinstance(inline, InlineBean) and inline.assignments == ()
    assert any("inline beans cannot declare properties" in d.message for d in diags)


def test_nested_element_without_class_is_error():
    unit, diags = parse(
        "<model><bean id='B' class='C'><v><w>1</w></v></bean></model>"
    )
    assert "v" not in unit.beans[0].assignment_map()
    assert any("missing 'class' attribute" in d.message for d in diags)


def test_unknown_top_level_element_skipped():
    unit, diags = parse("<model><junk/><bean id='A' class='C'/></model>")
    assert [b.written_id for b in unit.beans] == ["A"]
    assert any("unknown top-level element 'junk'" in d.message for d in diags)


def test_content_after_root_flagged():
    unit, diags = parse("<model><bean id='A' class='C'/></model><extra/>")
    assert len(unit.beans) == 1
    assert any("content after document root" in d.message for d in diags)


def test_unclosed_root_flagged():
    unit, diags = parse("<model><bean id='A' class='C'/>")
    assert len(unit.beans) == 1
    assert any("unclosed root element 'model'" in d.message for d in diags)


def test_empty_text_missing_root():
    unit, diags = parse("   \n  ")
    assert unit.beans == ()
    assert any("missing root element" in d.message for d in diags)


_PROLOG_FAULTS = {
    "unterminated PI": ('<?xml version="1.0"', "1:1: error[E000] unterminated processing instruction"),
    "unterminated comment": ("\n  <!-- never closed", "2:3: error[E000] unterminated comment"),
    "unterminated markup declaration": (
        '<?xml version="1.0"?>\n<!DOCTYPE model', "2:1: error[E000] unterminated markup declaration"
    ),
    "missing root element": (
        '﻿<?xml version="1.0"?>\n<!-- c -->\n', "2:11: error[E000] missing root element"
    ),
}


@pytest.mark.parametrize("reader", ["parse_unit", "read_document"])
@pytest.mark.parametrize("fault", sorted(_PROLOG_FAULTS))
def test_prolog_faults_render_alike_in_both_readers(fault, reader):
    text, rendered = _PROLOG_FAULTS[fault]
    if reader == "parse_unit":
        unit, diags = parse_unit(text, "u.xml")
        assert unit.beans == () and unit.root_tag is None
    else:
        doc, diags = read_document(text, "u.xml")
        assert doc is None
    assert [d.render() for d in diags] == [f"u.xml:{rendered}"]


def test_duplicate_attribute_is_malformed():
    unit, diags = parse("<model><bean id='A' id='B' class='C'/></model>")
    assert unit.beans == ()
    assert any("duplicate attribute" in d.message for d in diags)


def test_stray_text_in_bean_flagged():
    unit, diags = parse("<model><bean id='A' class='C'>loose</bean></model>")
    assert len(unit.beans) == 1
    assert any("stray text content in bean" in d.message for d in diags)


def test_deep_nesting_bounded():
    text = "<model><bean id='B' class='C'>" + "<v class='D'>" * 200
    text += "</v>" * 200 + "</bean></model>"
    unit, diags = parse(text)
    assert any("nesting too deep" in d.message for d in diags)


# ---------------------------------------------------------------------------
# Reference sites


def test_ref_site_kinds_for_representative_unit():
    unit, diags = parse(CORE_XML, "core.model.xml")
    assert diags == []
    kinds = {s.kind for s in unit.ref_sites}
    assert kinds == {
        "bean-id",
        "class-attr",
        "parent-attr",
        "ref-attr",
        "type-text",
        "name-text",
        "prop-tag",
    } - {"ref-attr"} | ({"ref-attr"} if any(s.kind == "ref-attr" for s in unit.ref_sites) else set())
    # every bean contributes exactly one bean-id site
    bean_ids = [s for s in unit.ref_sites if s.kind == "bean-id"]
    assert len(bean_ids) == len(unit.beans)


def test_prop_tag_sites_cover_open_and_close():
    text = "<model xmlns='n'><bean id='B' class='C'><timeout>60</timeout></bean></model>"
    unit, _ = parse(text)
    tags = [s for s in unit.ref_sites if s.kind == "prop-tag"]
    assert len(tags) == 2
    assert all(s.prop == "timeout" for s in tags)
    assert all(s.owner_class == ElementId("n", "C") for s in tags)
    opens = text.index("<timeout>") + 1
    closes = text.index("</timeout>") + 2
    assert {t.span.column for t in tags} == {opens + 1, closes + 1}


def test_inline_bean_prop_tag_owner_is_inline_class():
    unit, _ = parse(
        "<model xmlns='n'><bean id='B' class='C'>"
        "<cache class='D'><size>1</size></cache></bean></model>"
    )
    sites = [s for s in unit.ref_sites if s.kind == "prop-tag" and s.prop == "size"]
    assert sites and all(s.owner_class == ElementId("n", "D") for s in sites)


def test_name_text_site_carries_raw_written_form():
    unit, _ = parse(
        "<model><bean id='C' class='Class'><properties>"
        "<property><name> pad </name><type>Long</type></property>"
        "</properties></bean></model>"
    )
    site = next(s for s in unit.ref_sites if s.kind == "name-text")
    assert site.written == " pad "
    assert site.prop == "pad"


def test_sites_omitted_for_skipped_beans():
    unit, _ = parse(
        "<model><bean id='A' class='C'/><bean id='A' class='D'/></model>"
    )
    assert len([s for s in unit.ref_sites if s.kind == "bean-id"]) == 1


# ---------------------------------------------------------------------------
# read_document (strict mode)


def test_read_document_round_trip():
    doc, diags = read_document(
        "<model xmlns='n'><bean id='A' class='C'><v>1</v></bean></model>", "d.xml"
    )
    assert diags == []
    assert doc.tag == "model"
    assert doc.attrs == {"xmlns": "n"}
    bean = doc.children[0]
    assert bean.tag == "bean"
    assert bean.children[0].text == "1"
    assert bean.attr_spans["id"].line == 1


def test_read_document_rejects_malformed():
    doc, diags = read_document("<model><bean></model>", "d.xml")
    assert doc is None
    assert len(diags) == 1 and diags[0].code == PARSE


def test_read_document_rejects_trailing_content():
    doc, diags = read_document("<a/><b/>", "d.xml")
    assert doc is None
    assert "content after document root" in diags[0].message


# ---------------------------------------------------------------------------
# Workspace discovery


def test_discover_unit_paths_sorted_and_filtered(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / ".hidden").mkdir()
    (tmp_path / "b.model.xml").write_text("<model/>")
    (tmp_path / "sub" / "a.model.xml").write_text("<model/>")
    (tmp_path / ".hidden" / "c.model.xml").write_text("<model/>")
    (tmp_path / "notes.txt").write_text("x")
    assert discover_unit_paths(tmp_path) == ["b.model.xml", "sub/a.model.xml"]


def test_discover_missing_root_raises(tmp_path):
    with pytest.raises(NotFoundError):
        discover_unit_paths(tmp_path / "nope")


def test_parse_workspace_golden_clean(tmp_path):
    write_golden(tmp_path)
    units, diags = parse_workspace(tmp_path)
    assert diags == []
    assert [u.path for u in units] == sorted(u.path for u in units)
    assert len(units) == 5


def test_parse_workspace_cross_unit_duplicates(tmp_path):
    (tmp_path / "a.model.xml").write_text('<model xmlns="n"><bean id="X" class="C"/></model>')
    (tmp_path / "b.model.xml").write_text('<model xmlns="n"><bean id="X" class="C"/></model>')
    units, diags = parse_workspace(tmp_path)
    # resolution reports cross-unit duplicates, so a fold can clear them
    assert [d for d in diags if d.code == DUPLICATE_ID] == []
    assert [u.path for u in units] == ["a.model.xml", "b.model.xml"]
    _, report = compile_workspace(tmp_path)
    dups = [d for d in report if d.code == DUPLICATE_ID]
    assert len(dups) == 1
    assert dups[0].span.path == "b.model.xml"


def test_undecodable_unit_is_reported_and_left_out(tmp_path):
    write_golden(tmp_path)
    (tmp_path / "bad.model.xml").write_bytes(b'<model><bean id="Bad" class="Class"/>\xff</model>')
    text, unreadable = read_unit_text(tmp_path, "bad.model.xml")
    assert text is None
    assert unreadable.render() == (
        "bad.model.xml:1:1: error[E000] unreadable unit: 'utf-8' codec can't decode "
        "byte 0xff in position 37: invalid start byte"
    )
    assert read_unit_text(tmp_path, "core.model.xml") == (CORE_XML, None)
    units, diags = parse_workspace(tmp_path)
    assert diags == [unreadable]
    assert "bad.model.xml" not in [u.path for u in units]


def test_duplicate_id_diags_ignores_same_unit():
    unit, _ = parse('<model xmlns="n"><bean id="A" class="C"/></model>', "a.model.xml")
    assert duplicate_id_diags([unit, unit]) == []


# ---------------------------------------------------------------------------
# Robustness


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable, max_size=300))
def test_parse_never_raises_on_arbitrary_text(text):
    unit, diags = parse_unit(text, "fuzz.model.xml")
    assert unit.path == "fuzz.model.xml"
    assert isinstance(unit.beans, tuple)
    for d in diags:
        assert d.span.path == "fuzz.model.xml"


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="<>&;/\"'= abeinclassdprt\n", max_size=200))
def test_parse_never_raises_on_markup_soup(soup):
    text = "<model>" + soup
    unit, _ = parse_unit(text, "soup.model.xml")
    assert unit.content_hash
