"""Unit-text parsing: spans, recovery, reference sites, workspace discovery."""

import random
import re
import string
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtalk.compiler import compile_workspace
from mtalk.diagnostics import PARSE, DUPLICATE_ID
from mtalk.errors import NotFoundError
from mtalk.ids import ElementId, SourceSpan
from mtalk.schema import generate_schemas, validate_with_schema
from mtalk.source import (
    InlineBean,
    RefValue,
    ScalarValue,
    element_reader,
    parse_unit,
    parse_workspace,
    read_document,
    read_unit_text,
    unit_signatures,
)

from mtalk.synthetic import BenchmarkSpec, generate_synthetic

from golden import CORE_XML, GOLDEN_UNITS, compile_golden, write_golden


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
    values = dict(unit.beans[0].assignments)
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
    assert dict(unit.beans[0].assignments)["v"].text == "  padded  "


def test_entity_decoding_in_attrs_and_text():
    unit, diags = parse(
        '<model><bean id="B" class="C">'
        "<v>a &amp; b &lt;c&gt; &#65;&#x42; &quot;q&quot;</v>"
        "</bean></model>"
    )
    assert diags == []
    assert dict(unit.beans[0].assignments)["v"].text == 'a & b <c> AB "q"'


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
    assert dict(unit.beans[0].assignments)["v"].text == "<raw&stuff>"


def test_doctype_prolog_skipped():
    unit, diags = parse('<!DOCTYPE model>\n<model><bean id="A" class="C"/></model>')
    assert diags == []
    assert len(unit.beans) == 1


def test_single_quoted_attributes():
    unit, diags = parse("<model xmlns='q'><bean id='A' class='C'/></model>")
    assert diags == []
    assert unit.beans[0].id == ElementId("q", "A")


def test_parse_is_deterministic():
    text = CORE_XML
    a, da = parse(text, "core.model.xml")
    b, db = parse(text, "core.model.xml")
    assert a.beans == b.beans
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


def test_attr_value_span_points_inside_quotes():
    text = '<model><bean id="Alpha" class="C"/></model>'
    unit, _ = parse(text)
    span = element_reader(unit)(unit.beans[0].span).attr_span("id")
    # span covers exactly the raw value between the quotes
    start = text.index("Alpha")
    assert (span.line, span.column) == (1, start + 1)
    assert span.end_column == start + 1 + len("Alpha")


def test_bean_references_and_values_reach_inline_beans():
    unit, diags = parse(
        "<model xmlns='n'><bean id='B' class='C' parent='P'><properties>"
        "<property><name>x</name><type> T </type></property></properties>"
        "<cache class='m:D'><next ref='R'/></cache><size>1</size></bean></model>"
    )
    assert diags == []
    (bean,) = unit.beans
    assert sorted((written, target.render(), where) for written, target, _, where in bean.references()) == [
        ("C", "n:C", "class"), ("P", "n:P", "parent"), ("R", "n:R", "ref"), ("T", "n:T", "type"),
        ("m:D", "m:D", "class"),
    ]
    assert [(owner.render(), tag) for owner, tag, _ in bean.values()] == [
        ("n:C", "cache"), ("n:C", "size"), ("m:D", "next")
    ]


def test_element_at_rereads_the_element_a_span_names():
    text = "<model xmlns='n'>\n<bean id='B' class='C'>\n  <cache class='D'><size> 1 </size></cache>\n</bean></model>"
    unit, diags = parse(text)
    assert diags == []
    cache = unit.beans[0].assignments[0][1]
    node = element_reader(unit)(cache.span)
    assert (node.tag, node.span) == ("cache", cache.span)
    line = text.split("\n")[2]

    def at(start, length):
        return SourceSpan("u.model.xml", 3, start + 1, 3, start + 1 + length)

    assert node.attr_span("class") == at(line.index("D"), 1)
    assert node.tag_name_spans() == [at(line.index("cache"), 5), at(line.index("/cache") + 1, 5)]
    assert node.children[0].content_span() == at(line.index(" 1 "), 3)


def test_multiline_value_span():
    text = "<model><bean id='B' class='C'><v>1\n2</v></bean></model>"
    unit, _ = parse(text)
    val = dict(unit.beans[0].assignments)["v"]
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
    values = dict(unit.beans[0].assignments)
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
    val = dict(unit.beans[0].assignments)["v"]
    assert isinstance(val, RefValue)
    assert any("both 'ref' and 'class'" in d.message for d in diags)


def test_ref_value_must_be_empty():
    unit, diags = parse(
        "<model><bean id='B' class='C'><v ref='X'>junk</v></bean></model>"
    )
    assert isinstance(dict(unit.beans[0].assignments)["v"], RefValue)
    assert any("must be empty" in d.message for d in diags)


def test_inline_bean_cannot_declare_properties():
    unit, diags = parse(
        "<model><bean id='B' class='C'>"
        "<v class='D'><properties><property><name>x</name><type>Long</type></property></properties></v>"
        "</bean></model>"
    )
    inline = dict(unit.beans[0].assignments)["v"]
    assert isinstance(inline, InlineBean) and inline.assignments == ()
    assert any("inline beans cannot declare properties" in d.message for d in diags)


def test_nested_element_without_class_is_error():
    unit, diags = parse(
        "<model><bean id='B' class='C'><v><w>1</w></v></bean></model>"
    )
    assert "v" not in dict(unit.beans[0].assignments)
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
    "unterminated internal subset": (
        "<!DOCTYPE model [\n<model/>", "1:1: error[E000] unterminated markup declaration"
    ),
    "text before root": ("x<model/>", "1:1: error[E000] content before document root"),
    # XML whitespace is space, tab, CR and LF only
    "no-break space before root": ("\xa0<model/>", "1:1: error[E000] content before document root"),
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


# XML 1.0: document ::= prolog element Misc*, where Misc is whitespace,
# comments and processing instructions.
_DOCUMENT_SHAPES = {
    "trailing comment": ("<model></model>\n<!-- done -->\n", []),
    "trailing PI": ("<model></model>\n<?editor x?>\n", []),
    "trailing comment after self-closing root": ("<model/><!-- done -->", []),
    "element after root": (
        "<model></model>\n<extra/>", ["2:1: error[E000] content after document root"]
    ),
    "bean after self-closing root": (
        '<model/>\n<bean id="A" class="Class"/>', ["2:1: error[E000] content after document root"]
    ),
    "unterminated trailing comment": (
        "<model></model>\n<!-- open", ["2:1: error[E000] unterminated comment"]
    ),
    # a '>' in the internal subset or in a quoted literal ends no declaration
    "DOCTYPE with internal subset": ('<!DOCTYPE model [<!ENTITY a "b">]>\n<model/>', []),
    "DOCTYPE with '>' in a system literal": ('<!DOCTYPE model SYSTEM "a>b">\n<model/>', []),
    "line separator after root": ("<model/>\u2028", ["1:9: error[E000] content after document root"]),
    # text inside the root is stripped as str.strip() does
    "no-break spaces inside root": ('<model>\xa0<bean id="A" class="Class"/>\xa0</model>', []),
}


@pytest.mark.parametrize("reader", ["parse_unit", "read_document"])
@pytest.mark.parametrize("shape", sorted(_DOCUMENT_SHAPES))
def test_document_shape_renders_alike_in_both_readers(shape, reader):
    text, rendered = _DOCUMENT_SHAPES[shape]
    if reader == "parse_unit":
        unit, diags = parse_unit(text, "u.xml")
        assert unit.root_tag == "model"
        # a bean is never dropped without a diagnostic
        assert len(unit.beans) == text.count("<bean") or diags
    else:
        doc, diags = read_document(text, "u.xml")
        assert (doc is None) == bool(rendered)
    assert [d.render() for d in diags] == [f"u.xml:{r}" for r in rendered]


# Faults inside the root element. parse_unit reports each and recovers;
# read_document stops at the first, which validate_with_schema reports as a
# document that is not well-formed.
_CONTENT_FAULTS = {
    "unterminated CDATA": (
        '<model>\n  <bean id="A" class="C"><v><![CDATA[1</v></bean>\n</model>',
        ["2:29: error[E000] unterminated CDATA section"],
    ),
    "malformed closing tag": (
        '<model>\n  <bean id="A" class="C"><v>1</ v></bean>\n</model>',
        ["2:30: error[E000] malformed closing tag"],
    ),
    "malformed tag name": (
        '<model>\n  <bean id="A" class="C"><1v/></bean>\n</model>',
        ["2:26: error[E000] malformed tag"],
    ),
    "malformed tag end": (
        '<model>\n  <bean id="A" class="C"><v ref>1</v></bean>\n</model>',
        ["2:28: error[E000] malformed tag '<v'"],
    ),
    "bad entity in text": (
        '<model>\n  <bean id="A" class="C"><v>1 &amp 2</v></bean>\n</model>',
        ["2:31: error[E000] bad entity reference"],
    ),
    "bad entity in attribute": (
        '<model>\n  <bean id="A" class="C&lt"/>\n</model>',
        ["2:24: error[E000] bad entity reference"],
    ),
    "unknown entity": (
        '<model>\n  <bean id="A" class="C"><v>&nbsp;</v></bean>\n</model>',
        ["2:29: error[E000] unknown entity '&nbsp;'"],
    ),
    "unclosed element after a tag": (
        '<model>\n  <bean id="A" class="C">\n    <v>1</v>\n',
        ["2:3: error[E000] unclosed element 'bean'", "3:13: error[E000] unclosed root element 'model'"],
    ),
    "unclosed element in text": (
        '<model>\n  <bean id="A" class="C">\n    <v>1',
        ["3:5: error[E000] unclosed element 'v'", "3:8: error[E000] unclosed root element 'model'"],
    ),
}


@pytest.fixture(scope="module")
def golden_schema_doc():
    state, diags = compile_golden()
    assert diags == []
    return generate_schemas(state)[""]


@pytest.mark.parametrize("reader", ["parse_unit", "read_document", "validate_with_schema"])
@pytest.mark.parametrize("fault", sorted(_CONTENT_FAULTS))
def test_content_faults_render_alike_in_every_reader(fault, reader, golden_schema_doc):
    text, rendered = _CONTENT_FAULTS[fault]
    if reader == "parse_unit":
        unit, diags = parse_unit(text, "u.xml")
        assert unit.beans == ()
        assert [d.render() for d in diags] == [f"u.xml:{r}" for r in rendered]
        return
    if reader == "read_document":
        doc, diags = read_document(text, "u.xml")
        assert doc is None
        expected = rendered[0]
    else:
        diags = validate_with_schema(golden_schema_doc, text, "u.xml")
        where, message = rendered[0].split(": error[E000] ")
        expected = f"{where}: error[E015] document is not well-formed: {message}"
    assert [d.render() for d in diags] == [f"u.xml:{expected}"]


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
# Reference sites: what the parser gives rename to find each written name


def _text_at(text, span):
    lines = text.split("\n")
    assert span.line == span.end_line
    return lines[span.line - 1][span.column - 1:span.end_column - 1]


def test_ref_site_kinds_for_representative_unit():
    unit, diags = parse(CORE_XML, "core.model.xml")
    assert diags == []
    wheres = {where for b in unit.beans for _, _, _, where in b.references()}
    assert {"class", "parent", "type"} <= wheres <= {"class", "parent", "type", "ref"}
    read = element_reader(unit)
    for bean in unit.beans:
        node = read(bean.span)
        # every bean's id, class and parent attribute is read back as written
        assert _text_at(CORE_XML, node.attr_span("id")) == bean.written_id
        assert _text_at(CORE_XML, node.attr_span("class")) == bean.written_class
        if bean.written_parent is not None:
            assert _text_at(CORE_XML, node.attr_span("parent")) == bean.written_parent
        for d in bean.property_defs:
            row = read(d.span)
            cells = {c.tag: c for c in row.children}
            assert _text_at(CORE_XML, cells["name"].content_span()) == d.name
            assert _text_at(CORE_XML, cells["type"].content_span()) == d.type_written
        for _, tag, expr in bean.values():
            names = read(expr.span).tag_name_spans()
            assert names and all(_text_at(CORE_XML, s) == tag for s in names)


def test_prop_tag_sites_cover_open_and_close():
    text = "<model xmlns='n'><bean id='B' class='C'><timeout>60</timeout></bean></model>"
    unit, _ = parse(text)
    ((owner, tag, expr),) = unit.beans[0].values()
    assert (owner, tag) == (ElementId("n", "C"), "timeout")
    tags = element_reader(unit)(expr.span).tag_name_spans()
    assert len(tags) == 2
    opens = text.index("<timeout>") + 1
    closes = text.index("</timeout>") + 2
    assert {t.column for t in tags} == {opens + 1, closes + 1}


def test_inline_bean_prop_tag_owner_is_inline_class():
    unit, _ = parse(
        "<model xmlns='n'><bean id='B' class='C'>"
        "<cache class='D'><size>1</size></cache></bean></model>"
    )
    owners = [owner for owner, tag, _ in unit.beans[0].values() if tag == "size"]
    assert owners == [ElementId("n", "D")]


def test_name_text_site_carries_raw_written_form():
    text = (
        "<model><bean id='C' class='Class'><properties>"
        "<property><name> pad </name><type>Long</type></property>"
        "</properties></bean></model>"
    )
    unit, _ = parse(text)
    (d,) = unit.beans[0].property_defs
    assert d.name == "pad"
    (name,) = [c for c in element_reader(unit)(d.span).children if c.tag == "name"]
    assert _text_at(text, name.content_span()) == " pad "


def test_sites_omitted_for_skipped_beans():
    unit, _ = parse(
        "<model><bean id='A' class='C'/><bean id='A' class='D'/></model>"
    )
    assert [(b.written_id, b.written_class) for b in unit.beans] == [("A", "C")]


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
    assert bean.attr_span("id").line == 1


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
    # dot-files, and dot-directories at any depth, are skipped
    (tmp_path / ".d.model.xml").write_text("<model/>")
    (tmp_path / "sub" / ".git" / "deep").mkdir(parents=True)
    (tmp_path / "sub" / ".git" / "deep" / "e.model.xml").write_text("<model/>")
    (tmp_path / "sub" / ".f.model.xml").write_text("<model/>")
    # a directory with the unit suffix is no unit, but it is walked
    (tmp_path / "x.model.xml").mkdir()
    (tmp_path / "x.model.xml" / "y.model.xml").write_text("<model/>")
    # a symlinked unit file is listed; a symlinked directory is not entered,
    # and a dangling link is no file
    outside = tmp_path / ".outside"
    outside.mkdir()
    (outside / "o.model.xml").write_text("<model/>")
    (tmp_path / "linked.model.xml").symlink_to(outside / "o.model.xml")
    (tmp_path / "linkdir").symlink_to(outside, target_is_directory=True)
    (tmp_path / "dangling.model.xml").symlink_to(tmp_path / "missing.model.xml")
    # the order is by relative path string, not walk order: '-' < '.' < '/'
    for rel in ("a-b/z.model.xml", "a/z.model.xml", "a.model.xml", "ab/a.model.xml"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text("<model/>")
    assert list(unit_signatures(tmp_path)) == [
        "a-b/z.model.xml",
        "a.model.xml",
        "a/z.model.xml",
        "ab/a.model.xml",
        "b.model.xml",
        "linked.model.xml",
        "sub/a.model.xml",
        "x.model.xml/y.model.xml",
    ]
    assert list(unit_signatures(str(tmp_path / "sub"))) == ["a.model.xml"]


def test_discover_missing_root_raises(tmp_path):
    with pytest.raises(NotFoundError):
        unit_signatures(tmp_path / "nope")
    (tmp_path / "file.model.xml").write_text("<model/>")
    with pytest.raises(NotFoundError):
        unit_signatures(tmp_path / "file.model.xml")


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
    assert unit.text == text


# ---------------------------------------------------------------------------
# Re-reading a unit with its previous clean unit

_TOKENS = ["<", ">", "/", '"', " ", "\n", "\r\n", "a", "x", "1", "&amp;", "<!-- c -->", "\n  ",
           "</bean>", '<bean id="', '<bean id="Z" class="Object"/>', 'xmlns="q" ']


def _bean_ends(text):
    """Offsets just past each top-level bean (beans do not nest)."""
    return [m.end() for m in re.finditer(r"</bean>|<bean\b[^>]*/>", text)]


def _root_edit(text, rng):
    close = text.index(">", text.index("<model"))
    options = [(close, close, " "), (close, close, "\n"), (close, close, ' a="1"'), (close, close, ' xmlns="e"')]
    ns = re.search(r'xmlns="([^"]*)"', text[:close])
    if ns:
        options.append((ns.start(1), ns.end(1), rng.choice(["", "m", "n2"])))
        options.append((ns.start(), ns.end(), ""))
    return rng.choice(options)


def _gap_edit(text, rng):
    at = rng.choice(_bean_ends(text))
    return rng.choice([(at, at, " "), (at, at, "\n"), (at, at, "\t \n  "), (at, at + 1, "")])


def _comment_edit(text, rng):
    at = rng.choice(_bean_ends(text) + [text.index(">", text.index("<model")) + 1])
    options = [(at, at, "<!-- note -->"), (at, at, "\n<!-- two\nlines -->")]
    c = text.find("<!--")
    if c != -1:
        options += [(c + 4, c + 4, rng.choice(["x", "\n", "-"])), (c, c + 4, "")]
    return rng.choice(options)


def _split_edit(text, rng):
    """Close a bean after one of its children and open another."""
    at = rng.choice([m.end() for m in re.finditer(r"</(?!bean>|model>)[^>]*>", text)] or [len(text)])
    return at, at, rng.choice(['</bean><bean id="Split" class="Object">',
                               '</bean>\n  <bean id="Split" class="CacheManager">'])


def _merge_edit(text, rng):
    """Drop one bean's close tag and the next bean's open tag."""
    joints = [m.span() for m in re.finditer(r"</bean>\s*<bean\b[^>]*[^/]>", text)] or [(0, 0)]
    return (*rng.choice(joints), "")


def _id_edit(text, rng):
    """Give a bean the id of another bean of the unit."""
    ids = list(re.finditer(r'<bean id="([^"]*)"', text))
    target, other = rng.choice(ids), rng.choice(ids)
    return target.start(1), target.end(1), other.group(1)


def _line_edit(text, rng):
    at = rng.randrange(len(text) + 1)
    breaks = [m.start() for m in re.finditer("\n", text)]
    options = [(at, at, "\n"), (at, at, "\r\n")]
    if breaks:
        nl = rng.choice(breaks)
        options.append((nl, nl + 1, ""))
    return rng.choice(options)


def _byte_edit(text, rng):
    a = rng.randrange(len(text) + 1)
    b = min(len(text), a + rng.choice([0, 1, 2, 5, 30]))
    return a, b, "".join(rng.choice(_TOKENS) for _ in range(rng.choice([0, 1, 2, 3])))


_REREAD_EDITS = {"root": _root_edit, "gap": _gap_edit, "comment": _comment_edit, "split": _split_edit,
                 "merge": _merge_edit, "id": _id_edit, "lines": _line_edit, "bytes": _byte_edit}


def _clean_bases(root):
    """Unit texts that parse clean: the golden units and a small synthetic
    workspace's, each also with a namespace, in CRLF and with comments."""
    generate_synthetic(BenchmarkSpec(40, 3, 2.5, 2, 13), str(root))
    texts = dict(GOLDEN_UNITS)
    texts.update((p.name, p.read_text(encoding="utf-8")) for p in root.glob("*.model.xml"))
    bases = []
    for path, text in texts.items():
        for variant in (
            text,
            text.replace("<model>", '<model xmlns="n">', 1),
            text.replace("\n", "\r\n"),
            text.replace("</bean>\n", "</bean><!-- end -->\n"),
        ):
            assert parse_unit(variant, path)[1] == []
            bases.append((path, variant))
    return bases


def test_reading_with_the_previous_unit_equals_a_full_read(tmp_path):
    rng = random.Random(1919)
    bases = _clean_bases(tmp_path)
    kinds = [*_REREAD_EDITS, "two"]
    reused = Counter()
    for _ in range(600):
        path, old = rng.choice(bases)
        kind = rng.choice(kinds)
        if kind == "two":
            # two edits apart, the later one applied first
            first, second = sorted(rng.choice(list(_REREAD_EDITS.values()))(old, rng) for _ in range(2))
            edits = [second, first] if first[1] < second[0] else [second]
        else:
            edits = [_REREAD_EDITS[kind](old, rng)]
        new = old
        for a, b, insert in edits:
            new = new[:a] + insert + new[b:]
        prev, _ = parse_unit(old, path)
        got = parse_unit(new, path, prev=prev)
        assert got == parse_unit(new, path), (kind, path, new)
        before = {id(b) for b in prev.beans}
        reused[kind] += sum(id(b) in before for b in got[0].beans)
    # every kind of edit leaves some beans to reuse
    assert set(reused) == set(kinds) and min(reused.values()) > 0, reused
