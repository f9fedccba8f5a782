"""Schema generation determinism and the in-package document validator."""

import functools
import hashlib
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtalk import vm as vmmod
from mtalk import schema as schema_mod
from mtalk.compiler import compile_workspace, scalar_conforms
from mtalk.diagnostics import SCHEMA_VIOLATION
from mtalk.ids import BUILTIN_SCALARS
from mtalk.schema import SchemaDoc, SchemaError, generate_schemas, validate_with_schema
from mtalk.source import parse_unit
from mtalk.synthetic import BenchmarkSpec, generate_synthetic

from golden import GOLDEN_UNITS, compile_golden, compile_texts


def golden_schema():
    state, diags = compile_golden()
    assert diags == []
    return generate_schemas(state)[""]


# ---------------------------------------------------------------------------
# Generation


def test_generate_schema_shape():
    doc = golden_schema()
    assert isinstance(doc, SchemaDoc)
    assert doc.namespace == ""
    assert doc.text.startswith("<?xml")
    assert '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"' in doc.text
    assert '<xs:element name="model"' in doc.text


def test_class_names_enumerated():
    text = golden_schema().text
    for name in ("MetaCache", "HTTP_Client", "NewsRetriever", "Class", "Object"):
        assert f'<xs:enumeration value="{name}"/>' in text
    # instances are not writable as class attributes
    assert '<xs:enumeration value="PontisLogoRetriever"/>' not in text


def test_builtin_scalars_enumerated_as_types():
    text = golden_schema().text
    # typeNameType covers builtins plus classes
    assert 'name="typeNameType"' in text
    for builtin in ("String", "Long", "Boolean", "Double"):
        assert f'<xs:enumeration value="{builtin}"/>' in text


def test_property_tags_typed_by_merged_kind():
    text = golden_schema().text
    # Long-typed everywhere -> xs:long; String-typed -> xs:string
    assert '<xs:element name="timeout" type="xs:long"' in text
    assert '<xs:element name="URL" type="xs:string"' in text
    # class-typed property admits a nested bean value
    assert '<xs:element name="cache" type="beanValueType"' in text


def test_per_class_named_types_absent():
    # a bean is checked by the generic bean type only, so a type per class
    # would be text that no root element reaches
    text = golden_schema().text
    assert 'name="t.' not in text
    assert [m.group(1) for m in re.finditer(r'<xs:complexType name="([^"]+)"', text)] == [
        "modelType", "beanType", "beanValueType", "propertiesType", "propertyDefType",
    ]


def test_generation_deterministic():
    a = golden_schema()
    b = golden_schema()
    assert a.text == b.text
    assert a.generated_from == b.generated_from


def test_fingerprint_tracks_model_content():
    a = golden_schema()
    state, _ = compile_texts(
        m='<model xmlns="m"><bean id="C" class="Class" declarative="true"/></model>'
    )
    b = generate_schemas(state)[""]
    assert a.generated_from != b.generated_from


def test_generate_schemas_per_namespace():
    state, diags = compile_texts(
        a_model_xml='<model xmlns="alpha"><bean id="A" class="Class" declarative="true"/></model>',
        b_model_xml='<beans xmlns="beta"><bean id="B" class="Class" declarative="true"/></beans>',
        c_model_xml='<model><bean id="C" class="Class" declarative="true"/></model>',
    )
    assert diags == []
    docs = generate_schemas(state)
    assert set(docs) == {"", "alpha", "beta"}
    assert docs["alpha"].namespace == "alpha"
    assert 'targetNamespace="alpha"' in docs["alpha"].text
    # the beta unit's root tag is declared in beta's schema
    assert '<xs:element name="beans"' in docs["beta"].text
    # root-namespace schema has no targetNamespace
    assert "targetNamespace" not in docs[""].text


def test_no_generated_schema_declares_an_xmlns_attribute():
    # XML Schema forbids the declaration, and a standard processor refuses
    # a schema that makes it
    state, diags = compile_texts(
        a_model_xml='<model xmlns="alpha"><bean id="A" class="Class" declarative="true"/></model>',
        c_model_xml='<model><bean id="C" class="Class" declarative="true"/></model>',
    )
    assert diags == []
    docs = generate_schemas(state)
    for doc in (*docs.values(), golden_schema()):
        names = {a.get("name") for a in ET.fromstring(doc.text).iter("{http://www.w3.org/2001/XMLSchema}attribute")}
        assert "class" in names and "xmlns" not in names, doc.namespace
    assert validate_with_schema(docs["alpha"], '<model xmlns="alpha"><bean id="X" class="A"/></model>') == []


def test_unqualified_local_classes_enumerated_in_namespace_schema():
    state, diags = compile_texts(
        a_model_xml='<model xmlns="alpha">'
        '<bean id="A" class="Class" declarative="true"/>'
        '<bean id="I" class="A" declarative="true"/>'
        "</model>",
    )
    assert diags == []
    doc = generate_schemas(state)["alpha"]
    # inside namespace alpha the bare local name is writable
    assert '<xs:enumeration value="A"/>' in doc.text
    assert '<xs:enumeration value="alpha:A"/>' in doc.text


# ---------------------------------------------------------------------------
# Validation: positives


def test_golden_units_validate():
    state, _ = compile_golden()
    schema = generate_schemas(state)[""]
    for path, text in GOLDEN_UNITS.items():
        assert validate_with_schema(schema, text, path) == [], path


def test_empty_model_validates():
    schema = golden_schema()
    assert validate_with_schema(schema, "<model/>") == []
    assert validate_with_schema(schema, "<model></model>") == []


def test_schema_doc_or_text_accepted():
    schema = golden_schema()
    assert validate_with_schema(schema.text, "<model/>") == []


# ---------------------------------------------------------------------------
# Validation: violations


def check_one(schema, text, fragment, path="unit.model.xml"):
    diags = validate_with_schema(schema, text, path)
    assert diags, f"expected a violation for: {text!r}"
    assert all(d.code == SCHEMA_VIOLATION for d in diags)
    assert any(fragment in d.message for d in diags), [d.message for d in diags]
    assert all(d.span.path == path for d in diags)
    return diags


def test_unknown_property_element_rejected():
    schema = golden_schema()
    text = GOLDEN_UNITS["core.model.xml"].replace("<URL>", "<URLL>").replace("</URL>", "</URLL>")
    diags = check_one(schema, text, "element 'URLL' not allowed")
    assert len(diags) == 1
    assert diags[0].span.line > 1


def test_unknown_class_value_rejected():
    schema = golden_schema()
    check_one(
        schema,
        '<model><bean id="X" class="NoSuchClass"/></model>',
        "is not allowed for attribute 'class'",
    )


def test_missing_required_attrs_rejected():
    schema = golden_schema()
    check_one(schema, '<model><bean class="Class"/></model>', "required attribute 'id' missing")
    check_one(schema, '<model><bean id="X"/></model>', "required attribute 'class' missing")


def test_unknown_attr_rejected():
    schema = golden_schema()
    check_one(
        schema,
        '<model><bean id="X" class="Class" lazy="true"/></model>',
        "attribute 'lazy' not allowed",
    )


def test_only_namespace_declarations_pass_unchecked():
    schema = golden_schema()
    ok = '<model xmlns:x="urn:x"><bean id="X" class="MetaCache" xmlns:y="urn:y"><timeout xmlns="">1</timeout></bean></model>'
    assert validate_with_schema(schema, ok) == []
    check_one(schema, '<model><bean id="X" class="Class" xmlnsy="1"/></model>', "attribute 'xmlnsy' not allowed")
    check_one(
        schema,
        '<model><bean id="X" class="MetaCache"><timeout xmlnsy="1">1</timeout></bean></model>',
        "attribute 'xmlnsy' not allowed on 'timeout'",
    )


def compile_with_golden(text):
    """The report of the golden units plus text as x.model.xml."""
    golden = {path.replace(".", "_"): t for path, t in GOLDEN_UNITS.items()}
    return compile_texts(**golden, x_model_xml=text)[1]


def test_class_enumeration_reads_the_attribute_unstripped():
    # the compiler resolves class=" MetaCache" as written and reports E001
    text = '<model><bean id="X" class=" MetaCache"/></model>'
    assert [d.code for d in compile_with_golden(text)] == ["E001"]
    check_one(golden_schema(), text, "value ' MetaCache' is not allowed for attribute 'class'")


def test_property_type_enumeration_collapses_whitespace():
    # parse_unit trims XML whitespace from <type> text, and typeNameType is an xs:token
    schema = golden_schema()
    assert '<xs:simpleType name="typeNameType">\n    <xs:restriction base="xs:token">' in schema.text
    for written in (" Long ", "\n  Long\t", "CacheManager "):
        text = (
            '<model><bean id="C" class="Class" declarative="true"><properties><property>'
            f"<name>n</name><type>{written}</type></property></properties></bean></model>"
        )
        assert compile_with_golden(text) == [], written
        assert validate_with_schema(schema, text) == [], written
    check_one(
        schema,
        '<model><bean id="C" class="Class"><properties><property>'
        "<name>n</name><type>Lo  ng</type></property></properties></bean></model>",
        "value 'Lo ng' is not allowed for element 'type'",
    )


def test_property_type_keeps_unicode_spaces():
    # U+00A0 is no XML whitespace: the parser keeps it in the type name, which
    # then resolves to nothing, and the schema's xs:token keeps it too
    text = (
        '<model><bean id="C" class="Class" declarative="true"><properties><property>'
        "<name>n</name><type>\xa0Long</type></property></properties></bean></model>"
    )
    diags = compile_with_golden(text)
    assert [(d.code, d.message) for d in diags] == [("E012", "unresolved property type '\xa0Long'")]
    (violation,) = check_one(golden_schema(), text, "value '\xa0Long' is not allowed for element 'type'", "x.model.xml")
    row, at = diags[0].span, violation.span
    assert (row.line, row.column) <= (at.line, at.column) and (at.end_line, at.end_column) <= (row.end_line, row.end_column)


def test_duplicate_child_in_all_group_rejected():
    schema = golden_schema()
    check_one(
        schema,
        '<model><bean id="X" class="MetaCache"><timeout>1</timeout><timeout>2</timeout></bean></model>',
        "'timeout' appears more than once",
    )


def test_long_lexical_space_checked():
    schema = golden_schema()
    check_one(
        schema,
        '<model><bean id="X" class="MetaCache"><timeout>tomorrow</timeout></bean></model>',
        "not a valid xs:long",
    )
    too_big = str(2**63)
    check_one(
        schema,
        f'<model><bean id="X" class="MetaCache"><timeout>{too_big}</timeout></bean></model>',
        "not a valid xs:long",
    )


def test_boolean_lexical_space():
    state, diags = compile_texts(
        m_model_xml='<model><bean id="C" class="Class" declarative="true">'
        "<properties><property><name>flag</name><type>Boolean</type></property></properties>"
        "</bean></model>"
    )
    assert diags == []
    schema = generate_schemas(state)[""]
    assert validate_with_schema(schema, '<model><bean id="I" class="C"><flag>true</flag></bean></model>') == []
    check_one(schema, '<model><bean id="I" class="C"><flag>1</flag></bean></model>', "value '1' is not allowed")
    check_one(schema, '<model><bean id="I" class="C"><flag>yes</flag></bean></model>', "not a valid xs:boolean")


def test_wrong_root_tag_rejected():
    schema = golden_schema()
    check_one(schema, '<beans><bean id="X" class="Class"/></beans>', "root element 'beans'")


def test_namespace_mismatch_rejected():
    schema = golden_schema()
    check_one(
        schema,
        '<model xmlns="other"><bean id="X" class="Class"/></model>',
        "namespace",
    )


def test_malformed_document_rejected():
    schema = golden_schema()
    diags = validate_with_schema(schema, "<model><bean</model>", "broken.model.xml")
    assert diags and all(d.code == SCHEMA_VIOLATION for d in diags)


def test_text_in_element_only_content_rejected():
    schema = golden_schema()
    check_one(
        schema,
        '<model>junk<bean id="X" class="Class"/></model>',
        "must not contain text",
    )


def test_properties_block_structure_enforced():
    schema = golden_schema()
    # a property row missing <type> fails the xs:all occurrence check
    check_one(
        schema,
        '<model><bean id="X" class="Class"><properties>'
        "<property><name>p</name></property>"
        "</properties></bean></model>",
        "required element 'type' missing",
    )


def test_violation_spans_point_into_document():
    schema = golden_schema()
    text = (
        "<model>\n"
        '  <bean id="X" class="Bogus"/>\n'
        '  <bean class="HTTP_Client"/>\n'
        '  <bean id="Y" class="HTTP_Client">\n'
        "    <timeout>soon</timeout>\n"
        "    <bogus/>\n"
        "  </bean>\n"
        "</model>"
    )
    diags = validate_with_schema(schema, text, "u.model.xml")
    # attribute-value span, element span, element span, child span
    expected = [
        ("value 'Bogus' is not allowed for attribute 'class'", 2, 23, 2, 28),
        ("required attribute 'id' missing on 'bean'", 3, 3, 3, 30),
        ("value 'soon' is not a valid xs:long for element 'timeout'", 5, 5, 5, 28),
        ("element 'bogus' not allowed in 'bean'", 6, 5, 6, 13),
    ]
    assert [d.to_dict() for d in diags] == [
        {
            "severity": "error",
            "code": SCHEMA_VIOLATION,
            "message": message,
            "element": None,
            "path": "u.model.xml",
            "line": line,
            "column": column,
            "endLine": end_line,
            "endColumn": end_column,
        }
        for message, line, column, end_line, end_column in expected
    ]


# ---------------------------------------------------------------------------
# One parse per schema text


def test_repeated_validation_gives_identical_diagnostics():
    schema = golden_schema()
    text = '<model><bean id="X" class="MetaCache"><timeout>soon</timeout><bogus/></bean></model>'
    first = validate_with_schema(schema, text, "u.model.xml")
    assert len(first) == 2
    assert validate_with_schema(schema, text, "u.model.xml") == first
    assert validate_with_schema(schema.text, text, "u.model.xml") == first


def test_regenerated_schema_is_the_one_in_force():
    text = '<model><bean id="X" class="HTTP_Client"><timeout>soon</timeout></bean></model>'
    before = golden_schema()
    check_one(before, text, "not a valid xs:long")
    # retype timeout from Long to String and regenerate
    retyped = GOLDEN_UNITS["core.model.xml"].replace(
        "<name>timeout</name>\n        <type>Long</type>", "<name>timeout</name>\n        <type>String</type>"
    )
    assert retyped != GOLDEN_UNITS["core.model.xml"]
    state, _ = compile_texts(**{
        p.replace(".", "_"): (retyped if p == "core.model.xml" else t) for p, t in GOLDEN_UNITS.items()
    })
    after = generate_schemas(state)[""]
    assert validate_with_schema(after, text) == []
    check_one(before, text, "not a valid xs:long")


def test_unsupported_construct_in_unreferenced_type_raises():
    text = golden_schema().text
    marker = "</xs:schema>"
    assert marker in text
    broken = text.replace(marker, '<xs:complexType name="unreferenced"><xs:choice/></xs:complexType>' + marker)
    for _ in range(2):
        with pytest.raises(SchemaError, match="unsupported complexType construct"):
            validate_with_schema(broken, "<model/>")


def test_unusable_schema_texts_raise():
    with pytest.raises(SchemaError, match="not well-formed"):
        validate_with_schema('<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">', "<model/>")
    with pytest.raises(SchemaError, match="not an XML Schema document"):
        validate_with_schema("<model/>", "<model/>")
    with pytest.raises(SchemaError, match="unsupported schema construct"):
        validate_with_schema(
            '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:group name="g"/></xs:schema>',
            "<model/>",
        )


# ---------------------------------------------------------------------------
# Open and mixed types


_BROKEN_CLASSES = (
    '<model><bean id="A" class="Class" parent="B"/><bean id="B" class="Class" parent="A"/>'
    '<bean id="L" class="Class">'
    "<properties><property><name>lost</name><type>Ghost</type></property></properties>"
    "</bean></model>"
)


def test_broken_class_types_are_open():
    # a class on a parent cycle, or with a property of unresolved type
    state, diags = compile_texts(m_model_xml=_BROKEN_CLASSES)
    assert {d.code for d in diags} == {"E004", "E012"}
    doc = generate_schemas(state)[""]
    # the property of unresolved type takes any content
    assert doc.ir.complex["beanType"].all_elems["lost"] == ("xs:anyType", False)
    # the unresolved type name is the one violation the schema sees
    for schema in (doc, doc.text):
        diags = validate_with_schema(schema, _BROKEN_CLASSES)
        assert [d.message for d in diags] == ["value 'Ghost' is not allowed for element 'type'"]
        bean = '<model><bean id="x" class="L" parent="A"><lost a="1"><any>7</any>text</lost></bean></model>'
        assert validate_with_schema(schema, bean) == []


def test_property_typed_differently_by_two_classes_is_any_type():
    state, diags = compile_texts(
        m_model_xml='<model>'
        '<bean id="C1" class="Class" declarative="true">'
        "<properties><property><name>v</name><type>Long</type></property></properties></bean>"
        '<bean id="C2" class="Class" declarative="true">'
        "<properties><property><name>v</name><type>String</type></property></properties></bean>"
        "</model>"
    )
    assert diags == []
    schema = generate_schemas(state)[""]
    assert '<xs:element name="v" type="xs:anyType" minOccurs="0"/>' in schema.text
    # xs:anyType admits any content, text and child elements alike
    for value in ("12", "twelve", '<bean id="X" class="C1"/>'):
        assert validate_with_schema(schema, f'<model><bean id="I" class="C1"><v>{value}</v></bean></model>') == []


def test_double_lexical_space():
    state, diags = compile_texts(
        m_model_xml='<model><bean id="C" class="Class" declarative="true">'
        "<properties><property><name>ratio</name><type>Double</type></property></properties>"
        "</bean></model>"
    )
    assert diags == []
    schema = generate_schemas(state)[""]
    assert '<xs:element name="ratio" type="doubleType" minOccurs="0"/>' in schema.text
    for value in ("2.5", " -1e3 ", "7"):
        unit = f'<model><bean id="I" class="C"><ratio>{value}</ratio></bean></model>'
        assert validate_with_schema(schema, unit) == [], value
    for value in ("INF", "-INF", "NaN"):
        check_one(
            schema, f'<model><bean id="I" class="C"><ratio>{value}</ratio></bean></model>', f"value '{value}' is not allowed"
        )
    for value in ("fast", "1,5", ""):
        check_one(
            schema, f'<model><bean id="I" class="C"><ratio>{value}</ratio></bean></model>', "not a valid xs:double"
        )


# ---------------------------------------------------------------------------
# One lexical rule per builtin: generated schema, compiler and VM agree


# a class with one property per builtin, named after its type
_SCALAR_CLASS = (
    '<model><bean id="C" class="Class" declarative="true"><properties>'
    + "".join(f"<property><name>{b}</name><type>{b}</type></property>" for b in BUILTIN_SCALARS)
    + "</properties></bean>"
)
_VALUE_TYPES = {"String": str, "Long": int, "Boolean": bool, "Double": float}
# pieces of literals: ASCII and non-ASCII digits, '_', signs, points,
# exponents, the XSD specials and their near misses, and Unicode whitespace
_PIECES = (
    "0", "1", "7", "٣", "０", "۵", "_", "+", "-", ".", "e", "E", "INF", "NaN", "inf", "Infinity",
    "true", "false", "x", " ", "\t", "\n", "\xa0", "\x85", "\u2003", "\u2028", "\u3000",
)


@functools.cache
def _scalar_schema():
    state, diags = compile_texts(m_model_xml=_SCALAR_CLASS + "</model>")
    assert diags == []
    return generate_schemas(state)[""]


@settings(max_examples=400, deadline=None)
@given(builtin=st.sampled_from(BUILTIN_SCALARS), text=st.lists(st.sampled_from(_PIECES), max_size=6).map("".join))
def test_generated_schema_accepts_exactly_what_the_compiler_accepts(builtin, text):
    unit = f'{_SCALAR_CLASS}<bean id="I" class="C"><{builtin}>{text}</{builtin}></bean></model>'
    ok = scalar_conforms(text, builtin)
    state, diags = compile_texts(m_model_xml=unit)
    assert [d.code for d in diags] == ([] if ok else ["E003"])
    violations = validate_with_schema(_scalar_schema(), unit)
    assert (violations == []) == ok
    assert validate_with_schema(_scalar_schema().text, unit) == violations
    if ok:
        values = vmmod.dump_instance(vmmod.get_instance(vmmod.load(state), "I"))["values"]
        assert type(values[builtin]) is _VALUE_TYPES[builtin]


@pytest.mark.parametrize("value,ok", [("true", True), ("false", True), ("1", False), ("0", False),
                                      (" true", False), ("TRUE", False)])
@pytest.mark.parametrize("flag", ["abstract", "declarative"])
def test_flag_rule_schema_matches_parser(flag, value, ok):
    unit = f'<model><bean id="X" class="Class" {flag}="{value}"/></model>'
    _parsed, diags = parse_unit(unit, "u.model.xml")
    assert (diags == []) == ok
    violations = validate_with_schema(golden_schema(), unit, "u.model.xml")
    assert [d.message for d in violations] == ([] if ok else [f"value '{value}' is not allowed for attribute '{flag}'"])
    assert [d.span for d in violations] == [d.span for d in diags]


@pytest.mark.parametrize("builtin,literal", [("Long", "\xa07"), ("Double", "2.5\xa0"), ("Boolean", "\xa0true")])
def test_scalar_padded_with_a_unicode_space_is_no_literal(builtin, literal):
    # a literal is trimmed of XML whitespace only, as W3C collapses it
    unit = f'{_SCALAR_CLASS}<bean id="I" class="C"><{builtin}>{literal}</{builtin}></bean></model>'
    _state, diags = compile_texts(m_model_xml=unit)
    assert [(d.code, d.message) for d in diags] == [
        ("E003", f"value '{literal}' does not conform to {builtin} for property '{builtin}'")
    ]
    for schema in (_scalar_schema(), _scalar_schema().text):
        violations = validate_with_schema(schema, unit, "m.model.xml")
        assert [d.code for d in violations] == ["E015"]
        assert [d.span for d in violations] == [d.span for d in diags]


_MUTANT_LEXEMES = (
    "1_000", "٣", " 7 ", "INF", "NaN", "-0", "+5", "1", "0", "true", " true", "TRUE", "", str(2**63), "0" * 30 + "9",
)
_LONG_SLOT = re.compile(r">([^<>]*)</(?:timeout|numberOfRetries|timeToLive|maxElementsInMemory)>")
_FLAG_SLOT = re.compile(r'(?:abstract|declarative)="([^"]*)"')


def test_seeded_value_and_flag_mutations_report_at_the_same_elements():
    """The generated schema reports a value E015 exactly where the compiler
    reports a lexical E003 or a flag E000."""
    rng = random.Random(9)
    schema = golden_schema()
    agreed = {True: 0, False: 0}
    for path, text in sorted(GOLDEN_UNITS.items()):
        slots = [m.span(1) for pattern in (_LONG_SLOT, _FLAG_SLOT) for m in pattern.finditer(text)]
        for start, end in slots:
            for lexeme in rng.sample(_MUTANT_LEXEMES, 4):
                mutant = text[:start] + lexeme + text[end:]
                _state, diags = compile_texts(
                    **{p.replace(".", "_"): (mutant if p == path else t) for p, t in GOLDEN_UNITS.items()}
                )
                compiler_at = {
                    (d.span.line, d.span.column, d.span.end_line, d.span.end_column)
                    for d in diags
                    if d.span.path == path and (d.code == "E003" or "must be 'true' or 'false'" in d.message)
                }
                violations = validate_with_schema(schema, mutant, path)
                assert validate_with_schema(schema.text, mutant, path) == violations, (path, lexeme)
                schema_at = {(d.span.line, d.span.column, d.span.end_line, d.span.end_column) for d in violations}
                assert schema_at == compiler_at, (path, lexeme)
                agreed[bool(compiler_at)] += 1
    assert agreed[True] and agreed[False], agreed


# a schema written by hand: its xs:* builtins follow W3C XML Schema 1.1
_OUTSIDE_SCHEMA = """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="row" type="rowType"/>
  <xs:complexType name="rowType">
    <xs:all>
      <xs:element name="n" type="xs:long" minOccurs="0"/>
      <xs:element name="d" type="xs:double" minOccurs="0"/>
      <xs:element name="b" type="xs:boolean" minOccurs="0"/>
      <xs:element name="flag" type="flagType" minOccurs="0"/>
    </xs:all>
  </xs:complexType>
  <xs:simpleType name="flagType">
    <xs:restriction base="xs:string">
      <xs:pattern value="true|false"/>
    </xs:restriction>
  </xs:simpleType>
</xs:schema>
"""


@pytest.mark.parametrize(
    "tag,value,ok",
    [
        ("d", "INF", True),
        ("d", "-INF", True),
        ("d", "+INF", True),
        ("d", "NaN", True),
        ("d", " 2.5e3 ", True),
        ("b", "1", True),
        ("b", "0", True),
        ("b", "true", True),
        ("n", "-0", True),
        ("n", "1_000", False),
        ("n", "٣", False),
        ("d", "inf", False),
        ("d", "Infinity", False),
        ("d", "1_0.5", False),
        ("d", "nan", False),
        ("b", "TRUE", False),
        ("flag", "false", True),
        ("flag", "0", False),
        ("flag", " true", False),
    ],
)
def test_outside_schema_builtins_follow_w3c(tag, value, ok):
    diags = validate_with_schema(_OUTSIDE_SCHEMA, f"<row><{tag}>{value}</{tag}></row>")
    assert (diags == []) == ok, [d.message for d in diags]


@pytest.mark.parametrize(
    "facet", ['<xs:pattern value="[A-Z]+"/>', '<xs:pattern value="\\d+"/>', '<xs:minLength value="2"/>']
)
def test_outside_facet_not_interpreted_exactly_raises(facet):
    schema = _OUTSIDE_SCHEMA.replace('<xs:pattern value="true|false"/>', facet)
    with pytest.raises(SchemaError, match="unsupported facet"):
        validate_with_schema(schema, "<row/>")


# ---------------------------------------------------------------------------
# One IR: the generated text is its rendering, and validation reads the IR


# a second namespace over a synthetic workspace: a class with properties of a
# root class and of three builtins, and an instance of it
_EXT_UNIT = """<model xmlns="ext">
  <bean id="Gauge" class="Class" declarative="true">
    <properties>
      <property><name>ratio</name><type>Double</type></property>
      <property><name>on</name><type>Boolean</type></property>
      <property><name>peer</name><type>C0002</type></property>
      <property><name>label</name><type>String</type></property>
    </properties>
  </bean>
  <bean id="g" class="Gauge"><ratio>0.5</ratio><on>true</on><label>x</label></bean>
</model>
"""


def _synthetic_state(root, spec, *extra_units):
    generate_synthetic(spec, str(root))
    for name, text in extra_units:
        (root / name).write_text(text, encoding="utf-8")
    state, diags = compile_workspace(root)
    assert diags == []
    return state


def _two_namespace_state(root):
    return _synthetic_state(root, BenchmarkSpec(40, 3, 2.5, 2, 13), ("ext.model.xml", _EXT_UNIT))


_SYNTHETIC_SPECS = (BenchmarkSpec(25, 2, 2.0, 1, 5), BenchmarkSpec(60, 4, 3.0, 3, 7), BenchmarkSpec(40, 3, 2.5, 2, 13))


def _ir_workspaces(tmp_path):
    """(label, compiled state) of every workspace the IR tests cover."""
    yield "golden", compile_golden()[0]
    yield "broken", compile_texts(m_model_xml=_BROKEN_CLASSES)[0]
    yield "two-namespace", _two_namespace_state(tmp_path / "two")
    for i, spec in enumerate(_SYNTHETIC_SPECS):
        yield f"synthetic-{i}", _synthetic_state(tmp_path / f"s{i}", spec)


# sha256 of each generated text: the text of the line-by-line writer the IR
# renderer replaced, without the per-class types it wrote after the simple types
_PINNED = {
    ("golden", ""): "17576984fa7cc8e99e68f80eb4f77b3533bc7fa8eb205e021b9ed33936e5b59a",
    ("broken", ""): "8b478cbe323fc1ea902cb850ed48db0485e6dc8529f3e4b0c7de19982f8a68a2",
    ("two-namespace", ""): "477714a569778b4e7f156eef2ade40bb64d64f1760f682effcaa544404afa24d",
    ("two-namespace", "ext"): "096cded9a6fd3de9a8ea7fd9a1aae89aa1b90ece764d2e2626bbbbd5f1e61bf7",
    ("synthetic-0", ""): "5ad130c655664b8eb19d1abf189791f1780181d0b38610ad43ddd2a41ec49eaa",
    ("synthetic-1", ""): "44382b038cbaa1f8f222a8ccab72309c7f6663effcf254797ed29db50b447bff",
    ("synthetic-2", ""): "d046bc755d0f357cf57283da8686ccc76a1915ae320e471f6487d53d77312a21",
}


def test_generated_text_is_pinned(tmp_path):
    found = {
        (label, ns): hashlib.sha256(doc.text.encode("utf-8")).hexdigest()
        for label, state in _ir_workspaces(tmp_path)
        for ns, doc in generate_schemas(state).items()
    }
    assert found == _PINNED


def test_generated_text_parses_back_to_its_ir(tmp_path):
    """The text parser reads every generated text as the IR the validator
    reads, so the text an editor validates against says what mtalk checks."""
    docs = [(label, doc) for label, state in _ir_workspaces(tmp_path) for doc in generate_schemas(state).values()]
    assert len(docs) == 7
    for label, doc in docs:
        assert schema_mod._parse_schema(doc.text) == doc.ir, (label, doc.namespace)
        assert not any(name.startswith("t.") for name in doc.ir.complex), "a per-class type was kept"


def test_validating_against_a_schema_doc_reads_its_ir(monkeypatch):
    doc = golden_schema()

    def parse(text):
        raise AssertionError("a SchemaDoc's text was parsed")

    monkeypatch.setattr(schema_mod, "_parse_schema", parse)
    for path, text in GOLDEN_UNITS.items():
        assert validate_with_schema(doc, text, path) == [], path
    check_one(doc, '<model><bean id="X" class="Bogus"/></model>', "value 'Bogus' is not allowed for attribute 'class'")
    with pytest.raises(AssertionError, match="parsed"):
        validate_with_schema(doc.text, "<model/>")
