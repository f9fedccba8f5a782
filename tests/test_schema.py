"""Schema generation determinism and the in-package document validator."""

import pytest

from mtalk.diagnostics import SCHEMA_VIOLATION
from mtalk.schema import SchemaDoc, SchemaError, generate_schema, generate_schemas, validate_with_schema

from golden import GOLDEN_UNITS, compile_golden, compile_texts


def golden_schema():
    state, diags = compile_golden()
    assert diags == []
    return generate_schema(state)


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


def test_per_class_named_types_present():
    text = golden_schema().text
    assert '<xs:complexType name="t.HTTP_Client">' in text
    assert '<xs:complexType name="t.MetaCache">' in text


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
    b = generate_schema(state)
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
    schema = generate_schema(state)
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
    schema = generate_schema(state)
    assert validate_with_schema(schema, '<model><bean id="I" class="C"><flag>true</flag></bean></model>') == []
    assert validate_with_schema(schema, '<model><bean id="I" class="C"><flag>1</flag></bean></model>') == []
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
    text = '<model>\n  <bean id="X" class="Bogus"/>\n</model>'
    diags = validate_with_schema(schema, text, "u.model.xml")
    assert len(diags) >= 1
    d = diags[0]
    assert d.span.line == 2
    assert d.span.path == "u.model.xml"


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
    after = generate_schema(state)
    assert validate_with_schema(after, text) == []
    check_one(before, text, "not a valid xs:long")


def test_unsupported_construct_in_unreferenced_type_raises():
    text = golden_schema().text
    marker = '<xs:complexType name="t.HTTP_Client">'
    assert marker in text
    broken = text.replace(marker, marker + "\n    <xs:choice/>")
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
