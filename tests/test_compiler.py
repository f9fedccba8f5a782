"""Full-compile validation: every diagnostic code, determinism, rendering."""

import dataclasses
import json

import pytest

import mtalk
from mtalk import vm
from mtalk.compiler import (
    CompileState,
    check_conformance,
    check_override,
    compile_model,
    compile_workspace,
    scalar_conforms,
    validate_element,
)
from mtalk.diagnostics import (
    ABSTRACT_INSTANTIATION,
    CONFORMANCE,
    COVARIANCE,
    CYCLE,
    DUPLICATE_ID,
    INCOMPATIBLE_PARENT,
    MANIFEST_ORPHAN,
    PROPERTIES_ON_INSTANCE,
    TYPE_MISMATCH,
    UNKNOWN_PROPERTY,
    UNRESOLVED_CLASS,
    UNRESOLVED_PARENT,
    UNRESOLVED_TYPE,
    Severity,
    has_errors,
)
from mtalk.ids import ElementId
from mtalk.native import parse_manifest

from golden import MANIFEST, compile_golden, compile_texts, write_golden


def eid(render):
    return ElementId.parse(render, "")


def codes(diags):
    return [d.code for d in diags]


def manifest_of(obj, path="manifest.json"):
    return parse_manifest(json.dumps(obj), path)


# ---------------------------------------------------------------------------
# Golden workspace


def test_golden_compiles_clean_without_manifest():
    state, diags = compile_golden()
    assert diags == []
    assert not has_errors(state.all_diagnostics())


def test_golden_compiles_clean_with_manifest():
    state, diags = compile_golden(manifest=manifest_of(MANIFEST))
    assert diags == []


def test_compile_workspace_reads_directory(tmp_path):
    write_golden(tmp_path)
    state, diags = compile_workspace(tmp_path)
    assert diags == []
    assert len(state.units) == 5


# ---------------------------------------------------------------------------
# Scalar lexical conformance


@pytest.mark.parametrize(
    "text,ok",
    [
        ("0", True),
        ("-42", True),
        ("+7", True),
        (" 99 ", True),
        (str(2**63 - 1), True),
        (str(2**63), False),
        (str(-(2**63)), True),
        (str(-(2**63) - 1), False),
        ("1.5", False),
        ("ten", False),
        ("", False),
        ("1_000", False),
        ("٣", False),
        pytest.param("0" * 5000 + "7", True, id="5000-leading-zeros"),
        pytest.param("1" * 5000, False, id="5000-digits"),
    ],
)
def test_scalar_long(text, ok):
    assert scalar_conforms(text, "Long") is ok


@pytest.mark.parametrize(
    "text,ok",
    [
        ("1.5", True),
        ("-0.25", True),
        (".5", True),
        ("3.", True),
        ("2e10", True),
        ("6.02E-23", True),
        ("7", True),
        ("nan", False),
        ("1.2.3", False),
        ("", False),
        ("INF", False),
        ("-INF", False),
        ("NaN", False),
        ("inf", False),
        ("Infinity", False),
        ("1_0.5", False),
    ],
)
def test_scalar_double(text, ok):
    assert scalar_conforms(text, "Double") is ok


@pytest.mark.parametrize(
    "text,ok",
    [("true", True), ("false", True), (" true ", True), ("True", False), ("1", False), ("0", False)],
)
def test_scalar_boolean(text, ok):
    assert scalar_conforms(text, "Boolean") is ok


def test_scalar_string_accepts_anything():
    assert scalar_conforms("", "String")
    assert scalar_conforms("  anything <at all> ", "String")


def test_scalar_unknown_builtin_raises():
    with pytest.raises(ValueError):
        scalar_conforms("x", "Int")


# ---------------------------------------------------------------------------
# E002 unknown property


def test_unknown_property_on_instance():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"/>'
        '<bean id="I" class="C"><nope>1</nope></bean>'
        "</model>"
    )
    assert codes(diags) == [UNKNOWN_PROPERTY]
    assert "unknown property 'nope'" in diags[0].message
    assert diags[0].element == eid("m:I")


def test_unknown_class_level_assignment():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="MC" class="Class" parent="Class"/>'
        '<bean id="C" class="MC"><stray>1</stray></bean>'
        "</model>"
    )
    assert codes(diags) == [UNKNOWN_PROPERTY]
    assert diags[0].element == eid("m:C")


def test_unknown_property_inside_inline_bean():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><d class="D"><bogus>1</bogus></d></bean>'
        "</model>"
    )
    assert codes(diags) == [UNKNOWN_PROPERTY]
    assert "bogus" in diags[0].message


# ---------------------------------------------------------------------------
# E003 type mismatches


def test_scalar_value_must_match_builtin():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>n</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><n>seven</n></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert "does not conform to Long" in diags[0].message


def test_boolean_property_strict():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>b</name><type>Boolean</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><b>TRUE</b></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]


def test_ref_value_on_builtin_property():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>n</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="Other" class="C"><n>1</n></bean>'
        '<bean id="I" class="C"><n ref="Other"/></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert "expects a Long value" in diags[0].message


def test_scalar_on_class_typed_property():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><d>literal</d></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert "expects a bean conforming to" in diags[0].message


def test_ref_to_wrong_class():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="E" class="Class"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="Wrong" class="E"/>'
        '<bean id="I" class="C"><d ref="Wrong"/></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert "must conform to m:D (got m:E)" in diags[0].message


def test_ref_to_subclass_instance_accepted():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="DSub" class="Class" parent="D"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="Val" class="DSub"/>'
        '<bean id="I" class="C"><d ref="Val"/></bean>'
        "</model>"
    )
    assert diags == []


def test_unresolved_ref_target():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><d ref="Ghost"/></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert "unresolved bean reference 'Ghost'" in diags[0].message


def test_ref_to_abstract_bean_rejected():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="T" class="D" abstract="true"/>'
        '<bean id="I" class="C"><d ref="T"/></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert "targets an abstract bean" in diags[0].message


def test_ref_to_class_checks_metaclass_conformance():
    # referencing a class injects it reified as an instance of its metaclass
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="MC" class="Class" parent="Class"/>'
        '<bean id="Holder" class="Class">'
        "<properties><property><name>mc</name><type>MC</type></property></properties>"
        "</bean>"
        '<bean id="Target" class="MC"/>'
        '<bean id="I" class="Holder"><mc ref="Target"/></bean>'
        "</model>"
    )
    assert diags == []
    _, diags2 = compile_texts(
        m='<model xmlns="m">'
        '<bean id="MC" class="Class" parent="Class"/>'
        '<bean id="Holder" class="Class">'
        "<properties><property><name>mc</name><type>MC</type></property></properties>"
        "</bean>"
        '<bean id="Plain" class="Class"/>'
        '<bean id="I" class="Holder"><mc ref="Plain"/></bean>'
        "</model>"
    )
    assert codes(diags2) == [TYPE_MISMATCH]


def test_inline_bean_of_wrong_class():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="E" class="Class"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><d class="E"/></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert "inline bean of class m:E does not conform to m:D" in diags[0].message


def test_inline_bean_unresolved_class():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><d class="Ghost"/></bean>'
        "</model>"
    )
    assert codes(diags) == [UNRESOLVED_CLASS]


def test_inline_values_checked_recursively():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class">'
        "<properties><property><name>n</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><d class="D"><n>oops</n></d></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert "does not conform to Long" in diags[0].message


# ---------------------------------------------------------------------------
# E004 cycles


def test_class_parent_cycle():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class" parent="B"/>'
        '<bean id="B" class="Class" parent="A"/>'
        "</model>"
    )
    cyc = [d for d in diags if d.code == CYCLE]
    assert {d.element for d in cyc} == {eid("m:A"), eid("m:B")}
    assert all("cycle in parent chain" in d.message for d in cyc)


def test_instance_parent_cycle():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"/>'
        '<bean id="I1" class="C" parent="I2" abstract="true"/>'
        '<bean id="I2" class="C" parent="I1" abstract="true"/>'
        # leads into the cycle without being on it
        '<bean id="I3" class="C" parent="I1" abstract="true"/>'
        "</model>"
    )
    cyc = [d for d in diags if d.code == CYCLE and "parent chain" in d.message]
    assert {d.element for d in cyc} == {eid("m:I1"), eid("m:I2")}


def test_injection_cycle_through_refs():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>peer</name><type>C</type></property></properties>"
        "</bean>"
        '<bean id="X" class="C"><peer ref="Y"/></bean>'
        '<bean id="Y" class="C"><peer ref="X"/></bean>'
        "</model>"
    )
    cyc = [d for d in diags if d.code == CYCLE]
    assert {d.element for d in cyc} == {eid("m:X"), eid("m:Y")}
    assert all("injection cycle" in d.message for d in cyc)


def test_self_reference_is_injection_cycle():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>peer</name><type>C</type></property></properties>"
        "</bean>"
        '<bean id="X" class="C"><peer ref="X"/></bean>'
        "</model>"
    )
    assert [d.code for d in diags] == [CYCLE]


def test_acyclic_ref_chain_is_fine():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>peer</name><type>C</type></property></properties>"
        "</bean>"
        '<bean id="X" class="C"><peer ref="Y"/></bean>'
        '<bean id="Y" class="C"/>'
        "</model>"
    )
    assert diags == []


# ---------------------------------------------------------------------------
# E005 abstract instantiation (compile-time face)


def test_concrete_instance_of_abstract_class():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class" abstract="true"/>'
        '<bean id="I" class="A"/>'
        "</model>"
    )
    assert codes(diags) == [ABSTRACT_INSTANTIATION]
    assert "'m:A' is abstract" in diags[0].message


def test_abstract_template_of_abstract_class_allowed():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class" abstract="true"/>'
        '<bean id="T" class="A" abstract="true"/>'
        "</model>"
    )
    assert diags == []


def test_inline_bean_of_abstract_class():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class" abstract="true"/>'
        '<bean id="C" class="Class">'
        "<properties><property><name>d</name><type>D</type></property></properties>"
        "</bean>"
        '<bean id="I" class="C"><d class="D"/></bean>'
        "</model>"
    )
    assert codes(diags) == [ABSTRACT_INSTANTIATION]


# ---------------------------------------------------------------------------
# E006 covariant overrides


def test_override_must_narrow():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="Base" class="Class"/>'
        '<bean id="Sub" class="Class" parent="Base"/>'
        '<bean id="A" class="Class">'
        "<properties><property><name>p</name><type>Sub</type></property></properties>"
        "</bean>"
        '<bean id="B" class="Class" parent="A">'
        "<properties><property><name>p</name><type>Base</type></property></properties>"
        "</bean>"
        "</model>"
    )
    assert codes(diags) == [COVARIANCE]
    assert "must narrow m:Sub" in diags[0].message
    assert diags[0].element == eid("m:B")


def test_narrowing_override_accepted():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="Base" class="Class"/>'
        '<bean id="Sub" class="Class" parent="Base"/>'
        '<bean id="A" class="Class">'
        "<properties><property><name>p</name><type>Base</type></property></properties>"
        "</bean>"
        '<bean id="B" class="Class" parent="A">'
        "<properties><property><name>p</name><type>Sub</type></property></properties>"
        "</bean>"
        "</model>"
    )
    assert diags == []


def test_scalar_override_must_keep_type():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class">'
        "<properties><property><name>p</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="B" class="Class" parent="A">'
        "<properties><property><name>p</name><type>String</type></property></properties>"
        "</bean>"
        "</model>"
    )
    assert codes(diags) == [COVARIANCE]


def test_same_type_redeclaration_allowed():
    # redeclaring with the identical type refreshes the description only
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class">'
        "<properties><property><name>p</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="B" class="Class" parent="A">'
        "<properties><property><name>p</name><type>Long</type>"
        "<description>refined</description></property></properties>"
        "</bean>"
        "</model>"
    )
    assert diags == []


def test_check_override_direct_api():
    state, _ = compile_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class">'
        "<properties><property><name>p</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="B" class="Class" parent="A">'
        "<properties><property><name>p</name><type>Boolean</type></property></properties>"
        "</bean>"
        "</model>"
    )
    out = check_override(state.resolved, eid("m:B"))
    assert codes(out) == [COVARIANCE]
    assert check_override(state.resolved, eid("m:A")) == []


# ---------------------------------------------------------------------------
# E007 / W001 native conformance


def test_missing_manifest_entry():
    mani = manifest_of({"classes": []})
    _, diags = compile_texts(
        manifest=mani,
        m='<model xmlns="m"><bean id="N" class="Class"/></model>',
    )
    assert codes(diags) == [CONFORMANCE]
    assert "no manifest entry for native class 'm:N'" in diags[0].message


def test_declarative_class_needs_no_entry():
    mani = manifest_of({"classes": []})
    _, diags = compile_texts(
        manifest=mani,
        m='<model xmlns="m"><bean id="N" class="Class" declarative="true"/></model>',
    )
    assert diags == []


def test_metaclasses_exempt_from_conformance():
    mani = manifest_of({"classes": []})
    _, diags = compile_texts(
        manifest=mani,
        m='<model xmlns="m"><bean id="MC" class="Class" parent="Class"/></model>',
    )
    assert diags == []


def test_manifest_field_missing():
    mani = manifest_of({"classes": [{"name": "m:N", "fields": []}]})
    _, diags = compile_texts(
        manifest=mani,
        m='<model xmlns="m"><bean id="N" class="Class">'
        "<properties><property><name>x</name><type>Long</type></property></properties>"
        "</bean></model>",
    )
    assert codes(diags) == [CONFORMANCE]
    assert "lacks field 'x'" in diags[0].message


def test_manifest_field_type_mismatch():
    mani = manifest_of(
        {"classes": [{"name": "m:N", "fields": [{"name": "x", "type": "String"}]}]}
    )
    _, diags = compile_texts(
        manifest=mani,
        m='<model xmlns="m"><bean id="N" class="Class">'
        "<properties><property><name>x</name><type>Long</type></property></properties>"
        "</bean></model>",
    )
    assert codes(diags) == [CONFORMANCE]
    assert "manifest type 'String'" in diags[0].message


def test_manifest_orphan_warning():
    mani = manifest_of({"classes": [{"name": "Phantom", "fields": []}]})
    state, diags = compile_texts(
        manifest=mani,
        m='<model xmlns="m"><bean id="D" class="Class" declarative="true"/></model>',
    )
    assert codes(diags) == [MANIFEST_ORPHAN]
    assert "manifest entry 'Phantom' has no model class" in diags[0].message
    assert diags[0].severity is Severity.WARNING
    assert not has_errors(state.all_diagnostics())  # warnings are not errors


def test_manifest_naming_declarative_class_warns():
    mani = manifest_of({"classes": [{"name": "m:D", "fields": []}]})
    _, diags = compile_texts(
        manifest=mani,
        m='<model xmlns="m"><bean id="D" class="Class" declarative="true"/></model>',
    )
    assert codes(diags) == [MANIFEST_ORPHAN]
    assert "names a declarative class" in diags[0].message


def test_inherited_fields_not_required_in_manifest():
    # only own properties are checked against the entry
    mani = manifest_of(
        {
            "classes": [
                {"name": "m:A", "fields": [{"name": "x", "type": "Long"}]},
                {"name": "m:B", "fields": []},
            ]
        }
    )
    _, diags = compile_texts(
        manifest=mani,
        m='<model xmlns="m">'
        '<bean id="A" class="Class">'
        "<properties><property><name>x</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="B" class="Class" parent="A"/>'
        "</model>",
    )
    assert diags == []


def test_check_conformance_direct():
    state, _ = compile_golden()
    out = check_conformance(state.resolved, manifest_of(MANIFEST))
    assert out == []


# ---------------------------------------------------------------------------
# E008 / E009 / E010 / E012 / E013


def test_duplicate_across_units():
    _, diags = compile_texts(
        a='<model xmlns="m"><bean id="X" class="Class"/></model>',
        b='<model xmlns="m"><bean id="X" class="Class"/></model>',
    )
    assert DUPLICATE_ID in codes(diags)


def test_unresolved_parent_is_e009():
    _, diags = compile_texts(
        m='<model xmlns="m"><bean id="C" class="Class" parent="Ghost"/></model>'
    )
    assert codes(diags) == [UNRESOLVED_PARENT]


def test_instance_parent_must_be_instance():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"/>'
        '<bean id="I" class="C" parent="C"/>'
        "</model>"
    )
    assert codes(diags) == [INCOMPATIBLE_PARENT]
    assert "must be an instance bean" in diags[0].message


def test_instance_parent_class_must_be_ancestor():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"/>'
        '<bean id="D" class="Class"/>'
        '<bean id="T" class="D" abstract="true"/>'
        '<bean id="I" class="C" parent="T"/>'
        "</model>"
    )
    assert codes(diags) == [INCOMPATIBLE_PARENT]
    assert "is not an ancestor of" in diags[0].message


def test_instance_parent_superclass_template_ok():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="Base" class="Class"/>'
        '<bean id="Sub" class="Class" parent="Base"/>'
        '<bean id="T" class="Base" abstract="true"/>'
        '<bean id="I" class="Sub" parent="T"/>'
        "</model>"
    )
    assert diags == []


def test_class_parent_must_be_class():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"/>'
        '<bean id="I" class="C"/>'
        '<bean id="D" class="Class" parent="I"/>'
        "</model>"
    )
    assert codes(diags) == [INCOMPATIBLE_PARENT]
    assert "of a class must be a class" in diags[0].message


def test_unresolved_property_type_is_e012():
    _, diags = compile_texts(
        m='<model xmlns="m"><bean id="C" class="Class">'
        "<properties><property><name>p</name><type>Ghost</type></property></properties>"
        "</bean></model>"
    )
    assert codes(diags) == [UNRESOLVED_TYPE]
    assert "unresolved property type 'Ghost'" in diags[0].message


def test_property_type_naming_instance_is_e012():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"/>'
        '<bean id="I" class="C"/>'
        '<bean id="D" class="Class">'
        "<properties><property><name>p</name><type>I</type></property></properties>"
        "</bean></model>"
    )
    assert codes(diags) == [UNRESOLVED_TYPE]
    assert "does not name a class" in diags[0].message


def test_properties_on_instance_is_e013():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"/>'
        '<bean id="I" class="C">'
        "<properties><property><name>p</name><type>Long</type></property></properties>"
        "</bean></model>"
    )
    assert codes(diags) == [PROPERTIES_ON_INSTANCE]
    assert "only classes may declare properties" in diags[0].message


# ---------------------------------------------------------------------------
# Abstract templates are validated like any bean


def test_abstract_template_values_type_checked():
    _, diags = compile_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>n</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="T" class="C" abstract="true"><n>not-a-number</n></bean>'
        "</model>"
    )
    assert codes(diags) == [TYPE_MISMATCH]
    assert diags[0].element == eid("m:T")


# ---------------------------------------------------------------------------
# Report shape


def test_diagnostics_sorted_and_deterministic():
    text = (
        '<model xmlns="m">'
        '<bean id="Z" class="Nope1"/>'
        '<bean id="A" class="Nope2"/>'
        "</model>"
    )
    _, d1 = compile_texts(m=text)
    _, d2 = compile_texts(m=text)
    assert d1 == d2
    keys = [(d.span.path, d.span.line, d.span.column, d.code) for d in d1]
    assert keys == sorted(keys)


def test_render_format():
    _, diags = compile_texts(
        m_model_xml='<model xmlns="m"><bean id="X" class="Ghost"/></model>'
    )
    line = diags[0].render()
    assert line == "m.model.xml:1:18: error[E001] unresolved class reference 'Ghost' (m:X)"


def test_validate_element_requires_known_id():
    state, _ = compile_golden()
    from mtalk.errors import NotFoundError

    with pytest.raises(NotFoundError):
        validate_element(state.resolved, eid("Nope"))


def test_compile_model_accepts_parse_diags(tmp_path):
    from mtalk.source import parse_unit

    text = '<model xmlns="m"><bean id="A" class="Class"/><junk/></model>'
    unit, pdiags = parse_unit(text, "m.model.xml")
    assert pdiags != []
    state, diags = compile_model([unit], parse_diags=pdiags)
    assert [d.code for d in diags] == ["E000"]
    assert state.parse_by_path["m.model.xml"] == tuple(pdiags)


def test_state_model_snapshot():
    # the state is the compiled model: the VM holds it as loaded, and no
    # field of it can be reassigned under a loaded snapshot
    state, _ = compile_golden()
    assert state.model() is state
    assert vm.load(state).compiled is state
    assert not has_errors(state.all_diagnostics())
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.graph = None


def test_every_public_name_is_exported():
    assert [name for name in mtalk.__all__ if not hasattr(mtalk, name)] == []
