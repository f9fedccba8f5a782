"""Type-system core: classification, lineage, property merging, conformance."""

import pytest

from mtalk.diagnostics import UNRESOLVED_CLASS, UNRESOLVED_PARENT
from mtalk.errors import NotFoundError, WrongKindError
from mtalk.ids import ElementId
from mtalk.kernel import (
    CLASS_ID,
    OBJECT_ID,
    ElementKind,
    TypeRef,
    bootstrap_kernel,
    conforms,
    kernel_unit,
    resolve,
)
from mtalk.source import parse_unit

from golden import GOLDEN_UNITS


def resolve_texts(**files):
    units = []
    for key, text in files.items():
        unit, diags = parse_unit(text, key.replace("_", ".") + ".model.xml")
        assert diags == [], [d.render() for d in diags]
        units.append(unit)
    return resolve(units)


def golden_model():
    units = [parse_unit(text, path)[0] for path, text in GOLDEN_UNITS.items()]
    model, diags = resolve(units)
    assert diags == []
    return model


def eid(render):
    return ElementId.parse(render, "")


# ---------------------------------------------------------------------------
# Kernel bootstrap


def test_kernel_parses_clean():
    unit = kernel_unit()
    assert [b.written_id for b in unit.beans] == ["Object", "Class"]
    assert unit.namespace == ""


def test_bootstrap_kernel_classification():
    model = bootstrap_kernel()
    assert model.elements[OBJECT_ID].kind is ElementKind.MODEL_CLASS
    assert model.elements[CLASS_ID].kind is ElementKind.METACLASS


def test_class_is_instance_of_itself():
    model = bootstrap_kernel()
    assert model.classes[CLASS_ID].metaclass == CLASS_ID


def test_object_has_no_parent_class_has_object():
    model = bootstrap_kernel()
    assert model.classes[OBJECT_ID].parent is None
    assert model.classes[CLASS_ID].parent == OBJECT_ID
    assert model.lineage(CLASS_ID) == (CLASS_ID, OBJECT_ID)


# ---------------------------------------------------------------------------
# Classification


def test_golden_kinds():
    model = golden_model()
    expect = {
        "Class": ElementKind.METACLASS,
        "MetaCache": ElementKind.METACLASS,
        "MetaSecuredCache": ElementKind.METACLASS,
        "Object": ElementKind.MODEL_CLASS,
        "HTTP_Client": ElementKind.MODEL_CLASS,
        "CacheManager": ElementKind.MODEL_CLASS,
        "StandardCache": ElementKind.MODEL_CLASS,
        "SecuredCacheManager": ElementKind.MODEL_CLASS,
        "PictureRetriever": ElementKind.MODEL_CLASS,
        "NewsRetriever": ElementKind.MODEL_CLASS,
        "StockQuoteRetriever": ElementKind.MODEL_CLASS,
        "BankBalanceRetriever": ElementKind.MODEL_CLASS,
        "RobustHTTP_Client": ElementKind.INSTANCE,
        "FastHTTP_Client": ElementKind.INSTANCE,
        "PontisLogoRetriever": ElementKind.INSTANCE,
        "CNN_NewsRetriever": ElementKind.INSTANCE,
        "LogoPictureRetriever": ElementKind.INSTANCE,
    }
    for render, kind in expect.items():
        assert model.elements[eid(render)].kind is kind, render


def test_metaclass_via_parent_chain():
    # M reaches Class through two explicit parent hops
    model, diags = resolve_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class" parent="Class"/>'
        '<bean id="B" class="A" parent="A"/>'
        '<bean id="C" class="B"/>'
        "</model>"
    )
    assert diags == []
    assert model.elements[eid("m:A")].kind is ElementKind.METACLASS
    assert model.elements[eid("m:B")].kind is ElementKind.METACLASS
    assert model.elements[eid("m:C")].kind is ElementKind.MODEL_CLASS


def test_instance_of_class_without_parent_edge_is_model_class():
    # class="Class" alone makes a model class, not a metaclass
    model, diags = resolve_texts(
        m='<model xmlns="m"><bean id="Plain" class="Class"/></model>'
    )
    assert diags == []
    assert model.elements[eid("m:Plain")].kind is ElementKind.MODEL_CLASS


def test_instance_classification_requires_metaclass_target():
    model, diags = resolve_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"/>'
        '<bean id="I" class="C"/>'
        '<bean id="II" class="I"/>'
        "</model>"
    )
    assert model.elements[eid("m:I")].kind is ElementKind.INSTANCE
    # class reference naming an instance: still an instance, with a diagnostic
    assert model.elements[eid("m:II")].kind is ElementKind.INSTANCE
    assert any(d.code == UNRESOLVED_CLASS and d.element == eid("m:II") for d in diags)


# ---------------------------------------------------------------------------
# Reference resolution


def test_lookup_prefers_exact_namespace_then_root():
    model, diags = resolve_texts(
        a='<model xmlns="a"><bean id="N" class="Class"/></model>',
        root='<model><bean id="N" class="Class"/><bean id="OnlyRoot" class="Class"/></model>',
    )
    assert diags == []
    # exact namespace wins over the root fallback
    assert model.lookup(eid("a:N")) == eid("a:N")
    # a name missing from the written namespace falls back to the root one
    assert model.lookup(eid("a:OnlyRoot")) == eid("OnlyRoot")
    assert model.lookup(eid("a:Ghost")) is None
    # bare references never fall "up" into another namespace
    assert model.lookup(eid("Ghost")) is None


def test_unresolved_class_reference_diag():
    model, diags = resolve_texts(
        m='<model xmlns="m"><bean id="X" class="Nowhere"/></model>'
    )
    assert model.elements[eid("m:X")].kind is ElementKind.INSTANCE
    hits = [d for d in diags if d.code == UNRESOLVED_CLASS]
    assert len(hits) == 1 and "Nowhere" in hits[0].message


def test_unresolved_parent_reference_diag():
    _, diags = resolve_texts(
        m='<model xmlns="m"><bean id="X" class="Class" parent="Ghost"/></model>'
    )
    hits = [d for d in diags if d.code == UNRESOLVED_PARENT]
    assert len(hits) == 1 and "Ghost" in hits[0].message


def test_metaclass_must_instantiate_metaclass():
    _, diags = resolve_texts(
        m='<model xmlns="m">'
        '<bean id="MC" class="Class"/>'
        '<bean id="Bad" class="MC" parent="Class"/>'
        "</model>"
    )
    assert any(
        d.code == UNRESOLVED_CLASS and "must name a metaclass" in d.message for d in diags
    )


# ---------------------------------------------------------------------------
# Lineage and implicit parents


def test_implicit_parent_is_object():
    model = golden_model()
    cd = model.classes[eid("HTTP_Client")]
    assert cd.parent == OBJECT_ID and model.elements[eid("HTTP_Client")].decl.parent_ref is None


def test_golden_lineages():
    model = golden_model()
    assert model.lineage(eid("NewsRetriever")) == (
        eid("NewsRetriever"),
        eid("HTTP_Client"),
        OBJECT_ID,
    )
    assert model.lineage(eid("MetaSecuredCache")) == (
        eid("MetaSecuredCache"),
        eid("MetaCache"),
        CLASS_ID,
        OBJECT_ID,
    )


def test_lineage_truncates_on_cycle():
    model, _ = resolve_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class" parent="B"/>'
        '<bean id="B" class="Class" parent="A"/>'
        '<bean id="C" class="Class" parent="A"/>'
        "</model>"
    )
    assert model.lineage(eid("m:A")) == (eid("m:A"), eid("m:B"))
    assert model.in_parent_cycle(eid("m:A"))
    assert model.in_parent_cycle(eid("m:B"))
    assert not model.in_parent_cycle(CLASS_ID)
    # C leads into the cycle but is not on it
    assert model.lineage(eid("m:C")) == (eid("m:C"), eid("m:A"), eid("m:B"))
    assert not model.in_parent_cycle(eid("m:C"))


def test_lineage_requires_class():
    model = golden_model()
    with pytest.raises(WrongKindError):
        model.lineage(eid("PontisLogoRetriever"))
    with pytest.raises(NotFoundError):
        model.lineage(eid("Missing"))


def test_ancestor_set_includes_self():
    model = golden_model()
    anc = model.ancestor_set(eid("NewsRetriever"))
    assert eid("NewsRetriever") in anc
    assert OBJECT_ID in anc


# ---------------------------------------------------------------------------
# Effective properties


def test_effective_properties_merge_down_chain():
    model = golden_model()
    props = model.effective_properties(eid("NewsRetriever"))
    assert [p.name for p in props] == ["numberOfRetries", "timeout", "URL"]
    assert all(p.declared_by == eid("HTTP_Client") for p in props)


def test_override_keeps_ancestor_position():
    model, _ = resolve_texts(
        m='<model xmlns="m">'
        '<bean id="A" class="Class">'
        "<properties>"
        "<property><name>x</name><type>Long</type></property>"
        "<property><name>y</name><type>Long</type></property>"
        "</properties></bean>"
        '<bean id="B" class="Class" parent="A">'
        "<properties>"
        "<property><name>x</name><type>Long</type><description>narrowed</description></property>"
        "<property><name>z</name><type>Long</type></property>"
        "</properties></bean>"
        "</model>"
    )
    props = model.effective_properties(eid("m:B"))
    assert [p.name for p in props] == ["x", "y", "z"]
    x = props[0]
    assert x.declared_by == eid("m:B") and x.description == "narrowed"


def test_metaclass_properties_flow_to_submetaclasses():
    model = golden_model()
    props = model.effective_properties(eid("MetaSecuredCache"))
    by_name = {p.name: p for p in props}
    assert by_name["cache"].declared_by == eid("MetaSecuredCache")
    assert by_name["cache"].type.class_id == eid("SecuredCacheManager")


# ---------------------------------------------------------------------------
# Type resolution and conformance


def test_resolve_type_builtin_and_class():
    model = golden_model()
    t_long = model.resolve_type(eid("Long"), "Long")
    assert t_long.is_builtin and t_long.builtin == "Long"
    t_cls = model.resolve_type(eid("CacheManager"), "CacheManager")
    assert t_cls.class_id == eid("CacheManager")
    t_bad = model.resolve_type(eid("Nothing"), "Nothing")
    assert t_bad.is_unresolved


def test_element_shadows_builtin_name_in_types():
    # a class named like nothing builtin; builtin only kicks in when no element matches
    model, _ = resolve_texts(
        m='<model xmlns="m"><bean id="C" class="Class"/></model>'
    )
    t = model.resolve_type(eid("m:C"), "C")
    assert t.class_id == eid("m:C") and not t.is_builtin


def test_type_naming_instance_is_unresolved():
    model = golden_model()
    t = model.resolve_type(eid("PontisLogoRetriever"), "PontisLogoRetriever")
    assert t.is_unresolved


def test_conforms_scalars_nominal():
    model = bootstrap_kernel()
    long_t = TypeRef("Long", None, "Long")
    string_t = TypeRef("String", None, "String")
    assert conforms(model, long_t, long_t)
    assert not conforms(model, long_t, string_t)
    assert not conforms(model, string_t, long_t)


def test_conforms_classes_by_lineage():
    model = golden_model()
    sub = TypeRef(None, eid("SecuredCacheManager"), "SecuredCacheManager")
    sup = TypeRef(None, eid("CacheManager"), "CacheManager")
    assert conforms(model, sub, sup)
    assert not conforms(model, sup, sub)
    assert conforms(model, sub, sub)


def test_conforms_reflexive_and_transitive_over_golden():
    model = golden_model()
    classes = list(model.classes)
    refs = {c: TypeRef(None, c, c.render()) for c in classes}
    for c in classes:
        assert conforms(model, refs[c], refs[c])
    for a in classes:
        for b in classes:
            for c in classes:
                if conforms(model, refs[a], refs[b]) and conforms(model, refs[b], refs[c]):
                    assert conforms(model, refs[a], refs[c]), (a, b, c)


def test_conforms_scalar_never_matches_class():
    model = golden_model()
    long_t = TypeRef("Long", None, "Long")
    cls_t = TypeRef(None, eid("CacheManager"), "CacheManager")
    assert not conforms(model, long_t, cls_t)
    assert not conforms(model, cls_t, long_t)


def test_conforms_unresolved_never_conforms():
    model = bootstrap_kernel()
    bot = TypeRef(None, None, "Ghost")
    assert not conforms(model, bot, bot)
    assert not conforms(model, bot, TypeRef("Long", None, "Long"))


def test_require_class_error_kinds():
    model = golden_model()
    with pytest.raises(WrongKindError):
        model.require_class(eid("CNN_NewsRetriever"))
    with pytest.raises(NotFoundError):
        model.require_class(eid("Absent"))


def test_resolution_is_maximal_despite_errors():
    # one broken bean does not stop the rest from resolving
    model, diags = resolve_texts(
        m='<model xmlns="m">'
        '<bean id="Bad" class="Missing"/>'
        '<bean id="Good" class="Class"/>'
        "</model>"
    )
    assert diags != []
    assert model.elements[eid("m:Good")].kind is ElementKind.MODEL_CLASS
    assert eid("m:Good") in model.classes
