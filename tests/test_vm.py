"""Runtime behaviour: injection, templates, MetaViews, native binding, reload."""

import threading

import pytest

from mtalk.compiler import compile_model, incremental_compile
from mtalk.errors import NotFoundError, WrongKindError
from mtalk.ids import ElementId
from mtalk.native import NativeRegistry, parse_manifest
from mtalk.source import parse_unit
from mtalk.vm import (
    AbstractInstantiationError,
    InjectionError,
    LoadRefusedError,
    MetaView,
    RuntimeInstance,
    VmHandle,
    _Snapshot,
    dump_instance,
    effective_values,
    get_class,
    get_instance,
    is_instance_of,
    load,
    reflect_properties,
    reload,
    resolve_native,
)

from golden import GOLDEN_UNITS, MANIFEST, compile_golden, compile_texts

import json


def eid(render):
    return ElementId.parse(render, "")


def golden_vm(registry=None, manifest=True):
    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json") if manifest else None
    state, diags = compile_golden(manifest=mani)
    assert diags == []
    return load(state, registry)


def vm_from_texts(**units):
    state, diags = compile_texts(**units)
    assert diags == [], [d.render() for d in diags]
    return load(state)


# ---------------------------------------------------------------------------
# Loading


def test_load_refuses_errors():
    state, diags = compile_texts(
        m='<model xmlns="m"><bean id="X" class="Ghost"/></model>'
    )
    assert diags != []
    with pytest.raises(LoadRefusedError, match=r"^model has 1 compile error\(s\); refusing to load$"):
        load(state)


def test_load_accepts_warnings():
    mani = parse_manifest('{"classes": [{"name": "Zombie", "fields": []}]}', "m.json")
    state, diags = compile_texts(manifest=mani)
    assert [d.code for d in diags] == ["W001"]
    vm = load(state)
    assert isinstance(vm, VmHandle)


def test_load_accepts_only_a_compile_state():
    state, _ = compile_golden()
    handle = load(state)
    assert isinstance(handle, VmHandle)
    with pytest.raises(TypeError):
        load("nonsense")
    with pytest.raises(TypeError):
        reload(handle, state.resolved)
    assert handle.compiled is state


# ---------------------------------------------------------------------------
# Scalar injection and defaults


def test_instance_values_converted_to_python_types():
    vm = golden_vm()
    inst = get_instance(vm, "PontisLogoRetriever")
    assert inst.values["numberOfRetries"] == 2
    assert inst.values["timeout"] == 2
    assert inst.values["URL"] == "www.pontis.com/logo.bmp"
    assert isinstance(inst.values["numberOfRetries"], int)


def test_scalar_conversion_by_type():
    vm = vm_from_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"><properties>'
        "<property><name>n</name><type>Long</type></property>"
        "<property><name>d</name><type>Double</type></property>"
        "<property><name>b</name><type>Boolean</type></property>"
        "<property><name>s</name><type>String</type></property>"
        "</properties></bean>"
        '<bean id="I" class="C"><n> 42 </n><d>2.5</d><b>true</b><s> keep </s></bean>'
        f'<bean id="J" class="C"><n>-{"0" * 5000}7</n><b> false </b></bean>'
        "</model>"
    )
    values = get_instance(vm, "m:I").values
    assert values["n"] == 42
    assert values["d"] == 2.5
    assert values["b"] is True
    assert values["s"] == " keep "  # String keeps text verbatim
    # leading zeros do not count against int()'s digit limit
    assert get_instance(vm, "m:J").values == {"n": -7, "b": False}


def test_unassigned_properties_absent():
    vm = vm_from_texts(
        m='<model xmlns="m">'
        '<bean id="C" class="Class"><properties>'
        "<property><name>n</name><type>Long</type></property>"
        "</properties></bean>"
        '<bean id="I" class="C"/>'
        "</model>"
    )
    inst = get_instance(vm, "m:I")
    assert "n" not in inst.values
    assert dict(inst.values) == {}


def test_instance_identity_is_cached():
    vm = golden_vm()
    a = get_instance(vm, "PontisLogoRetriever")
    b = get_instance(vm, eid("PontisLogoRetriever"))
    assert a is b


def test_values_are_read_only():
    vm = golden_vm()
    inst = get_instance(vm, "PontisLogoRetriever")
    with pytest.raises(TypeError):
        inst.values["timeout"] = 99


def test_unknown_bean():
    vm = golden_vm()
    with pytest.raises(NotFoundError, match="unknown bean"):
        get_instance(vm, "NoSuchBean")


def test_get_instance_on_class_is_wrong_kind():
    vm = golden_vm()
    with pytest.raises(WrongKindError, match="request its MetaView"):
        get_instance(vm, "HTTP_Client")
    get_class(vm, "HTTP_Client")  # the class's MetaView is now cached under its id
    with pytest.raises(WrongKindError, match="request its MetaView"):
        get_instance(vm, "HTTP_Client")


# ---------------------------------------------------------------------------
# Parent templates


def test_template_values_merge_nearest_wins():
    vm = golden_vm()
    logo = get_instance(vm, "LogoPictureRetriever")
    # inherits numberOfRetries/timeout from RobustHTTP_Client, own URL
    assert logo.values["numberOfRetries"] == 8
    assert logo.values["timeout"] == 15
    assert logo.values["URL"] == "www.example.org/logo.png"

    pontis = get_instance(vm, "PontisLogoRetriever")
    assert pontis.values["numberOfRetries"] == 2  # FastHTTP_Client template


def test_abstract_template_not_instantiable():
    vm = golden_vm()
    with pytest.raises(AbstractInstantiationError, match="'FastHTTP_Client' is abstract"):
        get_instance(vm, "FastHTTP_Client")


def test_effective_values_exposes_raw_exprs():
    vm = golden_vm()
    raw = effective_values(vm, "LogoPictureRetriever")
    assert set(raw) == {"numberOfRetries", "timeout", "URL"}
    from mtalk.source import ScalarValue

    assert isinstance(raw["URL"], ScalarValue)
    assert raw["URL"].text == "www.example.org/logo.png"


# ---------------------------------------------------------------------------
# Inline beans and references


def test_ref_value_injects_singleton():
    vm = vm_from_texts(
        m='<model xmlns="m">'
        '<bean id="D" class="Class"/>'
        '<bean id="C" class="Class"><properties>'
        "<property><name>d</name><type>D</type></property>"
        "</properties></bean>"
        '<bean id="Val" class="D"/>'
        '<bean id="A" class="C"><d ref="Val"/></bean>'
        '<bean id="B" class="C"><d ref="Val"/></bean>'
        "</model>"
    )
    a = get_instance(vm, "m:A")
    b = get_instance(vm, "m:B")
    assert a.values["d"] is b.values["d"]
    assert a.values["d"].bean_id == eid("m:Val")


def test_inline_beans_are_anonymous_and_fresh():
    vm = golden_vm()
    cnn = get_instance(vm, "CNN_NewsRetriever")
    cache = get_class(vm, cnn).values["cache"]
    assert isinstance(cache, RuntimeInstance)
    assert cache.bean_id is None
    assert cache.class_id == eid("StandardCache")
    assert cache.values["timeToLive"] == 10
    assert cache.values["maxElementsInMemory"] == 10000


def test_ref_to_class_injects_metaview():
    vm = vm_from_texts(
        m='<model xmlns="m">'
        '<bean id="MC" class="Class" parent="Class">'
        "<properties><property><name>label</name><type>String</type></property></properties>"
        "</bean>"
        '<bean id="Target" class="MC" declarative="true"><label>x</label></bean>'
        '<bean id="Holder" class="Class"><properties>'
        "<property><name>mc</name><type>MC</type></property>"
        "</properties></bean>"
        '<bean id="I" class="Holder"><mc ref="Target"/></bean>'
        "</model>"
    )
    inst = get_instance(vm, "m:I")
    view = inst.values["mc"]
    assert isinstance(view, MetaView)
    assert view.target == eid("m:Target")
    assert view.class_id == eid("m:MC")
    assert view.values["label"] == "x"


# ---------------------------------------------------------------------------
# MetaViews


def test_get_class_of_instance():
    vm = golden_vm()
    cnn = get_instance(vm, "CNN_NewsRetriever")
    view = get_class(vm, cnn)
    assert isinstance(view, MetaView)
    assert view.target == eid("NewsRetriever")
    assert view.class_id == eid("MetaCache")


def test_get_class_by_name():
    vm = golden_vm()
    view = get_class(vm, "StockQuoteRetriever")
    assert view.values["cache"].values["timeToLive"] == 0
    assert view.values["cache"].values["maxElementsInMemory"] == 0


def test_get_class_via_instance_bean_id():
    vm = golden_vm()
    view = get_class(vm, "CNN_NewsRetriever")
    assert view.target == eid("NewsRetriever")


def test_metaview_values_merge_down_subclass_chain():
    vm = vm_from_texts(
        m='<model xmlns="m">'
        '<bean id="MC" class="Class" parent="Class">'
        "<properties><property><name>tag</name><type>String</type></property>"
        "<property><name>level</name><type>Long</type></property></properties>"
        "</bean>"
        '<bean id="Base" class="MC" declarative="true"><tag>base</tag><level>1</level></bean>'
        '<bean id="Sub" class="MC" parent="Base" declarative="true"><tag>sub</tag></bean>'
        "</model>"
    )
    view = get_class(vm, "m:Sub")
    assert view.values["tag"] == "sub"     # own assignment wins
    assert view.values["level"] == 1       # inherited from Base


def test_metaview_cached_per_class():
    vm = golden_vm()
    a = get_class(vm, "NewsRetriever")
    b = get_class(vm, get_instance(vm, "CNN_NewsRetriever"))
    assert a is b


def test_get_class_of_an_instance_whose_class_is_gone():
    text = '<model xmlns="m"><bean id="K" class="Class"/><bean id="k" class="K"/></model>'
    vm = vm_from_texts(m_model_xml=text)
    stale = get_instance(vm, "m:k")
    state, diags = compile_texts(m_model_xml='<model xmlns="m"><bean id="k" class="Class"/></model>')
    assert diags == []
    reload(vm, state)
    with pytest.raises(WrongKindError, match="'m:K' is not a class"):
        get_class(vm, stale)


def test_metaview_of_kernel_class():
    vm = golden_vm()
    view = get_class(vm, "Object")
    assert view.target == eid("Object")
    assert view.class_id == eid("Class")


# ---------------------------------------------------------------------------
# Native resolution and factories


def test_resolve_native_walks_lineage():
    vm = golden_vm()
    assert resolve_native(vm, "HTTP_Client") == "HTTP_Client"
    # declarative subclasses are served by the nearest native ancestor
    assert resolve_native(vm, "PictureRetriever") == "HTTP_Client"
    assert resolve_native(vm, "NewsRetriever") == "HTTP_Client"
    assert resolve_native(vm, eid("SecuredCacheManager")) == "SecuredCacheManager"


def test_resolve_native_none_without_manifest():
    vm = golden_vm(manifest=False)
    assert resolve_native(vm, "HTTP_Client") is None


def test_resolve_native_unknown_class():
    vm = golden_vm()
    with pytest.raises(NotFoundError):
        resolve_native(vm, "Nope")
    with pytest.raises(WrongKindError):
        resolve_native(vm, "CNN_NewsRetriever")


def test_both_id_spellings_resolve_alike():
    # 'ns:C' and ElementId("ns", "C") both fall back to the root namespace's C
    mani = parse_manifest(
        json.dumps({"classes": [{"name": "C", "fields": [{"name": "x", "type": "Long"}]}]}), "manifest.json"
    )
    state, diags = compile_texts(
        manifest=mani,
        root_model_xml='<model><bean id="C" class="Class"><properties>'
        "<property><name>x</name><type>Long</type></property></properties></bean>"
        '<bean id="I" class="C"><x>1</x></bean></model>',
        ns_model_xml='<model xmlns="ns"><bean id="D" class="Class" declarative="true"/></model>',
    )
    assert diags == [], [d.render() for d in diags]
    vm = load(state)
    for c, i in (("ns:C", "ns:I"), (ElementId("ns", "C"), ElementId("ns", "I"))):
        assert resolve_native(vm, c) == "C"
        assert effective_values(vm, i) == effective_values(vm, "I")
        assert get_instance(vm, i) is get_instance(vm, "I")
        assert get_class(vm, c) is get_class(vm, "C")
        assert reflect_properties(vm, c) == reflect_properties(vm, "C")
    for missing in ("ns:Nope", ElementId("ns", "Nope")):
        for lookup in (resolve_native, get_class, reflect_properties):
            with pytest.raises(NotFoundError, match="unknown class 'ns:Nope'"):
                lookup(vm, missing)
        with pytest.raises(NotFoundError, match="unknown bean 'ns:Nope'"):
            effective_values(vm, missing)


def test_instances_report_native_binding():
    vm = golden_vm()
    assert get_instance(vm, "CNN_NewsRetriever").native == "HTTP_Client"
    assert get_instance(vm, "PontisLogoRetriever").native == "HTTP_Client"


def test_registry_factory_invoked_with_values():
    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json")
    reg = NativeRegistry(mani)
    built = []

    class FakeClient:
        def __init__(self, values):
            self.values = values

    def factory(values):
        built.append(values)
        return FakeClient(values)

    reg.bind("HTTP_Client", factory)
    vm = golden_vm(registry=reg)
    inst = get_instance(vm, "PontisLogoRetriever")
    assert isinstance(inst.native_object, FakeClient)
    assert built and built[0]["URL"] == "www.pontis.com/logo.bmp"


def test_unbound_native_class_gets_no_object():
    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json")
    vm = golden_vm(registry=NativeRegistry(mani))
    inst = get_instance(vm, "PontisLogoRetriever")
    assert inst.native == "HTTP_Client"
    assert inst.native_object is None


# ---------------------------------------------------------------------------
# Reflection


def test_reflect_properties_of_instance():
    vm = golden_vm()
    inst = get_instance(vm, "CNN_NewsRetriever")
    props = reflect_properties(vm, inst)
    assert [p.name for p in props] == ["numberOfRetries", "timeout", "URL"]


def test_reflect_properties_of_class_name():
    vm = golden_vm()
    props = reflect_properties(vm, "MetaSecuredCache")
    assert [p.name for p in props] == ["cache"]
    assert props[0].type.class_id == eid("SecuredCacheManager")


def test_is_instance_of():
    vm = golden_vm()
    cnn = get_instance(vm, "CNN_NewsRetriever")
    assert is_instance_of(vm, cnn, "NewsRetriever")
    assert is_instance_of(vm, cnn, "HTTP_Client")
    assert is_instance_of(vm, cnn, "Object")
    assert not is_instance_of(vm, cnn, "PictureRetriever")
    assert not is_instance_of(vm, cnn, "NoSuchClass")


def test_dump_instance_nested():
    vm = golden_vm()
    view = get_class(vm, "CNN_NewsRetriever")
    doc = dump_instance(view)
    assert doc["class"] == "MetaCache"
    assert doc["values"]["cache"]["class"] == "StandardCache"
    assert doc["values"]["cache"]["values"] == {"timeToLive": 10, "maxElementsInMemory": 10000}
    # round-trips through json
    json.dumps(doc)


# ---------------------------------------------------------------------------
# Injection faults: load() refuses these models, so the VM is built directly


def unchecked_vm(**units):
    state, diags = compile_texts(**units)
    assert diags != []
    return VmHandle(_Snapshot(state.model(), None))


def test_instance_ref_cycle_raises_at_the_class():
    vm = unchecked_vm(
        m='<model xmlns="m">'
        '<bean id="C" class="Class">'
        "<properties><property><name>peer</name><type>C</type></property></properties>"
        "</bean>"
        '<bean id="A" class="C"><peer ref="B"/></bean>'
        '<bean id="B" class="C"><peer ref="A"/></bean>'
        "</model>"
    )
    with pytest.raises(InjectionError, match=r"^injection cycle at 'm:C'$"):
        get_instance(vm, "m:A")


def test_class_value_ref_to_itself_raises_at_the_metaview():
    vm = unchecked_vm(
        m='<model xmlns="m">'
        '<bean id="MC" class="Class" parent="Class">'
        "<properties><property><name>peer</name><type>Object</type></property></properties>"
        "</bean>"
        '<bean id="C" class="MC"><peer ref="C"/></bean>'
        "</model>"
    )
    with pytest.raises(InjectionError, match=r"^injection cycle at metaview 'm:C'$"):
        get_class(vm, "m:C")


def test_class_without_resolvable_metaclass():
    vm = unchecked_vm(m='<model xmlns="m"><bean id="MC" class="Ghost" parent="Class"/></model>')
    with pytest.raises(InjectionError, match=r"^class 'm:MC' has no resolvable metaclass$"):
        get_class(vm, "m:MC")


def test_metaview_skips_property_of_unresolved_type():
    vm = unchecked_vm(
        m='<model xmlns="m">'
        '<bean id="MC" class="Class" parent="Class">'
        "<properties><property><name>lost</name><type>Ghost</type></property>"
        "<property><name>label</name><type>String</type></property></properties>"
        "</bean>"
        '<bean id="C" class="MC" declarative="true"><lost>x</lost><label>y</label></bean>'
        "</model>"
    )
    view = get_class(vm, "m:C")
    assert (view.class_id, view.bean_id, view.target) == (eid("m:MC"), eid("m:C"), eid("m:C"))
    assert dict(view.values) == {"label": "y"}


def test_bean_without_resolvable_class():
    vm = unchecked_vm(m='<model xmlns="m"><bean id="X" class="Ghost"/></model>')
    for op in (get_instance, get_class):
        with pytest.raises(InjectionError, match=r"^bean 'm:X' has no resolvable class$"):
            op(vm, "m:X")


# ---------------------------------------------------------------------------
# Reload


def test_reload_swaps_model():
    vm = golden_vm()
    before = get_instance(vm, "PontisLogoRetriever")
    assert before.values["timeout"] == 2

    units = dict(GOLDEN_UNITS)
    units["core.model.xml"] = units["core.model.xml"].replace(
        "<timeout>2</timeout>", "<timeout>7</timeout>"
    )
    parsed = [parse_unit(t, p)[0] for p, t in units.items()]
    state, diags = compile_model(parsed)
    assert diags == []
    reload(vm, state)
    after = get_instance(vm, "PontisLogoRetriever")
    assert after.values["timeout"] == 7
    assert before.values["timeout"] == 2  # old snapshot object untouched


def test_reload_refusal_keeps_old_model():
    vm = golden_vm()
    state, diags = compile_texts(
        m='<model xmlns="m"><bean id="X" class="Ghost"/></model>'
    )
    assert diags != []
    with pytest.raises(LoadRefusedError, match=r"^model has 1 compile error\(s\); keeping current model$"):
        reload(vm, state)
    assert get_instance(vm, "PontisLogoRetriever").values["timeout"] == 2


def test_reload_keeps_registry_unless_replaced():
    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json")
    reg = NativeRegistry(mani)
    reg.bind("HTTP_Client", lambda values: ("built", values["URL"]))
    vm = golden_vm(registry=reg)
    state, _ = compile_golden()
    reload(vm, state)
    inst = get_instance(vm, "PontisLogoRetriever")
    assert inst.native_object == ("built", "www.pontis.com/logo.bmp")


# A value fold of Val dirties Val and A, which references it; Other, H and
# the classes stay untouched. C is an instance of the metaclass MC, and H
# injects C's MetaView.
_CARRY_TEXT = (
    '<model xmlns="m">'
    '<bean id="MC" class="Class" parent="Class"><properties>'
    "<property><name>label</name><type>String</type></property>"
    "</properties></bean>"
    '<bean id="D" class="Class"><properties>'
    "<property><name>n</name><type>Long</type></property>"
    "</properties></bean>"
    '<bean id="C" class="MC"><properties>'
    "<property><name>d</name><type>D</type></property>"
    "</properties><label>one</label></bean>"
    '<bean id="Holder" class="Class"><properties>'
    "<property><name>mc</name><type>MC</type></property>"
    "</properties></bean>"
    '<bean id="Val" class="D"><n>1</n></bean>'
    '<bean id="Other" class="D"><n>5</n></bean>'
    '<bean id="A" class="C"><d ref="Val"/></bean>'
    '<bean id="H" class="Holder"><mc ref="C"/></bean>'
    "</model>"
)


def fold(state, text):
    unit, diags = parse_unit(text, "m.model.xml")
    assert diags == []
    new, _, report = incremental_compile(state, [unit])
    assert report == []
    return new


def carry_states():
    """The base state and a value fold of Val from 1 to 2."""
    base, diags = compile_texts(m_model_xml=_CARRY_TEXT)
    assert diags == []
    return base, fold(base, _CARRY_TEXT.replace("<n>1</n>", "<n>2</n>"))


def read_all(vm):
    return {
        "Val": get_instance(vm, "m:Val"),
        "Other": get_instance(vm, "m:Other"),
        "A": get_instance(vm, "m:A"),
        "H": get_instance(vm, "m:H"),
        "C": get_class(vm, "m:C"),
        "D": get_class(vm, "m:D"),
    }


def test_reload_after_a_fold_keeps_untouched_instances():
    base, edited = carry_states()
    vm = load(base)
    before = read_all(vm)
    reload(vm, edited)
    after = read_all(vm)
    assert all(after[k] is before[k] for k in ("Other", "H", "C", "D"))
    assert after["Val"] is not before["Val"]
    assert after["Val"].values["n"] == 2


def test_reload_after_a_fold_rebuilds_the_referencing_bean():
    base, edited = carry_states()
    vm = load(base)
    assert read_all(vm)["A"].values["d"].values["n"] == 1
    reload(vm, edited)
    a = get_instance(vm, "m:A")
    assert a.values["d"].values["n"] == 2
    assert a.values["d"] is get_instance(vm, "m:Val")


def test_reload_after_a_class_value_fold_rebuilds_the_metaview_and_its_injector():
    base, _ = carry_states()
    edited = fold(base, _CARRY_TEXT.replace("<label>one</label>", "<label>two</label>"))
    vm = load(base)
    before = read_all(vm)
    reload(vm, edited)
    after = read_all(vm)
    assert after["C"] is not before["C"] and after["C"].values["label"] == "two"
    assert after["H"] is not before["H"] and after["H"].values["mc"] is after["C"]
    assert all(after[k] is before[k] for k in ("Val", "Other", "D"))
    fresh = read_all(load(edited))
    assert {k: dump_instance(v) for k, v in after.items()} == {k: dump_instance(v) for k, v in fresh.items()}


def test_reload_after_a_retype_rebuilds_a_bean_that_inherits_the_value():
    text = (
        '<model xmlns="m">'
        '<bean id="A" class="Class"><properties>'
        "<property><name>p</name><type>Long</type></property>"
        "</properties></bean>\n"
        '<bean id="B" class="Class" parent="A"/>\n'
        '<bean id="T" class="B"><p>5</p></bean>\n'
        '<bean id="J" class="B" parent="T"/>\n'
        "</model>"
    )
    base, diags = compile_texts(m_model_xml=text)
    assert diags == []
    vm = load(base)
    assert get_instance(vm, "m:J").values["p"] == 5
    unit, _ = parse_unit(text.replace("<type>Long</type>", "<type>String</type>"), "m.model.xml")
    edited, recompiled, report = incremental_compile(base, [unit])
    assert report == []
    # J assigns nothing, so the fold does not recheck it, but the value it
    # takes over from T now reads as a String
    assert ElementId.parse("m:J") not in recompiled
    reload(vm, edited)
    assert get_instance(vm, "m:J").values["p"] == get_instance(load(edited), "m:J").values["p"] == "5"


def test_reload_two_folds_apart_carries_nothing():
    base, _ = carry_states()
    first = fold(base, _CARRY_TEXT.replace("<n>5</n>", "<n>6</n>"))
    second = fold(first, _CARRY_TEXT.replace("<n>5</n>", "<n>6</n>").replace("<n>1</n>", "<n>2</n>"))
    vm = load(base)
    before = read_all(vm)
    reload(vm, second)
    after = read_all(vm)
    # the second fold's dirty set does not hold Other, which the first changed
    assert after["Other"].values["n"] == 6
    assert all(after[k] is not before[k] for k in before)


def test_reload_with_a_new_registry_carries_nothing():
    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json")
    first, second = NativeRegistry(mani), NativeRegistry(mani)
    first.bind("HTTP_Client", lambda values: "first")
    second.bind("HTTP_Client", lambda values: "second")
    state, _ = compile_golden(manifest=mani)
    # no unit changed, so the fold's dirty set is empty
    edited, _, _ = incremental_compile(state, [], manifest=mani)
    assert edited.dirty == frozenset()
    vm = load(state, first)
    assert get_instance(vm, "CNN_NewsRetriever").native_object == "first"
    reload(vm, edited, second)
    assert get_instance(vm, "CNN_NewsRetriever").native_object == "second"


def test_reload_after_a_bind_carries_nothing():
    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json")
    reg = NativeRegistry(mani)
    reg.bind("HTTP_Client", lambda values: "first")
    state, _ = compile_golden(manifest=mani)
    # no unit changed, so each fold's dirty set is empty
    edited, _, _ = incremental_compile(state, [], manifest=mani)
    again, _, _ = incremental_compile(edited, [], manifest=mani)
    vm = load(state, reg)
    first = get_instance(vm, "CNN_NewsRetriever")
    reload(vm, edited)
    assert get_instance(vm, "CNN_NewsRetriever") is first
    reg.bind("HTTP_Client", lambda values: "second")
    reload(vm, again)
    assert get_instance(vm, "CNN_NewsRetriever").native_object == "second"


def test_reload_with_a_new_manifest_carries_nothing():
    state, _ = compile_golden()
    mani = parse_manifest(json.dumps(MANIFEST), "manifest.json")
    # no unit changed, so the fold's dirty set is empty
    edited, _, diags = incremental_compile(state, [], manifest=mani)
    assert diags == [] and edited.dirty == frozenset()
    vm = load(state)
    assert get_instance(vm, "CNN_NewsRetriever").native is None
    reload(vm, edited)
    assert get_instance(vm, "CNN_NewsRetriever").native == "HTTP_Client"


def test_concurrent_reads_see_single_snapshot():
    vm = golden_vm()
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            inst = get_instance(vm, "PontisLogoRetriever")
            pair = (inst.values["timeout"], inst.values["numberOfRetries"])
            if pair not in ((2, 2), (30, 40)):
                failures.append(pair)
                return

    def swapper():
        texts = dict(GOLDEN_UNITS)
        texts["core.model.xml"] = texts["core.model.xml"].replace(
            "<timeout>2</timeout>", "<timeout>30</timeout>"
        ).replace(
            "<numberOfRetries>2</numberOfRetries>", "<numberOfRetries>40</numberOfRetries>"
        )
        alt_state, diags = compile_model([parse_unit(t, p)[0] for p, t in texts.items()])
        assert diags == []
        base_state, _ = compile_golden()
        for _ in range(200):
            reload(vm, alt_state)
            reload(vm, base_state)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    swapper()
    stop.set()
    for t in threads:
        t.join()
    assert failures == []
