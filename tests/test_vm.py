"""Runtime behaviour: injection, templates, MetaViews, native binding, reload."""

import threading

import pytest

from mtalk.compiler import compile_model
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
    with pytest.raises(LoadRefusedError, match="1 compile error"):
        load(state)


def test_load_accepts_warnings():
    mani = parse_manifest('{"classes": [{"name": "Zombie", "fields": []}]}', "m.json")
    state, diags = compile_texts(manifest=mani)
    assert [d.code for d in diags] == ["W001"]
    vm = load(state)
    assert isinstance(vm, VmHandle)


def test_load_accepts_compiled_model_or_state():
    state, _ = compile_golden()
    assert isinstance(load(state), VmHandle)
    assert isinstance(load(state.model()), VmHandle)
    with pytest.raises(TypeError):
        load("nonsense")


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
        "</model>"
    )
    values = get_instance(vm, "m:I").values
    assert values["n"] == 42
    assert values["d"] == 2.5
    assert values["b"] is True
    assert values["s"] == " keep "  # String keeps text verbatim


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
    with pytest.raises(LoadRefusedError):
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
