"""Native-binding manifest parsing and the factory registry."""

import json

import pytest

from mtalk.errors import NotFoundError
from mtalk.native import (
    ManifestError,
    NativeClassSig,
    NativeFieldSig,
    NativeManifest,
    NativeRegistry,
    bind,
    load_manifest,
    parse_manifest,
)

from golden import MANIFEST


def parse_obj(obj, path="manifest.json"):
    return parse_manifest(json.dumps(obj), path)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_golden_manifest():
    mani = parse_obj(MANIFEST)
    assert mani.get("HTTP_Client") is not None
    sig = mani.get("HTTP_Client")
    assert sig.field_map()["timeout"].type == "Long"
    assert sig.field_map()["URL"].type == "String"
    assert mani.get("StandardCache").parent == "CacheManager"
    assert "CacheManager" in mani.names()


def test_empty_manifest():
    mani = parse_obj({})
    assert mani.classes == ()
    assert mani.names() == frozenset()
    assert mani.get("anything") is None


def test_fields_default_to_empty():
    mani = parse_obj({"classes": [{"name": "A"}]})
    assert mani.get("A").fields == ()
    assert mani.get("A").parent is None


def test_fingerprint_tracks_text():
    a = parse_manifest('{"classes": []}', "m.json")
    b = parse_manifest('{"classes":  []}', "m.json")
    c = parse_manifest('{"classes": []}', "m.json")
    assert a.fingerprint == c.fingerprint
    assert a.fingerprint != b.fingerprint


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("[]", "top level must be an object"),
        ('{"classes": {}}', "'classes' must be a list"),
        ('{"classes": ["x"]}', "classes[0] must be an object"),
        ('{"classes": [{}]}', "missing 'name'"),
        ('{"classes": [{"name": ""}]}', "missing 'name'"),
        ('{"classes": [{"name": "A", "parent": 3}]}', "'parent' must be a string or null"),
        ('{"classes": [{"name": "A", "fields": 4}]}', "'fields' must be a list"),
        ('{"classes": [{"name": "A", "fields": [3]}]}', "fields[0] must be an object"),
        ('{"classes": [{"name": "A", "fields": [{"type": "Long"}]}]}', "missing 'name'"),
        ('{"classes": [{"name": "A", "fields": [{"name": "x"}]}]}', "missing 'type'"),
        (
            '{"classes": [{"name": "A"}, {"name": "A"}]}',
            "duplicate class 'A'",
        ),
        (
            '{"classes": [{"name": "A", "fields": [{"name": "x", "type": "Long"}, {"name": "x", "type": "Long"}]}]}',
            "duplicate field 'x'",
        ),
        ("{", "malformed manifest"),
    ],
)
def test_structural_errors(doc, fragment):
    with pytest.raises(ManifestError, match=None) as exc:
        parse_manifest(doc, "m.json")
    assert fragment in str(exc.value)


def test_load_manifest_file(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(MANIFEST), encoding="utf-8")
    mani = load_manifest(p)
    assert mani.get("HTTP_Client") is not None
    assert mani.path == str(p)


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(ManifestError, match="cannot read manifest"):
        load_manifest(tmp_path / "absent.json")


def test_signature_value_semantics():
    a = NativeClassSig("A", None, (NativeFieldSig("x", "Long"),))
    b = NativeClassSig("A", None, (NativeFieldSig("x", "Long"),))
    assert a == b
    assert a.field_map() == {"x": NativeFieldSig("x", "Long")}


def test_manifest_lookup_is_by_exact_name():
    mani = NativeManifest(
        path="m.json",
        fingerprint="0" * 64,
        classes=(NativeClassSig("ns:A", None, ()),),
    )
    assert mani.get("ns:A") is not None
    assert mani.get("A") is None


# ---------------------------------------------------------------------------
# Registry


def test_registry_bind_and_lookup():
    mani = parse_obj({"classes": [{"name": "A"}]})
    reg = NativeRegistry(mani)
    made = {}

    def factory(values):
        made.update(values)
        return object()

    reg.bind("A", factory)
    assert reg.factory_for("A") is factory
    assert reg.factory_for("B") is None


def test_registry_rejects_unknown_class():
    reg = NativeRegistry(parse_obj({"classes": []}))
    with pytest.raises(NotFoundError, match="cannot bind 'Ghost'"):
        reg.bind("Ghost", lambda values: None)


def test_bind_module_function():
    mani = parse_obj({"classes": [{"name": "A"}]})
    reg = NativeRegistry(mani)
    bind(reg, "A", dict)
    assert reg.factory_for("A") is dict
