"""Command line behavior, driven through mtalk.cli.main with captured streams."""

from __future__ import annotations

import json
import os
import re
import xml.etree.ElementTree as ET

import pytest

from mtalk.cli import EXIT_ERRORS, EXIT_IO, EXIT_OK, main
from mtalk.compiler import compile_workspace
from mtalk.kernel import KERNEL_SOURCE

from golden import write_golden


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BROKEN_XML = """\
<model>
  <bean id="Orphan" class="NoSuchClass"/>
</model>
"""


# ---------------------------------------------------------------------------
# compile


def test_compile_clean_workspace_exits_zero(golden_root, capsys):
    code, out, err = run(capsys, "compile", "--root", str(golden_root))
    assert code == EXIT_OK
    assert out == ""
    assert err == ""


def test_compile_reports_errors_and_exits_one(tmp_path, capsys):
    (tmp_path / "bad.model.xml").write_text(BROKEN_XML, encoding="utf-8")
    code, out, err = run(capsys, "compile", "--root", str(tmp_path))
    assert code == EXIT_ERRORS
    assert "error[E001]" in out
    assert "NoSuchClass" in out


def test_compile_json_empty_report_is_empty_list(golden_root, capsys):
    code, out, err = run(capsys, "compile", "--root", str(golden_root), "--json")
    assert code == EXIT_OK
    assert json.loads(out) == []


def test_compile_json_error_payload(tmp_path, capsys):
    (tmp_path / "bad.model.xml").write_text(BROKEN_XML, encoding="utf-8")
    code, out, err = run(capsys, "compile", "--root", str(tmp_path), "--json")
    assert code == EXIT_ERRORS
    payload = json.loads(out)
    assert payload and payload[0]["code"] == "E001"
    assert payload[0]["severity"] == "error"


def test_undecodable_unit_is_reported_like_the_library(golden_root, capsys):
    from mtalk.compiler import compile_workspace, load_state
    from mtalk.native import load_manifest

    manifest = load_manifest(os.path.join(golden_root, "manifest.json"))
    bad = golden_root / "pictures.model.xml"
    good = bad.read_bytes()

    def check(state_cached):
        assert (load_state(golden_root / ".mtalk" / "state") is not None) == state_cached
        _, expected = compile_workspace(golden_root, manifest)
        code, out, err = run(capsys, "compile", "--json", "--root", str(golden_root))
        assert (code, err) == (EXIT_ERRORS if expected else EXIT_OK, "")
        assert json.loads(out) == [d.to_dict() for d in expected]
        return [d.code for d in expected]

    bad.write_bytes(good.replace(b"</model>", b"\xff</model>"))
    assert check(state_cached=False) == ["E000"]  # cold: every unit read
    assert check(state_cached=True) == ["E000"]   # warm: from the saved state
    bad.write_bytes(good)
    assert check(state_cached=True) == []
    bad.write_bytes(good.replace(b"</model>", b"\xff</model>"))
    assert check(state_cached=True) == ["E000"]
    bad.unlink()
    assert check(state_cached=True) == []


def test_missing_root_is_an_io_failure(tmp_path, capsys):
    code, out, err = run(capsys, "compile", "--root", str(tmp_path / "nope"))
    assert code == EXIT_IO
    assert "not a directory" in err


# ---------------------------------------------------------------------------
# compile state caching


def test_compile_persists_state_under_root(golden_root, capsys):
    run(capsys, "compile", "--root", str(golden_root))
    assert (golden_root / ".mtalk" / "state" / "state.bin").is_file()


def test_second_compile_reuses_cached_state(golden_root, capsys):
    run(capsys, "compile", "--root", str(golden_root))
    code, out, err = run(capsys, "compile", "--root", str(golden_root))
    assert code == EXIT_OK
    assert out == ""


def test_state_env_var_moves_the_cache(golden_root, tmp_path, monkeypatch, capsys):
    target = tmp_path / "elsewhere"
    monkeypatch.setenv("MTALK_STATE", str(target))
    code, _, _ = run(capsys, "compile", "--root", str(golden_root))
    assert code == EXIT_OK
    assert (target / "state.bin").is_file()
    assert not (golden_root / ".mtalk").exists()


def test_state_flag_beats_env_var(golden_root, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MTALK_STATE", str(tmp_path / "ignored"))
    flagged = tmp_path / "flagged"
    run(capsys, "compile", "--root", str(golden_root), "--state", str(flagged))
    assert (flagged / "state.bin").is_file()
    assert not (tmp_path / "ignored").exists()


def test_corrupt_state_file_falls_back_to_full_compile(golden_root, capsys):
    run(capsys, "compile", "--root", str(golden_root))
    state_file = golden_root / ".mtalk" / "state" / "state.bin"
    state_file.write_bytes(b"junk")
    code, out, err = run(capsys, "compile", "--root", str(golden_root))
    assert code == EXIT_OK
    assert out == ""


def test_state_of_the_previous_layout_compiles_cold(golden_root, capsys, monkeypatch):
    # under MTALKST5 a state's dependency graph pickled its flat edge set,
    # not its edges by source
    from mtalk import cli
    from mtalk.compiler import _STATE_MAGIC, load_state

    run(capsys, "compile", "--root", str(golden_root))
    state_dir = golden_root / ".mtalk" / "state"
    state_file = state_dir / "state.bin"
    assert _STATE_MAGIC == b"MTALKST6\n"
    state_file.write_bytes(b"MTALKST5\n" + state_file.read_bytes()[len(_STATE_MAGIC):])
    assert load_state(state_dir) is None
    cold = []
    monkeypatch.setattr(cli, "compile_workspace", lambda *a: cold.append(1) or compile_workspace(*a))
    code, out, err = run(capsys, "compile", "--root", str(golden_root))
    assert (code, out, err, cold) == (EXIT_OK, "", "", [1])
    assert state_file.read_bytes().startswith(_STATE_MAGIC)


def test_no_cache_flag_ignores_persisted_state(golden_root, capsys):
    run(capsys, "compile", "--root", str(golden_root))
    code, out, _ = run(capsys, "compile", "--root", str(golden_root), "--no-cache")
    assert code == EXIT_OK
    assert out == ""


def test_incremental_cache_picks_up_edits(golden_root, capsys):
    run(capsys, "compile", "--root", str(golden_root))
    core = golden_root / "core.model.xml"
    core.write_text(
        core.read_text(encoding="utf-8").replace(
            'class="MetaCache">', 'class="GoneMeta">', 1
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "compile", "--root", str(golden_root))
    assert code == EXIT_ERRORS
    assert "GoneMeta" in out


def test_only_a_compile_that_changed_something_rewrites_the_state(golden_root, capsys):
    from mtalk import vm
    from mtalk.compiler import load_state

    state_dir = golden_root / ".mtalk" / "state"
    state_file = state_dir / "state.bin"

    def compile_and_stat():
        assert run(capsys, "compile", "--root", str(golden_root))[0] == EXIT_OK
        st = state_file.stat()
        return state_file.read_bytes(), st.st_mtime_ns

    compile_and_stat()
    os.utime(state_file, ns=(10**18, 10**18))  # a rewrite cannot keep this mtime
    before = state_file.read_bytes()
    assert compile_and_stat() == (before, 10**18)

    core = golden_root / "core.model.xml"
    core.write_text(core.read_text(encoding="utf-8").replace("<timeout>2</timeout>", "<timeout>4</timeout>"),
                    encoding="utf-8")
    _, mtime = compile_and_stat()
    assert mtime != 10**18
    loaded = load_state(state_dir)
    assert vm.get_instance(vm.load(loaded.model()), "PontisLogoRetriever").values["timeout"] == 4

    os.utime(state_file, ns=(10**18, 10**18))
    manifest = json.loads((golden_root / "manifest.json").read_text(encoding="utf-8"))
    manifest["classes"].append({"name": "Ghost", "parent": None, "fields": []})
    (golden_root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code, out, _ = run(capsys, "compile", "--root", str(golden_root))
    assert code == EXIT_OK and "Ghost" in out
    assert state_file.stat().st_mtime_ns != 10**18
    assert load_state(state_dir).manifest.get("Ghost") is not None


# ---------------------------------------------------------------------------
# get


def test_get_prints_effective_values(golden_root, capsys):
    code, out, err = run(capsys, "get", "PontisLogoRetriever", "--root", str(golden_root))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "numberOfRetries=2" in lines
    assert "timeout=2" in lines
    assert 'URL="www.pontis.com/logo.bmp"' in lines
    assert len(lines) == 3


def test_get_value_rendering_for_refs_and_scalars(tmp_path, capsys):
    (tmp_path / "m.model.xml").write_text(
        "<model>\n"
        '  <bean id="MetaHelper" class="Class" parent="Class"/>\n'
        '  <bean id="Kls" class="Class">\n'
        "    <properties>\n"
        "      <property><name>peer</name><type>Helper</type></property>\n"
        "      <property><name>impl</name><type>MetaHelper</type></property>\n"
        "      <property><name>flag</name><type>Boolean</type></property>\n"
        "      <property><name>label</name><type>String</type></property>\n"
        "    </properties>\n"
        "  </bean>\n"
        '  <bean id="Helper" class="MetaHelper"/>\n'
        '  <bean id="h1" class="Helper"/>\n'
        '  <bean id="k1" class="Kls">\n'
        '    <peer ref="h1"/>\n'
        '    <impl ref="Helper"/>\n'
        "    <flag>true</flag>\n"
        "    <label>hi there</label>\n"
        "  </bean>\n"
        "</model>\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "get", "k1", "--root", str(tmp_path))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "peer=h1" in lines
    assert "impl=Helper" in lines  # class ref renders as the class name
    assert "flag=true" in lines
    assert 'label="hi there"' in lines


def test_get_json_uses_dump_format(golden_root, capsys):
    code, out, _ = run(
        capsys, "get", "PontisLogoRetriever", "--root", str(golden_root), "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class"] == "HTTP_Client"
    assert payload["native"] == "HTTP_Client"
    assert payload["values"] == {
        "numberOfRetries": 2,
        "timeout": 2,
        "URL": "www.pontis.com/logo.bmp",
    }


def test_get_refuses_errored_workspace(tmp_path, capsys):
    write_golden(tmp_path, manifest=False)
    (tmp_path / "bad.model.xml").write_text(BROKEN_XML, encoding="utf-8")
    code, out, err = run(capsys, "get", "PontisLogoRetriever", "--root", str(tmp_path))
    assert code == EXIT_ERRORS
    assert out == ""
    assert "E001" in err


def test_get_unknown_bean(golden_root, capsys):
    code, out, err = run(capsys, "get", "Nobody", "--root", str(golden_root))
    assert code == EXIT_ERRORS
    assert "Nobody" in err


def test_get_on_class_id_is_rejected(golden_root, capsys):
    code, out, err = run(capsys, "get", "HTTP_Client", "--root", str(golden_root))
    assert code == EXIT_ERRORS
    assert "MetaView" in err


# ---------------------------------------------------------------------------
# deps


ROW_RE = re.compile(
    r"^\S+ \((instance-of|subclass-of|parent-bean|property-type|value-ref|native-binding)\)$"
)


def test_deps_walks_outgoing_closure(golden_root, capsys):
    code, out, _ = run(capsys, "deps", "PontisLogoRetriever", "--root", str(golden_root))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "HTTP_Client (instance-of)" in lines
    assert "FastHTTP_Client (parent-bean)" in lines
    assert "MetaCache (instance-of)" in lines
    for line in lines:
        assert ROW_RE.match(line), line
    # manifest pseudo-nodes stay internal
    assert not any("\x00" in line for line in lines)


def test_deps_reverse_lists_dependents(golden_root, capsys):
    code, out, _ = run(
        capsys, "deps", "StandardCache", "--root", str(golden_root), "--reverse"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert any(line.startswith("HTTP_Client ") for line in lines)
    assert any(line.startswith("CNN_NewsRetriever ") for line in lines)


def test_deps_unknown_element(golden_root, capsys):
    code, out, err = run(capsys, "deps", "Zzz", "--root", str(golden_root))
    assert code == EXIT_ERRORS
    assert "unknown element 'Zzz'" in err


def test_deps_json_rows(golden_root, capsys):
    code, out, _ = run(
        capsys, "deps", "CNN_NewsRetriever", "--root", str(golden_root), "--json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert {"id": "NewsRetriever", "kind": "instance-of"} in rows
    assert all(set(row) == {"id", "kind"} for row in rows)


# the exact rows of `mtalk deps` on the golden workspace, in breadth-first
# order: each element once, with the kind of the edge that first reached it
_DEPS_ROWS = {
    ("PontisLogoRetriever", False): [
        ("FastHTTP_Client", "parent-bean"), ("HTTP_Client", "instance-of"), ("MetaCache", "instance-of"),
        ("Object", "subclass-of"), ("StandardCache", "instance-of"), ("CacheManager", "property-type"),
        ("Class", "instance-of"),
    ],
    ("PontisLogoRetriever", True): [],
    ("StandardCache", False): [("CacheManager", "subclass-of"), ("Class", "instance-of"), ("Object", "subclass-of")],
    ("StandardCache", True): [
        ("HTTP_Client", "instance-of"), ("NewsRetriever", "instance-of"), ("PictureRetriever", "instance-of"),
        ("StockQuoteRetriever", "instance-of"), ("BankBalanceRetriever", "subclass-of"),
        ("FastHTTP_Client", "instance-of"), ("PontisLogoRetriever", "instance-of"),
        ("RobustHTTP_Client", "instance-of"), ("CNN_NewsRetriever", "instance-of"),
        ("LogoPictureRetriever", "instance-of"),
    ],
    ("CNN_NewsRetriever", False): [
        ("FastHTTP_Client", "parent-bean"), ("NewsRetriever", "instance-of"), ("HTTP_Client", "instance-of"),
        ("MetaCache", "instance-of"), ("StandardCache", "instance-of"), ("Object", "subclass-of"),
        ("CacheManager", "property-type"), ("Class", "instance-of"),
    ],
    ("CNN_NewsRetriever", True): [],
}


@pytest.mark.parametrize("element,reverse", sorted(_DEPS_ROWS))
def test_deps_rows_are_pinned(golden_root, capsys, element, reverse):
    rows = _DEPS_ROWS[element, reverse]
    flags = ["--reverse"] if reverse else []
    code, out, _ = run(capsys, "deps", element, "--root", str(golden_root), *flags)
    assert code == EXIT_OK
    assert out == "".join(f"{e} ({k})\n" for e, k in rows)
    code, out, _ = run(capsys, "deps", element, "--root", str(golden_root), "--json", *flags)
    assert code == EXIT_OK
    assert out == json.dumps([{"id": e, "kind": k} for e, k in rows], indent=2) + "\n"


# ---------------------------------------------------------------------------
# schema


def test_schema_stdout_is_root_schema(golden_root, capsys):
    code, out, _ = run(capsys, "schema", "--root", str(golden_root))
    assert code == EXIT_OK
    assert "<xs:schema" in out
    assert 'name="model"' in out


def test_schema_output_writes_per_namespace_files(golden_root, tmp_path, capsys):
    target = tmp_path / "out" / "schema.xsd"
    code, out, _ = run(
        capsys, "schema", "--root", str(golden_root), "-o", str(target)
    )
    assert code == EXIT_OK
    root_schema = tmp_path / "out" / "schema.root.xsd"
    assert root_schema.is_file()
    assert target.is_file()
    agg = target.read_text(encoding="utf-8")
    assert 'schemaLocation="schema.root.xsd"' in agg
    listed = out.splitlines()
    assert str(root_schema) in listed
    assert str(target) in listed


def test_schema_output_names_one_file_per_namespace(tmp_path, capsys):
    root = tmp_path / "ws"
    root.mkdir()
    namespaces = ["", "root", "a.b", "a_b", 'a&b"c']
    for i, ns in enumerate(namespaces):
        xmlns = f' xmlns="{ns.replace("&", "&amp;").replace(chr(34), "&quot;")}"' if ns else ""
        (root / f"u{i}.model.xml").write_text(
            f'<model{xmlns}><bean id="B{i}" class="Class" declarative="true"/></model>', encoding="utf-8"
        )
    target = tmp_path / "out" / "schema.xsd"
    code, out, _ = run(capsys, "schema", "--root", str(root), "-o", str(target))
    assert code == EXIT_OK
    files = {
        "": "schema.root.xsd",
        'a&b"c': "schema.a_b_c.xsd",
        "a.b": "schema.a_b.xsd",
        "a_b": "schema.a_b-2.xsd",
        "root": "schema.root-2.xsd",
    }
    assert sorted(out.splitlines()) == sorted(str(target.parent / f) for f in [*files.values(), "schema.xsd"])
    xs = "{http://www.w3.org/2001/XMLSchema}"
    for ns, name in files.items():
        doc = ET.parse(target.parent / name).getroot()
        assert doc.get("targetNamespace", "") == ns
    agg = ET.parse(target).getroot()
    assert [(e.tag, e.get("namespace"), e.get("schemaLocation")) for e in agg] == [
        (xs + ("import" if ns else "include"), ns or None, name) for ns, name in sorted(files.items())
    ]


def test_non_utf8_manifest_is_named(golden_root, capsys):
    (golden_root / "manifest.json").write_bytes(b"\xff{}")
    code, out, err = run(capsys, "compile", "--root", str(golden_root))
    assert code == EXIT_ERRORS
    assert out == ""
    assert err.startswith(f"cannot read manifest {golden_root / 'manifest.json'}: 'utf-8' codec can't decode")


# ---------------------------------------------------------------------------
# rename


def test_rename_dry_run_plans_without_writing(tmp_path, capsys):
    write_golden(tmp_path, manifest=False)
    before = (tmp_path / "core.model.xml").read_text(encoding="utf-8")
    code, out, _ = run(
        capsys,
        "rename", "HTTP_Client", "HttpClient",
        "--root", str(tmp_path), "--dry-run",
    )
    assert code == EXIT_OK
    assert "planned 8 patches in 3 files" in out
    assert (tmp_path / "core.model.xml").read_text(encoding="utf-8") == before


def test_rename_applies_and_recompiles_clean(tmp_path, capsys):
    write_golden(tmp_path, manifest=False)
    code, out, _ = run(
        capsys, "rename", "HTTP_Client", "HttpClient", "--root", str(tmp_path)
    )
    assert code == EXIT_OK
    assert "applied 8 patches in 3 files" in out
    assert "HttpClient" in (tmp_path / "core.model.xml").read_text(encoding="utf-8")
    code, out, _ = run(capsys, "compile", "--root", str(tmp_path), "--no-cache")
    assert code == EXIT_OK
    assert out == ""


def test_rename_property_via_flag(tmp_path, capsys):
    write_golden(tmp_path, manifest=False)
    code, out, _ = run(
        capsys,
        "rename", "URL", "targetUrl",
        "--property", "HTTP_Client", "--root", str(tmp_path),
    )
    assert code == EXIT_OK
    assert "applied 7 patches in 3 files" in out
    assert "<targetUrl>" in (tmp_path / "retrievers.model.xml").read_text(encoding="utf-8")
    code, _, _ = run(capsys, "compile", "--root", str(tmp_path), "--no-cache")
    assert code == EXIT_OK


def test_rename_unknown_element_exits_one(tmp_path, capsys):
    write_golden(tmp_path, manifest=False)
    code, out, err = run(capsys, "rename", "Ghost", "Spirit", "--root", str(tmp_path))
    assert code == EXIT_ERRORS
    assert "Ghost" in err


def test_rename_collision_exits_one(tmp_path, capsys):
    write_golden(tmp_path, manifest=False)
    code, out, err = run(
        capsys, "rename", "HTTP_Client", "CacheManager", "--root", str(tmp_path)
    )
    assert code == EXIT_ERRORS
    assert "already exists" in err


def test_rename_json_payload(tmp_path, capsys):
    write_golden(tmp_path, manifest=False)
    code, out, _ = run(
        capsys,
        "rename", "HTTP_Client", "HttpClient",
        "--root", str(tmp_path), "--dry-run", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["patches"]) == 8
    assert payload["applied"] is False
    assert payload["warnings"] == []
    assert all({"path", "span", "replacement"} == set(p) for p in payload["patches"])


def test_rename_with_manifest_prints_warning(golden_root, capsys):
    code, out, _ = run(
        capsys,
        "rename", "HTTP_Client", "HttpClient",
        "--root", str(golden_root), "--dry-run",
    )
    assert code == EXIT_OK
    assert "W001" in out


# ---------------------------------------------------------------------------
# watch


def test_watch_bounded_polls_exit_clean(golden_root, capsys):
    code, out, _ = run(
        capsys,
        "watch", "--root", str(golden_root), "--polls", "1", "--interval", "0.01",
    )
    assert code == EXIT_OK
    assert f"watching {golden_root}" in out


def test_watch_missing_root(tmp_path, capsys):
    code, out, err = run(capsys, "watch", "--root", str(tmp_path / "gone"))
    assert code == EXIT_IO
    assert "not a directory" in err


def test_watch_rejects_cache_flags(golden_root, capsys):
    # watch keeps its state in memory: the cache and output flags of the
    # compiling subcommands are not its own
    with pytest.raises(SystemExit) as exc:
        main(["watch", "--root", str(golden_root), "--no-cache", "--polls", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-cache" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen and kernel


def test_gen_writes_a_compilable_workspace(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code, out, _ = run(
        capsys,
        "gen", "-o", str(out_dir),
        "--classes", "12", "--metaclasses", "2",
        "--mean-dit", "2.0", "--instances", "1", "--seed", "5",
    )
    assert code == EXIT_OK
    assert re.search(r"generated \d+ files in ", out)
    assert (out_dir / "manifest.json").is_file()
    code, out, _ = run(capsys, "compile", "--root", str(out_dir))
    assert code == EXIT_OK
    assert out == ""


def test_gen_rejects_invalid_spec(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "-o", str(tmp_path / "x"), "--classes", "0")
    assert code == EXIT_ERRORS
    assert err != ""


def test_kernel_prints_embedded_unit(capsys):
    code, out, _ = run(capsys, "kernel")
    assert code == EXIT_OK
    assert out == KERNEL_SOURCE + "\n"
