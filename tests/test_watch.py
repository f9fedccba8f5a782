"""Polling watch sessions: change detection, batch recompiles, diagnostic deltas."""

from __future__ import annotations

import os

from mtalk.compiler import compile_workspace
from mtalk.watch import WatchSession, run_watch

from golden import write_golden

E003_LINE = (
    "secured.model.xml:13:5: error[E003] inline bean of class StandardCache "
    "does not conform to SecuredCacheManager (BankBalanceRetriever)"
)


def session_for(root) -> WatchSession:
    write_golden(root, manifest=False)
    return WatchSession(str(root))


def edit(root, name: str, old: str, new: str) -> None:
    path = root / name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_poll_is_none_when_nothing_changed(tmp_path):
    session = session_for(tmp_path)
    assert session.poll() is None
    assert session.poll() is None


def test_touch_without_content_change_recompiles_nothing(tmp_path):
    session = session_for(tmp_path)
    target = tmp_path / "core.model.xml"
    st = target.stat()
    os.utime(target, ns=(st.st_atime_ns + 10**9, st.st_mtime_ns + 10**9))
    result = session.poll()
    assert result is not None
    assert result.recompiled == frozenset()
    assert result.new_diags == ()
    assert result.cleared_diags == ()


def test_edit_recompiles_the_dependent_closure(tmp_path):
    session = session_for(tmp_path)
    edit(tmp_path, "core.model.xml", "<timeout>2</timeout>", "<timeout>3</timeout>")
    result = session.poll()
    assert result is not None
    assert {e.render() for e in result.recompiled} == {
        "FastHTTP_Client",
        "CNN_NewsRetriever",
        "PontisLogoRetriever",
    }
    assert result.diagnostics == ()
    assert result.elapsed_ms >= 0.0
    # the session state kept the edit
    assert session.poll() is None


def test_error_appears_then_clears(tmp_path):
    session = session_for(tmp_path)
    edit(
        tmp_path, "secured.model.xml",
        '<cache class="SecuredCacheManager">', '<cache class="StandardCache">',
    )
    result = session.poll()
    assert result is not None
    assert [d.render() for d in result.new_diags] == [E003_LINE]
    assert result.cleared_diags == ()

    edit(
        tmp_path, "secured.model.xml",
        '<cache class="StandardCache">', '<cache class="SecuredCacheManager">',
    )
    result = session.poll()
    assert result is not None
    assert result.new_diags == ()
    assert [d.render() for d in result.cleared_diags] == [E003_LINE]
    assert result.diagnostics == ()


def test_parse_error_batches_and_recovers(tmp_path):
    session = session_for(tmp_path)
    edit(tmp_path, "pictures.model.xml", "</model>", "</model")
    result = session.poll()
    assert result is not None
    assert any(d.code == "E000" for d in result.new_diags)

    edit(tmp_path, "pictures.model.xml", "</model", "</model>")
    result = session.poll()
    assert result is not None
    assert result.diagnostics == ()


def test_removed_unit_drops_its_elements(tmp_path):
    session = session_for(tmp_path)
    (tmp_path / "pictures.model.xml").unlink()
    result = session.poll()
    assert result is not None
    assert result.diagnostics == ()
    from mtalk.ids import ElementId

    assert session.state.resolved.lookup(ElementId("", "LogoPictureRetriever")) is None


def test_added_unit_joins_the_model(tmp_path):
    session = session_for(tmp_path)
    (tmp_path / "extra.model.xml").write_text(
        '<model>\n  <bean id="MirrorRetriever" class="HTTP_Client" parent="RobustHTTP_Client">\n'
        "    <URL>mirror.example.org</URL>\n  </bean>\n</model>\n",
        encoding="utf-8",
    )
    result = session.poll()
    assert result is not None
    assert result.diagnostics == ()
    from mtalk.ids import ElementId

    assert session.state.resolved.lookup(ElementId("", "MirrorRetriever")) is not None


def test_session_accepts_a_precompiled_state(tmp_path):
    write_golden(tmp_path, manifest=False)
    state, diags = compile_workspace(str(tmp_path))
    assert diags == []
    session = WatchSession(str(tmp_path), state=state)
    assert session.state is state
    assert session.poll() is None


# ---------------------------------------------------------------------------
# run_watch loop


def test_run_watch_emits_recompile_summaries(tmp_path, monkeypatch):
    write_golden(tmp_path, manifest=False)
    calls = {"n": 0}

    def scripted_sleep(_interval):
        calls["n"] += 1
        if calls["n"] == 1:
            edit(tmp_path, "core.model.xml", "<timeout>2</timeout>", "<timeout>3</timeout>")

    import mtalk.watch as watchmod

    monkeypatch.setattr(watchmod.time, "sleep", scripted_sleep)
    lines = []
    code = run_watch(str(tmp_path), interval=0, emit=lines.append, max_polls=2)
    assert code == 0
    assert lines[0] == f"watching {tmp_path}"
    assert any(
        line.startswith("recompiled: 3 elements in ") and line.endswith(" ms")
        for line in lines
    )


def test_run_watch_reports_new_and_cleared_diags(tmp_path, monkeypatch):
    write_golden(tmp_path, manifest=False)
    calls = {"n": 0}

    def scripted_sleep(_interval):
        calls["n"] += 1
        if calls["n"] == 1:
            edit(
                tmp_path, "secured.model.xml",
                '<cache class="SecuredCacheManager">', '<cache class="StandardCache">',
            )
        elif calls["n"] == 2:
            edit(
                tmp_path, "secured.model.xml",
                '<cache class="StandardCache">', '<cache class="SecuredCacheManager">',
            )

    import mtalk.watch as watchmod

    monkeypatch.setattr(watchmod.time, "sleep", scripted_sleep)
    lines = []
    code = run_watch(str(tmp_path), interval=0, emit=lines.append, max_polls=2)
    assert code == 0
    assert E003_LINE in lines
    assert f"cleared: {E003_LINE}" in lines


def test_run_watch_prints_initial_diagnostics(tmp_path, monkeypatch):
    (tmp_path / "bad.model.xml").write_text(
        '<model>\n  <bean id="X" class="Ghost"/>\n</model>\n', encoding="utf-8"
    )
    import mtalk.watch as watchmod

    monkeypatch.setattr(watchmod.time, "sleep", lambda _i: None)
    lines = []
    run_watch(str(tmp_path), interval=0, emit=lines.append, max_polls=1)
    assert any("error[E001]" in line and "Ghost" in line for line in lines)
    assert lines[-1] == f"watching {tmp_path}"


def test_undecodable_unit_is_reported_like_the_library_then_cleared(tmp_path):
    session = session_for(tmp_path)
    path = tmp_path / "pictures.model.xml"
    good = path.read_bytes()
    path.write_bytes(good.replace(b"</model>", b"\xff</model>"))
    result = session.poll()
    assert result is not None
    _, expected = compile_workspace(str(tmp_path))
    assert [d.code for d in expected] == ["E000"]
    assert expected[0].message.startswith("unreadable unit: 'utf-8' codec can't decode byte 0xff")
    assert result.diagnostics == tuple(expected)
    assert result.new_diags == tuple(expected)
    from mtalk.ids import ElementId

    # the unreadable unit counts as absent
    assert session.state.resolved.lookup(ElementId("", "LogoPictureRetriever")) is None

    path.write_bytes(good)
    result = session.poll()
    assert result is not None
    assert result.diagnostics == ()
    assert result.cleared_diags == tuple(expected)
    assert session.state.resolved.lookup(ElementId("", "LogoPictureRetriever")) is not None


def test_cross_unit_duplicate_clears_when_the_first_unit_drops_it(tmp_path):
    thing = '<model>\n  <bean id="Thing" class="Class"/>\n</model>\n'
    (tmp_path / "a.model.xml").write_text(thing, encoding="utf-8")
    (tmp_path / "b.model.xml").write_text(thing, encoding="utf-8")
    session = WatchSession(str(tmp_path))
    assert [d.render() for d in session.state.all_diagnostics()] == [
        "b.model.xml:2:3: error[E008] duplicate element id 'Thing' "
        "(first declared at a.model.xml:2:3) (Thing)"
    ]
    edit(tmp_path, "a.model.xml", 'id="Thing"', 'id="Other"')
    result = session.poll()
    assert result is not None
    _, expected = compile_workspace(str(tmp_path))
    assert expected == []
    assert result.diagnostics == ()
    assert [d.code for d in result.cleared_diags] == ["E008"]
