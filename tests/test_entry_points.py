"""Entry-point differential oracle: library, CLI and watch read one workspace alike.

A state machine edits a real workspace directory and, after every edit,
compiles it three ways: ``compile_workspace`` from scratch, an in-process
``mtalk compile --json`` folding into the state it saved last time, and one
long-lived ``WatchSession``. All three must report the same diagnostics and
none may raise. When the report has no error, a VM loaded from the library's
state and one loaded from the watch state must inject the same values, and so
must a long-lived VM that reloads the watch state after every edit.

Every write sets the file's mtime one second past the previous write, so the
watch's mtime/size check sees each edit however quickly the rules run. The
manifest is never edited: a session loads ``manifest.json`` once, and
manifest-edit rules wait for watch to reload it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from mtalk import cli
from mtalk import vm as vmmod
from mtalk.compiler import compile_workspace
from mtalk.diagnostics import has_errors
from mtalk.errors import ModelError
from mtalk.ids import ElementId
from mtalk.native import load_manifest
from mtalk.rename import apply_patchset, rename_element
from mtalk.watch import WatchSession

from golden import GOLDEN_UNITS, write_golden

# a unit that sorts before every golden unit, so a bean it shares with one
# of them makes the golden declaration the duplicate
FIRST = "aaa.model.xml"
_FIRST_TEXTS = {
    "duplicate": '<model>\n  <bean id="StandardCache" class="Class" parent="CacheManager"/>\n</model>\n',
    "unique": '<model>\n  <bean id="PlainCache" class="Class" parent="CacheManager" declarative="true"/>\n</model>\n',
}
_EXTRA = (
    "extra.model.xml",
    '<model xmlns="x">\n  <bean id="Mirror" class="HTTP_Client" parent="RobustHTTP_Client">\n'
    "    <URL>mirror.example.org</URL>\n  </bean>\n</model>\n",
)
# a unit with a Double slot, written next to the golden units
_GAUGE = (
    "gauge.model.xml",
    '<model>\n  <bean id="Gauge" class="Class" declarative="true">\n'
    "    <properties><property><name>ratio</name><type>Double</type></property></properties>\n"
    '  </bean>\n  <bean id="Dial" class="Gauge">\n    <ratio>0.5</ratio>\n  </bean>\n</model>\n',
)
_START = {**GOLDEN_UNITS, _GAUGE[0]: _GAUGE[1]}
_UNITS = {**_START, _EXTRA[0]: _EXTRA[1], FIRST: _FIRST_TEXTS["unique"]}
# (unit, written, rewritten): each rule toggles one between its two forms
_VALUE_EDITS = [
    ("core.model.xml", "<timeout>2</timeout>", "<timeout>3</timeout>"),
    ("core.model.xml", "<numberOfRetries>8</numberOfRetries>", "<numberOfRetries>many</numberOfRetries>"),
    ("secured.model.xml", "<timeToLive>10</timeToLive>", "<timeToLive>99</timeToLive>"),
    # lexemes the compiler and the generated schema read alike: rejected,
    # rejected, and accepted once trimmed (it follows the 2 -> 3 edit)
    ("core.model.xml", "<timeout>15</timeout>", "<timeout>1_000</timeout>"),
    ("core.model.xml", "<timeout>2</timeout>", "<timeout>٣</timeout>"),
    ("core.model.xml", "<timeout>3</timeout>", "<timeout> 7 </timeout>"),
    (_GAUGE[0], "<ratio>0.5</ratio>", "<ratio>INF</ratio>"),
]
_CLASS_EDITS = [
    ("caches.model.xml", "<name>timeToLive</name>", "<name>ttl</name>"),
    ("secured.model.xml", 'class="SecuredCacheManager"', 'class="StandardCache"'),
    # MetaCache stops being a metaclass: the beans of class MetaCache flip kind
    ("core.model.xml", 'id="MetaCache" class="Class" parent="Class"', 'id="MetaCache" class="Class"'),
]
_RENAMES = [("StandardCache", "PlainCache"), ("FastHTTP_Client", "QuickClient"), ("MetaCache", "CacheMeta")]
# the non-abstract instance beans of _UNITS, and a class with class-level values
_VM_BEANS = ("PontisLogoRetriever", "LogoPictureRetriever", "CNN_NewsRetriever", "x:Mirror", "Dial")
_VM_CLASS = "NewsRetriever"


def _vm_values(vm) -> dict[str, object]:
    """What the VM injects into the sampled beans and the class's MetaView,
    or the error it raises for one that is gone or renamed."""
    out: dict[str, object] = {}
    for name in (*_VM_BEANS, _VM_CLASS):
        get = vmmod.get_class if name == _VM_CLASS else vmmod.get_instance
        try:
            out[name] = vmmod.dump_instance(get(vm, name))
        except ModelError as e:
            out[name] = f"{type(e).__name__}: {e}"
    return out


class EntryPoints(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="mtalk-entry-"))
        self.root = self.tmp / "ws"
        self.state_dir = self.tmp / "state"
        self.root.mkdir()
        self.texts = dict(_START)
        self.mtime_ns = time.time_ns()
        self.served = None

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- files

    def _write(self, rel: str, data: bytes) -> None:
        (self.root / rel).write_bytes(data)
        self._touch(rel)

    def _touch(self, rel: str) -> None:
        self.mtime_ns += 10**9
        os.utime(self.root / rel, ns=(self.mtime_ns, self.mtime_ns))

    def _put(self, rel: str, text: str) -> None:
        self.texts[rel] = text
        self._write(rel, text.encode("utf-8"))

    def _toggle(self, rel: str, written: str, rewritten: str) -> None:
        text = self.texts.get(rel)
        if text is None:
            return
        if written in text:
            self._put(rel, text.replace(written, rewritten, 1))
        elif rewritten in text:
            self._put(rel, text.replace(rewritten, written, 1))

    # -- the three entry points

    def _cli(self) -> list[dict]:
        out = io.StringIO()
        argv = ["compile", "--json", "--root", str(self.root), "--state", str(self.state_dir)]
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_ERRORS), code
        return json.loads(out.getvalue())

    def _library(self):
        return compile_workspace(self.root, load_manifest(self.root / "manifest.json"))

    @initialize(first=st.sampled_from([None, *sorted(_FIRST_TEXTS)]))
    def start(self, first):
        write_golden(self.root)
        self._put(*_GAUGE)
        if first is not None:
            self._put(FIRST, _FIRST_TEXTS[first])
        self._cli()  # cold: every later CLI compile folds into its state
        self.session = WatchSession(self.root, load_manifest(self.root / "manifest.json"))

    @invariant()
    def entry_points_agree(self):
        state, expected = self._library()
        want = [d.to_dict() for d in expected]
        assert self._cli() == want
        self.session.poll()
        assert [d.to_dict() for d in self.session.state.all_diagnostics()] == want
        assert self.session.state.resolved.elements.keys() == state.resolved.elements.keys()
        if not has_errors(expected):
            fresh = _vm_values(vmmod.load(self.session.state))
            assert fresh == _vm_values(vmmod.load(state))
            # a VM that follows the watch keeps what each fold did not touch
            if self.served is None:
                self.served = vmmod.load(self.session.state)
            else:
                vmmod.reload(self.served, self.session.state)
            assert _vm_values(self.served) == fresh

    # -- edits

    @rule(edit=st.sampled_from(_VALUE_EDITS))
    def value_edit(self, edit):
        self._toggle(*edit)

    @rule(edit=st.sampled_from(_CLASS_EDITS))
    def class_edit(self, edit):
        self._toggle(*edit)

    @rule(rel=st.sampled_from(sorted(GOLDEN_UNITS)))
    def line_shift(self, rel):
        self._toggle(rel, "<model>\n", "<model>\n\n")

    @rule(data=st.data())
    def add_unit(self, data):
        missing = sorted(rel for rel in _UNITS if rel not in self.texts)
        if missing:
            rel = data.draw(st.sampled_from(missing))
            self._put(rel, _UNITS[rel])

    @rule(data=st.data())
    def delete_unit(self, data):
        if self.texts:
            rel = data.draw(st.sampled_from(sorted(self.texts)))
            del self.texts[rel]
            (self.root / rel).unlink()

    @rule()
    def toggle_duplicate(self):
        """Add or remove a cross-unit duplicate id in the unit that sorts first."""
        form = "unique" if self.texts.get(FIRST) == _FIRST_TEXTS["duplicate"] else "duplicate"
        self._put(FIRST, _FIRST_TEXTS[form])

    @rule(data=st.data())
    def write_non_utf8(self, data):
        if self.texts:
            rel = data.draw(st.sampled_from(sorted(self.texts)))
            # the next text edit of the unit writes it whole again
            self._write(rel, self.texts[rel].encode("utf-8").replace(b"</model>", b"\xff</model>"))

    @rule(pair=st.sampled_from(_RENAMES), back=st.booleans())
    def rename(self, pair, back):
        old, new = reversed(pair) if back else pair
        state, _ = self._library()
        if state.resolved.lookup(ElementId.parse(old, "")) is None:
            return
        try:
            patchset, _warnings = rename_element(state, old, new)
        except ModelError:
            return  # a refused rename leaves the files alone
        for rel in apply_patchset(patchset, str(self.root)):
            self.texts[rel] = (self.root / rel).read_text(encoding="utf-8")
            self._touch(rel)


EntryPoints.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_entry_points_agree = EntryPoints.TestCase


def test_a_reloading_vm_follows_every_edit():
    """Each value and class edit done and undone, then a value edit made while
    the report has an error, so that the next reload is two folds away."""
    machine = EntryPoints()
    try:
        machine.start(None)
        machine.entry_points_agree()
        for edit in (*_VALUE_EDITS, *_CLASS_EDITS):
            machine.value_edit(edit)
            machine.entry_points_agree()
            machine.value_edit(edit)
            machine.entry_points_agree()
        retries, timeout = _VALUE_EDITS[1], _VALUE_EDITS[0]
        for edit in (retries, timeout, retries):
            machine.value_edit(edit)
            machine.entry_points_agree()
        assert "<timeout>3</timeout>" in machine.texts["core.model.xml"]
    finally:
        machine.teardown()
