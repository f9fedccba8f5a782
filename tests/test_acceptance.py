"""Acceptance sweep: twelve end-to-end checks, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Each check states its tolerance in the printed detail; exact means no slack.
"""

from __future__ import annotations

import random
import re
import threading
import time

import pytest

import mtalk.vm as vmmod
from mtalk.compiler import compile_model, compile_workspace, incremental_compile
from mtalk.ids import ElementId
from mtalk.kernel import CLASS_ID, ElementKind
from mtalk.native import load_manifest, parse_manifest
from mtalk.rename import apply_patchset, rename_element, rename_property
from mtalk.schema import generate_schemas, validate_with_schema
from mtalk.source import parse_unit
from mtalk.synthetic import BenchmarkSpec, generate_synthetic, measure_mean_dit

from golden import GOLDEN_UNITS, MANIFEST, compile_golden, write_golden

import json


def check(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def parse_golden(overrides: dict | None = None):
    texts = dict(GOLDEN_UNITS)
    if overrides:
        texts.update(overrides)
    units = []
    for path, text in texts.items():
        u, diags = parse_unit(text, path)
        assert diags == []
        units.append(u)
    return units


GOLDEN_MANIFEST = parse_manifest(json.dumps(MANIFEST), "manifest.json")


# ---------------------------------------------------------------------------
# 1. workspace compiles clean and injects template values


def test_c01_golden_workspace_compiles_and_injects(tmp_path):
    write_golden(tmp_path)
    t0 = time.perf_counter()
    manifest = load_manifest(tmp_path / "manifest.json")
    state, report = compile_workspace(tmp_path, manifest)
    errors = [d for d in report if d.severity.value == "error"]
    vm = vmmod.load(state)
    inst = vmmod.get_instance(vm, "PontisLogoRetriever")
    elapsed = time.perf_counter() - t0
    values_ok = (
        inst.values["numberOfRetries"] == 2
        and inst.values["timeout"] == 2
        and inst.values["URL"] == "www.pontis.com/logo.bmp"
    )
    check(
        1,
        not errors and values_ok and elapsed < 1.0,
        f"0 errors required (got {len(errors)}), injected values exact, "
        f"compile+get {elapsed:.2f}s (budget <1s)",
    )


# ---------------------------------------------------------------------------
# 2. class-level reflection returns per-class cache settings


def test_c02_metaview_reflection_exact_values():
    state, report = compile_golden(GOLDEN_MANIFEST)
    vm = vmmod.load(state)
    cnn = vmmod.get_instance(vm, "CNN_NewsRetriever")
    news_view = vmmod.get_class(vm, cnn)
    news_cache = news_view.values["cache"]
    stock_view = vmmod.get_class(vm, "StockQuoteRetriever")
    stock_cache = stock_view.values["cache"]
    ok = (
        news_cache.values["timeToLive"] == 10
        and news_cache.values["maxElementsInMemory"] == 10000
        and stock_cache.values["timeToLive"] == 0
        and stock_cache.values["maxElementsInMemory"] == 0
    )
    check(
        2,
        ok,
        "MetaView cache values (10, 10000) and (0, 0) (tolerance: exact)",
    )


# ---------------------------------------------------------------------------
# 3. narrowing violations surface as exactly one type error and revert clean


def test_c03_inline_covariance_violation_roundtrip():
    broken = GOLDEN_UNITS["secured.model.xml"].replace(
        '<cache class="SecuredCacheManager">', '<cache class="StandardCache">', 1
    )
    state, _ = compile_golden(GOLDEN_MANIFEST)

    unit, pdiags = parse_unit(broken, "secured.model.xml")
    state2, recompiled, report = incremental_compile(
        state, [unit], parse_diags=pdiags, manifest=GOLDEN_MANIFEST
    )
    expected = (
        "secured.model.xml:13:5: error[E003] inline bean of class StandardCache "
        "does not conform to SecuredCacheManager (BankBalanceRetriever)"
    )
    one_error = [d.render() for d in report] == [expected]
    names_supertype = "SecuredCacheManager" in report[0].message if report else False

    unit3, pdiags3 = parse_unit(GOLDEN_UNITS["secured.model.xml"], "secured.model.xml")
    state3, _, report3 = incremental_compile(
        state2, [unit3], parse_diags=pdiags3, manifest=GOLDEN_MANIFEST
    )
    check(
        3,
        one_error and names_supertype and report3 == [],
        f"exactly one E003 naming SecuredCacheManager, revert clears it "
        f"(got {len(report)} then {len(report3)} diagnostics; tolerance: exact)",
    )


# ---------------------------------------------------------------------------
# 4. declarative classes bind to the nearest native ancestor


def test_c04_native_binding_skips_declarative_holes():
    state, _ = compile_golden(GOLDEN_MANIFEST)
    vm = vmmod.load(state)
    in_manifest = GOLDEN_MANIFEST.get("PictureRetriever") is not None
    bound = vmmod.resolve_native(vm, "PictureRetriever")
    inst = vmmod.get_instance(vm, "LogoPictureRetriever")
    ok = (
        not in_manifest
        and bound == "HTTP_Client"
        and inst.native == "HTTP_Client"
        and inst.values["URL"] == "www.example.org/logo.png"
    )
    check(
        4,
        ok,
        f"resolve_native(PictureRetriever)={bound!r} with no manifest entry; "
        "instance of it instantiates (tolerance: exact)",
    )


# ---------------------------------------------------------------------------
# 5. incremental compiles stay equivalent to from-scratch compiles


def _flip_digit(text: str, rng: random.Random) -> str:
    matches = list(re.finditer(r"(?<=>)(\d+)(?=</)", text))
    if not matches:
        return text
    m = rng.choice(matches)
    digits = list(m.group(1))
    i = rng.randrange(len(digits))
    digits[i] = str((int(digits[i]) + 1 + rng.randrange(9)) % 10)
    return text[: m.start(1)] + "".join(digits) + text[m.end(1):]


def _break_class_ref(text: str, rng: random.Random) -> str:
    matches = list(re.finditer(r'class="C\d{4}"', text))
    if not matches:
        return text
    m = rng.choice(matches)
    return text[: m.start()] + m.group().replace('class="C', 'class="ZZC') + text[m.end():]


def test_c05_incremental_matches_full_oracle(tmp_path):
    root = tmp_path / "ws"
    generate_synthetic(BenchmarkSpec(500, 20, 3.0, 2, 1234), str(root))
    manifest = load_manifest(root / "manifest.json")

    t0 = time.perf_counter()
    texts = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(root.iterdir())
        if p.name.endswith(".model.xml")
    }
    pristine = dict(texts)
    units: dict[str, object] = {}
    unit_pdiags: dict[str, list] = {}
    for path, text in texts.items():
        u, pd = parse_unit(text, path)
        units[path], unit_pdiags[path] = u, pd
    state, _ = compile_model(list(units.values()), manifest)

    rng = random.Random(99)
    paths = sorted(texts)
    mismatches = 0
    dirty_rounds = 0
    for round_no in range(100):
        path = rng.choice(paths)
        roll = rng.random()
        if roll < 0.6:
            texts[path] = _flip_digit(texts[path], rng)
        elif roll < 0.8:
            texts[path] = _break_class_ref(texts[path], rng)
        else:
            texts[path] = pristine[path]
        u, pd = parse_unit(texts[path], path)
        units[path], unit_pdiags[path] = u, pd
        state, _recompiled, report = incremental_compile(
            state, [u], parse_diags=pd, manifest=manifest
        )
        all_pd = [d for ds in unit_pdiags.values() for d in ds]
        oracle, oracle_report = compile_model(list(units.values()), manifest, all_pd)
        inc_set = {d.render() for d in state.all_diagnostics()}
        full_set = {d.render() for d in oracle.all_diagnostics()}
        if inc_set != full_set:
            mismatches += 1
        if full_set:
            dirty_rounds += 1
    elapsed = time.perf_counter() - t0
    check(
        5,
        mismatches == 0 and elapsed < 60.0,
        f"100 edits over 500 classes: {mismatches} diagnostic-set mismatches "
        f"({dirty_rounds} rounds had diagnostics), {elapsed:.1f}s (budget <60s)",
    )


# ---------------------------------------------------------------------------
# 6. edit closure over the workspace is exact


def test_c06_edit_closure_is_exact():
    state, _ = compile_golden(GOLDEN_MANIFEST)
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<timeout>2</timeout>", "<timeout>3</timeout>", 1
    )
    unit, pdiags = parse_unit(edited, "core.model.xml")
    _, recompiled, report = incremental_compile(
        state, [unit], parse_diags=pdiags, manifest=GOLDEN_MANIFEST
    )
    got = {e.render() for e in recompiled}
    expected = {"FastHTTP_Client", "PontisLogoRetriever", "CNN_NewsRetriever"}
    check(
        6,
        got == expected and report == [],
        f"recompiled set {sorted(got)} == {sorted(expected)} (tolerance: exact)",
    )


# ---------------------------------------------------------------------------
# 7. large-model budgets: full compile, single-element recompile, depth targeting


def test_c07_large_model_budgets(tmp_path):
    root = tmp_path / "big"
    spec = BenchmarkSpec(4800, 200, 4.75, 4, 42)
    generate_synthetic(spec, str(root))
    manifest = load_manifest(root / "manifest.json")

    t0 = time.perf_counter()
    state, report = compile_workspace(root, manifest)
    full_s = time.perf_counter() - t0
    clean = report == []

    dit = measure_mean_dit(state.resolved)

    target = root / "classes_000.model.xml"
    text = target.read_text(encoding="utf-8")
    m = re.search(r"<(p\d+_\d+)>(\d+)</\1>", text)
    digits = list(m.group(2))
    digits[0] = str((int(digits[0]) + 1) % 10)
    edited = text[: m.start(2)] + "".join(digits) + text[m.end(2):]
    def fold(state, texts, removed=()):
        t = time.perf_counter()
        units, pdiags = [], []
        for rel, text in texts.items():
            u, d = parse_unit(text, rel)
            units.append(u)
            pdiags += d
        state, recompiled, report = incremental_compile(
            state, units, removed_paths=list(removed), parse_diags=pdiags, manifest=manifest
        )
        return state, recompiled, report, time.perf_counter() - t

    state2, recompiled, report2, inc_s = fold(state, {target.name: edited})

    # more folds, each within the same budget: a line shift, a unit added and
    # removed, and a class rename in every unit that names it
    folds = {}
    shifted = edited.replace("<model>\n", "<model>\n\n", 1)
    state3, _, report, folds["shift"] = fold(state2, {target.name: shifted})
    reports = [report]
    extra = '<model>\n  <bean id="Extra" class="C0003"/>\n</model>\n'
    state3, _, report, folds["unit add"] = fold(state3, {"extra.model.xml": extra})
    reports.append(report)
    state3, _, report, folds["unit remove"] = fold(state3, {}, ["extra.model.xml"])
    reports.append(report)
    model = state3.resolved
    native_types = {p.type.class_id for cd in model.classes.values() if not cd.is_declarative
                    for p in cd.own_properties}
    old = next(c for c in sorted(model.classes, key=ElementId.render)
               if model.classes[c].is_declarative and c not in model.kernel_ids and c not in native_types
               and len({model.elements[e.src].decl.span.path for e in state3.graph.incoming(c)}) >= 3)
    patchset, warnings = rename_element(state3, old.local, old.local + "_rn")
    apply_patchset(patchset, str(root))
    renamed = {rel: (root / rel).read_text(encoding="utf-8") for rel in patchset.paths()}
    _, _, report, folds["rename"] = fold(state3, renamed)
    reports.append(report)

    check(
        7,
        clean and full_s < 30.0 and inc_s < 2.0 and abs(dit - 4.75) <= 0.25
        and all(s < 2.0 for s in folds.values()) and reports == [[]] * 4 and warnings == []
        and len(renamed) >= 3,
        f"4800 classes: full {full_s:.1f}s (budget <30s), one-element edit "
        f"{inc_s:.2f}s recompiling {len(recompiled)} elements (budget <2s), "
        + ", ".join(f"{kind} {s:.2f}s" for kind, s in folds.items())
        + f" (budget <2s each, rename over {len(renamed)} units), "
        f"mean depth {dit:.2f} (tolerance 4.75 +/- 0.25)",
    )


# ---------------------------------------------------------------------------
# 8. stale property usages are all flagged and nothing else moves


def test_c08_stale_property_usages_all_flagged():
    state, baseline = compile_golden()
    edited = GOLDEN_UNITS["core.model.xml"].replace(
        "<name>URL</name>", "<name>url</name>", 1
    )
    unit, pdiags = parse_unit(edited, "core.model.xml")
    state2, _, report = incremental_compile(state, [unit], parse_diags=pdiags)
    locs = sorted(d.span.render() for d in report)
    expected = [
        "core.model.xml:47:5",
        "pictures.model.xml:3:5",
        "retrievers.model.xml:24:5",
    ]
    all_e002 = all(d.code == "E002" and "URL" in d.message for d in report)
    check(
        8,
        baseline == [] and locs == expected and all_e002,
        f"3 usages -> 3 E002 at {locs}, no other diagnostics "
        "(tolerance: exact locations)",
    )


# ---------------------------------------------------------------------------
# 9. generated schema accepts the fixtures and rejects unknown-tag mutants


def test_c09_schema_accepts_fixtures_rejects_mutants():
    state, _ = compile_golden(GOLDEN_MANIFEST)
    schema = generate_schemas(state)[""]
    accepted = sum(
        1
        for path, text in GOLDEN_UNITS.items()
        if validate_with_schema(schema, text, path) == []
    )
    rng = random.Random(7)
    unit_list = sorted(GOLDEN_UNITS.items())
    rejected = 0
    for i in range(50):
        path, text = unit_list[rng.randrange(len(unit_list))]
        spots = [m.start() for m in re.finditer(r"</(bean|model|properties)>", text)]
        at = spots[rng.randrange(len(spots))]
        mutant = text[:at] + f"<mutant{i}>x</mutant{i}>" + text[at:]
        if validate_with_schema(schema, mutant, path):
            rejected += 1
    check(
        9,
        accepted == len(GOLDEN_UNITS) and rejected == 50,
        f"{accepted}/{len(GOLDEN_UNITS)} clean units validate, "
        f"{rejected}/50 unknown-tag mutants rejected (tolerance: all)",
    )


# ---------------------------------------------------------------------------
# 10. property rename patches the hand-counted occurrence set and stays clean


def test_c10_property_rename_patch_set(tmp_path):
    write_golden(tmp_path, manifest=False)
    state, report = compile_workspace(tmp_path)
    patchset, warnings = rename_property(state, "HTTP_Client", "URL", "targetUrl")
    by_path = {}
    for p in patchset.patches:
        by_path[p.path] = by_path.get(p.path, 0) + 1
    # hand count: definition name in core, open+close usage tags in three files
    expected_counts = {
        "core.model.xml": 3,
        "retrievers.model.xml": 2,
        "pictures.model.xml": 2,
    }
    apply_patchset(patchset, tmp_path)
    state2, report2 = compile_workspace(tmp_path)
    check(
        10,
        report == []
        and by_path == expected_counts
        and warnings == []
        and report2 == [],
        f"patches per file {by_path} == {expected_counts}, recompile after "
        f"apply has {len(report2)} diagnostics (tolerance: exact, zero new)",
    )


# ---------------------------------------------------------------------------
# 11. reloads are atomic under concurrent instantiation


def test_c11_reload_is_atomic_under_load():
    fast_block = (
        "    <numberOfRetries>2</numberOfRetries>\n"
        "    <timeout>2</timeout>"
    )
    bumped = (
        "    <numberOfRetries>5</numberOfRetries>\n"
        "    <timeout>5</timeout>"
    )
    core_b = GOLDEN_UNITS["core.model.xml"]
    # scope the swap to the FastHTTP_Client template block
    fast_at = core_b.index('id="FastHTTP_Client"')
    assert core_b.index(fast_block, fast_at) > 0
    core_b = core_b[:fast_at] + core_b[fast_at:].replace(fast_block, bumped, 1)

    state_a, _ = compile_golden(GOLDEN_MANIFEST)
    units_b = parse_golden({"core.model.xml": core_b})
    state_b, report_b = compile_model(units_b, GOLDEN_MANIFEST)
    assert report_b == []

    vm = vmmod.load(state_a)
    model_a, model_b = state_a.model(), state_b.model()
    stop = threading.Event()
    bad_pairs = []
    counts = []

    def reader():
        seen = 0
        while seen < 2600:
            inst = vmmod.get_instance(vm, "PontisLogoRetriever")
            pair = (inst.values["numberOfRetries"], inst.values["timeout"])
            if pair not in ((2, 2), (5, 5)):
                bad_pairs.append(pair)
            seen += 1
        counts.append(seen)

    def swapper():
        flip = False
        while not stop.is_set():
            vmmod.reload(vm, model_b if flip else model_a)
            flip = not flip

    readers = [threading.Thread(target=reader) for _ in range(4)]
    swap = threading.Thread(target=swapper)
    swap.start()
    for t in readers:
        t.start()
    for t in readers:
        t.join()
    stop.set()
    swap.join()
    total = sum(counts)
    check(
        11,
        not bad_pairs and total >= 10000,
        f"{total} instantiations under live reloads, "
        f"{len(bad_pairs)} mixed-value instances (tolerance: zero, >=10000 reads)",
    )


# ---------------------------------------------------------------------------
# 12. the embedded kernel compiles itself and classifies Class as a metaclass


def test_c12_kernel_self_hosts():
    state, report = compile_model([], None)
    kind = state.resolved.elements[CLASS_ID].kind
    check(
        12,
        report == [] and kind is ElementKind.METACLASS,
        f"kernel-only compile: {len(report)} diagnostics, "
        f"classify(Class)={kind.name} (tolerance: exact)",
    )
