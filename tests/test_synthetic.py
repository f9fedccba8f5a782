"""Synthetic workspace generation: determinism, feasible depth targets, clean compiles."""

from __future__ import annotations

import os

import pytest

from mtalk.compiler import compile_workspace
from mtalk.native import load_manifest
from mtalk.synthetic import BenchmarkSpec, generate_synthetic, measure_mean_dit

from golden import compile_texts


def spec(classes=30, metas=2, dit=2.0, instances=0, seed=1) -> BenchmarkSpec:
    return BenchmarkSpec(
        class_count=classes,
        metaclass_count=metas,
        mean_dit=dit,
        instances_per_class=instances,
        seed=seed,
    )


def generate(tmp_path, sp: BenchmarkSpec, sub="ws", **kw):
    out = tmp_path / sub
    written = generate_synthetic(sp, str(out), **kw)
    return out, written


def compile_dir(root):
    manifest = load_manifest(os.path.join(root, "manifest.json"))
    return compile_workspace(root, manifest)


# ---------------------------------------------------------------------------
# spec validation


@pytest.mark.parametrize(
    "bad",
    [
        spec(metas=0),
        spec(classes=1, metas=2),
        spec(dit=0.5),
        spec(instances=-1),
    ],
)
def test_validate_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_accepts_sane_spec():
    spec().validate()


def test_generate_rejects_bad_native_fraction(tmp_path):
    with pytest.raises(ValueError, match="native_fraction"):
        generate_synthetic(spec(), str(tmp_path / "x"), native_fraction=1.5)


# ---------------------------------------------------------------------------
# file layout


def test_written_files_sorted_and_present(tmp_path):
    out, written = generate(tmp_path, spec(classes=30, metas=2))
    assert written == sorted(written)
    assert "manifest.json" in written
    assert "meta.model.xml" in written
    # 28 model classes batch into two files of 25 and 3
    assert "classes_000.model.xml" in written
    assert "classes_001.model.xml" in written
    assert "classes_002.model.xml" not in written
    for rel in written:
        assert (out / rel).is_file()


def test_exact_batch_boundary_writes_single_class_file(tmp_path):
    out, written = generate(tmp_path, spec(classes=27, metas=2))
    class_files = [w for w in written if w.startswith("classes_")]
    assert class_files == ["classes_000.model.xml"]


def test_metaclass_only_workspace(tmp_path):
    out, written = generate(tmp_path, spec(classes=3, metas=3))
    class_files = [w for w in written if w.startswith("classes_")]
    assert class_files == []
    state, diags = compile_dir(out)
    assert diags == []


# ---------------------------------------------------------------------------
# determinism


def test_same_spec_is_byte_identical(tmp_path):
    sp = spec(classes=40, metas=3, dit=2.5, instances=2, seed=9)
    a, written_a = generate(tmp_path, sp, sub="a")
    b, written_b = generate(tmp_path, sp, sub="b")
    assert written_a == written_b
    for rel in written_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_seed_changes_output(tmp_path):
    a, written = generate(tmp_path, spec(seed=1), sub="a")
    b, _ = generate(tmp_path, spec(seed=2), sub="b")
    assert any((a / rel).read_bytes() != (b / rel).read_bytes() for rel in written)


# ---------------------------------------------------------------------------
# compiled shape


def test_generated_workspace_compiles_clean(tmp_path):
    out, _ = generate(tmp_path, spec(classes=50, metas=4, dit=3.0, instances=3, seed=3))
    state, diags = compile_dir(out)
    assert diags == []


def test_element_counts_match_spec(tmp_path):
    sp = spec(classes=30, metas=2, dit=2.0, instances=3, seed=4)
    out, _ = generate(tmp_path, sp)
    state, diags = compile_dir(out)
    assert diags == []
    model = state.resolved
    user_classes = [c for c in model.classes if c not in model.kernel_ids]
    assert len(user_classes) == sp.class_count
    user_elements = [e for e in model.elements if e not in model.kernel_ids]
    n_model = sp.class_count - sp.metaclass_count
    assert len(user_elements) == sp.class_count + n_model * sp.instances_per_class


def test_mean_dit_hits_target_exactly_when_feasible(tmp_path):
    # round(4.75 * 200) = 950 splits cleanly across both depth pools
    sp = spec(classes=200, metas=8, dit=4.75, instances=0, seed=42)
    out, _ = generate(tmp_path, sp)
    state, diags = compile_dir(out)
    assert diags == []
    assert measure_mean_dit(state.resolved) == pytest.approx(4.75, abs=1e-9)


def test_mean_dit_close_for_small_specs(tmp_path):
    sp = spec(classes=40, metas=4, dit=3.0, instances=0, seed=7)
    out, _ = generate(tmp_path, sp)
    state, _ = compile_dir(out)
    assert abs(measure_mean_dit(state.resolved) - 3.0) <= 0.25


def test_shallow_target_clamps_to_feasible_floor(tmp_path):
    # one metaclass can never sit above depth 2, so the mean lands there
    out, _ = generate(tmp_path, spec(classes=1, metas=1, dit=1.0))
    state, diags = compile_dir(out)
    assert diags == []
    assert measure_mean_dit(state.resolved) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# instances and native manifest


def test_single_instance_per_class_has_no_template(tmp_path):
    out, written = generate(tmp_path, spec(classes=10, metas=1, instances=1, seed=6))
    text = "".join(
        (out / rel).read_text(encoding="utf-8")
        for rel in written
        if rel.startswith("classes_")
    )
    assert 'id="C0000_i0"' in text
    assert "_t\"" not in text
    assert 'abstract="true"' not in text


def test_multi_instance_classes_share_an_abstract_template(tmp_path):
    sp = spec(classes=6, metas=1, instances=3, seed=6)
    out, written = generate(tmp_path, sp)
    text = "".join(
        (out / rel).read_text(encoding="utf-8")
        for rel in written
        if rel.startswith("classes_")
    )
    assert 'id="C0000_t" class="C0000" abstract="true"' in text
    assert 'id="C0000_i0" class="C0000" parent="C0000_t"' in text
    assert 'id="C0000_i1" class="C0000" parent="C0000_t"' in text
    state, diags = compile_dir(out)
    assert diags == []


def test_native_fraction_one_lists_every_model_class(tmp_path):
    sp = spec(classes=20, metas=2, seed=8)
    out, _ = generate(tmp_path, sp, native_fraction=1.0)
    manifest = load_manifest(out / "manifest.json")
    assert len(manifest.classes) == sp.class_count - sp.metaclass_count
    state, diags = compile_workspace(out, manifest)
    assert diags == []


def test_native_fraction_zero_is_fully_declarative(tmp_path):
    sp = spec(classes=20, metas=2, seed=8)
    out, written = generate(tmp_path, sp, native_fraction=0.0)
    manifest = load_manifest(out / "manifest.json")
    assert manifest.classes == ()
    text = "".join(
        (out / rel).read_text(encoding="utf-8")
        for rel in written
        if rel.startswith("classes_")
    )
    assert text.count('declarative="true"') == sp.class_count - sp.metaclass_count
    state, diags = compile_workspace(out, manifest)
    assert diags == []


# ---------------------------------------------------------------------------
# measurement helper


def test_measure_mean_dit_kernel_only_is_zero():
    state, _ = compile_texts()
    assert measure_mean_dit(state.resolved) == 0.0
