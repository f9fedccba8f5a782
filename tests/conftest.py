"""Shared fixtures over the golden workspace of golden.py."""

from __future__ import annotations

import gc
import os

import pytest

from golden import write_golden


@pytest.fixture
def golden_root(tmp_path):
    """A fresh golden workspace directory (with manifest.json)."""
    write_golden(tmp_path)
    return tmp_path


@pytest.fixture
def golden_state(golden_root):
    """The golden workspace compiled with its manifest."""
    from mtalk.compiler import compile_workspace
    from mtalk.native import load_manifest

    manifest = load_manifest(os.path.join(golden_root, "manifest.json"))
    state, diags = compile_workspace(golden_root, manifest)
    return state, diags


@pytest.fixture
def collector_on():
    """GC enabled for the test, and the caller's setting restored after it."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@pytest.fixture(autouse=True)
def _collector_sees_what_the_test_froze():
    """The CLI and a watch session freeze what they built (gc.freeze); the
    frozen objects go back to the collector after each test, so what a test
    left in reference cycles is still freed."""
    yield
    gc.unfreeze()
