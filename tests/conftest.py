"""Shared fixtures over the golden workspace of golden.py."""

from __future__ import annotations

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
