"""The merged tree must satisfy its own invariants.

This is the test CI's ``lint-quick`` job mirrors: every rule, over all
of ``src/repro``, with zero findings.  A change that introduces an
unlocked guarded access, a raw clock call on the dispatch path, a copy
in a hot function, or an unregistered trace kind fails here first.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import load_project, run_lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def report():
    return run_lint([str(SRC)])


def test_src_tree_is_violation_free(report):
    assert report.clean, "lint findings in src/repro:\n" + "\n".join(
        f.render() for f in report.findings)


def test_whole_tree_was_scanned(report):
    # Guard against the check silently passing on an empty scan.
    assert report.files > 100


def test_no_suppressions_in_src(report):
    # No pragma is sanctioned in src/: a finding is fixed, not silenced.
    assert report.suppressed == [], [
        f.render() for f in report.suppressed]


@pytest.mark.parametrize("path, function", [
    ("core/fastpath.py", "run_fast"),
    ("runtime/session.py", "process"),
])
def test_the_per_shard_call_chain_is_policed(path, function):
    # One call of each per shard on the serving path: a copy or a
    # ``.tolist()`` coming back costs more than the kernels they wrap.
    src = load_project([SRC / path]).files[0]
    marked = [node.name for node in ast.walk(src.tree)
              if isinstance(node, ast.FunctionDef) and src.is_hot(node)]
    assert function in marked
