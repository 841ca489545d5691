"""Unit tests for the rule-agnostic lint machinery."""

import textwrap
from pathlib import Path

from repro.lint import Finding, load_project
from repro.lint.framework import (
    SourceFile,
    module_name_for,
)


def parse(text, module="mem", name="mem.py"):
    return SourceFile(Path(name), textwrap.dedent(text), module=module)


class TestModuleNameFor:
    def test_src_layout(self):
        assert module_name_for(
            Path("src/repro/service/server.py")) == "repro.service.server"

    def test_src_layout_package_init(self):
        assert module_name_for(
            Path("/root/repo/src/repro/lint/__init__.py")) == "repro.lint"

    def test_repro_anchored_without_src(self):
        assert module_name_for(
            Path("repro/obs/events.py")) == "repro.obs.events"

    def test_bare_file_uses_basename(self):
        assert module_name_for(
            Path("tests/lint/fixtures/bad_hot_path.py")) == "bad_hot_path"


class TestImportMap:
    def test_aliases_and_from_imports(self):
        src = parse("""
            import numpy as np
            import pickle
            from time import monotonic
            from copy import deepcopy as dc
        """)
        assert src.imports.resolve("np.concatenate") == \
            "numpy.concatenate"
        assert src.imports.resolve("pickle.dumps") == "pickle.dumps"
        assert src.imports.resolve("monotonic") == "time.monotonic"
        assert src.imports.resolve("dc") == "copy.deepcopy"

    def test_relative_import(self):
        src = parse("from . import events",
                    module="repro.obs.collector")
        assert src.imports.resolve("events.JOB_SUBMIT") == \
            "repro.obs.events.JOB_SUBMIT"

    def test_unknown_name_is_identity(self):
        src = parse("x = 1")
        assert src.imports.resolve("mystery.call") == "mystery.call"


class TestAnnotations:
    def test_line_pragma(self):
        src = parse("""
            x = 1  # lint: disable=hot-path
            y = 2  # lint: disable=guarded-by, lock-order
            z = 3  # lint: disable=all
        """)
        assert src.suppressed("hot-path", 2)
        assert not src.suppressed("guarded-by", 2)
        assert src.suppressed("guarded-by", 3)
        assert src.suppressed("lock-order", 3)
        assert src.suppressed("determinism", 4)

    def test_scope_pragma_covers_body(self):
        src = parse("""
            def f():  # lint: disable=hot-path
                a = 1
                return a

            def g():
                return 2
        """)
        assert src.suppressed("hot-path", 3)
        assert src.suppressed("hot-path", 4)
        assert not src.suppressed("hot-path", 7)

    def test_guard_and_hot_markers(self):
        src = parse("""
            class C:
                def __init__(self):
                    self.x = 0  # guarded-by: _lock

            def f():  # hot-path
                pass
        """)
        assert src.guards[4] == "_lock"
        assert 6 in src.hot_lines

    def test_markers_in_strings_are_ignored(self):
        # tokenize-based extraction: the same text inside a string
        # literal (e.g. the linter's own regexes) must not count.
        src = parse('''
            PATTERN = "lint: disable=all"
            DOC = """# hot-path and # guarded-by: _lock"""
        ''')
        assert not src.pragmas
        assert not src.guards
        assert not src.hot_lines

    def test_pragma_naming_the_rule_is_not_a_hot_marker(self):
        # "hot-path" inside a pragma's rule list is the pragma's text:
        # it must not put the def below (or beside) it under the rule.
        src = parse("""
            x = 1  # lint: disable=hot-path
            def g(b):
                return pickle.dumps(b)

            def h(b):  # lint: disable=hot-path
                return b
        """)
        assert not src.hot_lines
        assert not any(src.is_hot(node) for node in src.tree.body[1:])

    def test_is_hot_line_above(self):
        src = parse("""
            # hot-path
            def f():
                pass
        """)
        func = src.tree.body[0]
        assert src.is_hot(func)


class TestLockModel:
    def test_lock_kinds_and_condition_alias(self):
        src = parse("""
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rl = threading.RLock()
                    self._cond = threading.Condition(self._lock)
                    self._free = threading.Condition()
        """)
        (cls,) = src.classes()
        assert cls.locks["_lock"] == "lock"
        assert cls.locks["_rl"] == "reentrant"
        # Condition(self._lock) aliases the wrapped lock...
        assert cls.canonical("_cond") == "_lock"
        # ...while a bare Condition() is its own reentrant lock.
        assert cls.locks["_free"] == "reentrant"

    def test_dataclass_field_lock(self):
        src = parse("""
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class M:
                count: int = 0  # guarded-by: _lock
                _lock: threading.Lock = field(
                    default_factory=threading.Lock)
        """)
        (cls,) = src.classes()
        assert cls.locks["_lock"] == "lock"
        assert cls.declared["count"] == "_lock"

    def test_locked_suffix_and_def_guard(self):
        src = parse("""
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def _helper_locked(self):
                    pass

                def helper(self):  # guarded-by: _lock
                    pass
        """)
        (cls,) = src.classes()
        assert cls.methods["_helper_locked"].entry_held == ("_lock",)
        assert cls.methods["helper"].entry_held == ("_lock",)
        assert cls.methods["__init__"].entry_held == ()


class TestProjectLoading:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        project = load_project([bad])
        assert not project.files
        assert len(project.broken) == 1
        assert project.broken[0].rule == "parse"

    def test_duplicate_paths_deduplicated(self, tmp_path):
        mod = tmp_path / "ok.py"
        mod.write_text("x = 1\n", encoding="utf-8")
        project = load_project([mod, mod, tmp_path])
        assert len(project.files) == 1


class TestFinding:
    def test_render_and_dict(self):
        finding = Finding(path="a.py", line=3, col=7, rule="hot-path",
                          message="no copies")
        assert finding.render() == "a.py:3:7: [hot-path] no copies"
        assert finding.to_dict() == {
            "rule": "hot-path", "path": "a.py", "line": 3, "col": 7,
            "message": "no copies",
        }
