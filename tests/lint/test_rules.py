"""Each lint rule fires on its known-bad fixture and stays quiet on
the known-good one; pragmas suppress without hiding."""

from pathlib import Path

from repro.lint import LintConfig, run_lint

FIXTURES = Path(__file__).parent / "fixtures"

#: Fixture modules are named after their file (no src/ layout), so the
#: determinism rule needs a config that marks them clock-path modules.
DET_CONFIG = LintConfig(
    deterministic_modules=("bad_determinism", "good_determinism"))


def lint_fixture(name, rules=None, config=None):
    return run_lint([str(FIXTURES / name)], rule_names=rules,
                    config=config)


class TestGuardedBy:
    def test_bad_fixture_fires(self):
        report = lint_fixture("bad_guarded.py", rules=["guarded-by"])
        assert not report.clean
        messages = [f.message for f in report.findings]
        # Declared guard: three unlocked loads in Counter.rate.
        declared = [m for m in messages if "Counter.hits" in m
                    or "Counter.misses" in m]
        assert len(declared) == 3
        assert all("guarded-by _lock" in m for m in declared)
        # Inferred guard: the single unlocked Inferred.peek read.
        inferred = [m for m in messages if "Inferred.depth" in m]
        assert len(inferred) == 1
        assert "3/4" in inferred[0]

    def test_good_fixture_clean(self):
        report = lint_fixture("good_guarded.py", rules=["guarded-by"])
        assert report.clean, [f.render() for f in report.findings]

    def test_condition_alias_counts_as_lock(self):
        # good_guarded's wait_bump touches `misses` holding only the
        # Condition(self._lock); a clean report proves the alias works.
        report = lint_fixture("good_guarded.py", rules=["guarded-by"])
        assert report.clean


class TestLockOrder:
    def test_bad_fixture_fires(self):
        report = lint_fixture("bad_lock_order.py", rules=["lock-order"])
        messages = [f.message for f in report.findings]
        cycles = [m for m in messages if "lock-order cycle" in m]
        assert len(cycles) == 1
        assert "Pair._a_lock" in cycles[0]
        assert "Pair._b_lock" in cycles[0]
        reacq = [m for m in messages if "re-acquisition" in m]
        assert len(reacq) == 1
        assert "Reacquire._lock" in reacq[0]
        assert "single-thread deadlock" in reacq[0]

    def test_another_objects_lock_is_a_finding(self):
        report = lint_fixture("bad_lock_order.py", rules=["lock-order"])
        foreign = [f for f in report.findings
                   if "another object's lock" in f.message]
        assert len(foreign) == 1
        assert "self.pair._a_lock" in foreign[0].message
        assert "inside the owning class" in foreign[0].message
        # Pair's own ``with self._a_lock:`` blocks are not outsiders.
        assert len(report.findings) == 3

    def test_good_fixture_clean(self):
        report = lint_fixture("good_lock_order.py",
                              rules=["lock-order"])
        assert report.clean, [f.render() for f in report.findings]


class TestDeterminism:
    def test_bad_fixture_fires(self):
        report = lint_fixture("bad_determinism.py",
                              rules=["determinism"], config=DET_CONFIG)
        messages = [f.message for f in report.findings]
        assert len(messages) == 5
        joined = "\n".join(messages)
        assert "time.time()" in joined
        assert "time.monotonic()" in joined
        assert "datetime.datetime.now()" in joined
        assert "random.random()" in joined
        assert "unseeded numpy.random.default_rng()" in joined

    def test_good_fixture_clean(self):
        report = lint_fixture("good_determinism.py",
                              rules=["determinism"], config=DET_CONFIG)
        assert report.clean, [f.render() for f in report.findings]

    def test_module_off_the_clock_path_not_checked(self):
        # Default config does not list the fixture module: no findings
        # even though it calls time.time().
        report = lint_fixture("bad_determinism.py",
                              rules=["determinism"])
        assert report.clean


class TestHotPath:
    def test_bad_fixture_fires(self):
        report = lint_fixture("bad_hot_path.py", rules=["hot-path"])
        messages = [f.message for f in report.findings]
        assert len(messages) == 4
        joined = "\n".join(messages)
        assert "pickle.dumps()" in joined
        assert "numpy.concatenate()" in joined
        assert ".tobytes()" in joined
        assert "copy.deepcopy()" in joined

    def test_good_fixture_clean(self):
        report = lint_fixture("good_hot_path.py", rules=["hot-path"])
        assert report.clean, [f.render() for f in report.findings]

    def test_marker_on_line_above_def_counts(self):
        # bad_hot_path's `merge` is marked by a comment line above the
        # def; its two findings prove the marker attached.
        report = lint_fixture("bad_hot_path.py", rules=["hot-path"])
        merge_lines = [f for f in report.findings
                       if "concatenate" in f.message
                       or "tobytes" in f.message]
        assert len(merge_lines) == 2


class TestTraceSchema:
    def test_bad_fixture_fires(self):
        report = lint_fixture("bad_trace_schema.py",
                              rules=["trace-schema"])
        messages = [f.message for f in report.findings]
        assert len(messages) == 3
        joined = "\n".join(messages)
        assert "'job.sumbit'" in joined
        assert "'JOB_TELEPORT'" in joined
        assert "'gateway.warp'" in joined

    def test_good_fixture_clean(self):
        report = lint_fixture("good_trace_schema.py",
                              rules=["trace-schema"])
        assert report.clean, [f.render() for f in report.findings]


class TestPragmas:
    def test_line_and_scope_pragmas_suppress(self):
        report = lint_fixture("pragma_suppressed.py",
                              rules=["hot-path"])
        assert report.clean
        # Suppressed findings stay visible in the report, not hidden.
        assert len(report.suppressed) == 2
        assert all(f.rule == "hot-path" for f in report.suppressed)

    def test_unrelated_rule_not_suppressed(self):
        # A hot-path pragma must not blanket other rules: rerunning
        # the bad guarded fixture with every rule still reports.
        report = lint_fixture("bad_guarded.py")
        assert any(f.rule == "guarded-by" for f in report.findings)


class TestRunLint:
    def test_unknown_rule_raises(self):
        import pytest

        with pytest.raises(KeyError):
            run_lint([str(FIXTURES)], rule_names=["no-such-rule"])

    def test_directory_scan_covers_all_fixtures(self):
        report = run_lint([str(FIXTURES)], config=DET_CONFIG)
        assert report.files >= 10
        fired = {f.rule for f in report.findings}
        assert {"guarded-by", "lock-order", "determinism", "hot-path",
                "trace-schema"} <= fired
