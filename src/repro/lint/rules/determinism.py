"""*determinism*: no raw wall clock / unseeded RNG on the clock path.

The dispatch clock (cumulative dispatched tuples) is the stack's only
sanctioned notion of time in deterministic accounting: it is what makes
results and traces bit-identical across the inline and process
backends, and what the ROADMAP's shadow-replay item will diff against.  One stray ``time.time()`` or unseeded RNG in a module on
that path is a silent replay-divergence bug.

Modules listed in :data:`~repro.lint.config.LintConfig.deterministic_modules`
therefore must not call the raw clock functions in ``BANNED_CLOCK_CALLS``
or use nondeterministic randomness; host time they legitimately need
(event wall stamps, condition-wait deadlines) goes through the vetted
:mod:`repro.wallclock` shim so every wall-clock dependency stays
auditable and fakeable.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.config import BANNED_CLOCK_CALLS, WALLCLOCK_MODULE
from repro.lint.framework import (
    Finding,
    Project,
    Rule,
    SourceFile,
    resolve_call,
)


class DeterminismRule(Rule):
    name = "determinism"
    description = ("raw wall-clock and unseeded-RNG calls on the "
                   "deterministic dispatch-clock path")

    def _applies(self, src: SourceFile, project: Project) -> bool:
        if src.module == WALLCLOCK_MODULE:
            return False
        for entry in project.config.deterministic_modules:
            if entry.endswith("."):
                if src.module.startswith(entry) or \
                        src.module == entry[:-1]:
                    return True
            elif src.module == entry:
                return True
        return False

    def check(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for src in project.files:
            if not self._applies(src, project):
                continue
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolve_call(node, src.imports)
                if resolved is None:
                    continue
                message = self._verdict(resolved, node)
                if message is not None:
                    findings.append(Finding(
                        path=str(src.path),
                        line=node.lineno,
                        col=node.col_offset,
                        rule=self.name,
                        message=message,
                    ))
        return findings

    def _verdict(self, resolved: str, node: ast.Call) -> str:
        if resolved in BANNED_CLOCK_CALLS:
            return (f"raw wall-clock call {resolved}() on the "
                    "deterministic dispatch-clock path — route host "
                    f"time through {WALLCLOCK_MODULE}")
        if resolved == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                return ("unseeded numpy.random.default_rng() on the "
                        "deterministic path — pass an explicit seed")
            return None
        if resolved.startswith("numpy.random."):
            return (f"{resolved}() uses the legacy global NumPy RNG "
                    "(nondeterministic shared state) — use a seeded "
                    "numpy.random.default_rng(seed)")
        if resolved == "random.Random":
            if not node.args and not node.keywords:
                return ("unseeded random.Random() on the deterministic "
                        "path — pass an explicit seed")
            return None
        if resolved == "random.SystemRandom" or \
                resolved.startswith("random.SystemRandom."):
            return ("random.SystemRandom is nondeterministic by "
                    "construction — not allowed on the dispatch-clock "
                    "path")
        if resolved.startswith("random.") and resolved.count(".") == 1:
            return (f"{resolved}() uses the global stdlib RNG "
                    "(nondeterministic shared state) — use a seeded "
                    "random.Random(seed) instance")
        return None
