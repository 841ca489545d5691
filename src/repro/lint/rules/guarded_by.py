"""*guarded-by*: lock-guarded attributes stay behind their lock.

The torn-read class of bug (the ``ServiceMetrics`` snapshot fix: its
fleet throughput divides tuples by cycles): two counters that are
updated together under a lock get *read* in two separate unlocked
loads, and the derived figure describes no instant that ever existed.

Two ways an attribute becomes guarded:

* **declared** — a ``# guarded-by: _lock`` comment on its assignment
  (``self.x = {}  # guarded-by: _lock``) or its dataclass field line;
* **inferred** — it has no declaration but the overwhelming majority
  of its accesses (outside ``__init__``) already happen under a lock,
  which is strong evidence the unlocked stragglers are bugs rather
  than design.

Every access to a guarded attribute outside a ``with self._lock:``
block is a finding.  The convention escape hatches are first-class:
methods named ``*_locked`` are assumed to run with every class lock
held, and a ``# guarded-by: _lock`` comment on a ``def`` line declares
"callers hold ``_lock``" for helper methods with other names.
``threading.Condition(self._lock)`` attributes alias the lock they
wrap, so holding the condition counts as holding the lock.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from repro.lint.config import GUARD_MIN_LOCKED, GUARD_RATIO
from repro.lint.framework import (
    Access,
    ClassInfo,
    Finding,
    Project,
    Rule,
    SourceFile,
)

#: Methods whose accesses never count: construction is single-threaded.
_CONSTRUCTION = {"__init__", "__post_init__", "__new__"}


class GuardedByRule(Rule):
    name = "guarded-by"
    description = ("accesses to lock-guarded attributes outside their "
                   "declared (or majority-inferred) lock")

    def check(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for src in project.files:
            for cls in src.classes():
                if cls.locks:
                    findings.extend(self._check_class(src, cls))
        return findings

    def _check_class(self, src: SourceFile,
                     cls: ClassInfo) -> Iterable[Finding]:
        per_attr: Dict[str, List[Access]] = defaultdict(list)
        for method in cls.methods.values():
            if method.name in _CONSTRUCTION:
                continue
            for access in method.accesses:
                per_attr[access.attr].append(access)

        for attr in sorted(per_attr):
            accesses = per_attr[attr]
            guard = cls.declared.get(attr)
            if guard is not None:
                guard = cls.canonical(guard)
                for access in accesses:
                    if guard not in access.held:
                        yield Finding(
                            path=str(src.path),
                            line=access.line,
                            col=access.col,
                            rule=self.name,
                            message=(
                                f"{cls.name}.{attr} is declared "
                                f"guarded-by {guard} but accessed "
                                "without holding it (torn "
                                "read/write)"),
                        )
                continue
            locked = [a for a in accesses if a.held]
            unlocked = [a for a in accesses if not a.held]
            if not unlocked or \
                    len(locked) < GUARD_MIN_LOCKED or \
                    len(locked) / len(accesses) < GUARD_RATIO:
                continue
            for access in unlocked:
                yield Finding(
                    path=str(src.path),
                    line=access.line,
                    col=access.col,
                    rule=self.name,
                    message=(
                        f"{cls.name}.{attr} is accessed under a lock "
                        f"in {len(locked)}/{len(accesses)} places — "
                        "this unlocked access looks like a torn "
                        "read/write (declare # guarded-by: <lock> or "
                        "pragma if deliberate)"),
                )
