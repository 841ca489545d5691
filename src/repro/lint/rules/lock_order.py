"""*lock-order*: each class takes its own locks, in one order.

With 50+ ``with self._lock`` blocks across ``service``/``net``/``obs``,
the deadlock a reviewer cannot see is two locks taken in opposite
orders on two different code paths — each path is locally correct and
the hang only manifests under concurrent load.

The rule works class by class, which its first finding makes sound: a
lock acquired only inside the class that declares it has its whole
acquisition order in that class.

* **owner-only** — a ``with`` item that reaches a lock through
  anything but ``self.<lock>`` (``gate.cond``: any attribute some
  linted class declares as a lock) takes another object's lock; the
  block belongs in a method of the owning class.
* a **cycle** among one class's locks (the classic AB/BA deadlock).
  Acquiring B inside a ``with self.A:`` block adds the edge A -> B,
  and so does calling, with A held, a same-class method that
  (transitively, through same-class calls) acquires B; entry-held
  locks from ``*_locked`` naming or ``# guarded-by`` def annotations
  count as held.
* a **re-acquisition** of a *non-reentrant* ``threading.Lock`` that is
  already held — the single-thread self-deadlock, which is exactly the
  bug a naive "just add the lock" fix to a ``*_locked``-calling method
  introduces.  ``RLock`` and bare ``Condition()`` (RLock-backed) are
  reentrant and exempt; a ``Condition(self._lock)`` is the lock it
  wraps.

Not modelled: calls into *other* objects made under a lock
(``buffer.put()`` under a gate's condition) — the class that nests
them states the order in its docstring.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.framework import (
    ClassInfo,
    Finding,
    Project,
    Rule,
    SourceFile,
    self_attr,
)


class LockOrderRule(Rule):
    name = "lock-order"
    description = ("locks acquired outside their owning class, "
                   "conflicting per-class acquisition orders and "
                   "re-acquisition of non-reentrant locks")

    def check(self, project: Project) -> Iterable[Finding]:
        lock_attrs: Set[str] = set()
        for src in project.files:
            for cls in src.classes():
                lock_attrs.update(cls.locks, cls.aliases)
        findings: List[Finding] = []
        for src in project.files:
            findings.extend(self._foreign_acquisitions(src, lock_attrs))
            for cls in src.classes():
                findings.extend(self._check_class(str(src.path), cls))
        return findings

    # -- owner-only ----------------------------------------------------
    def _foreign_acquisitions(self, src: SourceFile,
                              lock_attrs: Set[str]) -> Iterable[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                expr = item.context_expr
                if not isinstance(expr, ast.Attribute) or \
                        expr.attr not in lock_attrs or \
                        self_attr(expr) is not None:
                    continue
                yield Finding(
                    path=str(src.path),
                    line=expr.lineno,
                    col=expr.col_offset,
                    rule=self.name,
                    message=(
                        f"{ast.unparse(expr)} is another object's lock "
                        "— take it inside the owning class (a method "
                        "there), so its order is checkable per class"),
                )

    # -- per-class order ----------------------------------------------
    def _acq_closure(self, cls: ClassInfo) -> Dict[str, Set[str]]:
        """method -> canonical lock attrs it (transitively) acquires
        via lexical ``with`` and same-class calls."""
        closure = {
            method.name: {acq.lock for acq in method.acquires}
            for method in cls.methods.values()
        }
        changed = True
        while changed:
            changed = False
            for method in cls.methods.values():
                acc = closure[method.name]
                for call in method.self_calls:
                    extra = closure.get(call.callee)
                    if extra and not extra <= acc:
                        acc |= extra
                        changed = True
        return closure

    def _check_class(self, path: str,
                     cls: ClassInfo) -> Iterable[Finding]:
        closure = self._acq_closure(cls)
        #: (held, taken) -> line of the first site that nests them
        edges: Dict[Tuple[str, str], int] = {}

        def nest(held: Tuple[str, ...], taken: str,
                 line: int, col: int) -> Iterable[Finding]:
            for lock in held:
                if lock != taken:
                    edges.setdefault((lock, taken), line)
                elif cls.lock_kind(lock) == "lock":
                    yield Finding(
                        path=path,
                        line=line,
                        col=col,
                        rule=self.name,
                        message=(
                            "re-acquisition of non-reentrant lock "
                            f"{cls.name}.{lock} while already held — "
                            "single-thread deadlock (use a _locked "
                            "variant or an RLock)"),
                    )

        for method in cls.methods.values():
            for acq in method.acquires:
                yield from nest(acq.held, acq.lock, acq.line, acq.col)
            for call in method.self_calls:
                for taken in sorted(closure.get(call.callee, ())):
                    yield from nest(call.held, taken,
                                    call.line, call.col)

        # Locks that reach each other through the edges are taken in
        # conflicting orders; one finding per such group.
        graph: Dict[str, Set[str]] = {}
        for held, taken in edges:
            graph.setdefault(held, set()).add(taken)
        reach = {lock: self._reachable(graph, lock) for lock in graph}
        reported: Set[str] = set()
        for lock in sorted(graph):
            group = {other for other in reach[lock]
                     if lock in reach.get(other, ())}
            if not group or lock in reported:
                continue
            reported |= group
            sites = sorted(line for (a, b), line in edges.items()
                           if a in group and b in group)
            names = " <-> ".join(f"{cls.name}.{member}"
                                 for member in sorted(group))
            yield Finding(
                path=path,
                line=sites[0],
                col=0,
                rule=self.name,
                message=(
                    f"lock-order cycle: {names} "
                    "acquired in conflicting orders across "
                    f"{len(sites)} sites — potential deadlock"),
            )

    @staticmethod
    def _reachable(graph: Dict[str, Set[str]], start: str) -> Set[str]:
        seen: Set[str] = set()
        stack = [start]
        while stack:
            for nxt in graph.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen
