"""*trace-schema*: every emitted ``kind`` exists in the registry.

``repro trace`` / ``repro stats`` analysis, the Prometheus exposition,
and the planned shadow-replay diff all select events by their dotted
``kind``.  A typo'd kind at an emit site (``"job.sumbit"``) is the
worst class of bug: nothing crashes, the event is recorded — and every
consumer silently never sees it.

The registry is the set of dotted-string constants in
``repro.obs.events`` (exported at runtime as ``events.KINDS``).  This
rule checks, project-wide:

* string literals passed as the first argument of an ``.emit(...)``
  call or as a ``kind=`` keyword to a ``TraceEvent(...)`` construction
  must be registered kinds;
* ``events.<CONSTANT>`` references (under any import alias) must name
  constants that actually exist in the registry module.

Prefix *filters* (``events(kind="backend.")``) are consumer-side and
deliberately out of scope — only emit sites are checked.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.lint.config import TRACE_EVENTS_MODULE
from repro.lint.framework import (
    Finding,
    Project,
    Rule,
    SourceFile,
    dotted_name,
)


def _parse_registry(tree: ast.Module) -> Dict[str, str]:
    """CONSTANT -> dotted kind, from module-level string assignments."""
    registry: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str) and \
                "." in node.value.value:
            name = node.targets[0].id
            if name.isupper():
                registry[name] = node.value.value
    return registry


class TraceSchemaRule(Rule):
    name = "trace-schema"
    description = ("emitted trace kinds must exist in the "
                   "repro.obs.events registry")

    def _registry(self, project: Project) -> Dict[str, str]:
        src = project.file_for_module(TRACE_EVENTS_MODULE)
        if src is not None:
            return _parse_registry(src.tree)
        # The linted paths may not include the registry (e.g. linting
        # tests/): fall back to the installed module next to this file.
        fallback = Path(__file__).resolve().parents[2] / "obs" / \
            "events.py"
        try:
            tree = ast.parse(fallback.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return {}
        return _parse_registry(tree)

    def check(self, project: Project) -> Iterable[Finding]:
        registry = self._registry(project)
        if not registry:
            return []
        kinds = set(registry.values())
        findings: List[Finding] = []
        for src in project.files:
            if src.module == TRACE_EVENTS_MODULE:
                continue
            aliases = {
                local for local, target in src.imports.names.items()
                if target == TRACE_EVENTS_MODULE
            }
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Attribute):
                    finding = self._check_constant_ref(
                        src, node, aliases, registry)
                    if finding:
                        findings.append(finding)
                elif isinstance(node, ast.Call):
                    findings.extend(self._check_emit(src, node, kinds))
        return findings

    def _check_constant_ref(
        self, src: SourceFile, node: ast.Attribute, aliases: set,
        registry: Dict[str, str],
    ) -> Optional[Finding]:
        if not (isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            return None
        name = node.attr
        if not name.isupper() or name in registry:
            return None
        return Finding(
            path=str(src.path),
            line=node.lineno,
            col=node.col_offset,
            rule=self.name,
            message=(f"unknown trace-kind constant {name!r} — not "
                     f"defined in {TRACE_EVENTS_MODULE}"),
        )

    def _check_emit(self, src: SourceFile, node: ast.Call,
                    kinds: set) -> Iterable[Finding]:
        func = node.func
        dotted = dotted_name(func)
        is_emit = isinstance(func, ast.Attribute) and \
            func.attr == "emit"
        is_event = dotted is not None and \
            dotted.split(".")[-1] == "TraceEvent"
        if not is_emit and not is_event:
            return
        candidates: List[ast.expr] = []
        if is_emit and node.args:
            candidates.append(node.args[0])
        for kw in node.keywords:
            if kw.arg == "kind":
                candidates.append(kw.value)
        for expr in candidates:
            if isinstance(expr, ast.Constant) and \
                    isinstance(expr.value, str) and \
                    expr.value not in kinds:
                yield Finding(
                    path=str(src.path),
                    line=expr.lineno,
                    col=expr.col_offset,
                    rule=self.name,
                    message=(f"emitted kind {expr.value!r} is not in "
                             f"the {TRACE_EVENTS_MODULE} registry — "
                             "register a constant for it (typo'd kinds "
                             "vanish from trace analysis)"),
                )
