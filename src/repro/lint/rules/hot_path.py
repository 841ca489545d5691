"""*hot-path*: no serialisation or implicit copies in ``# hot-path``.

The shared-memory shard transport exists to make the dispatcher ->
worker route cost **zero copied bytes** beyond its one write into a
slab.  A casually added ``pickle.dumps``, ``deepcopy``, ``.tobytes()``
or copying NumPy op in one of those functions would silently undo that
while every test still passes — byte accounting is a benchmark
artifact, not a unit assert.

Any function whose ``def`` line (or the line directly above it) carries
a ``# hot-path`` comment is checked: calls listed in
``HOT_BANNED_CALLS``, method names in ``HOT_BANNED_METHODS``, and the
allocating builtins in ``HOT_BANNED_BUILTINS`` are findings.  A
deliberate copy would carry an inline ``# lint: disable=hot-path``
pragma, which is the point: intentional copies are visible and
reviewed, accidental ones fail CI.  ``src/`` has none.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.config import (
    HOT_BANNED_BUILTINS,
    HOT_BANNED_CALLS,
    HOT_BANNED_METHODS,
)
from repro.lint.framework import (
    Finding,
    Project,
    Rule,
    SourceFile,
    resolve_call,
)


class HotPathRule(Rule):
    name = "hot-path"
    description = ("serialisation / implicit-copy operations inside "
                   "functions annotated # hot-path")

    def check(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for src in project.files:
            for node in ast.walk(src.tree):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)) and \
                        src.is_hot(node):
                    findings.extend(self._check_function(src, node))
        return findings

    def _check_function(self, src: SourceFile,
                        func: ast.AST) -> Iterable[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            message = None
            resolved = resolve_call(node, src.imports)
            if resolved in HOT_BANNED_CALLS:
                message = (f"{resolved}() copies/serialises inside a "
                           "# hot-path function")
            elif resolved in HOT_BANNED_BUILTINS:
                message = (f"{resolved}() allocates a copy inside a "
                           "# hot-path function")
            elif isinstance(node.func, ast.Attribute) and \
                    node.func.attr in HOT_BANNED_METHODS:
                message = (f".{node.func.attr}() copies/serialises "
                           "inside a # hot-path function")
            if message is not None:
                yield Finding(
                    path=str(src.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.name,
                    message=message,
                )
