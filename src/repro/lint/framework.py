"""Shared machinery of ``repro.lint``: sources, pragmas, lock model.

The pieces here are rule-agnostic:

:class:`SourceFile`
    One parsed module — text, AST, derived dotted module name, and the
    three comment annotations the checkers understand, extracted with
    :mod:`tokenize` so only *real* comments count (the same markers
    inside string literals are ignored):

    * ``# lint: disable=<rule>[,<rule>...]`` — suppress findings on
      that line; on a ``def``/``class`` header line it suppresses the
      whole body.  ``disable=all`` suppresses every rule.
    * ``# guarded-by: <lock>`` — on an attribute assignment it declares
      the attribute lock-guarded; on a ``def`` line it declares that
      callers invoke the method with ``<lock>`` already held.
    * ``# hot-path`` — on (or directly above) a ``def`` line it marks
      the function zero-copy-critical.

:class:`ImportMap`
    Alias resolution (``np`` -> ``numpy``, ``monotonic`` ->
    ``time.monotonic``) so rules can match fully-qualified call names.

:class:`ClassInfo` / :class:`MethodInfo`
    The lock model of one class: declared locks (with
    ``Condition(wrapped_lock)`` aliasing), guard declarations, and per
    method the attribute accesses, ``with self.<lock>`` acquisitions
    and same-class calls, each with the class locks held around it.
    Both the *guarded-by* and *lock-order* rules consume this.

:class:`Rule` / :func:`run_lint`
    The driver: load files, run each rule project-wide, split findings
    into reported vs pragma-suppressed, sort deterministically.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.config import DEFAULT_CONFIG, LintConfig

_PRAGMA_RE = re.compile(r"lint:\s*disable=([A-Za-z0-9_,\- ]+)")
_GUARD_RE = re.compile(r"guarded-by:\s*([A-Za-z_]\w*)")
#: Anchored: the marker is the comment's own text, not a rule name in
#: a ``# lint: disable=hot-path`` pragma.
_HOT_RE = re.compile(r"#\s*hot-path\b")


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] " \
               f"{self.message}"


# ----------------------------------------------------------------------
# Imports
# ----------------------------------------------------------------------
class ImportMap:
    """Resolve local names to fully-qualified dotted names."""

    def __init__(self, tree: ast.Module, module: str) -> None:
        self.names: Dict[str, str] = {}
        package = module.rsplit(".", 1)[0] if "." in module else ""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.names[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = module.split(".")
                    # level=1 is the current package: drop the module's
                    # own basename, then one more part per extra level.
                    parts = parts[:len(parts) - node.level]
                    base = ".".join(parts + ([node.module]
                                             if node.module else []))
                    base = base or (node.module or package)
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = f"{base}.{alias.name}" if base \
                        else alias.name

    def resolve(self, dotted: str) -> str:
        """Expand the head alias of ``dotted`` (identity if unknown)."""
        head, _, rest = dotted.partition(".")
        base = self.names.get(head)
        if base is None:
            return dotted
        return f"{base}.{rest}" if rest else base


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call(node: ast.Call, imports: ImportMap) -> Optional[str]:
    """Fully-qualified dotted name of a call's target, if static."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    return imports.resolve(dotted)


# ----------------------------------------------------------------------
# Source files
# ----------------------------------------------------------------------
def module_name_for(path: Path) -> str:
    """Dotted module name derived from the path (``src`` layout aware)."""
    parts = list(path.with_suffix("").parts)
    for marker in ("src",):
        if marker in parts:
            parts = parts[parts.index(marker) + 1:]
            break
    else:
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        else:
            parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class SourceFile:
    """One parsed module plus its lint annotations."""

    def __init__(self, path: Path, text: str,
                 module: Optional[str] = None) -> None:
        self.path = path
        self.text = text
        self.module = module if module is not None \
            else module_name_for(path)
        self.tree: ast.Module = ast.parse(text, filename=str(path))
        self.imports = ImportMap(self.tree, self.module)

        #: line -> comment text (tokenize: real comments only)
        self.comments: Dict[int, str] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(text).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    self.comments[tok.start[0]] = tok.string
        except (tokenize.TokenError, IndentationError):
            pass

        #: line -> rules disabled on that line ("all" disables all)
        self.pragmas: Dict[int, Set[str]] = {}
        #: line -> declared guard lock name
        self.guards: Dict[int, str] = {}
        #: lines carrying a ``# hot-path`` marker
        self.hot_lines: Set[int] = set()
        for line, comment in self.comments.items():
            pragma = _PRAGMA_RE.search(comment)
            if pragma:
                rules = {part.strip() for part in
                         pragma.group(1).split(",") if part.strip()}
                self.pragmas[line] = rules
            guard = _GUARD_RE.search(comment)
            if guard:
                self.guards[line] = guard.group(1)
            if _HOT_RE.match(comment):
                self.hot_lines.add(line)

        #: (start, end, rules) spans from pragmas on def/class headers
        self.scope_pragmas: List[Tuple[int, int, Set[str]]] = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                header_lines = [node.lineno]
                header_lines += [d.lineno for d in node.decorator_list]
                rules: Set[str] = set()
                for line in header_lines:
                    rules |= self.pragmas.get(line, set())
                if rules:
                    end = getattr(node, "end_lineno", node.lineno)
                    self.scope_pragmas.append(
                        (node.lineno, end or node.lineno, rules))

        self._classes: Optional[List["ClassInfo"]] = None

    def suppressed(self, rule: str, line: int) -> bool:
        """True if a pragma disables ``rule`` at ``line``."""
        rules = self.pragmas.get(line, ())
        if rule in rules or "all" in rules:
            return True
        for start, end, scoped in self.scope_pragmas:
            if start <= line <= end and (rule in scoped
                                         or "all" in scoped):
                return True
        return False

    def is_hot(self, node: ast.AST) -> bool:
        """True if ``node`` (a function) carries a hot-path marker on
        its header, a decorator line, or the line directly above."""
        lines = {node.lineno, node.lineno - 1}
        for deco in getattr(node, "decorator_list", ()):
            lines.add(deco.lineno)
            lines.add(deco.lineno - 1)
        return bool(lines & self.hot_lines)

    def classes(self) -> List["ClassInfo"]:
        """Lock model of every class in the file (cached)."""
        if self._classes is None:
            self._classes = [
                ClassInfo(node, self)
                for node in ast.walk(self.tree)
                if isinstance(node, ast.ClassDef)
            ]
        return self._classes


# ----------------------------------------------------------------------
# The lock model
# ----------------------------------------------------------------------
# A lock is modelled only where it is owned: ``self.<lock>`` inside the
# class that declares it, named by its canonical attribute.  Another
# object's lock (``gate.cond`` as a ``with`` item) is not followed — the
# lock-order rule reports taking it as a finding of its own.
@dataclass
class Access:
    """One ``self.<attr>`` data access inside a method."""

    attr: str
    line: int
    col: int
    held: frozenset  # canonical attrs of the class locks held


@dataclass
class Acquire:
    """One ``with self.<lock>:`` item inside a method."""

    lock: str  # canonical attr
    line: int
    col: int
    held: Tuple[str, ...]  # locks already held at this point


@dataclass
class SelfCall:
    """One ``self.<method>(...)`` call and the locks held around it."""

    callee: str
    line: int
    col: int
    held: Tuple[str, ...]


@dataclass
class MethodInfo:
    name: str
    entry_held: Tuple[str, ...]
    accesses: List[Access] = field(default_factory=list)
    acquires: List[Acquire] = field(default_factory=list)
    self_calls: List[SelfCall] = field(default_factory=list)


_LOCK_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "reentrant",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "reentrant",
}


def self_attr(node: ast.AST) -> Optional[str]:
    """``x`` for the expression ``self.x``, else None."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


class ClassInfo:
    """Locks, guard declarations, and per-method lock behaviour."""

    def __init__(self, node: ast.ClassDef, src: SourceFile) -> None:
        self.node = node
        self.src = src
        self.name = node.name
        #: lock attr -> "lock" | "reentrant"
        self.locks: Dict[str, str] = {}
        #: Condition attr -> the lock attr it wraps
        self.aliases: Dict[str, str] = {}
        #: data attr -> declared guard lock (canonical)
        self.declared: Dict[str, str] = {}

        body_methods = [n for n in node.body
                        if isinstance(n, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        self.method_names = {m.name for m in body_methods}

        self._collect_decls(body_methods)
        self.methods: Dict[str, MethodInfo] = {
            method.name: self._analyze_method(method)
            for method in body_methods
        }

    # -- declarations --------------------------------------------------
    def _collect_decls(self, methods: Sequence[ast.AST]) -> None:
        imports = self.src.imports
        # Class-body fields: a lock-typed annotation declares a lock.
        for stmt in self.node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                attr = stmt.target.id
                dotted = dotted_name(stmt.annotation)
                resolved = imports.resolve(dotted) if dotted else None
                if resolved in _LOCK_FACTORIES:
                    self.locks[attr] = _LOCK_FACTORIES[resolved]
                elif resolved is not None and \
                        resolved.endswith("threading.Condition"):
                    self.locks[attr] = "reentrant"
                else:
                    guard = self.src.guards.get(stmt.lineno)
                    if guard:
                        self.declared[attr] = guard
            elif isinstance(stmt, ast.Assign):
                guard = self.src.guards.get(stmt.lineno)
                if guard:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.declared[target.id] = guard

        # __init__-style assignments: lock factories and guards.
        for method in methods:
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                else:
                    continue
                for target in targets:
                    attr = self_attr(target)
                    if attr is not None:
                        self._classify_assignment(attr, stmt.value,
                                                  stmt.lineno)

    def _classify_assignment(self, attr: str, value: Optional[ast.AST],
                             lineno: int) -> None:
        if isinstance(value, ast.Call):
            resolved = resolve_call(value, self.src.imports)
            if resolved in _LOCK_FACTORIES:
                self.locks[attr] = _LOCK_FACTORIES[resolved]
            elif resolved is not None and \
                    resolved.endswith("threading.Condition"):
                wrapped = self_attr(value.args[0]) if value.args \
                    else None
                if wrapped is not None:
                    self.aliases[attr] = wrapped
                else:
                    # A bare Condition() wraps a fresh RLock.
                    self.locks[attr] = "reentrant"
        guard = self.src.guards.get(lineno)
        if guard and attr not in self.locks:
            self.declared.setdefault(attr, guard)

    # -- canonicalisation ---------------------------------------------
    def canonical(self, attr: str) -> str:
        """Condition attrs canonicalise to the lock they wrap."""
        return self.aliases.get(attr, attr)

    def lock_kind(self, attr: str) -> str:
        return self.locks.get(self.canonical(attr), "unknown")

    def is_lock_attr(self, attr: str) -> bool:
        return attr in self.locks or attr in self.aliases

    # -- per-method analysis ------------------------------------------
    def _entry_held(self, method: ast.AST) -> Tuple[str, ...]:
        """Locks the caller holds by convention: every class lock for a
        ``*_locked`` name, plus any ``# guarded-by`` on the def header."""
        attrs = set(self.locks) if method.name.endswith("_locked") \
            else set()
        for line in [method.lineno] + [d.lineno
                                       for d in method.decorator_list]:
            guard = self.src.guards.get(line)
            if guard:
                attrs.add(self.canonical(guard))
        return tuple(sorted(attrs))

    def _analyze_method(self, method: ast.AST) -> MethodInfo:
        info = MethodInfo(name=method.name,
                          entry_held=self._entry_held(method))
        visitor = _MethodVisitor(self, info)
        for stmt in method.body:
            visitor.visit(stmt)
        return info


class _MethodVisitor(ast.NodeVisitor):
    """Walk one method tracking the lexically-held lock stack."""

    def __init__(self, cls: ClassInfo, info: MethodInfo) -> None:
        self.cls = cls
        self.info = info
        self.held: List[str] = list(info.entry_held)

    def _visit_with(self, node: ast.AST) -> None:
        acquired = 0
        for item in node.items:
            self.visit(item.context_expr)
            attr = self_attr(item.context_expr)
            if attr is not None and self.cls.is_lock_attr(attr):
                lock = self.cls.canonical(attr)
                self.info.acquires.append(Acquire(
                    lock=lock,
                    line=item.context_expr.lineno,
                    col=item.context_expr.col_offset,
                    held=tuple(self.held),
                ))
                self.held.append(lock)
                acquired += 1
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(acquired):
            self.held.pop()

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attr(node)
        if attr is None:
            self.generic_visit(node)
        elif not self.cls.is_lock_attr(attr) and \
                attr not in self.cls.method_names:
            self.info.accesses.append(Access(
                attr=attr,
                line=node.lineno,
                col=node.col_offset,
                held=frozenset(self.held),
            ))

    def visit_Call(self, node: ast.Call) -> None:
        callee = self_attr(node.func)
        if callee is not None:
            self.info.self_calls.append(SelfCall(
                callee=callee,
                line=node.lineno,
                col=node.col_offset,
                held=tuple(self.held),
            ))
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Project loading and the driver
# ----------------------------------------------------------------------
class Project:
    """Every loaded source file plus the active configuration."""

    def __init__(self, files: List[SourceFile], config: LintConfig,
                 broken: Optional[List[Finding]] = None) -> None:
        self.files = files
        self.config = config
        self.broken = broken or []

    def file_for_module(self, module: str) -> Optional[SourceFile]:
        for src in self.files:
            if src.module == module:
                return src
        return None


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not any(part.startswith(".")
                           for part in p.parts))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def load_project(paths: Sequence[Path],
                 config: Optional[LintConfig] = None) -> Project:
    """Parse every Python file under ``paths`` into a Project."""
    config = config or DEFAULT_CONFIG
    files: List[SourceFile] = []
    broken: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            broken.append(Finding(str(path), 0, 0, "parse",
                                  f"unreadable: {exc}"))
            continue
        try:
            files.append(SourceFile(path, text))
        except SyntaxError as exc:
            broken.append(Finding(str(path), exc.lineno or 0, 0,
                                  "parse", f"syntax error: {exc.msg}"))
    return Project(files, config, broken)


class Rule:
    """Base class: one project-wide checker."""

    name: str = ""
    description: str = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    suppressed: List[Finding]
    files: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        return {
            "files": self.files,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }


def lint_project(project: Project,
                 rules: Sequence[Rule]) -> LintReport:
    """Run ``rules`` over a loaded project and split by pragma."""
    by_path = {str(src.path): src for src in project.files}
    findings: List[Finding] = list(project.broken)
    suppressed: List[Finding] = []
    for rule in rules:
        for finding in rule.check(project):
            src = by_path.get(finding.path)
            if src is not None and src.suppressed(finding.rule,
                                                  finding.line):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return LintReport(
        findings=sorted(set(findings)),
        suppressed=sorted(set(suppressed)),
        files=len(project.files),
    )
