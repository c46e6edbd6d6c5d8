"""The rule registry, file discovery, pragma handling and ``repro lint``.

:data:`ALL_RULES` lists the nine rules in report order.  The engine
turns paths into :class:`~repro.analysis.rules.ModuleInfo`
records, collects each file's symbol contribution into a cross-module
:class:`~repro.analysis.symbols.SymbolTable`, runs every (selected)
rule, filters violations through ``# repro: allow[rule]`` pragmas, and
renders the report::

    repro lint src tests benchmarks examples  # CI scan, exit 1 on findings
    repro lint src --format json              # machine-readable report
    repro lint src --rules R2,determinism     # a subset of the rules
    repro lint --list-rules                   # rule catalog

Pragmas suppress a rule on the line they sit on and on the line below,
so both styles work::

    digest = hashlib.sha256(payload)  # repro: allow[determinism]

    # repro: allow[R3] -- seeded upstream, measured workload only
    rng = np.random.default_rng()

On a decorated function the pragma may sit above the decorator stack
(or on any decorator line): the tokens extend down to the ``def`` line
where signature rules report.

A ``# repro: module=repro.runtime.metrics`` directive (on a comment-only
line) overrides the module name inferred from the path -- the rule
fixtures under ``tests/fixtures/analysis`` use it to impersonate
in-tree modules.
Directories named ``fixtures`` are skipped during discovery (they
contain deliberate violations); linting a fixture file explicitly still
works.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Iterator, List, Optional, Sequence, TextIO, Tuple

from .contracts import MetricsContractRule, parse_docs_catalog
from .dataflow import (
    AsyncDisciplineRule,
    DeadlinePropagationRule,
    ExceptionPolicyRule,
)
from .rules import (
    ApiTypingRule,
    CacheImmutabilityRule,
    DeterminismRule,
    LayeringRule,
    LockDisciplineRule,
    ModuleInfo,
    Rule,
    Violation,
)
from .symbols import SymbolTable, collect_symbols

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "analyze_paths",
    "iter_python_files",
    "load_module",
    "rules_by_token",
    "run_lint",
]

#: Every rule, in report order.
ALL_RULES: Tuple[Rule, ...] = (
    LayeringRule(),
    LockDisciplineRule(),
    DeterminismRule(),
    CacheImmutabilityRule(),
    ApiTypingRule(),
    AsyncDisciplineRule(),
    DeadlinePropagationRule(),
    MetricsContractRule(),
    ExceptionPolicyRule(),
)

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")
# Anchored to comment-only lines so source that merely *mentions* a
# directive in a string literal (e.g. a test writing fixture content)
# does not re-home itself.
_MODULE_DIRECTIVE = re.compile(r"^\s*#\s*repro:\s*module=([A-Za-z0-9_.]+)")

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".venv",
        "build",
        "dist",
        "fixtures",
        "results",
        ".mypy_cache",
        ".pytest_cache",
    }
)

#: Relative location of the metric-contract docs, discovered by walking
#: up from the first scanned file.
_DOCS_RELATIVE = Path("docs") / "architecture.md"


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under *paths*, deterministically.

    Explicit file paths are always yielded (even inside skipped
    directories); directories are walked recursively, pruning
    :data:`_SKIP_DIRS`.
    """
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def rules_by_token(tokens: Sequence[str]) -> Tuple[Rule, ...]:
    """Resolve rule selectors (``R2`` / ``lock-discipline``) to rules."""
    selected: List[Rule] = []
    for token in tokens:
        normalized = token.strip().lower()
        matches = [
            rule
            for rule in ALL_RULES
            if normalized in (rule.id.lower(), rule.name.lower())
        ]
        if not matches:
            known = ", ".join(f"{r.id}/{r.name}" for r in ALL_RULES)
            raise ValueError(f"unknown rule {token!r}; known rules: {known}")
        selected.extend(m for m in matches if m not in selected)
    return tuple(selected)


def _infer_module(path: Path) -> "tuple[str, bool]":
    """The dotted module name for *path* plus an is-package-init flag.

    Files under a ``repro`` package directory get their real dotted
    name (``src/repro/core/optimizer.py`` -> ``repro.core.optimizer``);
    anything else (tests, examples, benchmarks) is treated as a
    top-level module named after the file.
    """
    parts = list(path.parts)
    is_init = path.name == "__init__.py"
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[anchor:]
        dotted[-1] = path.stem
        if is_init:
            dotted = dotted[:-1]
        return ".".join(dotted), is_init
    return path.stem, is_init


def _extend_decorator_pragmas(tree: ast.AST, allows: dict) -> None:
    """Carry pragmas across decorator stacks to the ``def`` line.

    Signature rules (R5) report at the ``def`` line, but a pragma
    written above a decorated function covers the *decorator* line.
    Tokens found anywhere from one line above the first decorator down
    to the ``def`` line are unioned onto the ``def`` line.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.decorator_list:
            continue
        start = min(d.lineno for d in node.decorator_list)
        tokens: FrozenSet[str] = frozenset()
        for line in range(start - 1, node.lineno + 1):
            tokens |= allows.get(line, frozenset())
        if tokens:
            allows[node.lineno] = allows.get(node.lineno, frozenset()) | tokens


def load_module(path: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (pragmas included)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module, is_init = _infer_module(path)
    allows: dict = {}
    for number, line in enumerate(source.splitlines(), start=1):
        directive = _MODULE_DIRECTIVE.search(line)
        if directive:
            module = directive.group(1)
            is_init = False
        pragma = _PRAGMA.search(line)
        if pragma:
            tokens = frozenset(
                token.strip().lower()
                for token in pragma.group(1).split(",")
                if token.strip()
            )
            # A pragma covers its own line and the statement below it.
            for covered in (number, number + 1):
                allows[covered] = allows.get(covered, frozenset()) | tokens
    _extend_decorator_pragmas(tree, allows)
    return ModuleInfo(
        path=str(path),
        module=module,
        tree=tree,
        is_package_init=is_init,
        allows=allows,
    )


def _allowed(info: ModuleInfo, violation: Violation) -> bool:
    tokens = info.allows.get(violation.line)
    if not tokens:
        return False
    return bool(
        tokens & {violation.rule.lower(), violation.name.lower(), "*"}
    )


@dataclass(frozen=True)
class AnalysisReport:
    """The outcome of one analysis run."""

    violations: "tuple[Violation, ...]"
    files_scanned: int
    parse_errors: "tuple[str, ...]" = ()

    @property
    def clean(self) -> bool:
        return not self.violations and not self.parse_errors

    def as_dict(self) -> dict:
        return {
            "files_scanned": self.files_scanned,
            "violations": [v.as_dict() for v in self.violations],
            "parse_errors": list(self.parse_errors),
            "clean": self.clean,
        }


def _find_docs(files: Sequence[Path]) -> "Optional[Path]":
    """Locate ``docs/architecture.md`` above the first scanned file.

    The catalog is only representative when the scan covers the source
    tree that emits the documented metrics; a partial scan (say,
    ``repro lint tests``) would make every documented metric look dead.
    So discovery additionally requires at least one scanned file under
    the sibling ``src/`` of the docs directory.
    """
    if not files:
        return None
    resolved = [path.resolve() for path in files]
    for ancestor in resolved[0].parents:
        candidate = ancestor / _DOCS_RELATIVE
        if candidate.is_file():
            source_root = str(ancestor / "src") + os.sep
            if any(str(path).startswith(source_root) for path in resolved):
                return candidate
            return None
    return None


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    *,
    docs_path: "Optional[str | Path]" = None,
) -> AnalysisReport:
    """Run *rules* (default: all) over every Python file under *paths*."""
    active = tuple(rules) if rules is not None else ALL_RULES

    files = list(iter_python_files(paths))
    parse_errors: List[str] = []
    infos: List[ModuleInfo] = []
    for path in files:
        try:
            info = load_module(path)
        except SyntaxError as error:
            parse_errors.append(f"{path}:{error.lineno or 0}: {error.msg}")
            continue
        except OSError as error:
            parse_errors.append(f"{path}:0: {error}")
            continue
        infos.append(info)

    table = SymbolTable()
    for info in infos:
        table.add(info.path, collect_symbols(info.module, info.tree))

    # Docs drift is only meaningful against a representative catalog:
    # auto-discover the docs for directory scans, but not when linting
    # explicit single files (fixtures, tmp files) whose lone-file
    # symbol table would make every documented metric look dead.
    docs_file: Optional[Path]
    if docs_path is not None:
        docs_file = Path(docs_path)
    elif any(Path(raw).is_dir() for raw in paths):
        docs_file = _find_docs(files)
    else:
        docs_file = None
    docs_catalog = None
    if docs_file is not None and docs_file.is_file():
        docs_catalog = parse_docs_catalog(
            str(docs_file), docs_file.read_text(encoding="utf-8")
        )
    for rule in active:
        if isinstance(rule, MetricsContractRule):
            rule.docs = docs_catalog

    violations: List[Violation] = []
    for info in infos:
        for rule in active:
            violations.extend(
                violation
                for violation in rule.check(info, table)
                if not _allowed(info, violation)
            )

    # Whole-project findings (e.g. R8's docs-reverse drift) read only
    # the symbol table and the docs.
    for rule in active:
        violations.extend(rule.finalize(table))

    violations.sort(key=lambda v: (v.path, v.line, v.rule, v.message))
    return AnalysisReport(
        violations=tuple(violations),
        files_scanned=len(infos),
        parse_errors=tuple(parse_errors),
    )


def _render_text(report: AnalysisReport, stream: TextIO) -> None:
    for error in report.parse_errors:
        stream.write(f"{error} [parse-error]\n")
    for violation in report.violations:
        stream.write(violation.render() + "\n")
    summary = (
        f"{len(report.violations)} violation(s), "
        f"{len(report.parse_errors)} parse error(s) across "
        f"{report.files_scanned} file(s)"
    )
    stream.write(("" if report.clean else "\n") + summary + "\n")


def run_lint(
    argv: Optional[Sequence[str]] = None, stream: TextIO = sys.stdout
) -> int:
    """The ``repro lint`` subcommand; returns the process exit code.

    Exit codes: 0 clean, 1 violations or parse errors found, 2 usage
    errors (unknown rule, missing path).
    """
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="invariant-aware static analysis (rules R1-R9)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule selection, by id or name "
        "(e.g. R2,determinism); default: all rules",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            stream.write(f"{rule.id}  {rule.name}\n    {rule.description}\n")
        return 0

    try:
        rules = (
            rules_by_token(args.rules.split(",")) if args.rules else None
        )
    except ValueError as error:
        print(f"repro lint: error: {error}", file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(
            f"repro lint: error: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    report = analyze_paths(args.paths, rules=rules)

    if args.format == "json":
        stream.write(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    else:
        _render_text(report, stream)
    return 0 if report.clean else 1
