"""Cross-module symbol table shared by the project-scoped rules.

The engine collects one :class:`FileSymbols` record per parsed file --
metric instrument call sites (with an access classification), functions
that accept deadline budgets, and the dotted module name -- then folds
them into a :class:`SymbolTable`.  Rules consume the table instead of
re-walking every other file:

- **R1** uses the module index to resolve ``from repro import scenarios``
  style imports that per-file inspection cannot see are packages.
- **R7** treats any function whose signature carries a deadline
  parameter as an additional budget sink.
- **R8** checks each file's metric call sites against the global
  catalog (kind conflicts, label drift, reads of never-written names).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = [
    "FileSymbols",
    "MetricSite",
    "SymbolTable",
    "collect_symbols",
]

#: Instrument-constructor attributes recognized on a registry/metrics
#: object.
_INSTRUMENT_ATTRS = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
}

#: Keyword arguments that configure an instrument rather than label it.
_CONFIG_KWARGS = frozenset({"buckets", "reservoir_size"})

_WRITE_ATTRS = frozenset({"increment", "observe", "set"})
_READ_ATTRS = frozenset(
    {
        "value", "count", "mean", "total", "percentile", "as_dict",
        "minimum", "maximum",
    }
)


@dataclass(frozen=True)
class MetricSite:
    """One instrument call site: ``registry.counter("pool.tasks", ...)``."""

    name: str
    kind: str  # counter | gauge | histogram
    access: str  # write | read | register
    labels: Optional[Tuple[str, ...]]  # None when built from **kwargs
    line: int


@dataclass(frozen=True)
class FileSymbols:
    """One file's contribution to the cross-module symbol table."""

    module: str
    metric_sites: Tuple[MetricSite, ...] = ()
    deadline_funcs: Tuple[str, ...] = ()


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _enclosing_scope(
    node: ast.AST, parents: Dict[ast.AST, ast.AST], tree: ast.AST
) -> ast.AST:
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return tree


def _variable_accesses(scope: ast.AST, variable: str) -> FrozenSet[str]:
    """Attribute names accessed on *variable* anywhere in *scope*."""
    attrs = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == variable
        ):
            attrs.add(node.attr)
    return frozenset(attrs)


def _classify_access(
    call: ast.Call,
    parents: Dict[ast.AST, ast.AST],
    tree: ast.AST,
) -> str:
    """write / read / register for one instrument-constructor call."""
    parent = parents.get(call)
    if isinstance(parent, ast.Attribute):
        if parent.attr in _WRITE_ATTRS:
            return "write"
        if parent.attr in _READ_ATTRS:
            return "read"
        return "register"
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
        if isinstance(target, ast.Name):
            scope = _enclosing_scope(call, parents, tree)
            accesses = _variable_accesses(scope, target.id)
            if accesses & _WRITE_ATTRS:
                return "write"
            if accesses & _READ_ATTRS:
                return "read"
    return "register"


def _is_deadline_param(arg: ast.arg) -> bool:
    if "deadline" in arg.arg.lower():
        return True
    annotation = arg.annotation
    if annotation is not None:
        try:
            rendered = ast.unparse(annotation)
        except Exception:  # pragma: no cover - defensive
            return False
        return "Deadline" in rendered
    return False


def collect_symbols(module: str, tree: ast.AST) -> FileSymbols:
    """Extract one file's symbol contributions from its parsed tree."""
    parents = _parent_map(tree)
    sites: List[MetricSite] = []
    deadline_funcs: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            )
            if any(_is_deadline_param(arg) for arg in params):
                deadline_funcs.append(node.name)
            continue
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        kind = _INSTRUMENT_ATTRS.get(func.attr)
        if kind is None or not node.args:
            continue
        first = node.args[0]
        if not isinstance(first, ast.Constant) or not isinstance(
            first.value, str
        ):
            continue  # dynamic names (f-strings etc.) are uncheckable
        labels: Optional[Tuple[str, ...]] = tuple(
            sorted(
                keyword.arg
                for keyword in node.keywords
                if keyword.arg is not None and keyword.arg not in _CONFIG_KWARGS
            )
        )
        if any(keyword.arg is None for keyword in node.keywords):
            labels = None  # **labels expansion: label set is dynamic
        sites.append(
            MetricSite(
                name=first.value,
                kind=kind,
                access=_classify_access(node, parents, tree),
                labels=labels,
                line=node.lineno,
            )
        )
    return FileSymbols(
        module=module,
        metric_sites=tuple(sites),
        deadline_funcs=tuple(sorted(set(deadline_funcs))),
    )


@dataclass
class SymbolTable:
    """The folded, cross-module view the project-scoped rules consume."""

    files: Dict[str, FileSymbols] = field(default_factory=dict)

    def add(self, path: str, symbols: FileSymbols) -> None:
        self.files[path] = symbols

    def file(self, path: str) -> Optional[FileSymbols]:
        return self.files.get(path)

    @property
    def modules(self) -> FrozenSet[str]:
        """Every dotted module name seen this run (the module index)."""
        return frozenset(symbols.module for symbols in self.files.values())

    @property
    def deadline_sinks(self) -> FrozenSet[str]:
        """Functions (by bare name) whose signatures accept a deadline."""
        names = set()
        for symbols in self.files.values():
            if not symbols.module.startswith("repro."):
                continue
            names.update(symbols.deadline_funcs)
        return frozenset(names)

    def metric_sites(self) -> Iterable[Tuple[str, str, MetricSite]]:
        """(path, module, site) for every in-tree instrument call site."""
        for path in sorted(self.files):
            symbols = self.files[path]
            if not symbols.module.startswith("repro."):
                continue
            for site in symbols.metric_sites:
                yield path, symbols.module, site

    def metric_writers(self) -> Dict[str, List[Tuple[str, str, MetricSite]]]:
        """name -> write/register sites, in deterministic order."""
        writers: Dict[str, List[Tuple[str, str, MetricSite]]] = {}
        for path, module, site in self.metric_sites():
            if site.access in ("write", "register"):
                writers.setdefault(site.name, []).append((path, module, site))
        return writers
