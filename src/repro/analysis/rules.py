"""The repo-specific invariant rules behind ``repro lint``.

Each rule encodes an invariant that was previously enforced only by
review lore -- and, in PRs 3/4, violated and hand-fixed.  Rules operate
on :class:`ModuleInfo` (one parsed file plus its inferred dotted module
name) and yield :class:`Violation` records; suppression happens in the
engine via ``# repro: allow[rule]`` pragmas.

===  ==================  ===================================================
ID   name                invariant
===  ==================  ===================================================
R1   layering            ``repro.core``/``channel``/``optics``/
                         ``illumination`` never import ``repro.runtime``
                         or ``repro.cluster`` (tracing crosses layers via
                         ``repro.tracecontext`` only); nothing below the
                         scenario catalog imports ``repro.scenarios``;
                         nothing below ``repro.obs`` imports it
R2   lock-discipline     no numpy work, I/O or sleeps inside
                         ``with self._lock:`` blocks of the runtime's
                         metrics/cache/pool modules
R3   determinism         no wall-clock ``time.time()`` or non-blake2b
                         hashing in ``core``/``runtime``/``system``/
                         ``cluster`` decision paths; no unseeded or
                         legacy-global numpy/stdlib RNG anywhere
R4   cache-immutability  every value stored into an LRU cache's
                         ``_entries`` passes through
                         ``_freeze_arrays``/``setflags(write=False)``
R5   api-typing          public functions/methods of ``repro.runtime``,
                         ``repro.core`` and ``repro.obs`` carry full
                         parameter and return annotations (the
                         mypy-strict surface)
R6   async-discipline    no blocking calls lexically inside ``async
                         def`` bodies of ``repro.cluster``/``repro.obs``
                         (:mod:`repro.analysis.dataflow`)
R7   deadline-           a function holding a ``Deadline`` threads the
     propagation         budget into every serving-stack call it makes
                         (:mod:`repro.analysis.dataflow`)
R8   metrics-contract    metric call sites agree with the registration
                         catalog and the docs tables
                         (:mod:`repro.analysis.contracts`)
R9   exception-policy    broad ``except`` in serving-layer decision
                         paths must re-raise or count the failure
                         (:mod:`repro.analysis.dataflow`)
===  ==================  ===================================================

Rules R1/R7/R8 are *project-scoped*: their :meth:`Rule.check` reads
the cross-module :class:`~repro.analysis.symbols.SymbolTable`, not just
their own file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .symbols import SymbolTable

__all__ = ["ModuleInfo", "Rule", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    rule: str
    name: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}[{self.name}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class ModuleInfo:
    """One parsed source file as the rules see it.

    ``module`` is the dotted module name inferred from the path (or
    overridden by a ``# repro: module=...`` directive, which is how the
    test fixtures impersonate in-tree modules).  ``allows`` maps line
    numbers to the pragma tokens suppressing rules on that line.
    """

    path: str
    module: str
    tree: ast.AST
    is_package_init: bool = False
    allows: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package_init:
            return self.module
        return self.module.rpartition(".")[0]


class Rule:
    """Base class: an identified, named check over one module."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check(
        self, info: ModuleInfo, symbols: "Optional[SymbolTable]" = None
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def finalize(self, symbols: "SymbolTable") -> Iterator[Violation]:
        """Whole-project findings not anchored to a scanned file."""
        return iter(())

    def _violation(self, info: ModuleInfo, line: int, message: str) -> Violation:
        return Violation(
            rule=self.id, name=self.name, path=info.path, line=line,
            message=message,
        )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _attribute_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``np.random.default_rng`` -> ("np", "random", "default_rng")."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _resolve_import_from(info: ModuleInfo, node: ast.ImportFrom) -> Optional[str]:
    """The absolute module an ``ImportFrom`` targets, best effort."""
    if node.level == 0:
        return node.module
    base = info.package.split(".") if info.package else []
    hops = node.level - 1
    if hops:
        base = base[:-hops] if hops <= len(base) else []
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _in_module(info: ModuleInfo, prefixes: Sequence[str]) -> bool:
    return any(
        info.module == prefix or info.module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _walk_skipping_functions(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function bodies.

    A closure defined under a lock usually runs *after* the lock is
    released (e.g. a factory handed to an executor), so nested
    ``def``/``lambda`` bodies are not "inside" the critical section.
    """
    pending: List[ast.AST] = list(body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        pending.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# R1 -- layering
# ----------------------------------------------------------------------


class LayeringRule(Rule):
    id = "R1"
    name = "layering"
    description = (
        "repro.core / repro.channel / repro.optics / repro.illumination "
        "must never import repro.runtime or repro.cluster; tracing "
        "crosses the boundary via repro.tracecontext only.  The cluster "
        "layer sits above the runtime, so repro.cluster may import "
        "repro.runtime but never the reverse.  repro.scenarios sits "
        "above both serving layers: it may import runtime/cluster, but "
        "nothing at or below the serving layers imports repro.scenarios. "
        "repro.obs tops the stack: only the CLI imports it -- the "
        "serving layers see observers through duck-typed protocols "
        "(repro.runtime.service.SLOObserver)"
    )

    PROTECTED = ("repro.core", "repro.channel", "repro.optics", "repro.illumination")
    FORBIDDEN = ("repro.runtime", "repro.cluster")
    #: Layers at or below serving that must never reach up into the
    #: scenario catalog (only the CLI and the scenarios package itself
    #: may import it).
    BELOW_SCENARIOS = PROTECTED + FORBIDDEN + (
        "repro.geometry",
        "repro.system",
    )
    SCENARIOS = "repro.scenarios"
    #: Everything below the observability layer -- scenarios included --
    #: must never import it; obs observes the stack, the stack never
    #: calls up into obs (SLO observers cross down via duck typing).
    BELOW_OBS = BELOW_SCENARIOS + (SCENARIOS,)
    OBS = "repro.obs"

    def _matches(self, target: Optional[str], layers: Sequence[str]) -> bool:
        if target is None:
            return False
        return any(
            target == layer or target.startswith(layer + ".")
            for layer in layers
        )

    def _check_target(
        self, info: ModuleInfo, line: int, target: Optional[str]
    ) -> Iterator[Violation]:
        if _in_module(info, self.PROTECTED) and self._matches(
            target, self.FORBIDDEN
        ):
            yield self._violation(
                info, line,
                f"layer {info.module!r} imports {target!r}; the "
                "serving layers (runtime/cluster) sit above this "
                "layer (use repro.tracecontext for span attributes)",
            )
        if _in_module(info, self.BELOW_SCENARIOS) and self._matches(
            target, (self.SCENARIOS,)
        ):
            yield self._violation(
                info, line,
                f"layer {info.module!r} imports {target!r}; the "
                "scenario catalog sits above the serving layers -- "
                "hand workloads down as (scene, requests) instead",
            )
        if _in_module(info, self.BELOW_OBS) and self._matches(
            target, (self.OBS,)
        ):
            yield self._violation(
                info, line,
                f"layer {info.module!r} imports {target!r}; the "
                "observability layer tops the stack -- expose hooks "
                "through duck-typed protocols (SLOObserver) and let "
                "obs call down, never the reverse",
            )

    def check(
        self, info: ModuleInfo, symbols: "Optional[SymbolTable]" = None
    ) -> Iterator[Violation]:
        if not _in_module(info, self.PROTECTED + self.BELOW_OBS):
            return
        known_modules = symbols.modules if symbols is not None else frozenset()
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._check_target(
                        info, node.lineno, alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_import_from(info, node)
                yield from self._check_target(info, node.lineno, target)
                if target is None or self._matches(
                    target, self.FORBIDDEN + (self.SCENARIOS, self.OBS)
                ):
                    continue  # the direct target check already fired
                # `from repro import scenarios` resolves to target
                # "repro" above, which no layer matches; the module
                # index tells us the bound name is itself a package.
                for alias in node.names:
                    composite = f"{target}.{alias.name}"
                    if composite in known_modules:
                        yield from self._check_target(
                            info, node.lineno, composite
                        )


# ----------------------------------------------------------------------
# R2 -- lock discipline
# ----------------------------------------------------------------------


class LockDisciplineRule(Rule):
    id = "R2"
    name = "lock-discipline"
    description = (
        "no numpy calls, I/O or sleeps inside `with self._lock:` blocks "
        "of repro.runtime.{metrics,cache,pool} -- compute outside, "
        "copy under the lock"
    )

    MODULES = (
        "repro.runtime.metrics",
        "repro.runtime.cache",
        "repro.runtime.pool",
    )
    _IO_NAMES = frozenset({"open", "print", "input"})

    def _is_lock_guard(self, item: ast.withitem) -> bool:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr.endswith("_lock"):
            return isinstance(expr.value, ast.Name)
        if isinstance(expr, ast.Name) and expr.id.endswith("_lock"):
            return True
        return False

    def _offending_call(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self._IO_NAMES:
            return f"I/O call {func.id}()"
        chain = _attribute_chain(func)
        if chain is None:
            return None
        root = chain[0]
        if root in ("np", "numpy"):
            return f"numpy call {'.'.join(chain)}()"
        if root == "time" and chain[-1] == "sleep":
            return "blocking call time.sleep()"
        if root == "json" and chain[-1] in ("dump", "load"):
            return f"I/O call {'.'.join(chain)}()"
        return None

    def check(
        self, info: ModuleInfo, symbols: "Optional[SymbolTable]" = None
    ) -> Iterator[Violation]:
        if info.module not in self.MODULES:
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(self._is_lock_guard(item) for item in node.items):
                continue
            for inner in _walk_skipping_functions(node.body):
                if isinstance(inner, ast.Call):
                    offense = self._offending_call(inner)
                    if offense is not None:
                        yield self._violation(
                            info, inner.lineno,
                            f"{offense} inside a `with ..._lock:` block; "
                            "copy state under the lock and compute "
                            "outside it",
                        )


# ----------------------------------------------------------------------
# R3 -- determinism
# ----------------------------------------------------------------------


class DeterminismRule(Rule):
    id = "R3"
    name = "determinism"
    description = (
        "decision paths (repro.core, repro.runtime, repro.system, "
        "repro.cluster) must not read the wall clock (time.time), hash "
        "with anything but blake2b, or call the builtin hash() (salted "
        "per-process by PYTHONHASHSEED); unseeded "
        "np.random.default_rng() and legacy global RNGs are banned "
        "everywhere"
    )

    DECISION_MODULES = (
        "repro.core",
        "repro.runtime",
        "repro.system",
        "repro.cluster",
    )
    _LEGACY_NP_RANDOM = frozenset(
        {
            "rand", "randn", "randint", "random", "random_sample", "seed",
            "choice", "shuffle", "permutation", "uniform", "normal",
            "standard_normal", "exponential", "poisson",
        }
    )
    _STDLIB_RANDOM = frozenset(
        {
            "random", "randint", "randrange", "choice", "choices",
            "shuffle", "sample", "uniform", "gauss", "seed", "betavariate",
            "expovariate", "normalvariate",
        }
    )

    def _imports_stdlib_random(self, info: ModuleInfo) -> bool:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                if any(alias.name == "random" for alias in node.names):
                    return True
        return False

    def check(
        self, info: ModuleInfo, symbols: "Optional[SymbolTable]" = None
    ) -> Iterator[Violation]:
        decision_path = _in_module(info, self.DECISION_MODULES)
        stdlib_random = self._imports_stdlib_random(info)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None:
                continue
            if decision_path and chain == ("time", "time"):
                yield self._violation(
                    info, node.lineno,
                    "wall-clock time.time() in a decision path; use "
                    "time.monotonic() / time.perf_counter() (or a "
                    "Deadline) so replays and deadlines are stable",
                )
            elif (
                decision_path
                and len(chain) == 2
                and chain[0] == "hashlib"
                and chain[1] != "blake2b"
            ):
                yield self._violation(
                    info, node.lineno,
                    f"hashlib.{chain[1]}() in a decision path; fingerprints "
                    "and jitter/sampling decisions standardize on "
                    "hashlib.blake2b",
                )
            elif decision_path and chain == ("hash",):
                yield self._violation(
                    info, node.lineno,
                    "builtin hash() in a decision path; str/bytes hashes "
                    "are salted per process (PYTHONHASHSEED), so "
                    "tie-breaks and sampling built on them do not replay "
                    "-- use hashlib.blake2b",
                )
            elif (
                chain[-1] == "default_rng"
                and chain[0] in ("np", "numpy", "default_rng")
                and not node.args
                and not node.keywords
            ):
                yield self._violation(
                    info, node.lineno,
                    "np.random.default_rng() without an explicit seed is "
                    "nondeterministic; pass a seed (or thread one through)",
                )
            elif (
                len(chain) == 3
                and chain[0] in ("np", "numpy")
                and chain[1] == "random"
                and chain[2] in self._LEGACY_NP_RANDOM
            ):
                yield self._violation(
                    info, node.lineno,
                    f"legacy global RNG np.random.{chain[2]}(); use a "
                    "seeded np.random.default_rng(seed) generator",
                )
            elif (
                stdlib_random
                and len(chain) == 2
                and chain[0] == "random"
                and chain[1] in self._STDLIB_RANDOM
            ):
                yield self._violation(
                    info, node.lineno,
                    f"stdlib global RNG random.{chain[1]}(); use a seeded "
                    "np.random.default_rng(seed) generator",
                )


# ----------------------------------------------------------------------
# R4 -- cached-array immutability
# ----------------------------------------------------------------------


class CacheImmutabilityRule(Rule):
    id = "R4"
    name = "cache-immutability"
    description = (
        "every value stored into an LRU cache's `_entries` must pass "
        "through _freeze_arrays()/ndarray.setflags(write=False) so "
        "shared cache hits cannot be mutated"
    )

    def _stores_entry(self, node: ast.AST) -> bool:
        """True for ``self._entries[...] = ...`` (or ``cls``-rooted)."""
        if not isinstance(node, ast.Assign):
            return False
        for target in node.targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "_entries"
            ):
                return True
        return False

    def _freezes(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id == "_freeze_arrays":
                    return True
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setflags"
                ):
                    return True
        return False

    def check(
        self, info: ModuleInfo, symbols: "Optional[SymbolTable]" = None
    ) -> Iterator[Violation]:
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stores = [
                stmt for stmt in ast.walk(node) if self._stores_entry(stmt)
            ]
            if not stores or self._freezes(node):
                continue
            for store in stores:
                yield self._violation(
                    info, store.lineno,
                    f"{node.name}() inserts into a cache's _entries "
                    "without freezing; route the value through "
                    "_freeze_arrays() / setflags(write=False) first",
                )


# ----------------------------------------------------------------------
# R5 -- public-API typing
# ----------------------------------------------------------------------


class ApiTypingRule(Rule):
    id = "R5"
    name = "api-typing"
    description = (
        "public functions and public-class methods of repro.runtime, "
        "repro.core and repro.obs need full parameter and return "
        "annotations (the surface the mypy-strict gate checks)"
    )

    MODULES = ("repro.runtime", "repro.core", "repro.obs")

    def _check_signature(
        self,
        info: ModuleInfo,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        owner: Optional[str],
        skip_first: bool,
    ) -> Iterator[Violation]:
        label = f"{owner}.{func.name}" if owner else func.name
        args = func.args
        positional = list(args.posonlyargs) + list(args.args)
        if skip_first and positional:
            positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                yield self._violation(
                    info, func.lineno,
                    f"parameter {arg.arg!r} of public {label}() has no "
                    "annotation",
                )
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                yield self._violation(
                    info, func.lineno,
                    f"parameter *{vararg.arg!r} of public {label}() has "
                    "no annotation",
                )
        if func.returns is None:
            yield self._violation(
                info, func.lineno,
                f"public {label}() has no return annotation",
            )

    def _is_static(self, func: ast.AST) -> bool:
        return any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in getattr(func, "decorator_list", [])
        )

    def check(
        self, info: ModuleInfo, symbols: "Optional[SymbolTable]" = None
    ) -> Iterator[Violation]:
        if not _in_module(info, self.MODULES) or info.is_package_init:
            return
        tree = info.tree
        if not isinstance(tree, ast.Module):
            return
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                yield from self._check_signature(
                    info, node, owner=None, skip_first=False
                )
            elif isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                for member in node.body:
                    if not isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if member.name.startswith("_") and member.name != "__init__":
                        continue
                    yield from self._check_signature(
                        info,
                        member,
                        owner=node.name,
                        skip_first=not self._is_static(member),
                    )
