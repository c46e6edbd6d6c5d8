"""Dataflow-aware rules: async discipline, deadline propagation,
exception policy (R6/R7/R9).

These rules go beyond the per-statement pattern checks of R1-R5:

- **R6** walks ``async def`` bodies of the event-loop layers
  (``repro.cluster``, ``repro.obs``) looking for lexically-blocking
  calls.  Work routed through ``run_in_executor``/``to_thread`` is
  exempt because the blocking call sits inside a nested
  ``lambda``/``def`` body, which the walk does not descend into.
- **R7** runs a small intra-procedural taint pass per function: any
  scope that *receives or constructs* a ``Deadline`` and then calls a
  budget sink (``handle_batch``, ``solve_outcomes``, ``route``, or any
  function the symbol table knows accepts a deadline) must thread the
  budget into that call.  A dropped budget is exactly the bug class
  PR 8 fixed by hand in the replay harness.
- **R9** flags bare/broad ``except`` handlers in the serving layers'
  decision paths that neither re-raise nor increment a failure
  counter -- silent swallowing turns SLO misses into mysteries.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set

from .rules import (
    ModuleInfo,
    Rule,
    Violation,
    _attribute_chain,
    _in_module,
    _walk_skipping_functions,
)
from .symbols import SymbolTable

__all__ = [
    "AsyncDisciplineRule",
    "DeadlinePropagationRule",
    "ExceptionPolicyRule",
]


# ----------------------------------------------------------------------
# R6 -- async discipline
# ----------------------------------------------------------------------


class AsyncDisciplineRule(Rule):
    id = "R6"
    name = "async-discipline"
    description = (
        "no blocking calls (time.sleep, file I/O, bare lock.acquire(), "
        "synchronous SolverPool/handle_batch entry points) lexically "
        "inside `async def` bodies of repro.cluster / repro.obs; route "
        "blocking work through run_in_executor / asyncio.to_thread"
    )

    MODULES = ("repro.cluster", "repro.obs")
    #: Synchronous serving entry points that stall the event loop.
    _SYNC_ENTRY_POINTS = frozenset(
        {"handle_batch", "handle", "solve_many", "solve_outcomes"}
    )
    _IO_NAMES = frozenset({"open", "input"})
    _IO_ATTRS = frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})

    def _offense(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self._IO_NAMES:
            return f"file I/O {func.id}()"
        chain = _attribute_chain(func)
        if chain is None:
            return None
        terminal = chain[-1]
        if chain[:1] == ("time",) and terminal == "sleep":
            return "blocking time.sleep() (use asyncio.sleep)"
        if chain[:1] == ("json",) and terminal in ("dump", "load"):
            return f"file I/O {'.'.join(chain)}()"
        if terminal in self._IO_ATTRS:
            return f"file I/O .{terminal}()"
        if terminal == "acquire" and len(chain) > 1:
            return "bare lock .acquire() (blocks the event loop)"
        if terminal in self._SYNC_ENTRY_POINTS and len(chain) > 1:
            return f"synchronous serving call .{terminal}()"
        return None

    def check(
        self, info: ModuleInfo, symbols: Optional[SymbolTable] = None
    ) -> Iterator[Violation]:
        if not _in_module(info, self.MODULES):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            # Nested def/lambda bodies (executor thunks) run off-loop.
            for inner in _walk_skipping_functions(node.body):
                if not isinstance(inner, ast.Call):
                    continue
                offense = self._offense(inner)
                if offense is not None:
                    yield self._violation(
                        info, inner.lineno,
                        f"{offense} inside `async def {node.name}`; "
                        "hand blocking work to run_in_executor / "
                        "asyncio.to_thread so the event loop keeps "
                        "serving",
                    )


# ----------------------------------------------------------------------
# R7 -- deadline propagation
# ----------------------------------------------------------------------

#: Serving-layer calls that enforce budgets -- a caller holding a
#: Deadline must thread it into these.
_STATIC_SINKS = frozenset(
    {"handle_batch", "solve_many", "solve_outcomes", "route"}
)

#: Expression markers that count as "constructing" a deadline.
_DEADLINE_FACTORIES = frozenset({"Deadline", "after", "deadline_for"})


def _expr_names(node: ast.AST) -> Set[str]:
    """Bare variable names referenced anywhere in an expression."""
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }


def _expr_mentions_deadline(node: ast.AST) -> bool:
    """True when an expression textually carries a budget."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            lowered = child.id.lower()
            if "deadline" in lowered or lowered == "remaining":
                return True
        elif isinstance(child, ast.Attribute):
            lowered = child.attr.lower()
            if "deadline" in lowered or lowered == "remaining":
                return True
    return False


def _constructs_deadline(value: ast.AST) -> bool:
    for child in ast.walk(value):
        if isinstance(child, ast.Call):
            chain = _attribute_chain(child.func)
            if chain and chain[-1] in _DEADLINE_FACTORIES:
                return True
        elif isinstance(child, ast.Attribute):
            if "deadline" in child.attr.lower():
                return True
    return False


class DeadlinePropagationRule(Rule):
    id = "R7"
    name = "deadline-propagation"
    description = (
        "a function that receives or constructs a Deadline and then "
        "calls into the serving stack (handle_batch / SolverPool entry "
        "points / route, or any function whose signature accepts a "
        "deadline) must thread remaining()/deadline_seconds into that "
        "call -- budgets silently dropped at a call boundary defeat "
        "end-to-end latency enforcement"
    )

    MODULES = ("repro.runtime", "repro.cluster", "repro.obs", "repro.scenarios")

    def _sink_names(self, symbols: Optional[SymbolTable]) -> FrozenSet[str]:
        names = set(_STATIC_SINKS)
        if symbols is not None:
            names.update(symbols.deadline_sinks)
        return frozenset(names)

    def _tainted_params(
        self, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Set[str]:
        tainted = set()
        args = func.args
        params = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        for arg in params:
            if "deadline" in arg.arg.lower():
                tainted.add(arg.arg)
                continue
            if arg.annotation is not None:
                try:
                    rendered = ast.unparse(arg.annotation)
                except Exception:  # pragma: no cover - defensive
                    rendered = ""
                if "Deadline" in rendered:
                    tainted.add(arg.arg)
        return tainted

    def _propagate(
        self, func: "ast.FunctionDef | ast.AsyncFunctionDef", tainted: Set[str]
    ) -> Set[str]:
        """Fixpoint over assignments and .append() mutations."""
        statements = [
            node
            for node in _walk_skipping_functions(func.body)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr))
        ]
        for _ in range(4):  # small chains; a few passes reach fixpoint
            grew = False
            for node in statements:
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    value = node.value
                    if value is None:
                        continue
                    source = _constructs_deadline(value) or bool(
                        _expr_names(value) & tainted
                    )
                    if not source:
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for name_node in ast.walk(target):
                            if isinstance(name_node, ast.Name):
                                if name_node.id not in tainted:
                                    tainted.add(name_node.id)
                                    grew = True
                elif isinstance(node, ast.Expr) and isinstance(
                    node.value, ast.Call
                ):
                    # container.append(tainted) taints the container
                    call = node.value
                    if (
                        isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("append", "extend", "add")
                        and isinstance(call.func.value, ast.Name)
                        and any(
                            _expr_names(arg) & tainted for arg in call.args
                        )
                    ):
                        if call.func.value.id not in tainted:
                            tainted.add(call.func.value.id)
                            grew = True
            if not grew:
                break
        return tainted

    def _call_carries_budget(self, call: ast.Call, tainted: Set[str]) -> bool:
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if _expr_names(arg) & tainted:
                return True
            if _expr_mentions_deadline(arg):
                return True
        for keyword in call.keywords:
            if keyword.arg and "deadline" in keyword.arg.lower():
                return True
        return False

    def check(
        self, info: ModuleInfo, symbols: Optional[SymbolTable] = None
    ) -> Iterator[Violation]:
        if not _in_module(info, self.MODULES):
            return
        sinks = self._sink_names(symbols)
        for func in ast.walk(info.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tainted = self._tainted_params(func)
            constructed = False
            for node in _walk_skipping_functions(func.body):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    if node.value is not None and _constructs_deadline(
                        node.value
                    ):
                        constructed = True
            if not tainted and not constructed:
                continue
            tainted = self._propagate(func, tainted)
            if not tainted:
                continue
            for node in _walk_skipping_functions(func.body):
                if not isinstance(node, ast.Call):
                    continue
                chain = _attribute_chain(node.func)
                terminal = (
                    chain[-1]
                    if chain
                    else (
                        node.func.id
                        if isinstance(node.func, ast.Name)
                        else None
                    )
                )
                if terminal is None or terminal not in sinks:
                    continue
                if terminal == func.name:
                    continue  # recursion: the callee re-checks itself
                if not self._call_carries_budget(node, tainted):
                    yield self._violation(
                        info, node.lineno,
                        f"{func.name}() holds a Deadline but calls "
                        f"{terminal}() without threading the budget; "
                        "pass remaining()/deadline_seconds through so "
                        "queue time and solve time spend the same clock",
                    )


# ----------------------------------------------------------------------
# R9 -- exception policy
# ----------------------------------------------------------------------


class ExceptionPolicyRule(Rule):
    id = "R9"
    name = "exception-policy"
    description = (
        "no bare or broad (Exception/BaseException) except handler in "
        "repro.runtime / repro.cluster / repro.obs decision paths may "
        "swallow: the handler must re-raise or increment a failure "
        "counter so shed/failed work stays visible in the metrics"
    )

    MODULES = ("repro.runtime", "repro.cluster", "repro.obs")
    _BROAD = frozenset({"Exception", "BaseException"})
    #: Handler calls that keep the failure observable.
    _COUNTER_ATTRS = frozenset({"increment", "count"})

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        node = handler.type
        if node is None:
            return True
        candidates: Sequence[ast.AST]
        if isinstance(node, ast.Tuple):
            candidates = node.elts
        else:
            candidates = [node]
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in self._BROAD:
                return True
            if (
                isinstance(candidate, ast.Attribute)
                and candidate.attr in self._BROAD
            ):
                return True
        return False

    def _observes_failure(self, handler: ast.ExceptHandler) -> bool:
        for node in _walk_skipping_functions(handler.body):
            if isinstance(node, ast.Raise):
                return True
            # `metrics.counter("x").increment()` roots the attribute
            # chain at a Call, so match on the terminal attribute.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._COUNTER_ATTRS
            ):
                return True
        return False

    def check(
        self, info: ModuleInfo, symbols: Optional[SymbolTable] = None
    ) -> Iterator[Violation]:
        if not _in_module(info, self.MODULES):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if self._observes_failure(node):
                continue
            label = (
                "bare except:"
                if node.type is None
                else "broad except handler"
            )
            yield self._violation(
                info, node.lineno,
                f"{label} swallows in a serving-layer decision path; "
                "re-raise, or increment a failure counter "
                "(metrics.counter(...).increment()) so the drop is "
                "observable",
            )
