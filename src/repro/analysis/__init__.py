"""Invariant-aware analysis for the DenseVLC reproduction.

Two complementary halves:

- **Static** (:mod:`repro.analysis.rules` + :mod:`repro.analysis.engine`):
  AST-based, repo-specific rules -- layering, lock discipline,
  determinism, cached-array immutability, public-API typing -- surfaced
  as the ``repro lint`` CLI subcommand and gated in CI.  Suppressions
  are explicit ``# repro: allow[rule]`` pragmas, so every exception to
  an invariant is visible at the call site.

- **Dynamic** (:mod:`repro.analysis.lockgraph`): an opt-in lock-order
  race detector.  Runtime locks are created through
  :func:`~repro.analysis.lockgraph.monitored_lock` (plain
  ``threading.Lock`` when disabled -- zero cost, bit-identical
  behavior); with a monitor enabled (``REPRO_LOCK_MONITOR=1`` or
  :func:`~repro.analysis.lockgraph.lock_order_monitor`), per-thread
  acquisition edges build a lock graph whose cycles and held-lock
  blocking calls fail the chaos suite.

This package re-exports nothing: import from the submodules.  The
lockgraph is a stdlib-only leaf module (like :mod:`repro.tracecontext`),
so the runtime's ``monitored_lock`` import loads neither the rule
engine nor its rules.
"""
