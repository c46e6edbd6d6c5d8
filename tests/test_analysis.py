"""Tests for the invariant-aware static analyzer (repro.analysis).

Covers the `repro lint` exit-code contract, both report formats, pragma
suppression (including across decorator stacks), the
module-impersonation directive, the cross-module symbol table, and --
via the fixture files under tests/fixtures/analysis -- that each rule
R1-R9 fires on a deliberate violation while the real tree stays silent.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.contracts import parse_docs_catalog
from repro.analysis.engine import (
    ALL_RULES,
    AnalysisReport,
    analyze_paths,
    load_module,
    rules_by_token,
    run_lint,
)
from repro.analysis.symbols import collect_symbols
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"

#: fixture file -> (rule id, rule name) it must trigger.
FIXTURE_RULES = {
    "violate_layering.py": ("R1", "layering"),
    "violate_layering_cluster.py": ("R1", "layering"),
    "violate_layering_scenarios.py": ("R1", "layering"),
    "violate_layering_obs.py": ("R1", "layering"),
    "violate_lock_discipline.py": ("R2", "lock-discipline"),
    "violate_determinism.py": ("R3", "determinism"),
    "violate_cache_immutability.py": ("R4", "cache-immutability"),
    "violate_api_typing.py": ("R5", "api-typing"),
    "violate_async_discipline.py": ("R6", "async-discipline"),
    "violate_deadline_propagation.py": ("R7", "deadline-propagation"),
    "violate_metrics_contract.py": ("R8", "metrics-contract"),
    "violate_exception_policy.py": ("R9", "exception-policy"),
}


def lint(argv):
    """Run the lint entry point, capturing stdout."""
    stream = io.StringIO()
    code = run_lint(argv, stream=stream)
    return code, stream.getvalue()


class TestCleanTree:
    def test_ci_path_set_is_clean(self):
        # Exactly the CI invocation: one run over every linted tree, so
        # the project-scoped rules (R1, R7, R8) see the whole symbol
        # table and benchmarks/ and examples/ are held to the rules too.
        paths = [
            str(REPO_ROOT / name)
            for name in ("src", "tests", "benchmarks", "examples")
        ]
        code, output = lint(paths)
        assert code == 0, output
        assert "0 violation(s), 0 parse error(s)" in output

    def test_src_is_clean(self):
        code, output = lint([str(SRC)])
        assert code == 0, output
        assert "0 violation(s)" in output

    def test_tests_dir_is_clean_fixtures_pruned(self):
        # The fixtures directory holds deliberate violations; directory
        # discovery must prune it so `repro lint src tests` (the CI
        # invocation) stays green.
        code, output = lint([str(REPO_ROOT / "tests")])
        assert code == 0, output
        for path in FIXTURE_RULES:
            assert path not in output

    def test_clean_report_object(self):
        report = analyze_paths([str(SRC)])
        assert isinstance(report, AnalysisReport)
        assert report.clean
        assert report.files_scanned > 50
        assert report.parse_errors == ()


class TestFixturesFire:
    @pytest.mark.parametrize(
        "filename,rule_id,rule_name",
        [(f, r[0], r[1]) for f, r in sorted(FIXTURE_RULES.items())],
    )
    def test_fixture_trips_exactly_its_rule(self, filename, rule_id, rule_name):
        code, output = lint([str(FIXTURES / filename)])
        assert code == 1
        assert f"{rule_id}[{rule_name}]" in output
        # One fixture per rule: no *other* rule may fire on it.
        for other in ALL_RULES:
            if other.id != rule_id:
                assert f"{other.id}[" not in output, output

    def test_determinism_fixture_counts_each_offense(self):
        report = analyze_paths([str(FIXTURES / "violate_determinism.py")])
        offenses = {v.message.split(";")[0] for v in report.violations}
        # time.time, default_rng, sha256, builtin hash
        assert len(report.violations) == 4
        assert any("time.time" in o for o in offenses)
        assert any("default_rng" in o for o in offenses)
        assert any("sha256" in o for o in offenses)
        assert any("builtin hash()" in o for o in offenses)

    def test_builtin_hash_outside_decision_path_allowed(self, tmp_path):
        # builtin hash() is only a replay hazard where decisions are
        # made; plain top-level modules (no module directive) stay clean.
        path = tmp_path / "free.py"
        path.write_text("BUCKET = hash('x') % 4\n")
        code, output = lint([str(path)])
        assert code == 0, output

    def test_builtin_hash_in_swingsearch_would_fire(self, tmp_path):
        # The swing search's tie-break must stay on blake2b: the same
        # digest built on hash() trips R3 under the core module name.
        path = tmp_path / "tiebreak.py"
        path.write_text(
            "# repro: module=repro.core.swingsearch\n"
            "def _tie_digest(seed, move):\n"
            "    return hash((seed, move))\n"
        )
        code, output = lint([str(path)])
        assert code == 1
        assert "R3[determinism]" in output
        assert "builtin hash()" in output

    def test_module_directive_is_what_arms_the_rule(self, tmp_path):
        # Same layering violation, but without the impersonation
        # directive the file is a top-level module and R1 stays quiet.
        disarmed = tmp_path / "no_directive.py"
        disarmed.write_text("from repro.runtime import SolverPool\n")
        code, output = lint([str(disarmed)])
        assert code == 0, output


class TestPragmas:
    def test_allow_pragma_on_preceding_line(self, tmp_path):
        path = tmp_path / "allowed.py"
        path.write_text(
            textwrap.dedent(
                """\
                import numpy as np

                # repro: allow[determinism] -- measurement noise only
                RNG = np.random.default_rng()
                """
            )
        )
        code, output = lint([str(path)])
        assert code == 0, output

    def test_allow_pragma_on_same_line(self, tmp_path):
        path = tmp_path / "inline.py"
        path.write_text(
            "import numpy as np\n"
            "RNG = np.random.default_rng()  # repro: allow[R3]\n"
        )
        code, output = lint([str(path)])
        assert code == 0, output

    def test_star_pragma_suppresses_everything(self, tmp_path):
        path = tmp_path / "star.py"
        path.write_text(
            "import numpy as np\n"
            "RNG = np.random.default_rng()  # repro: allow[*]\n"
        )
        code, _ = lint([str(path)])
        assert code == 0

    def test_wrong_rule_pragma_does_not_suppress(self, tmp_path):
        path = tmp_path / "wrong.py"
        path.write_text(
            "import numpy as np\n"
            "RNG = np.random.default_rng()  # repro: allow[layering]\n"
        )
        code, output = lint([str(path)])
        assert code == 1
        assert "R3[determinism]" in output


class TestCliContract:
    def test_json_format_schema(self):
        code, output = lint(
            [str(FIXTURES / "violate_layering.py"), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(output)
        assert set(payload) == {
            "clean", "files_scanned", "parse_errors", "violations",
        }
        assert payload["clean"] is False
        assert payload["files_scanned"] == 1
        (violation,) = payload["violations"]
        assert violation["rule"] == "R1"
        assert violation["name"] == "layering"
        assert violation["line"] > 0
        assert violation["path"].endswith("violate_layering.py")

    def test_list_rules(self):
        code, output = lint(["--list-rules"])
        assert code == 0
        for rule in ALL_RULES:
            assert rule.id in output and rule.name in output

    def test_rules_filter_disarms_other_rules(self):
        code, output = lint(
            [str(FIXTURES / "violate_layering.py"), "--rules", "determinism"]
        )
        assert code == 0, output

    def test_unknown_rule_is_usage_error(self):
        code, _ = lint([str(SRC), "--rules", "R99"])
        assert code == 2

    def test_missing_path_is_usage_error(self):
        code, _ = lint([str(REPO_ROOT / "no_such_dir_anywhere")])
        assert code == 2

    def test_parse_error_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        code, output = lint([str(bad)])
        assert code == 1
        assert "[parse-error]" in output

    def test_rules_by_token_accepts_ids_and_names(self):
        assert rules_by_token(["R2"]) == rules_by_token(["lock-discipline"])
        with pytest.raises(ValueError):
            rules_by_token(["nonsense"])

    def test_cli_main_dispatches_lint(self):
        assert cli_main(["lint", str(FIXTURES / "violate_layering.py")]) == 1
        assert cli_main(["lint", str(SRC), "--rules", "R1"]) == 0

    def test_module_entry_point(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint",
                str(FIXTURES / "violate_api_typing.py"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 1
        assert "R5[api-typing]" in result.stdout


class TestModuleInference:
    def test_in_tree_module_name(self):
        info = load_module(SRC / "repro" / "runtime" / "cache.py")
        assert info.module == "repro.runtime.cache"
        assert not info.is_package_init

    def test_package_init(self):
        info = load_module(SRC / "repro" / "runtime" / "__init__.py")
        assert info.module == "repro.runtime"
        assert info.is_package_init
        assert info.package == "repro.runtime"

    def test_relative_import_resolution_flags_runtime(self, tmp_path):
        # `from ..runtime import x` inside repro.core must resolve to
        # repro.runtime and trip R1 even without an absolute import.
        path = tmp_path / "relative.py"
        path.write_text(
            "# repro: module=repro.core.fixture_relative\n"
            "from ..runtime import SolverPool\n"
        )
        code, output = lint([str(path)])
        assert code == 1
        assert "R1[layering]" in output


class TestMypyGate:
    """The strict-typing half of R5; runs only where mypy is installed.

    CI installs mypy in the lint job and runs it directly; locally the
    toolchain may not ship it, so the gate degrades to a skip.
    """

    def test_strict_gate_on_runtime_and_core(self):
        pytest.importorskip("mypy")
        from mypy import api

        stdout, stderr, status = api.run(
            [
                "--strict",
                str(SRC / "repro" / "runtime"),
                str(SRC / "repro" / "core"),
            ]
        )
        assert status == 0, stdout + stderr


class TestNewRuleSemantics:
    """Negative space of R6/R7/R9: the compliant shapes stay quiet."""

    def test_executor_handoff_is_not_blocking(self, tmp_path):
        path = tmp_path / "frontdoor.py"
        path.write_text(
            textwrap.dedent(
                """\
                # repro: module=repro.cluster.fixture_frontdoor
                async def dispatch(loop, executor, shard, batch):
                    return await loop.run_in_executor(
                        executor, lambda: shard.service.handle_batch(batch)
                    )
                """
            )
        )
        code, output = lint([str(path)])
        assert code == 0, output

    def test_sync_code_may_block(self, tmp_path):
        # R6 is about event-loop coroutines only.
        path = tmp_path / "syncside.py"
        path.write_text(
            "# repro: module=repro.obs.fixture_sync\n"
            "import time\n"
            "def _pace(dt) -> None:\n"
            "    time.sleep(dt)\n"
        )
        code, output = lint([str(path)])
        assert code == 0, output

    def test_deadline_threaded_through_collection_is_clean(self, tmp_path):
        path = tmp_path / "threaded.py"
        path.write_text(
            textwrap.dedent(
                """\
                # repro: module=repro.runtime.fixture_threaded
                def _serve(pool, requests, deadline_seconds):
                    deadline = Deadline.after(deadline_seconds)
                    tasks = []
                    for request in requests:
                        tasks.append(_task(request, deadline.remaining()))
                    return pool.solve_outcomes(tasks)
                """
            )
        )
        code, output = lint([str(path)])
        assert code == 0, output

    def test_symbol_table_supplies_extra_deadline_sinks(self, tmp_path):
        # `stage()` accepts a deadline in one file; a caller in another
        # file holds a budget and drops it -- only the cross-module
        # symbol table can know stage() is a sink.
        (tmp_path / "stages.py").write_text(
            "# repro: module=repro.runtime.fixture_stages\n"
            "def stage(tasks, deadline=None) -> None:\n"
            "    return None\n"
        )
        (tmp_path / "caller.py").write_text(
            textwrap.dedent(
                """\
                # repro: module=repro.runtime.fixture_caller
                from .fixture_stages import stage
                def _serve(tasks, deadline_seconds):
                    budget = Deadline.after(deadline_seconds)
                    return stage(tasks)
                """
            )
        )
        code, output = lint([str(tmp_path)])
        assert code == 1
        assert "R7[deadline-propagation]" in output
        assert "stage()" in output

    def test_counted_broad_except_is_clean(self, tmp_path):
        path = tmp_path / "counted.py"
        path.write_text(
            textwrap.dedent(
                """\
                # repro: module=repro.cluster.fixture_counted
                def _drain(queue, metrics) -> None:
                    try:
                        queue.flush()
                    except Exception:
                        metrics.counter("cluster.drain_errors").increment()
                """
            )
        )
        code, output = lint([str(path)])
        assert code == 0, output

    def test_narrow_except_is_outside_policy(self, tmp_path):
        path = tmp_path / "narrow.py"
        path.write_text(
            "# repro: module=repro.cluster.fixture_narrow\n"
            "def _drain(queue) -> None:\n"
            "    try:\n"
            "        queue.flush()\n"
            "    except KeyError:\n"
            "        pass\n"
        )
        code, output = lint([str(path)])
        assert code == 0, output


class TestSymbolTable:
    def test_layering_resolves_from_repro_import(self, tmp_path):
        # `from repro import scenarios` binds a *package*; only the
        # module index built across the scan can see that.
        package = tmp_path / "repro"
        (package / "core").mkdir(parents=True)
        (package / "scenarios").mkdir()
        (package / "__init__.py").write_text("")
        (package / "core" / "__init__.py").write_text("")
        (package / "scenarios" / "__init__.py").write_text("")
        (package / "core" / "solver.py").write_text(
            "from repro import scenarios\n"
        )
        code, output = lint([str(tmp_path)])
        assert code == 1
        assert "R1[layering]" in output
        assert "repro.scenarios" in output

    def test_collect_symbols_classifies_metric_sites(self, tmp_path):
        import ast as ast_module

        tree = ast_module.parse(
            textwrap.dedent(
                """\
                def serve(metrics, dt):
                    metrics.counter("x.served", shard="a").increment()
                    hist = metrics.histogram("x.sizes", buckets=(1, 2))
                    hist.observe(dt)
                def report(metrics):
                    return metrics.counter("x.served").value
                """
            )
        )
        symbols = collect_symbols("repro.runtime.fixture_sites", tree)
        by_name = {}
        for site in sorted(symbols.metric_sites, key=lambda s: s.line):
            by_name.setdefault(site.name, []).append(site)
        assert by_name["x.served"][0].access == "write"
        assert by_name["x.served"][0].labels == ("shard",)
        assert by_name["x.served"][1].access == "read"
        # buckets is configuration, not a label; the assigned variable's
        # .observe() makes the registration a write.
        assert by_name["x.sizes"][0].labels == ()
        assert by_name["x.sizes"][0].access == "write"

    def test_docs_catalog_shorthand_and_wildcards(self):
        catalog = parse_docs_catalog(
            "docs.md",
            textwrap.dedent(
                """\
                | metric | type | labels |
                |---|---|---|
                | `service.channel_hits/misses` | counter | - |
                | `cluster.submitted/coalesced` | counter | - |
                | `optimizer.*_seconds` | histogram | - |
                """
            ),
        )
        assert "service.channel_hits" in catalog.names
        assert "service.channel_misses" in catalog.names
        assert "cluster.coalesced" in catalog.names
        assert catalog.covers("optimizer.reduction_seconds")
        assert not catalog.covers("optimizer.reduction_k")

    def test_docs_drift_fires_both_directions(self, tmp_path):
        docs = tmp_path / "architecture.md"
        docs.write_text(
            "| metric | type |\n"
            "|---|---|\n"
            "| `svc.documented_only` | counter |\n"
        )
        source = tmp_path / "svc.py"
        source.write_text(
            "# repro: module=repro.runtime.fixture_drift\n"
            "def _serve(metrics) -> None:\n"
            "    metrics.counter('svc.undocumented').increment()\n"
        )
        report = analyze_paths([str(source)], docs_path=docs)
        messages = [v.message for v in report.violations]
        assert any("svc.undocumented" in m for m in messages)
        assert any("svc.documented_only" in m for m in messages)
        docs_anchored = [
            v for v in report.violations if v.path.endswith("architecture.md")
        ]
        assert docs_anchored and docs_anchored[0].line == 3


class TestDecoratedPragmas:
    DECORATED = (
        "# repro: module=repro.runtime.fixture_decorated\n"
        "import functools\n"
        "{pragma}"
        "@functools.lru_cache\n"
        "def build(scene):\n"
        "    return scene\n"
    )

    def test_pragma_above_decorator_covers_the_def(self, tmp_path):
        path = tmp_path / "decorated.py"
        path.write_text(
            self.DECORATED.format(pragma="# repro: allow[api-typing]\n")
        )
        code, output = lint([str(path)])
        assert code == 0, output

    def test_undecorated_pragma_distance_still_misses(self, tmp_path):
        # Guard: the decorator carve-out must not turn into "a pragma
        # anywhere suppresses everything below".
        path = tmp_path / "missing.py"
        path.write_text(
            self.DECORATED.format(pragma="")
        )
        code, output = lint([str(path)])
        assert code == 1
        assert "R5[api-typing]" in output

    def test_pragma_on_decorator_line_covers_the_def(self, tmp_path):
        path = tmp_path / "online.py"
        path.write_text(
            "# repro: module=repro.runtime.fixture_decorated\n"
            "import functools\n"
            "@functools.lru_cache  # repro: allow[R5]\n"
            "def build(scene):\n"
            "    return scene\n"
        )
        code, output = lint([str(path)])
        assert code == 0, output


class TestUsageErrors:
    def test_unknown_rule_lists_all_nine(self, capsys):
        code = run_lint([str(SRC), "--rules", "R99"], stream=io.StringIO())
        assert code == 2
        stderr = capsys.readouterr().err
        for rule in ALL_RULES:
            assert rule.id in stderr and rule.name in stderr


class TestImportIsolation:
    def test_runtime_does_not_load_the_rule_engine(self):
        # The runtime needs only monitored_lock from the stdlib-only
        # lockgraph leaf; importing it must not pull in the analyzer.
        probe = (
            "import sys, repro.runtime\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith('repro.analysis.'))\n"
            "print(','.join(loaded))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.strip().split(","))
        assert "repro.analysis.lockgraph" in loaded
        assert "repro.analysis.engine" not in loaded
        assert "repro.analysis.rules" not in loaded
