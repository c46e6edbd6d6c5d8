"""R8 -- the metrics contract.

Metric names are stringly-typed: a typo at one call site silently
splits an instrument in two, a counter read in a bench report that
nothing ever increments reports zero forever, and the docs table
drifts from the code with no test noticing.  R8 closes the loop using
the symbol table's metric catalog:

- **kind conflicts** -- the same name registered as two instrument
  kinds (``counter`` vs ``histogram``);
- **label drift** -- write sites for one name disagreeing on the label
  key set (``buckets``/``reservoir_size`` are configuration, not
  labels);
- **phantom reads** -- ``.value``/``.percentile``/... on a name no
  in-tree site ever writes;
- **docs drift**, both directions -- in-tree instrument names missing
  from the ``docs/architecture.md`` metric tables, and documented
  names no code emits.  Wildcard rows (``optimizer.*_seconds``,
  ``resilience.*``) match by ``fnmatch``; ``a/b`` shorthand
  (``service.channel_hits/misses``) expands to both names.

The per-file half runs as a normal rule; the docs-reverse half runs
once per analysis in :meth:`MetricsContractRule.finalize` and anchors
its violations in the docs file itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .rules import ModuleInfo, Rule, Violation
from .symbols import SymbolTable

__all__ = [
    "DocsCatalog",
    "MetricsContractRule",
    "parse_docs_catalog",
]

_BACKTICK = re.compile(r"`([^`]+)`")
_METRIC_TOKEN = re.compile(r"^[a-z][a-z0-9_*]*(\.[a-z0-9_*]+)+$")
_KIND_WORDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class DocsCatalog:
    """Metric names/patterns promised by the architecture docs."""

    path: str
    #: concrete documented names -> first table line mentioning them
    names: "Dict[str, int]"
    #: fnmatch wildcard rows (forward matching only)
    patterns: "Tuple[str, ...]"

    def covers(self, name: str) -> bool:
        if name in self.names:
            return True
        return any(fnmatchcase(name, pattern) for pattern in self.patterns)


def _expand_shorthand(token: str) -> List[str]:
    """``service.channel_hits/misses`` -> both full metric names.

    The alternative replaces the trailing piece of the head at the
    matching granularity: past the last underscore when the head's
    final segment is compound (``channel_hits/misses`` ->
    ``channel_misses``), past the last dot otherwise
    (``cluster.submitted/coalesced`` -> ``cluster.coalesced``).
    """
    if "/" not in token:
        return [token]
    head, _, alternatives = token.partition("/")
    names = [head]
    last_segment = head.rpartition(".")[2]
    for alternative in alternatives.split("/"):
        alternative = alternative.strip()
        if not alternative:
            continue
        if "." in alternative:
            names.append(alternative)
        elif "_" in last_segment and "_" not in alternative:
            names.append(head[: head.rindex("_") + 1] + alternative)
        else:
            prefix = head.rpartition(".")[0]
            names.append(f"{prefix}.{alternative}" if prefix else alternative)
    return names


def parse_docs_catalog(path: str, text: str) -> DocsCatalog:
    """Extract the promised metric names from markdown table rows.

    A row counts as a metric row when any cell consists of instrument
    kind words (``counter``, ``histogram``, ``counter / gauge``); the
    backticked tokens of its first cell are the instrument names.
    """
    names: Dict[str, int] = {}
    patterns: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = [cell.strip() for cell in stripped.strip("|").split("|")]
        if len(cells) < 2:
            continue
        kind_cell = next(
            (
                cell
                for cell in cells[1:]
                if cell
                and all(
                    word in _KIND_WORDS
                    for word in cell.replace("/", " ").split()
                )
            ),
            None,
        )
        if kind_cell is None:
            continue
        for token in _BACKTICK.findall(cells[0]):
            for name in _expand_shorthand(token.strip()):
                if not _METRIC_TOKEN.match(name):
                    continue
                if "*" in name:
                    patterns.append(name)
                else:
                    names.setdefault(name, lineno)
    return DocsCatalog(path=path, names=names, patterns=tuple(patterns))


class MetricsContractRule(Rule):
    id = "R8"
    name = "metrics-contract"
    description = (
        "metric call sites must agree with the catalog built from "
        "registration sites: one instrument kind and one label key set "
        "per name, no reads of names nothing writes, and no drift "
        "against the docs/architecture.md metric tables (wildcard rows "
        "match fnmatch-style, a/b shorthand expands)"
    )

    def __init__(self) -> None:
        self.docs: Optional[DocsCatalog] = None

    def _catalog_kind(
        self, symbols: SymbolTable
    ) -> Dict[str, Tuple[str, str, int]]:
        """name -> (kind, path, line) of its first in-tree site."""
        catalog: Dict[str, Tuple[str, str, int]] = {}
        for path, _module, site in symbols.metric_sites():
            catalog.setdefault(site.name, (site.kind, path, site.line))
        return catalog

    def check(
        self, info: ModuleInfo, symbols: Optional[SymbolTable] = None
    ) -> Iterator[Violation]:
        if symbols is None:
            return
        file_symbols = symbols.file(info.path)
        if file_symbols is None or not file_symbols.module.startswith(
            "repro."
        ):
            return
        catalog = self._catalog_kind(symbols)
        writers = symbols.metric_writers()
        for site in file_symbols.metric_sites:
            kind, first_path, first_line = catalog[site.name]
            if site.kind != kind:
                yield self._violation(
                    info, site.line,
                    f"metric {site.name!r} used as a {site.kind} here but "
                    f"registered as a {kind} at {first_path}:{first_line}; "
                    "one instrument kind per name",
                )
            if site.access in ("write", "register") and site.labels is not None:
                label_sets = {
                    other.labels
                    for _path, _module, other in writers.get(site.name, [])
                    if other.labels is not None
                }
                if len(label_sets) > 1:
                    rendered = sorted(
                        "{" + ", ".join(labels) + "}" for labels in label_sets
                    )
                    yield self._violation(
                        info, site.line,
                        f"metric {site.name!r} is written with conflicting "
                        f"label key sets {' vs '.join(rendered)}; label "
                        "keys must agree across every write site",
                    )
            if site.access == "read" and site.name not in writers:
                yield self._violation(
                    info, site.line,
                    f"metric {site.name!r} is read here but no in-tree "
                    "site ever writes it; the report would show zeros "
                    "forever (typo'd name or dead instrument)",
                )
            if (
                self.docs is not None
                and site.access in ("write", "register")
                and not self.docs.covers(site.name)
            ):
                yield self._violation(
                    info, site.line,
                    f"metric {site.name!r} is emitted but missing from "
                    f"the metric tables in {self.docs.path}; document it "
                    "(or match it with a wildcard row)",
                )

    def finalize(self, symbols: SymbolTable) -> Iterator[Violation]:
        """Docs-reverse drift: documented names no code emits."""
        if self.docs is None:
            return
        known = {site.name for _p, _m, site in symbols.metric_sites()}
        for name, lineno in sorted(self.docs.names.items()):
            if name not in known:
                yield Violation(
                    rule=self.id, name=self.name, path=self.docs.path,
                    line=lineno,
                    message=(
                        f"documented metric {name!r} is emitted by no "
                        "in-tree call site; fix the docs table or "
                        "restore the instrument"
                    ),
                )
