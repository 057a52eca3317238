"""Project-specific static analysis: the codebase's invariants as lint rules.

Nine PRs of scaling work left this repository resting on a set of
hand-maintained correctness contracts — "every adjacency write bumps the
generation", "every published snapshot file lands on the crash ledger",
"execution knobs enter only through the policy" — that previously lived in
reviewers' heads and scattered tests.  This package encodes them as AST-level
lint rules that run in CI (``repro-teams analyze`` / ``python -m repro.analysis``), so a
new kernel, mutation path or publish mode cannot silently violate them.

Layout:

* :mod:`repro.analysis.core` — the tiny framework: :class:`Finding` records,
  the rule registry, module/project contexts, inline
  ``# repro: ignore[rule-id]`` suppressions and the analysis driver.
* :mod:`repro.analysis.rules` — one module per invariant (see the README's
  "Codebase invariants" table for the contract each rule protects).
* :mod:`repro.analysis.baseline` — the checked-in waiver file for findings
  that are accepted debt (kept empty: true positives get fixed, deliberate
  exceptions get inline suppressions).
* :mod:`repro.analysis.report` — text and JSON reporters.
* :mod:`repro.analysis.cli` — the ``analyze`` entry point shared by
  ``repro-teams analyze`` and ``python -m repro.analysis``.

The rules themselves use nothing but the stdlib ``ast``.
"""

from repro.analysis.core import (
    Finding,
    ModuleContext,
    ProjectContext,
    Rule,
    all_rules,
    analyze_project,
    analyze_source,
    analyze_sources,
    default_target,
    iter_python_files,
    load_project,
)
from repro.analysis.baseline import Baseline, filter_baselined
from repro.analysis.report import render_json, render_text

__all__ = [
    "Baseline",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "all_rules",
    "analyze_project",
    "analyze_source",
    "analyze_sources",
    "default_target",
    "filter_baselined",
    "iter_python_files",
    "load_project",
    "render_json",
    "render_text",
]
