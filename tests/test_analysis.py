"""The invariant analyzer: framework, every rule, suppressions, baseline, CLI.

Each rule gets at least one violating and one clean fixture snippet, analyzed
in memory via :func:`repro.analysis.analyze_source` /
:func:`~repro.analysis.analyze_sources` (no temp files, no imports of the
code under test).  The self-scan test at the bottom is the same gate CI runs:
``repro-teams analyze --strict`` over the real source tree must exit 0.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    analyze_source,
    filter_baselined,
)
from repro.analysis.core import all_rules, suppressed_rules


def rule_ids(findings):
    return {finding.rule for finding in findings}


def snippet(text: str) -> str:
    return textwrap.dedent(text)


# --------------------------------------------------------------- framework


def test_all_rules_registered_and_documented():
    rules = all_rules()
    ids = {rule.id for rule in rules}
    assert ids == {
        "mutation-discipline",
        "cache-key-discipline",
        "no-materialise",
        "dtype-discipline",
    }
    for rule in rules:
        assert rule.contract, f"rule {rule.id} has no contract line"


def test_syntax_error_becomes_parse_error_finding():
    findings = analyze_source("def broken(:\n", module="repro.broken")
    assert rule_ids(findings) == {"parse-error"}


def test_findings_are_deterministically_sorted():
    source = snippet(
        """
        graph._materialise()
        rows = graph._adjacency
        """
    )
    findings = analyze_source(source, module="repro.example")
    assert len(findings) == 2
    assert findings == sorted(
        findings, key=lambda f: (f.path, f.line, f.rule, f.message)
    )


# ------------------------------------------------------------ suppressions


def test_suppression_comment_parsing():
    assert suppressed_rules("x = 1") is None
    assert suppressed_rules("graph._materialise()  # repro: ignore") == frozenset()
    assert suppressed_rules("graph._materialise()  # repro: ignore[no-materialise]") == {
        "no-materialise"
    }
    assert suppressed_rules("x  # repro: ignore[a, b]") == {"a", "b"}


def test_inline_suppression_silences_named_rule():
    assert rule_ids(
        analyze_source("graph._materialise()\n", module="repro.example")
    ) == {"no-materialise"}
    assert (
        analyze_source(
            "graph._materialise()  # repro: ignore[no-materialise]\n",
            module="repro.example",
        )
        == []
    )
    # A bare ignore silences everything on the line.
    assert (
        analyze_source("graph._materialise()  # repro: ignore\n", module="repro.example")
        == []
    )


def test_suppression_for_other_rule_does_not_apply():
    findings = analyze_source(
        "graph._materialise()  # repro: ignore[dtype-discipline]\n", module="repro.example"
    )
    assert rule_ids(findings) == {"no-materialise"}


# ------------------------------------------------------- mutation-discipline

_MUTATION_VIOLATION = snippet(
    """
    class SignedGraph:
        def add_edge(self, u, v, sign):
            self._adjacency[u][v] = sign
            self._num_edges += 1
    """
)

_MUTATION_CLEAN = snippet(
    """
    class SignedGraph:
        def add_edge(self, u, v, sign):
            self._adjacency[u][v] = sign
            self._num_edges += 1
            self._record_mutation(u, v)
            if self._delta is not None:
                self._delta.record_edge_added(u, v, sign)

        def set_sign(self, u, v, sign):
            self._adjacency[u][v] = sign
            self._record_mutation(u, v)
            if self._delta is not None:
                self._delta.record_sign_changed(u, v, sign)

        def __init__(self):
            self._num_edges = 0


    class CSRBackedSignedGraph(SignedGraph):
        def add_edge(self, u, v, sign):
            return SignedGraph.add_edge(self, u, v, sign)
    """
)


def test_mutation_rule_flags_unrecorded_mutator():
    findings = analyze_source(_MUTATION_VIOLATION, module="repro.signed.example")
    messages = [f.message for f in findings if f.rule == "mutation-discipline"]
    assert any("_record_mutation" in message for message in messages)
    assert any("record_edge_added" in message for message in messages)


def test_mutation_rule_accepts_recorded_and_delegating_mutators():
    findings = analyze_source(_MUTATION_CLEAN, module="repro.signed.example")
    assert "mutation-discipline" not in rule_ids(findings)


def test_mutation_rule_flags_counter_write_outside_named_mutators():
    source = snippet(
        """
        class SignedGraph:
            def bulk_load(self, edges):
                self._num_edges = len(edges)
        """
    )
    findings = analyze_source(source, module="repro.signed.example")
    assert "mutation-discipline" in rule_ids(findings)


def test_mutation_rule_ignores_unrelated_classes_and_init():
    source = snippet(
        """
        class NotAGraph:
            def add_edge(self, u, v, sign):
                self.edges.append((u, v, sign))


        class SignedGraph:
            def __init__(self):
                self._num_edges = 0
        """
    )
    findings = analyze_source(source, module="repro.signed.example")
    assert "mutation-discipline" not in rule_ids(findings)


# ----------------------------------------------------- cache-key-discipline


def test_cache_rule_flags_graphless_generational_cache():
    findings = analyze_source(
        "cache = GenerationalLRUCache(maxsize=128)\n",
        module="repro.compatibility.example",
    )
    assert "cache-key-discipline" in rule_ids(findings)


def test_cache_rule_flags_plain_lru_in_compatibility():
    findings = analyze_source(
        "cache = LRUCache(128)\n", module="repro.compatibility.example"
    )
    assert "cache-key-discipline" in rule_ids(findings)


def test_cache_rule_accepts_graph_keyed_cache_and_lru_elsewhere():
    clean = analyze_source(
        snippet(
            """
            cache = GenerationalLRUCache(graph, maxsize=128)
            other = GenerationalLRUCache(graph=graph)
            """
        ),
        module="repro.compatibility.example",
    )
    assert "cache-key-discipline" not in rule_ids(clean)
    elsewhere = analyze_source("cache = LRUCache(16)\n", module="repro.utils.example")
    assert "cache-key-discipline" not in rule_ids(elsewhere)


# ------------------------------------------------------------ no-materialise


def test_no_materialise_flags_escape_hatch_and_adjacency():
    source = snippet(
        """
        def ship(graph):
            graph._materialise()
            return list(graph._adjacency)
        """
    )
    findings = analyze_source(source, module="repro.teams.example")
    messages = [f.message for f in findings if f.rule == "no-materialise"]
    assert len(messages) == 2


def test_no_materialise_allows_owner_and_signed_internals():
    assert "no-materialise" not in rule_ids(
        analyze_source(
            "def inflate(self):\n    self._materialise()\n",
            module="repro.signed.lazy",
        )
    )
    assert "no-materialise" not in rule_ids(
        analyze_source(
            "def degree(self, node):\n    return len(self._adjacency[node])\n",
            module="repro.signed.graph",
        )
    )


# ------------------------------------------------------------ dtype-discipline


def test_dtype_rule_flags_wrong_plane_dtype():
    source = snippet(
        """
        def build(n, np):
            indptr = np.zeros(n + 1, dtype=np.int32)
            indices = np.zeros(n, dtype="int64")
            signs = np.zeros(n, dtype="<i4")
            return indptr, indices, signs
        """
    )
    findings = analyze_source(source, module="repro.signed.example")
    assert len([f for f in findings if f.rule == "dtype-discipline"]) == 3


def test_dtype_rule_accepts_declared_dtypes():
    source = snippet(
        """
        def build(n, np):
            indptr = np.zeros(n + 1, dtype=np.int64)
            out_indptr = np.asarray(raw, dtype="<i8")
            indices = np.zeros(n, dtype="int32")
            more_indices = np.array(raw, dtype=np.dtype("<i4"))
            signs = np.zeros(n, dtype="|i1")
            other = np.zeros(n, dtype=np.float64)
            return indptr, indices, signs
        """
    )
    findings = analyze_source(source, module="repro.signed.example")
    assert "dtype-discipline" not in rule_ids(findings)


def test_dtype_rule_only_applies_inside_repro_signed():
    source = "indptr = np.zeros(4, dtype=np.int32)\n"
    assert "dtype-discipline" in rule_ids(
        analyze_source(source, module="repro.signed.example")
    )
    assert "dtype-discipline" not in rule_ids(
        analyze_source(source, module="repro.teams.example")
    )


# ------------------------------------------------------------------- baseline


def test_baseline_round_trip(tmp_path):
    findings = analyze_source("graph._materialise()\n", module="repro.example")
    assert findings
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(str(path))
    loaded = Baseline.load(str(path))
    assert len(loaded) == len(findings)
    fresh, waived, stale = filter_baselined(findings, loaded)
    assert fresh == [] and len(waived) == len(findings) and stale == []


def test_baseline_fingerprint_survives_line_moves(tmp_path):
    before = analyze_source("graph._materialise()\n", module="repro.example")
    after = analyze_source("\n\n\ngraph._materialise()\n", module="repro.example")
    assert before[0].line != after[0].line
    assert before[0].fingerprint() == after[0].fingerprint()


def test_baseline_reports_stale_entries(tmp_path):
    findings = analyze_source("graph._materialise()\n", module="repro.example")
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(str(path))
    fresh, waived, stale = filter_baselined([], Baseline.load(str(path)))
    assert fresh == [] and waived == [] and len(stale) == len(findings)


def test_baseline_rejects_foreign_files(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"something": "else"}))
    with pytest.raises(ValueError):
        Baseline.load(str(path))
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError):
        Baseline.load(str(path))


def test_checked_in_baseline_is_empty():
    # Policy: fix true positives, suppress deliberate exceptions inline; the
    # baseline only parks stragglers while a new rule lands, then burns down.
    import os

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline = Baseline.load(os.path.join(repo_root, "analysis-baseline.json"))
    assert len(baseline) == 0


# ------------------------------------------------------------------------ CLI


def test_cli_clean_run_exits_zero(tmp_path, capsys):
    from repro.analysis.cli import main

    target = tmp_path / "clean.py"
    target.write_text("VALUE = 1\n")
    assert main([str(target)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_findings_exit_one_and_json_reports(tmp_path, capsys):
    from repro.analysis.cli import main

    target = tmp_path / "bad.py"
    target.write_text(_MUTATION_VIOLATION)
    assert main([str(target)]) == 1
    capsys.readouterr()
    assert main(["--json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] >= 1
    assert {entry["id"] for entry in payload["rules"]} >= {"mutation-discipline"}


def test_cli_write_baseline_then_gate_passes(tmp_path, capsys):
    from repro.analysis.cli import main

    target = tmp_path / "bad.py"
    target.write_text(_MUTATION_VIOLATION)
    baseline = tmp_path / "baseline.json"
    assert main(["--write-baseline", str(baseline), str(target)]) == 0
    capsys.readouterr()
    assert main(["--baseline", str(baseline), str(target)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
    # Strict still passes while the entries match; once the file is clean,
    # the now-stale entries fail the strict gate so the baseline must shrink.
    assert main(["--strict", "--baseline", str(baseline), str(target)]) == 0
    target.write_text("VALUE = 1\n")
    capsys.readouterr()
    assert main(["--baseline", str(baseline), str(target)]) == 0
    assert main(["--strict", "--baseline", str(baseline), str(target)]) == 1


def test_cli_list_rules(capsys):
    from repro.analysis.cli import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "mutation-discipline:" in out
    assert "dtype-discipline:" in out


# ---------------------------------------------------------------- self-scan


def test_self_scan_is_clean(capsys):
    """The CI gate: ``repro-teams analyze --strict`` exits 0 on this repo."""
    from repro.cli import main

    assert main(["analyze", "--strict"]) == 0
    assert "0 findings" in capsys.readouterr().out
