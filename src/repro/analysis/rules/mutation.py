"""``mutation-discipline``: adjacency writes must stamp the dynamic-graph state.

The whole dynamic-graph machinery (PR 3 onwards) rests on two facts about
any method that changes adjacency state on :class:`~repro.signed.graph.
SignedGraph` or a subclass (the CSR-backed facade included):

1. it bumps :attr:`generation` via ``self._record_mutation(...)`` — every
   generation-keyed cache and the CSR view depend on it;
2. it appends the structured event to the :class:`~repro.signed.delta.
   GraphDelta` log (``self._delta.record_*``) — delta-maintained CSR views
   and the dict-free facade depend on it.

Delegating to the base implementation (``SignedGraph.add_edge(self, ...)``
or ``super().add_edge(...)``) satisfies both by construction.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule
from repro.analysis.rules._util import call_name

#: Mutator method → the delta event it must log.
_MUTATORS = {
    "add_node": "record_node_added",
    "add_edge": "record_edge_added",
    "set_sign": "record_sign_changed",
    "remove_edge": "record_edge_removed",
    "remove_node": "record_node_removed",
}

#: Adjacency-derived counters: writing one marks a method as a mutator even
#: if it is not named like one.
_COUNTERS = {"_num_edges", "_num_positive"}


def _is_signed_graph_class(node: ast.ClassDef) -> bool:
    if node.name == "SignedGraph":
        return True
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if "SignedGraph" in name and name != "CSRSignedGraph":
            return True
    return False


def _delegates(method: ast.FunctionDef) -> bool:
    """True iff the method calls the base-class implementation of itself."""
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == method.name):
            continue
        value = func.value
        if isinstance(value, ast.Name) and "SignedGraph" in value.id:
            return True
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "super":
            return True
    return False


def _record_mutation_calls(method: ast.FunctionDef) -> List[ast.Call]:
    return [
        node
        for node in ast.walk(method)
        if isinstance(node, ast.Call) and call_name(node) == "_record_mutation"
    ]


def _logs_delta_event(method: ast.FunctionDef, event: str) -> bool:
    for node in ast.walk(method):
        if isinstance(node, ast.Call) and call_name(node) == event:
            return True
    return False


def _writes_self_counter(method: ast.FunctionDef) -> bool:
    for node in ast.walk(method):
        targets: Iterable[ast.AST] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _COUNTERS
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return True
    return False


@register_rule
class MutationDisciplineRule(Rule):
    id = "mutation-discipline"
    contract = (
        "SignedGraph mutators must bump the generation (self._record_mutation) "
        "and log the structured delta event"
    )

    def check_module(self, ctx: ModuleContext):
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef) and _is_signed_graph_class(node)):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                findings.extend(self._check_method(ctx, node, method))
        return findings

    def _check_method(
        self, ctx: ModuleContext, cls: ast.ClassDef, method: ast.FunctionDef
    ):
        name = method.name
        if name in _MUTATORS:
            if _delegates(method):
                return
            if not _record_mutation_calls(method):
                yield self.finding(
                    ctx,
                    method,
                    f"{cls.name}.{name} writes adjacency state without calling "
                    "self._record_mutation() (generation-keyed caches would "
                    "serve stale results) and does not delegate to the base "
                    "implementation",
                )
            if not _logs_delta_event(method, _MUTATORS[name]):
                yield self.finding(
                    ctx,
                    method,
                    f"{cls.name}.{name} does not log its mutation to the "
                    f"GraphDelta via {_MUTATORS[name]}() (delta-maintained "
                    "CSR views would silently diverge)",
                )
            return
        if name == "__init__" or name.startswith("__"):
            return
        if _writes_self_counter(method):
            if not (_delegates(method) or _record_mutation_calls(method)):
                yield self.finding(
                    ctx,
                    method,
                    f"{cls.name}.{name} writes an adjacency counter "
                    "(_num_edges/_num_positive) without bumping the "
                    "generation via self._record_mutation()",
                )
