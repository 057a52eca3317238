"""``no-materialise``: read paths must stay dict-free.

``CSRBackedSignedGraph`` exists so million-node graphs are served straight
from CSR planes; ``_materialise()`` inflates the full python dict adjacency
(gigabytes at scale) and is strictly a last-resort escape hatch owned by
``repro.signed.lazy`` itself.  Read-only code — facades, relations, engine —
must use the dict-free protocol (iteration, ``degree``,
``neighbors_with_signs``) instead.

Touching ``_adjacency`` outside ``repro.signed`` is the same bug with the
lid off: on a CSR-backed facade the attribute access *triggers*
materialisation via ``__getattr__``-style lazy properties, silently turning
an O(1) membership probe into an O(E) inflation.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule


@register_rule
class NoMaterialiseRule(Rule):
    id = "no-materialise"
    contract = (
        "read-only code never calls CSRBackedSignedGraph._materialise or "
        "touches _adjacency outside repro.signed; million-node serving "
        "depends on the dict adjacency never being inflated"
    )

    def check_module(self, ctx: ModuleContext):
        findings: List[Finding] = []
        if ctx.module == "repro.signed.lazy":
            return findings
        in_signed = ctx.module.startswith("repro.signed")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "_materialise":
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "_materialise referenced outside repro.signed.lazy: "
                        "inflating the dict adjacency defeats dict-free CSR "
                        "serving (use the graph protocol: iteration, "
                        "degree(), neighbors_with_signs())",
                    )
                )
            elif node.attr == "_adjacency" and not in_signed:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "_adjacency accessed outside repro.signed: on a "
                        "CSR-backed facade this materialises the full dict "
                        "adjacency (iterate the graph or use __contains__ "
                        "instead)",
                    )
                )
        return findings
