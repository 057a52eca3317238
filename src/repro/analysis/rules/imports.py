"""``lazy-numpy``: the dict backend must import without numpy.

The degradation story (PR 6) is that ``import repro`` and the whole dict
backend work on a bare CPython: numpy only loads when a CSR feature is
actually touched.  That holds because exactly three modules are allowed to
import numpy at module level — the lazily-exported CSR trio behind
``repro.signed.__getattr__`` — and nothing else may import *them* at module
level either (importing a gated module transitively imports numpy).

Escape hatches that keep the contract and are accepted here:

* imports inside a function body (deferred until the feature is used);
* module-level imports wrapped in ``try/except ImportError`` (the
  ``repro.skills.generators`` pattern: degrade, don't crash);
* imports under ``if TYPE_CHECKING:`` (never executed at runtime).
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule
from repro.analysis.rules._util import walk_no_functions

#: The only modules allowed to assume numpy at import time.
GATED_MODULES = {
    "repro.signed.csr",
    "repro.signed.ingest",
    "repro.signed.lazy",
}
_GATED_LEAVES = {name.rsplit(".", 1)[1] for name in GATED_MODULES}


def _handles_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        typ = handler.type
        names = []
        if isinstance(typ, ast.Tuple):
            names = [getattr(e, "id", getattr(e, "attr", "")) for e in typ.elts]
        elif typ is not None:
            names = [getattr(typ, "id", getattr(typ, "attr", ""))]
        else:
            return True  # bare except
        if any(n in {"ImportError", "ModuleNotFoundError", "Exception"} for n in names):
            return True
    return False


def _guarded_nodes(tree: ast.AST) -> set:
    """ids() of statements under try/except ImportError or TYPE_CHECKING."""
    guarded = set()
    for node in walk_no_functions(tree):
        body = None
        if isinstance(node, ast.Try) and _handles_import_error(node):
            body = node.body
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            body = node.body
        if body is not None:
            for stmt in body:
                for sub in ast.walk(stmt):
                    guarded.add(id(sub))
    return guarded


def _resolve_relative(module: str, node: ast.ImportFrom) -> str:
    """Absolute dotted name of a ``from ... import`` target module."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    # level=1 strips the module's own leaf, each extra level one more parent.
    base = parts[: len(parts) - node.level]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


@register_rule
class LazyNumpyRule(Rule):
    id = "lazy-numpy"
    contract = (
        "no module-level numpy import (direct or via a CSR module) outside "
        "the three lazily-gated modules, so the dict backend imports on a "
        "numpy-free interpreter"
    )

    def check_module(self, ctx: ModuleContext):
        findings: List[Finding] = []
        if not ctx.module.startswith("repro.") and ctx.module != "repro":
            return findings
        if ctx.module in GATED_MODULES:
            return findings
        guarded = _guarded_nodes(ctx.tree)
        for node in walk_no_functions(ctx.tree):
            if id(node) in guarded:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "numpy":
                        findings.append(self._numpy_finding(ctx, node, alias.name))
                    elif alias.name in GATED_MODULES:
                        findings.append(self._gated_finding(ctx, node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_relative(ctx.module, node)
                if target.split(".")[0] == "numpy":
                    findings.append(self._numpy_finding(ctx, node, target))
                elif target in GATED_MODULES:
                    findings.append(self._gated_finding(ctx, node, target))
                elif target == "repro.signed" or (
                    node.level > 0 and target == "repro.signed"
                ):
                    for alias in node.names:
                        if alias.name in _GATED_LEAVES:
                            findings.append(
                                self._gated_finding(
                                    ctx, node, f"repro.signed.{alias.name}"
                                )
                            )
        return findings

    def _numpy_finding(self, ctx, node, name):
        return self.finding(
            ctx,
            node,
            f"module-level import of {name} outside the gated CSR modules: "
            "the dict backend must import on a numpy-free interpreter "
            "(defer the import into the function that needs it, or guard "
            "it with try/except ImportError)",
        )

    def _gated_finding(self, ctx, node, name):
        return self.finding(
            ctx,
            node,
            f"module-level import of numpy-gated module {name}: importing "
            "it transitively imports numpy at import time (go through the "
            "lazy repro.signed exports inside a function, or guard with "
            "try/except ImportError)",
        )
