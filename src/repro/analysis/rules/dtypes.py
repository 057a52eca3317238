"""``dtype-discipline``: CSR planes keep their declared wire dtypes.

The snapshot format (PR 4) writes raw plane bytes with *declared* dtypes:
``indptr`` is int64, ``indices`` int32, ``signs`` int8.  A plane built with a
different dtype round-trips through ``save_snapshot``/``mmap`` as garbage —
numpy would happily build an int64 ``indices`` array locally and the
corruption only surfaces when another process maps the bytes.

The check: inside ``repro.signed.*``, any assignment whose target is named
like a plane (``*indptr``, ``*indices``, ``*signs``) and whose value is a
call carrying a ``dtype=`` keyword must use the declared dtype family.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule
from repro.analysis.rules._util import keyword_value, terminal_name

_INT64 = frozenset({"int64", "i8", "<i8", ">i8", "=i8", "longlong"})
_INT32 = frozenset({"int32", "i4", "<i4", ">i4", "=i4", "intc"})
_INT8 = frozenset({"int8", "i1", "<i1", ">i1", "=i1", "|i1", "byte"})


def _plane_family(name: str):
    if name.endswith("indptr"):
        return "indptr", _INT64, "int64"
    if name == "indices" or name.endswith("_indices"):
        return "indices", _INT32, "int32"
    if name == "signs" or name.endswith("_signs"):
        return "signs", _INT8, "int8"
    return None


def _dtype_token(node: ast.AST) -> Optional[str]:
    """Normalise a ``dtype=`` value to a comparable token, if statically known."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, (ast.Attribute, ast.Name)):
        return terminal_name(node)
    if isinstance(node, ast.Call):
        # np.dtype("...") — look through to the argument.
        if terminal_name(node.func) == "dtype" and node.args:
            return _dtype_token(node.args[0])
    return None


@register_rule
class DtypeDisciplineRule(Rule):
    id = "dtype-discipline"
    contract = (
        "CSR planes are built with their declared wire dtypes — indptr "
        "int64, indices int32, signs int8 — so snapshot bytes mean the "
        "same thing in every process"
    )

    def check_module(self, ctx: ModuleContext):
        findings: List[Finding] = []
        if not ctx.module.startswith("repro.signed"):
            return findings
        for node in ast.walk(ctx.tree):
            targets: Iterable[ast.AST] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = (node.target,)
            else:
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            dtype_node = keyword_value(value, "dtype")
            if dtype_node is None:
                continue
            token = _dtype_token(dtype_node)
            if token is None:
                continue
            for target in targets:
                family = _plane_family(terminal_name(target))
                if family is None:
                    continue
                plane, allowed, declared = family
                if token not in allowed:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{plane} plane built with dtype {token!r} "
                            f"instead of the declared {declared}: snapshot "
                            "consumers map the raw bytes "
                            "with the declared dtype and would read garbage",
                        )
                    )
        return findings
