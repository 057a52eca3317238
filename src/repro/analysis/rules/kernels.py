"""``kernel-registry-parity``: every CSR kernel has a serial equivalent.

A cross-module (:meth:`finalize`) rule: every registered non-``dict_*``
kernel must have a declared serial equivalent in
``repro.exec.kernels.SERIAL_EQUIVALENTS`` whose value is itself a registered
``dict_*`` kernel.  That table is the degradation contract: when numpy or
the pool is missing, the mapped dict kernel must be able to answer for its
CSR counterpart.  This rule is the table's only reader: it keeps the table
total over the registry.

Fixture tests feed this rule a synthetic ``repro.exec.kernels`` module; when
it is absent from the project the check is skipped (a partial tree is not a
parity violation).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.core import Finding, ModuleContext, ProjectContext, Rule, register_rule
from repro.analysis.rules._util import call_name

_KERNELS_MODULE = "repro.exec.kernels"


def _registered_kernels(ctx: ModuleContext) -> Dict[str, ast.AST]:
    """``{kernel name: registering node}`` from ``register_kernel`` uses."""
    names: Dict[str, ast.AST] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and call_name(node) == "register_kernel":
            if node.args and isinstance(node.args[0], ast.Constant):
                names[node.args[0].value] = node
    return names


def _module_dict_literal(ctx: ModuleContext, name: str) -> Optional[ast.Dict]:
    for node in ctx.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                value = node.value
                if isinstance(value, ast.Dict):
                    return value
    return None


@register_rule
class KernelRegistryParityRule(Rule):
    id = "kernel-registry-parity"
    contract = (
        "every registered CSR kernel has a declared dict-backend serial "
        "equivalent"
    )

    def finalize(self, project: ProjectContext):
        findings: List[Finding] = []
        kernels_ctx = project.get(_KERNELS_MODULE)
        if kernels_ctx is None:
            return findings
        registered = _registered_kernels(kernels_ctx)
        findings.extend(self._check_serial_equivalents(kernels_ctx, registered))
        return findings

    def _check_serial_equivalents(
        self, ctx: ModuleContext, registered: Dict[str, ast.AST]
    ):
        table = _module_dict_literal(ctx, "SERIAL_EQUIVALENTS")
        if table is None:
            yield self.finding(
                ctx,
                ctx.tree,
                "repro.exec.kernels must declare SERIAL_EQUIVALENTS, the "
                "dict literal mapping every CSR kernel to its dict-backend "
                "serial equivalent (the degradation contract)",
            )
            return
        mapped: Dict[str, str] = {}
        for key, value in zip(table.keys, table.values):
            if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                mapped[key.value] = value.value
        for name, node in sorted(registered.items()):
            if name.startswith("dict_"):
                continue
            serial = mapped.get(name)
            if serial is None:
                yield self.finding(
                    ctx,
                    node,
                    f"kernel {name!r} has no SERIAL_EQUIVALENTS entry: every "
                    "CSR kernel needs a declared dict-backend equivalent so "
                    "degraded executors can answer for it",
                )
            elif serial not in registered:
                yield self.finding(
                    ctx,
                    table,
                    f"SERIAL_EQUIVALENTS maps {name!r} to unregistered "
                    f"kernel {serial!r}",
                )
            elif not serial.startswith("dict_"):
                yield self.finding(
                    ctx,
                    table,
                    f"SERIAL_EQUIVALENTS maps {name!r} to {serial!r}, which "
                    "is not a dict_* kernel: serial equivalents must run on "
                    "the dict backend without numpy",
                )
        for name in sorted(mapped):
            if name not in registered:
                yield self.finding(
                    ctx,
                    table,
                    f"SERIAL_EQUIVALENTS lists unregistered kernel {name!r}",
                )
