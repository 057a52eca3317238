"""``kernel-registry-parity``: every CSR kernel degrades and ships cleanly.

Two parity obligations, both cross-module (a :meth:`finalize` rule):

1. **Serial equivalence.**  Every registered non-``dict_*`` kernel must have
   a declared serial equivalent in ``repro.exec.kernels.SERIAL_EQUIVALENTS``
   whose value is itself a registered ``dict_*`` kernel.  That table is the
   degradation contract: when numpy or the pool is missing, the mapped dict
   kernel must be able to answer for its CSR counterpart.  This rule is
   the table's only reader: it keeps the table total over the registry.
2. **Arena shipping.**  The sets in ``repro.exec.arena`` must agree with
   each other and with the registry: every ``_ARENA_KERNELS`` member is a
   registered kernel with a ``_WRITERS`` entry (and vice versa), and every
   writer really produces rows — it calls a ``*_into`` write-into core
   defined in ``repro.signed.csr``, delegates through ``KERNELS[...]``, or
   stores into the mapped planes itself.

Fixture tests feed this rule synthetic ``repro.exec.kernels`` /
``repro.exec.arena`` / ``repro.signed.csr`` modules; when a module is absent
from the project its checks are skipped (a partial tree is not a parity
violation).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.core import Finding, ModuleContext, ProjectContext, Rule, register_rule
from repro.analysis.rules._util import call_name, string_constants

_KERNELS_MODULE = "repro.exec.kernels"
_ARENA_MODULE = "repro.exec.arena"
_CSR_MODULE = "repro.signed.csr"


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


def _module_assignment(ctx: ModuleContext, name: str) -> Optional[ast.AST]:
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
    return None


def _writer_produces_rows(writer: ast.FunctionDef, into_cores: Set[str]) -> bool:
    for node in ast.walk(writer):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name.endswith("_into"):
                into_cores.add(name)
                return True
        if isinstance(node, ast.Subscript):
            base = node.value
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            if name == "KERNELS":
                return True
        # Direct plane stores: plane[row] = ... / plane[row].fill(...)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fill"
        ):
            return True
    return False


@register_rule
class KernelRegistryParityRule(Rule):
    id = "kernel-registry-parity"
    contract = (
        "every registered CSR kernel has a declared dict-backend serial "
        "equivalent, and every arena-shipped kernel has a consistent writer "
        "backed by a *_into core, KERNELS delegation, or direct plane stores"
    )

    def finalize(self, project: ProjectContext):
        findings: List[Finding] = []
        kernels_ctx = project.get(_KERNELS_MODULE)
        if kernels_ctx is None:
            return findings
        registered = _registered_kernels(kernels_ctx)
        findings.extend(self._check_serial_equivalents(kernels_ctx, registered))
        arena_ctx = project.get(_ARENA_MODULE)
        if arena_ctx is not None:
            findings.extend(self._check_arena(arena_ctx, project, set(registered)))
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

    def _check_arena(
        self, ctx: ModuleContext, project: ProjectContext, registered: Set[str]
    ):
        arena_value = _module_assignment(ctx, "_ARENA_KERNELS")
        arena_kernels = (
            set(string_constants(arena_value)) if arena_value is not None else set()
        )
        writers_table = _module_dict_literal(ctx, "_WRITERS")
        writer_names: Dict[str, str] = {}
        if writers_table is not None:
            for key, value in zip(writers_table.keys, writers_table.values):
                if isinstance(key, ast.Constant):
                    writer_names[key.value] = (
                        value.id if isinstance(value, ast.Name) else ""
                    )
        defs = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.FunctionDef)
        }
        for name in sorted(arena_kernels):
            if name not in registered:
                yield self.finding(
                    ctx,
                    arena_value,
                    f"_ARENA_KERNELS lists {name!r}, which is not a "
                    "registered kernel",
                )
            if writers_table is not None and name not in writer_names:
                yield self.finding(
                    ctx,
                    writers_table,
                    f"arena kernel {name!r} has no _WRITERS entry: "
                    "supports() says it ships through the arena but no "
                    "writer can fill its planes",
                )
        for name in sorted(writer_names):
            if name not in arena_kernels:
                yield self.finding(
                    ctx,
                    writers_table,
                    f"_WRITERS has an entry for {name!r} which is not in "
                    "_ARENA_KERNELS: supports() would refuse an arena the "
                    "worker could serve",
                )
        into_cores: Set[str] = set()
        for kernel, writer in sorted(writer_names.items()):
            node = defs.get(writer)
            if node is None:
                continue
            if not _writer_produces_rows(node, into_cores):
                yield self.finding(
                    ctx,
                    node,
                    f"arena writer {writer}() for kernel {kernel!r} neither "
                    "calls a *_into write-into core, delegates via "
                    "KERNELS[...], nor stores into the result planes",
                )
        csr_ctx = project.get(_CSR_MODULE)
        if csr_ctx is not None and into_cores:
            csr_defs = {
                n.name
                for n in ast.walk(csr_ctx.tree)
                if isinstance(n, ast.FunctionDef)
            }
            for core in sorted(into_cores):
                if core not in csr_defs:
                    yield self.finding(
                        ctx,
                        ctx.tree,
                        f"arena writers reference write-into core {core}() "
                        "which repro.signed.csr does not define",
                    )
