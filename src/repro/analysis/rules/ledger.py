"""``ledger-discipline``: crash-cleanup ledgers must see every allocation.

The executor and snapshot store survive worker crashes because every
OS-visible resource is registered with a process-local ledger *in the same
function that allocates it*:

* snapshot-store temp files (``_temp_path(...)`` / ``tempfile`` APIs) →
  ``_TEMP_LEDGER`` — otherwise an interrupted save litters ``*.tmp`` files
  next to the store;
* snapshot files published by the pool (``save_snapshot`` in
  ``repro.exec``) → ``_STORE_FILE_LEDGER`` — otherwise republished
  snapshots outlive the pool that owns them.

"Same function" is the contract, not "somewhere": the ledgers are consulted
by ``atexit``/signal handlers, so a registration deferred to a helper the
crash can skip is no registration at all.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule
from repro.analysis.rules._util import call_name, iter_functions

_TEMPFILE_APIS = {"mkstemp", "NamedTemporaryFile", "mkdtemp"}
_LEDGERS = {"_TEMP_LEDGER", "_STORE_FILE_LEDGER"}


def _ledger_stores(func: ast.AST) -> set:
    """Names of ledgers written (``LEDGER[...] = ...``) inside ``func``."""
    stores = set()
    for node in ast.walk(func):
        targets = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = (node.target,)
        for target in targets:
            if isinstance(target, ast.Subscript):
                base = target.value
                name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                if name in _LEDGERS:
                    stores.add(name)
        # LEDGER.setdefault(...) / LEDGER.pop-style registration helpers
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            if name in _LEDGERS and node.func.attr in {"setdefault", "add", "append"}:
                stores.add(name)
    return stores


@register_rule
class LedgerDisciplineRule(Rule):
    id = "ledger-discipline"
    contract = (
        "snapshot temp files and published store files are registered with "
        "their crash-cleanup ledger in the same function that allocates them"
    )

    def check_module(self, ctx: ModuleContext):
        findings: List[Finding] = []
        if not ctx.module.startswith("repro."):
            return findings
        for func, _stack in iter_functions(ctx.tree):
            stores = None  # computed lazily: most functions allocate nothing
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                requirement = self._requirement(ctx, node)
                if requirement is None:
                    continue
                ledger, what = requirement
                if stores is None:
                    stores = _ledger_stores(func)
                if ledger not in stores:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{func.name}() allocates {what} without "
                            f"registering it in {ledger} in the same "
                            "function; a crash between allocation and a "
                            "deferred registration leaks the resource",
                        )
                    )
        return findings

    def _requirement(self, ctx: ModuleContext, call: ast.Call):
        name = call_name(call)
        if name == "_temp_path":
            return "_TEMP_LEDGER", "a snapshot-store temp path"
        if name in _TEMPFILE_APIS:
            return "_TEMP_LEDGER", f"a tempfile.{name} resource"
        if ctx.module.startswith("repro.exec") and name == "save_snapshot":
            return "_STORE_FILE_LEDGER", "a published .store snapshot file"
        return None
