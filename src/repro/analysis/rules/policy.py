"""``policy-shim``: execution knobs enter only as ``policy=``.

:class:`~repro.exec.policy.ExecutionPolicy` is the only way in for every
execution knob — pool shape and snapshot directory.
Public constructors must not grow loose keyword arguments that shadow those
knobs: a constructor that accepts ``workers=`` next to ``policy=`` forks the
configuration surface — two ways to set one value, a precedence rule to
reconcile them, and a value that may skip the policy's validation or never
reach the executors, oracles and engines that read the policy.

The check: any public class in ``repro.*`` whose ``__init__`` takes a
parameter named like a policy knob is a finding, whatever the body does with
it — the knob belongs on the :class:`ExecutionPolicy` the caller passes.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule

#: Parameter names that are execution knobs: the ExecutionPolicy fields plus
#: the bare ``cache_size`` spelling (cache bounds derive from graph size, so a
#: constructor taking one adds a knob the policy does not have).
KNOBS = frozenset({"workers", "snapshot_store", "cache_size"})


@register_rule
class PolicyShimRule(Rule):
    id = "policy-shim"
    contract = (
        "public constructors accept execution knobs only inside the "
        "ExecutionPolicy passed as policy=, never as loose keyword arguments"
    )

    def check_module(self, ctx: ModuleContext):
        findings: List[Finding] = []
        if not ctx.module.startswith("repro."):
            return findings
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            init = next(
                (
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            params = [a.arg for a in init.args.args[1:]] + [
                a.arg for a in init.args.kwonlyargs
            ]
            knob_params = sorted(set(params) & KNOBS)
            if not knob_params:
                continue
            findings.append(
                self.finding(
                    ctx,
                    init,
                    f"{node.name}.__init__ accepts execution knob(s) "
                    f"{', '.join(knob_params)} as loose keyword arguments: "
                    "set them on the ExecutionPolicy passed as policy= — a "
                    "second way in forks the configuration surface and skips "
                    "its validation",
                )
            )
        return findings

