"""Shared AST helpers for the rule modules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "call_name",
    "terminal_name",
    "iter_functions",
    "keyword_value",
]


def call_name(node: ast.Call) -> str:
    """The last path component of a call target (``a.b.C(...)`` → ``"C"``)."""
    return terminal_name(node.func)


def terminal_name(node: ast.AST) -> str:
    """The trailing identifier of a Name/Attribute chain (else ``""``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def iter_functions(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """Yield ``(function_def, enclosing_stack)`` for every def in ``tree``.

    The stack holds the enclosing ClassDef/FunctionDef chain, outermost
    first, so rules can tell methods from free functions.
    """

    def visit(node: ast.AST, stack: List[ast.AST]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, list(stack)
                yield from visit(child, stack + [child])
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, stack + [child])
            else:
                yield from visit(child, stack)

    yield from visit(tree, [])


def keyword_value(node: ast.Call, name: str) -> Optional[ast.AST]:
    """The AST of keyword argument ``name``, or ``None``."""
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None

