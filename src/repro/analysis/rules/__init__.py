"""The rule set: one module per invariant.

Importing this package registers every rule with the framework registry
(:func:`repro.analysis.core.all_rules` triggers the import).  Each module
carries the full statement of its contract in the rule's docstring; the
README's "Codebase invariants" table is the reader-facing summary.
"""

from repro.analysis.rules import (  # noqa: F401  (import = register)
    caches,
    dtypes,
    ledger,
    materialise,
    mutation,
    policy,
)

__all__ = [
    "caches",
    "dtypes",
    "ledger",
    "materialise",
    "mutation",
    "policy",
]
