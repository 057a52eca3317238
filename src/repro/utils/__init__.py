"""Small shared utilities: RNG handling, validation helpers, text tables, timing."""

from repro.utils.bitset import WORD_BITS, words_for
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import (
    DEFAULT_CACHE_BUDGET_BYTES,
    LRUCache,
    fetch_batched,
    scaled_cache_size,
)
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.tables import format_table, format_percentage
from repro.utils.timing import Timer
from repro.utils.validation import (
    require_positive,
    require_non_negative,
    require_probability,
    require_in_range,
)

__all__ = [
    "WORD_BITS",
    "words_for",
    "GenerationalLRUCache",
    "LRUCache",
    "fetch_batched",
    "scaled_cache_size",
    "DEFAULT_CACHE_BUDGET_BYTES",
    "ensure_rng",
    "spawn_rngs",
    "format_table",
    "format_percentage",
    "Timer",
    "require_positive",
    "require_non_negative",
    "require_probability",
    "require_in_range",
]
