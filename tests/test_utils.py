"""Tests for the shared utilities (rng, validation, tables, timing)."""

from __future__ import annotations

import random
import time

import pytest

from repro.utils import (
    LRUCache,
    Timer,
    ensure_rng,
    format_percentage,
    format_table,
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
    spawn_rngs,
)


class TestEnsureRng:
    def test_none_returns_random_instance(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_int_seed_is_deterministic(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()

    def test_existing_rng_is_returned_unchanged(self):
        rng = random.Random(7)
        assert ensure_rng(rng) is rng

    def test_bool_seed_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng(True)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnRngs:
    def test_count_respected(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_deterministic_given_seed(self):
        first = [rng.random() for rng in spawn_rngs(3, 4)]
        second = [rng.random() for rng in spawn_rngs(3, 4)]
        assert first == second

    def test_spawned_rngs_are_independent(self):
        rng_a, rng_b = spawn_rngs(9, 2)
        assert rng_a.random() != rng_b.random()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_count_gives_empty_list(self):
        assert spawn_rngs(0, 0) == []


class TestValidation:
    def test_require_positive_accepts_positive(self):
        require_positive(3, "x")
        require_positive(0.1, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_require_positive_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x"):
            require_positive(value, "x")

    def test_require_positive_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            require_positive("3", "x")

    def test_require_positive_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive(True, "x")

    def test_require_non_negative_accepts_zero(self):
        require_non_negative(0, "y")

    def test_require_non_negative_rejects_negative(self):
        with pytest.raises(ValueError, match="y"):
            require_non_negative(-0.001, "y")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_require_probability_accepts_unit_interval(self, value):
        require_probability(value, "p")

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_require_probability_rejects_outside(self, value):
        with pytest.raises(ValueError, match="p"):
            require_probability(value, "p")

    def test_require_in_range_bounds_inclusive(self):
        require_in_range(5, "z", 5, 10)
        require_in_range(10, "z", 5, 10)
        with pytest.raises(ValueError):
            require_in_range(11, "z", 5, 10)


class TestFormatTable:
    def test_basic_alignment_and_headers(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "22" in lines[-1]

    def test_none_rendered_as_dash(self):
        text = format_table(["a", "b"], [["x", None]])
        assert text.splitlines()[-1].endswith("-")

    def test_title_is_first_line(self):
        text = format_table(["a"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_percentage(self):
        assert format_percentage(0.4472) == "44.72"
        assert format_percentage(1.0, decimals=0) == "100"


class TestTimer:
    def test_elapsed_non_negative(self):
        with Timer() as timer:
            time.sleep(0.001)
        assert timer.elapsed >= 0.001

    def test_elapsed_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().elapsed

    def test_elapsed_inside_block_is_live(self):
        with Timer() as timer:
            first = timer.elapsed
            time.sleep(0.001)
            assert timer.elapsed >= first


class TestLRUCache:
    def test_acts_as_mapping(self):
        cache = LRUCache(maxsize=4)
        cache["a"] = 1
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 7) == 7

    def test_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh "a"
        cache["c"] = 3              # evicts "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_overwrite_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 10  # refresh + overwrite, no eviction
        cache["c"] = 3   # evicts "b"
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_size_never_exceeds_maxsize(self):
        cache = LRUCache(maxsize=5)
        for i in range(50):
            cache[i] = i
        assert len(cache) == 5
        assert sorted(cache) == list(range(45, 50))

    def test_clear_and_statistics(self):
        cache = LRUCache(maxsize=3)
        cache["a"] = 1
        cache.get("a")
        cache.get("b")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.misses == 1
        assert "LRUCache" in repr(cache)

    def test_items_iterates_pairs(self):
        cache = LRUCache(maxsize=4)
        cache["a"] = 1
        cache["b"] = 2
        assert dict(cache.items()) == {"a": 1, "b": 2}

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)
        with pytest.raises(ValueError):
            LRUCache(maxsize=-3)
