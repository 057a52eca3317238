"""The streaming-update workload: churn + queries over generation-keyed caches.

The acceptance property: a long-lived engine answering queries across churn
rounds produces *exactly* the teams and costs a cold stack (fresh relation,
oracle, engine on a copy of the mutated graph) produces — for every
deterministic algorithm, on both the dict and CSR backends.
"""

from __future__ import annotations

import random

import pytest

from repro.compatibility import CompatibilityEngine, DistanceOracle, make_relation
from repro.datasets import toy_dataset
from repro.exceptions import InfeasibleTaskError
from repro.experiments.streaming import (
    StreamingConfig,
    apply_edge_churn,
    run_streaming,
)
from repro.signed.generators import planted_factions_graph
from repro.skills.generators import assign_skills_zipf
from repro.skills.task import random_tasks
from repro.teams import TeamFormationProblem, run_algorithm

from reference import ReferenceRelation


class TestApplyEdgeChurn:
    def test_counts_and_reproducibility(self):
        graph1, _ = planted_factions_graph(30, average_degree=4.0, sign_noise=0.1, seed=1)
        graph2 = graph1.copy()
        counts1 = apply_edge_churn(graph1, 25, random.Random(9))
        counts2 = apply_edge_churn(graph2, 25, random.Random(9))
        assert counts1 == counts2
        assert graph1 == graph2
        assert sum(counts1) > 0

    def test_rejects_bad_fractions(self):
        graph, _ = planted_factions_graph(10, average_degree=3.0, sign_noise=0.1, seed=2)
        with pytest.raises(ValueError):
            apply_edge_churn(graph, 5, random.Random(0), add_fraction=0.8, remove_fraction=0.5)

    def test_preserves_node_set(self):
        graph, _ = planted_factions_graph(20, average_degree=3.0, sign_noise=0.1, seed=3)
        before = set(graph.nodes())
        apply_edge_churn(graph, 50, random.Random(4))
        assert set(graph.nodes()) == before


class TestStreamingEquivalence:
    """Live engine under churn == cold engine on a fresh graph, per round."""

    @pytest.mark.parametrize("relation_name,kwargs", [
        ("SPO", {"reference": True}),
        ("SPO", {}),
        ("SPA", {}),
        ("SBPH", {}),
        ("NNE", {}),
    ])
    def test_algorithms_match_cold_stack_every_round(self, relation_name, kwargs):
        """With ``reference`` the cold stack's relation is
        :class:`ReferenceRelation` (``signed_bfs`` per source)."""
        kwargs = dict(kwargs)
        against_reference = kwargs.pop("reference", False)
        graph, _ = planted_factions_graph(40, average_degree=4.0, sign_noise=0.2, seed=31)
        skills = assign_skills_zipf(graph.nodes(), num_skills=8, skills_per_user=2.5, seed=32)
        relation = make_relation(relation_name, graph, **kwargs)
        oracle = DistanceOracle(relation)
        engine = CompatibilityEngine(relation, oracle=oracle)
        rng = random.Random(33)
        tasks = random_tasks(skills, size=3, count=3, seed=34)
        for round_index in range(3):
            apply_edge_churn(graph, 10, rng)
            for task in tasks[:2]:
                live_problem = TeamFormationProblem(
                    graph, skills, relation, task, engine=engine
                )
                live_problem.refresh()
                cold_graph = graph.copy()
                cold_relation = (
                    ReferenceRelation(relation_name, cold_graph)
                    if against_reference
                    else make_relation(relation_name, cold_graph, **kwargs)
                )
                cold_problem = TeamFormationProblem(
                    cold_graph, skills, cold_relation, task
                )
                for algorithm in ("LCMD", "LCMC", "RFMD", "RFMC"):
                    live = run_algorithm(algorithm, live_problem)
                    cold = run_algorithm(algorithm, cold_problem)
                    assert live.team == cold.team, (
                        f"{relation_name} {algorithm} round {round_index}"
                    )
                    assert live.cost == cold.cost


class TestCsrOnlyStreaming:
    """Dict-free streaming: facade datasets churn without materialising."""

    @pytest.fixture(autouse=True)
    def _twin_datasets(self):
        # Register two datasets over the *same* generation-0 planes: one kept
        # as a CSR facade, one rebuilt as the dict backend.  Bit-identical
        # reports across the pair is the cross-backend acceptance property.
        pytest.importorskip("numpy")
        from repro.datasets.registry import _FACTORIES, register_dataset
        from repro.datasets.synthetic import SignedDataset, synthetic_csr_network
        from repro.signed import as_signed_graph

        def _planes(seed):
            csr, _ = synthetic_csr_network(
                120, average_degree=6.0, num_factions=4, seed=seed
            )
            skills = assign_skills_zipf(
                list(csr._nodes), num_skills=10, skills_per_user=2.5, seed=seed + 1
            )
            return csr, skills

        def facade_factory(seed=101, scale=None):
            csr, skills = _planes(seed)
            return SignedDataset(
                name="twin-facade", graph=as_signed_graph(csr), skills=skills
            )

        def dict_factory(seed=101, scale=None):
            csr, skills = _planes(seed)
            return SignedDataset(
                name="twin-dict", graph=csr.to_signed_graph(), skills=skills
            )

        register_dataset("twin-facade", facade_factory)
        register_dataset("twin-dict", dict_factory)
        yield
        _FACTORIES.pop("twin-facade", None)
        _FACTORIES.pop("twin-dict", None)

    def _config(self, dataset, **overrides):
        base = dict(
            dataset=dataset,
            relation="SPO",
            algorithms=("LCMD", "RFMC"),
            num_rounds=3,
            churn_per_round=20,
            tasks_per_round=2,
            task_size=2,
            max_seeds=None,
            seed=55,
        )
        base.update(overrides)
        return StreamingConfig(**base)

    def test_facade_run_stays_dict_free(self):
        # csr_only=None auto-detects the facade; run_streaming raises
        # RuntimeError the moment any round materialises adjacency dicts,
        # so completing is the regression assertion.
        report = run_streaming(self._config("twin-facade", csr_only=True))
        assert len(report.rounds) == 3
        assert any(q.solved for r in report.rounds for q in r.queries)

    def test_csr_only_rejects_dict_datasets(self):
        with pytest.raises(ValueError, match="csr_only"):
            run_streaming(self._config("twin-dict", csr_only=True))

    def test_facade_report_bit_identical_to_dict_backend(self):
        facade_report = run_streaming(self._config("twin-facade"))
        dict_report = run_streaming(self._config("twin-dict", csr_only=False))
        assert len(facade_report.rounds) == len(dict_report.rounds)
        for left, right in zip(facade_report.rounds, dict_report.rounds):
            assert left.round_index == right.round_index
            assert left.edges_added == right.edges_added
            assert left.edges_removed == right.edges_removed
            assert left.signs_flipped == right.signs_flipped
            assert left.generation == right.generation
            assert len(left.queries) == len(right.queries)
            for lq, rq in zip(left.queries, right.queries):
                assert lq.algorithm == rq.algorithm
                assert lq.task.skills == rq.task.skills
                assert lq.solved == rq.solved
                assert lq.cost == rq.cost
                assert lq.team_size == rq.team_size


class TestRunStreaming:
    def test_report_structure_and_determinism(self):
        config = StreamingConfig(
            dataset="toy",
            relation="SPO",
            algorithms=("LCMD", "RFMC"),
            num_rounds=3,
            churn_per_round=5,
            tasks_per_round=1,
            task_size=2,
            max_seeds=None,
            seed=77,
        )
        report = run_streaming(config)
        assert len(report.rounds) == 3
        for round_result in report.rounds:
            assert len(round_result.queries) == 2  # 1 task x 2 algorithms
            assert round_result.generation > 0
        text = report.as_text()
        assert "Streaming workload" in text
        assert "LCMD" in text and "RFMC" in text
        # Deterministic: the same config reproduces the same teams and costs.
        again = run_streaming(config)
        for first, second in zip(report.rounds, again.rounds):
            assert [q.cost for q in first.queries] == [q.cost for q in second.queries]
            assert first.generation == second.generation

    def test_refresh_raises_when_skill_starved(self):
        dataset = toy_dataset()
        graph = dataset.graph
        skills = dataset.skills
        task = random_tasks(skills, size=2, count=1, seed=1)[0]
        relation = make_relation("NNE", graph)
        problem = TeamFormationProblem(graph, skills, relation, task)
        task_skill = next(iter(task.skills))
        for holder in list(skills.users_with(task_skill)):
            if holder in graph:
                graph.remove_node(holder)
        with pytest.raises(InfeasibleTaskError):
            problem.refresh()
