"""Problem and result objects for Team Formation in Signed Networks (TFSN).

A :class:`TeamFormationProblem` bundles everything Definition 2.1 of the paper
needs — the signed graph, the skill assignment, the task, the compatibility
relation and the distance/cost machinery — so algorithms receive a single
coherent object.  A :class:`TeamFormationResult` records the outcome in a form
the experiment harness can aggregate (success flag, team, cost, seeds tried).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, Iterable, Optional

from repro.compatibility.base import CompatibilityRelation
from repro.compatibility.distance import DistanceOracle
from repro.compatibility.engine import CompatibilityEngine
from repro.compatibility.skill_compat import SkillCompatibilityIndex
from repro.exceptions import InfeasibleTaskError
from repro.signed.graph import Node, SignedGraph
from repro.skills.assignment import SkillAssignment
from repro.skills.task import Task


class TeamFormationProblem:
    """One instance of the TFSN problem.

    Parameters
    ----------
    graph:
        The signed network of users.
    assignment:
        The user ↔ skill assignment.
    relation:
        The compatibility relation ``Comp`` the team must satisfy.
    task:
        The set of skills to cover.
    oracle:
        Optional pre-built :class:`DistanceOracle`; built from ``relation``
        when omitted.  Sharing an oracle across problems on the same graph
        reuses its BFS caches.
    skill_index:
        Optional pre-built :class:`SkillCompatibilityIndex` on ``relation``
        and ``assignment``, used by the "least compatible skill" policy and
        for the per-skill candidates; built lazily when needed.
    engine:
        Optional pre-built :class:`CompatibilityEngine`; built from
        ``relation`` and the oracle when omitted.  All one-to-many queries of
        the team-formation algorithms (candidate filtering, distance-to-team
        scoring, seed warming) go through it.  The engine holds no cache:
        the caches it reads are the relation's and the oracle's, so sharing
        the relation across problems on the same graph shares them.
    """

    def __init__(
        self,
        graph: SignedGraph,
        assignment: SkillAssignment,
        relation: CompatibilityRelation,
        task: Task,
        oracle: Optional[DistanceOracle] = None,
        skill_index: Optional[SkillCompatibilityIndex] = None,
        engine: Optional[CompatibilityEngine] = None,
    ) -> None:
        if not isinstance(graph, SignedGraph):
            # A bare CSRSignedGraph adapts to its canonical lazy facade — the
            # same object the relation got from as_signed_graph, so the
            # identity check below still holds for CSR-first construction.
            from repro.signed.lazy import as_signed_graph

            graph = as_signed_graph(graph)
        if relation.graph is not graph:
            raise ValueError("the relation must be defined over the problem's graph")
        missing = {
            skill for skill in task.skills if assignment.skill_frequency(skill) == 0
        }
        if missing:
            raise InfeasibleTaskError(missing)
        self.graph = graph
        self.assignment = assignment
        self.relation = relation
        self.task = task
        if engine is not None:
            if engine.relation is not relation:
                raise ValueError("the engine must be built on the problem's relation")
            if oracle is not None and engine.oracle is not oracle:
                raise ValueError(
                    "engine and oracle disagree; pass one or build the engine "
                    "on the given oracle"
                )
            self.engine = engine
            self.oracle = engine.oracle
        else:
            self.oracle = oracle if oracle is not None else DistanceOracle(relation)
            self.engine = CompatibilityEngine(relation, oracle=self.oracle)
        if skill_index is not None and (
            skill_index.relation is not relation or skill_index.assignment is not assignment
        ):
            raise ValueError(
                "the skill index must be built on the problem's relation and assignment"
            )
        self._skill_index = skill_index

    @property
    def skill_index(self) -> SkillCompatibilityIndex:
        """The skill compatibility index, built lazily."""
        if self._skill_index is None:
            self._skill_index = SkillCompatibilityIndex(self.relation, self.assignment)
        return self._skill_index

    def refresh(self) -> None:
        """Re-validate the problem against a mutated graph and resync caches.

        The compatibility caches are generation-keyed and expire by
        themselves, so queries after a mutation are always correct without
        this call; ``refresh()`` (1) re-checks that every task skill still
        has a holder *present in the graph* (raising
        :class:`~repro.exceptions.InfeasibleTaskError` otherwise — node
        removals can starve a skill even though the assignment is unchanged)
        and (2) eagerly performs the delta-applied CSR snapshot rebuild and
        the targeted cache invalidation via
        :meth:`~repro.compatibility.engine.CompatibilityEngine.refresh`, so
        the next query doesn't pay them.  Streaming workloads call it once
        per update batch.
        """
        missing = {
            skill for skill in self.task.skills if not self.candidates_for_skill(skill)
        }
        if missing:
            raise InfeasibleTaskError(missing)
        self.engine.refresh()

    def candidates_for_skill(self, skill: Hashable) -> FrozenSet[Node]:
        """Users of the graph that possess ``skill``.

        Read from the skill index's per-generation memo
        (:meth:`~repro.compatibility.skill_compat.SkillCompatibilityIndex.holders`),
        so problems sharing an index share it too.
        """
        return self.skill_index.holders(skill)

    def compatible_candidates(
        self, skill: Hashable, team: Iterable[Node]
    ) -> FrozenSet[Node]:
        """Users with ``skill`` that are compatible with every current team member.

        Answered by the engine's one-to-many filter
        (:meth:`~repro.compatibility.engine.CompatibilityEngine.compatible_from_many`),
        which batches the team's per-source computations and applies the pair
        rule vectorised over dense rows; the result is identical to the
        per-pair ``are_compatible`` loop it replaces.
        """
        return self.engine.compatible_from_many(self.candidates_for_skill(skill), list(team))

    def __repr__(self) -> str:
        return (
            f"TeamFormationProblem(relation={self.relation.name}, "
            f"task_size={len(self.task)}, users={self.graph.number_of_nodes()})"
        )


@dataclass(frozen=True)
class TeamFormationResult:
    """Outcome of one team-formation run.

    ``team`` is ``None`` when no compatible covering team was found; ``cost``
    is ``inf`` in that case.  ``seeds_tried`` and ``candidates_completed``
    describe how much of the seed loop of Algorithm 2 succeeded, which the
    experiments use for diagnostics.
    """

    algorithm: str
    relation_name: str
    task: Task
    team: Optional[FrozenSet[Node]]
    cost: float
    seeds_tried: int = 0
    candidates_completed: int = 0

    @property
    def solved(self) -> bool:
        """True iff a compatible covering team was found."""
        return self.team is not None

    @property
    def team_size(self) -> int:
        """Number of members in the team (0 when unsolved)."""
        return len(self.team) if self.team is not None else 0

    def __repr__(self) -> str:
        status = f"team_size={self.team_size}, cost={self.cost}" if self.solved else "unsolved"
        return (
            f"TeamFormationResult(algorithm={self.algorithm!r}, "
            f"relation={self.relation_name!r}, {status})"
        )
