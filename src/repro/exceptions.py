"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors related to signed graphs."""


class NodeNotFoundError(GraphError, KeyError):
    """Raised when an operation references a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class InvalidSignError(GraphError, ValueError):
    """Raised when an edge sign is neither ``+1`` nor ``-1``."""

    def __init__(self, sign: object) -> None:
        super().__init__(f"edge sign must be +1 or -1, got {sign!r}")
        self.sign = sign


class SkillError(ReproError):
    """Base class for errors related to skills and skill assignments."""


class UnknownSkillError(SkillError, KeyError):
    """Raised when a task or query references a skill absent from the universe."""

    def __init__(self, skill: object) -> None:
        super().__init__(f"skill {skill!r} is not in the skill universe")
        self.skill = skill


class CompatibilityError(ReproError):
    """Base class for errors raised by compatibility relations."""


class UnknownRelationError(CompatibilityError, KeyError):
    """Raised when looking up a compatibility relation by an unknown name."""

    def __init__(self, name: object) -> None:
        super().__init__(
            f"unknown compatibility relation {name!r}; see repro.compatibility.RELATION_NAMES"
        )
        self.name = name


class TeamFormationError(ReproError):
    """Base class for errors raised during team formation."""


class InfeasibleTaskError(TeamFormationError):
    """Raised when a task cannot be covered at all (some skill has no owner)."""

    def __init__(self, missing_skills: object) -> None:
        super().__init__(f"no user possesses the skill(s): {sorted(missing_skills)!r}")
        self.missing_skills = set(missing_skills)


class DatasetError(ReproError):
    """Base class for dataset loading / generation errors."""


class UnknownDatasetError(DatasetError, KeyError):
    """Raised when looking up a dataset by an unknown name."""

    def __init__(self, name: object) -> None:
        super().__init__(f"unknown dataset {name!r}; see repro.datasets.available()")
        self.name = name
