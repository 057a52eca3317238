"""repro — reproduction of "Forming Compatible Teams in Signed Networks" (EDBT 2020).

The package provides:

* :mod:`repro.signed` — the signed-graph substrate (structure, I/O, generators,
  structural balance, signed path algorithms including the paper's Algorithm 1);
* :mod:`repro.skills` — skill assignments, tasks and skill generators;
* :mod:`repro.compatibility` — the DPE / SPA / SPM / SPO / SBP / SBPH / NNE
  compatibility relations, pairwise statistics and distances;
* :mod:`repro.teams` — the TFSN problem, the generic greedy Algorithm 2 with
  its skill/user selection policies (LCMD, LCMC, ...), an exact solver, and
  the unsigned RarestFirst baseline;
* :mod:`repro.exec` — the execution-policy layer: one
  :class:`~repro.exec.ExecutionPolicy` per stack bundling cache budgets
  and (optional) process-pool parallelism for the per-source CSR kernels,
  with serial/pooled results guaranteed bit-identical;
* :mod:`repro.datasets` — synthetic stand-ins for the paper's datasets plus
  loaders for the real SNAP files;
* :mod:`repro.experiments` — runnable reproductions of every table and figure
  of the paper's evaluation section.

Quickstart
----------
>>> from repro import datasets, compatibility, teams
>>> from repro.skills import Task
>>> dataset = datasets.toy_dataset()
>>> relation = compatibility.make_relation("SPO", dataset.graph)
>>> problem = teams.TeamFormationProblem(
...     dataset.graph, dataset.skills, relation, Task(["python", "databases"])
... )
>>> result = teams.lcmd(problem)
>>> result.solved
True
"""

from repro import compatibility, datasets, exceptions, signed, skills, teams, utils
from repro import exec as exec  # noqa: PLC0414 - re-export the subpackage explicitly

__version__ = "1.0.0"

__all__ = [
    "compatibility",
    "datasets",
    "exceptions",
    "exec",
    "signed",
    "skills",
    "teams",
    "utils",
    "__version__",
]
