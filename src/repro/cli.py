"""Command-line interface for the library.

Installed as ``repro-teams`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.  Sub-commands:

* ``datasets`` — list the available datasets and their Table-1 statistics;
* ``compatibility`` — print the compatibility statistics of one dataset;
* ``team`` — form a team for a task given as a comma-separated skill list;
* ``reproduce`` — run the full experiment suite (all tables and figures);
* ``table2`` / ``figure2`` — run just that experiment;
* ``streaming`` — run the dynamic-graph workload: edge churn interleaved with
  team-formation queries over the generation-keyed caches;
* ``snapshot save|load|info`` — write a dataset's indexed graph to a
  ``.store`` snapshot file, load one back (memory-mapped by default), or
  inspect a file's header and plane layout without reading a plane
  (``info --json`` for machines);
* ``analyze`` — run the project's invariant lint rules (stdlib-AST static
  analysis, see :mod:`repro.analysis`) over the source tree; ``--strict``
  is the CI gate, ``--json`` emits the ``analysis.json`` artifact.

The experiment commands (``table2``, ``figure2``, ``streaming`` and
``reproduce``) take ``--workers N`` / ``--chunk-size M`` to fan the
per-source kernel sweeps out over a process pool
(:class:`repro.exec.ExecutionPolicy`), and ``--snapshot-store DIR`` to pick
the directory pool snapshots are published into (default: ``/dev/shm``);
the default is serial, so existing invocations are unchanged, and results
are identical in every mode.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.compatibility import (
    RELATION_NAMES,
    CompatibilityRelation,
    make_relation,
    pair_statistics,
)
from repro.datasets import (
    ON_DEMAND_DATASETS,
    available,
    dataset_statistics,
    load_dataset,
)
from repro.experiments import (
    DatasetConfig,
    StreamingConfig,
    build_dataset_context,
    default_config,
    fast_config,
    run_all,
    run_figure2ab,
    run_figure2cd,
    run_streaming,
    run_table2,
)
from repro.signed.graph import SignedGraph
from repro.skills import Task
from repro.teams import ALGORITHM_NAMES, TeamFormationProblem, run_algorithm
from repro.utils.tables import format_table


def _workers_argument(value: str) -> int:
    """Validate ``--workers`` at parse time with a message that explains it.

    Without this, a bad value would only surface at the first kernel
    dispatch, as an opaque ``ValueError`` out of the policy/multiprocessing
    internals.  The rule (and its message) lives in
    :func:`repro.exec.policy.validate_workers`, shared with
    :class:`repro.exec.ExecutionPolicy` so the two surfaces cannot drift.
    """
    from repro.exec.policy import validate_workers

    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer worker count, got {value!r}"
        ) from None
    try:
        validate_workers(workers)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return workers


def _chunk_size_argument(value: str) -> int:
    """Validate ``--chunk-size``: a positive source count per worker task."""
    from repro.exec.policy import validate_chunk_size

    try:
        chunk_size = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer chunk size, got {value!r}"
        ) from None
    try:
        validate_chunk_size(chunk_size, name="chunk-size")
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return chunk_size


def _snapshot_store_argument(value: str) -> str:
    """Validate ``--snapshot-store``: an existing directory for snapshot files.

    Shares its rule with :meth:`repro.exec.ExecutionPolicy.__post_init__` via
    :func:`repro.exec.policy.validate_snapshot_store`, so the policy layer and
    the CLI reject the same values with the same message.
    """
    from repro.exec.policy import validate_snapshot_store

    try:
        validate_snapshot_store(value, name="snapshot-store")
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _snapshot_file_argument(value: str) -> str:
    """Validate a snapshot path that must already exist (``load`` / ``info``)."""
    import os

    if not value:
        raise argparse.ArgumentTypeError("expected a snapshot file path")
    if not os.path.isfile(value):
        raise argparse.ArgumentTypeError(f"snapshot file does not exist: {value!r}")
    return value


def _snapshot_output_argument(value: str) -> str:
    """Validate a snapshot output path: its parent directory must exist."""
    import os

    if not value:
        raise argparse.ArgumentTypeError("expected an output file path")
    parent = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"output directory does not exist: {parent!r} (create it first)"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-teams",
        description="Forming compatible teams in signed networks (EDBT 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list datasets and their statistics")
    datasets_parser.add_argument("--seed", type=int, default=None, help="generation seed override")
    datasets_parser.add_argument("--scale", type=float, default=None, help="scale override")

    compat_parser = subparsers.add_parser(
        "compatibility", help="compatibility statistics for one dataset"
    )
    compat_parser.add_argument("dataset", choices=sorted(available()))
    compat_parser.add_argument(
        "--relations",
        default="SPA,SPM,SPO,SBPH,NNE",
        help="comma-separated relation names (default: SPA,SPM,SPO,SBPH,NNE)",
    )
    compat_parser.add_argument("--seed", type=int, default=None)
    compat_parser.add_argument("--scale", type=float, default=None)

    team_parser = subparsers.add_parser("team", help="form a team for a task")
    team_parser.add_argument("dataset", choices=sorted(available()))
    team_parser.add_argument("skills", help="comma-separated list of required skills")
    team_parser.add_argument("--relation", default="SPO", help=f"one of {list(RELATION_NAMES)}")
    team_parser.add_argument("--algorithm", default="LCMD", help=f"one of {list(ALGORITHM_NAMES)}")
    team_parser.add_argument("--seed", type=int, default=None)
    team_parser.add_argument("--scale", type=float, default=None)

    def add_execution_flags(subparser: argparse.ArgumentParser) -> None:
        """``--workers`` / ``--chunk-size``: the ExecutionPolicy pool knobs."""
        subparser.add_argument(
            "--workers",
            type=_workers_argument,
            default=0,
            help="worker processes for per-source kernel sweeps "
            "(0 = serial, the default; -1 = one per CPU)",
        )
        subparser.add_argument(
            "--chunk-size",
            type=_chunk_size_argument,
            default=None,
            help="sources per worker task (default: derived per dispatch)",
        )
        subparser.add_argument(
            "--snapshot-store",
            type=_snapshot_store_argument,
            default=None,
            metavar="DIR",
            help="existing directory to publish pool snapshot files into "
            "(default: /dev/shm when writable, else the temp directory)",
        )

    def add_scale_flags(subparser: argparse.ArgumentParser) -> None:
        """Dataset-selection overrides: run an experiment off the paper grid.

        ``--datasets million --scale 1.0 --sources 8`` runs the experiment on
        the CSR-only 1M-node synthetic benchmark instead of the paper's three
        stand-ins.
        """
        subparser.add_argument(
            "--datasets",
            default=None,
            metavar="NAMES",
            help="comma-separated dataset names replacing the configured grid "
            f"(available: {', '.join(sorted(available()))})",
        )
        subparser.add_argument(
            "--scale", type=float, default=None, help="dataset scale override"
        )
        subparser.add_argument(
            "--dataset-seed", type=int, default=None, help="dataset generation seed"
        )
        subparser.add_argument(
            "--relations",
            default=None,
            metavar="NAMES",
            help="comma-separated relation names replacing the configured set "
            f"(available: {', '.join(RELATION_NAMES)})",
        )
        subparser.add_argument(
            "--sources",
            type=int,
            default=None,
            metavar="N",
            help="BFS sources sampled for pairwise statistics on large graphs",
        )
        subparser.add_argument(
            "--skill-pairs",
            type=int,
            default=None,
            metavar="N",
            help="skill pairs sampled for the skill-compatibility statistics",
        )

    reproduce_parser = subparsers.add_parser("reproduce", help="run all tables and figures")
    reproduce_parser.add_argument(
        "--fast", action="store_true", help="use the miniature configuration"
    )
    add_execution_flags(reproduce_parser)

    table2_parser = subparsers.add_parser(
        "table2", help="run Table 2 (compatibility-relation comparison) only"
    )
    table2_parser.add_argument(
        "--fast", action="store_true", help="use the miniature configuration"
    )
    add_scale_flags(table2_parser)
    add_execution_flags(table2_parser)

    figure2_parser = subparsers.add_parser(
        "figure2", help="run Figure 2 (team-formation panels) only"
    )
    figure2_parser.add_argument(
        "--fast", action="store_true", help="use the miniature configuration"
    )
    figure2_parser.add_argument(
        "--panels",
        choices=("ab", "cd", "all"),
        default="all",
        help="which Figure-2 panels to run (default: all)",
    )
    add_scale_flags(figure2_parser)
    add_execution_flags(figure2_parser)

    streaming_parser = subparsers.add_parser(
        "streaming", help="edge churn interleaved with team-formation queries"
    )
    streaming_parser.add_argument(
        "dataset", nargs="?", default=None, choices=sorted(available())
    )
    streaming_parser.add_argument(
        "--datasets",
        default=None,
        metavar="NAME",
        dest="datasets_option",
        help="dataset name (alternative to the positional argument, matching "
        f"the other workloads' --datasets flag; available: {', '.join(sorted(available()))})",
    )
    streaming_parser.add_argument(
        "--csr-only",
        action="store_true",
        help="require the run to stay dict-free (fails if any code path "
        "materialises the CSR facade's adjacency dicts; the check is "
        "automatic when the dataset loads as a CSR facade, e.g. million)",
    )
    streaming_parser.add_argument("--relation", default="SPO", help=f"one of {list(RELATION_NAMES)}")
    streaming_parser.add_argument(
        "--algorithms",
        default="LCMD,LCMC,RFMD,RFMC",
        help="comma-separated algorithm names run each round",
    )
    streaming_parser.add_argument("--rounds", type=int, default=8, help="churn+query rounds")
    streaming_parser.add_argument(
        "--churn", type=int, default=40, help="edge events applied per round"
    )
    streaming_parser.add_argument(
        "--tasks", type=int, default=2, help="team-formation queries per round"
    )
    streaming_parser.add_argument("--task-size", type=int, default=3, help="skills per task")
    streaming_parser.add_argument("--seed", type=int, default=2020, help="workload seed")
    streaming_parser.add_argument("--dataset-seed", type=int, default=None)
    streaming_parser.add_argument("--scale", type=float, default=None)
    add_execution_flags(streaming_parser)

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="save, load or inspect on-disk graph snapshots"
    )
    snapshot_subparsers = snapshot_parser.add_subparsers(
        dest="snapshot_command", required=True
    )
    snapshot_save = snapshot_subparsers.add_parser(
        "save", help="index a dataset's graph and save it as a snapshot file"
    )
    snapshot_save.add_argument("dataset", choices=sorted(available()))
    snapshot_save.add_argument("path", type=_snapshot_output_argument)
    snapshot_save.add_argument("--seed", type=int, default=None)
    snapshot_save.add_argument("--scale", type=float, default=None)
    snapshot_load = snapshot_subparsers.add_parser(
        "load", help="load a snapshot (memory-mapped) and print a summary"
    )
    snapshot_load.add_argument("path", type=_snapshot_file_argument)
    snapshot_load.add_argument(
        "--no-mmap",
        action="store_true",
        help="read the planes into memory instead of memory-mapping them",
    )
    snapshot_info_parser = snapshot_subparsers.add_parser(
        "info", help="print a snapshot's header and plane layout (no plane is read)"
    )
    snapshot_info_parser.add_argument("path", type=_snapshot_file_argument)
    snapshot_info_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the header and plane layout as a JSON document",
    )

    # The analyze flags live on repro.analysis.cli's own parser (shared with
    # ``python -m repro.analysis``); everything after "analyze" passes through
    # so the two entry points cannot drift.
    analyze_parser = subparsers.add_parser(
        "analyze",
        help="run the project's invariant lint rules (static analysis)",
        add_help=False,
    )
    analyze_parser.add_argument("analyze_args", nargs=argparse.REMAINDER)
    return parser


def _experiment_config(arguments: argparse.Namespace):
    """Build the experiment configuration an experiment command asked for.

    Beyond ``--fast`` and the execution flags, the scale flags
    (``--datasets`` / ``--scale`` / ``--dataset-seed`` / ``--relations`` /
    ``--sources`` / ``--skill-pairs``) rewrite the dataset grid, so e.g.
    ``table2 --datasets million --sources 8`` runs Table 2 on the 1M-node
    CSR-only benchmark instead of the paper's three stand-ins.
    """
    from dataclasses import replace as dataclass_replace

    from repro.experiments.config import DatasetConfig

    config = fast_config() if arguments.fast else default_config()

    names_argument = getattr(arguments, "datasets", None)
    if names_argument:
        names = [name.strip().lower() for name in names_argument.split(",") if name.strip()]
        if not names:
            raise SystemExit("error: --datasets needs at least one dataset name")
        chosen = []
        for name in names:
            try:
                chosen.append(config.dataset(name))
            except KeyError:
                # Not on the configured grid (e.g. "million"): start from the
                # registry defaults (seed=None lets the factory pick its own).
                chosen.append(DatasetConfig(name=name, seed=None))
        config = dataclass_replace(
            config, datasets=tuple(chosen), team_dataset=names[0]
        )

    overrides = {}
    if getattr(arguments, "dataset_seed", None) is not None:
        overrides["seed"] = arguments.dataset_seed
    if getattr(arguments, "scale", None) is not None:
        overrides["scale"] = arguments.scale
    if getattr(arguments, "sources", None) is not None:
        overrides["num_sampled_sources"] = arguments.sources
    if getattr(arguments, "skill_pairs", None) is not None:
        overrides["num_sampled_skill_pairs"] = arguments.skill_pairs
    if overrides:
        config = dataclass_replace(
            config,
            datasets=tuple(
                dataclass_replace(dataset, **overrides) for dataset in config.datasets
            ),
        )

    relations_argument = getattr(arguments, "relations", None)
    if relations_argument:
        relations = tuple(
            name.strip().upper()
            for name in relations_argument.split(",")
            if name.strip()
        )
        if not relations:
            raise SystemExit("error: --relations needs at least one relation name")
        config = dataclass_replace(
            config,
            table2_relations=relations,
            # The team experiments cannot run the exponential exact SBP.
            team_relations=tuple(name for name in relations if name != "SBP")
            or relations,
        )

    snapshot_store = getattr(arguments, "snapshot_store", None)
    if arguments.workers or arguments.chunk_size is not None or snapshot_store:
        config = config.with_execution(
            workers=arguments.workers,
            chunk_size=arguments.chunk_size,
            snapshot_store=snapshot_store,
        )
    return config


def _command_datasets(arguments: argparse.Namespace) -> int:
    rows = []
    skipped = []
    for name in sorted(available()):
        if name in ON_DEMAND_DATASETS:
            skipped.append(name)
            continue
        dataset = load_dataset(name, seed=arguments.seed, scale=arguments.scale)
        stats = dataset_statistics(dataset)
        rows.append(stats.as_row())
    headers = ["dataset", "#users", "#edges", "#neg edges", "diameter", "#skills"]
    print(format_table(headers, rows, title="Available datasets"))
    for name in skipped:
        print(
            f"(not generated: {name!r} — scale dataset, pass it explicitly, "
            f'e.g. "table2 --datasets {name} --scale 0.01")'
        )
    return 0


def _capped_relation(name: str, graph: SignedGraph) -> CompatibilityRelation:
    """``make_relation`` with the experiments' expansion cap on SBP/SBPH.

    The relation's own default makes SBP statistics on slashdot take over an
    hour, and one exact team search on it about 19 s.
    """
    kwargs = {}
    if name.upper() in ("SBP", "SBPH"):
        kwargs["max_expansions"] = DatasetConfig.sbp_max_expansions
    return make_relation(name, graph, **kwargs)


def _command_compatibility(arguments: argparse.Namespace) -> int:
    dataset = load_dataset(arguments.dataset, seed=arguments.seed, scale=arguments.scale)
    relation_names = [name.strip().upper() for name in arguments.relations.split(",") if name.strip()]
    rows = []
    for name in relation_names:
        relation = _capped_relation(name, dataset.graph)
        stats = pair_statistics(relation)
        rows.append([name, f"{stats.percentage:.2f}", stats.evaluated_pairs, stats.sampled])
    headers = ["relation", "compatible pairs %", "pairs evaluated", "sampled"]
    print(format_table(headers, rows, title=f"Compatibility on {dataset.name}"))
    return 0


def _command_team(arguments: argparse.Namespace) -> int:
    dataset = load_dataset(arguments.dataset, seed=arguments.seed, scale=arguments.scale)
    skills = [skill.strip() for skill in arguments.skills.split(",") if skill.strip()]
    if not skills:
        print("error: the task needs at least one skill", file=sys.stderr)
        return 2
    relation = _capped_relation(arguments.relation, dataset.graph)
    try:
        problem = TeamFormationProblem(dataset.graph, dataset.skills, relation, Task(skills))
    except Exception as error:  # surfacing InfeasibleTaskError and friends
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_algorithm(arguments.algorithm, problem)
    if not result.solved:
        print(
            f"No compatible team found for {skills} under {relation.name} "
            f"with {arguments.algorithm}."
        )
        return 1
    members = sorted(result.team, key=repr)
    print(f"Team ({len(members)} members, diameter {result.cost:g}) under {relation.name}:")
    for member in members:
        member_skills = sorted(
            str(skill) for skill in dataset.skills.skills_of(member) if skill in problem.task
        )
        print(f"  {member}: covers {', '.join(member_skills) or '(support member)'}")
    return 0


def _command_reproduce(arguments: argparse.Namespace) -> int:
    run_all(_experiment_config(arguments))
    return 0


def _command_table2(arguments: argparse.Namespace) -> int:
    result = run_table2(_experiment_config(arguments))
    print(result.as_text())
    return 0


def _command_figure2(arguments: argparse.Namespace) -> int:
    config = _experiment_config(arguments)
    # One shared context (relation caches included) across both panel pairs.
    context = build_dataset_context(config, config.team_dataset)
    sections: List[str] = []
    if arguments.panels in ("ab", "all"):
        sections.append(run_figure2ab(config, context).as_text())
    if arguments.panels in ("cd", "all"):
        sections.append(run_figure2cd(config, context).as_text())
    print("\n\n".join(sections))
    return 0


def _command_streaming(arguments: argparse.Namespace) -> int:
    algorithms = tuple(
        name.strip().upper() for name in arguments.algorithms.split(",") if name.strip()
    )
    if not algorithms:
        print("error: at least one algorithm is required", file=sys.stderr)
        return 2
    dataset = arguments.dataset or arguments.datasets_option
    if dataset is None:
        print(
            "error: a dataset is required (positional or --datasets)",
            file=sys.stderr,
        )
        return 2
    if (
        arguments.dataset is not None
        and arguments.datasets_option is not None
        and arguments.dataset != arguments.datasets_option
    ):
        print(
            "error: positional dataset and --datasets disagree",
            file=sys.stderr,
        )
        return 2
    if dataset.lower() not in available():
        print(
            f"error: unknown dataset {dataset!r} "
            f"(available: {', '.join(sorted(available()))})",
            file=sys.stderr,
        )
        return 2
    config = StreamingConfig(
        dataset=dataset,
        dataset_seed=arguments.dataset_seed,
        scale=arguments.scale,
        relation=arguments.relation.upper(),
        workers=arguments.workers,
        chunk_size=arguments.chunk_size,
        snapshot_store=arguments.snapshot_store,
        algorithms=algorithms,
        num_rounds=arguments.rounds,
        churn_per_round=arguments.churn,
        tasks_per_round=arguments.tasks,
        task_size=arguments.task_size,
        seed=arguments.seed,
        csr_only=True if arguments.csr_only else None,
    )
    report = run_streaming(config, verbose=True)
    print(report.as_text())
    return 0


def _command_snapshot(arguments: argparse.Namespace) -> int:
    if arguments.snapshot_command == "save":
        from repro.signed.csr import CSRSignedGraph
        from repro.signed.store import save_snapshot, snapshot_info

        dataset = load_dataset(
            arguments.dataset, seed=arguments.seed, scale=arguments.scale
        )
        graph = dataset.graph
        if hasattr(graph, "csr_view"):
            # CSR facades (and plain SignedGraph) snapshot dict-free / cached.
            csr = graph.csr_view()
        else:
            csr = CSRSignedGraph.from_signed_graph(graph)
        save_snapshot(csr, arguments.path)
        info = snapshot_info(arguments.path)
        print(
            f"Saved {dataset.name}: {info['num_nodes']} nodes, "
            f"{info['num_edges']} edges, {info['file_nbytes']} bytes "
            f"-> {arguments.path}"
        )
        return 0
    if arguments.snapshot_command == "load":
        from repro.signed.store import load_snapshot

        csr = load_snapshot(arguments.path, mmap=not arguments.no_mmap)
        mode = "read into memory" if arguments.no_mmap else "memory-mapped"
        print(
            f"Loaded snapshot ({mode}): {csr.number_of_nodes()} nodes, "
            f"{csr.number_of_edges()} edges, generation {csr.generation}"
        )
        return 0
    from repro.signed.store import snapshot_info

    info = snapshot_info(arguments.path)
    if arguments.json:
        import json

        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    rows = [[key, str(value)] for key, value in info.items() if key != "planes"]
    rows += [
        [
            f"plane:{name}",
            f"dtype={plane['dtype']} count={plane['count']} offset={plane['offset']}",
        ]
        for name, plane in info["planes"].items()
    ]
    print(format_table(["field", "value"], rows, title=f"Snapshot {arguments.path}"))
    return 0


def _command_analyze(arguments: argparse.Namespace) -> int:
    from repro.analysis.cli import main as analyze_main

    return analyze_main(arguments.analyze_args, prog="repro-teams analyze")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "analyze":
        # Hand everything after "analyze" to the analysis parser directly:
        # argparse.REMAINDER refuses remainders that start with an option
        # string ("analyze --strict"), so the passthrough happens pre-parse.
        from repro.analysis.cli import main as analyze_main

        return analyze_main(argv[1:], prog="repro-teams analyze")
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "datasets": _command_datasets,
        "compatibility": _command_compatibility,
        "team": _command_team,
        "reproduce": _command_reproduce,
        "table2": _command_table2,
        "figure2": _command_figure2,
        "streaming": _command_streaming,
        "snapshot": _command_snapshot,
        "analyze": _command_analyze,
    }
    return handlers[arguments.command](arguments)


if __name__ == "__main__":
    sys.exit(main())
