"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-fast --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --compare A.jsonl B.jsonl
    python3 perfbench/run.py --capture --workload teams-epinions --seed 0

A run starts a fresh interpreter per repetition (``child.py``) and keeps
starting repetitions until ``--seconds`` have passed (at least one).  With
``--trace 0`` it prints the ``end_to_end`` metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced repetitions and prints
the ``per_layer`` metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (medians with quartiles and sample counts, seed, check outcome) is
appended to ``perfbench/results/runs.jsonl`` (``--results`` picks another
file).

``--compare`` reads two such files and gives a verdict per (workload,
metric); ``--spread`` prints one file's run-to-run spreads; ``--capture``
writes the golden answers for one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

from summary import describe, quartiles, tail  # noqa: E402

#: A run must end within this many seconds; no repetition starts that the
#: previous one's duration says would overrun it.
RUN_BUDGET_S = 170.0

WORKLOADS = ("paper-fast", "teams-epinions", "stream-epinions", "scale-million")


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def _child(args, scratch: Path, index: int, trace: bool, extra: List[str]) -> dict:
    out = scratch / f"rep{index}.json"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--out", str(out),
        "--trace", "1" if trace else "0",
    ] + extra
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing: set iteration order, and with it the work done
    # per query, is then a function of the inputs alone.
    env["PYTHONHASHSEED"] = "0"
    # setup_s measures the parse, not a snapshot-cache hit.
    env.pop("REPRO_SNAPSHOT_CACHE_DIR", None)
    remaining = max(1.0, RUN_BUDGET_S - (time.monotonic() - args.started))
    # A session of its own, so a timeout also stops the child's pool workers.
    process = subprocess.Popen(
        command, cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = process.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"repetition {index} did not finish within {remaining:.0f} s")
    if code != 0 or not out.exists():
        raise RuntimeError(f"repetition {index} exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def _repetitions(args, scratch: Path) -> List[dict]:
    extra: List[str] = []
    if args.workload == "scale-million":
        edges = scratch / "million-edges.txt"
        _child(args, scratch, 0, False, ["--prepare", "--edges", str(edges)])
        extra = ["--edges", str(edges)]
    if args.capture:
        extra.append("--capture")
    reps: List[dict] = []
    measure_start = time.monotonic()
    plan = (False, True) if args.trace else (False,)
    while True:
        block_start = time.monotonic()
        for trace in plan:
            index = len(reps) + 1
            if trace:
                chrome = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
                reps.append(_child(args, scratch, index, True, extra + ["--chrome-trace", str(chrome)]))
            else:
                reps.append(_child(args, scratch, index, False, extra))
        now = time.monotonic()
        if args.capture or now - measure_start >= args.seconds:
            break
        if now - args.started + (now - block_start) > RUN_BUDGET_S - 10:
            break
    return reps


def _end_to_end(reps: List[dict]) -> Dict[str, dict]:
    setups = [seconds for rep in reps for seconds in rep["setup_s"]]
    found = {
        "wall_s": describe([rep["wall_s"] for rep in reps]),
        "setup_s": describe(setups),
        "peak_rss_mb": describe([rep["peak_rss_mb"] for rep in reps]),
    }
    return {name: dict(stats, value=stats["median"]) for name, stats in found.items()}


def _latencies(untraced: List[dict]) -> Dict[str, dict]:
    """Query and update latencies, timed from outside with tracing off."""
    queries = [seconds for rep in untraced for seconds in rep["query_s"]]
    updates = [seconds for rep in untraced for seconds in rep["update_s"]]
    tail_value, percentile = tail(queries)
    return {
        "queries_per_s": describe([len(rep["query_s"]) / sum(rep["query_s"]) for rep in untraced]),
        "query_p50_ms": describe([1000.0 * seconds for seconds in queries]),
        "query_tail_ms": {"median": 1000.0 * tail_value, "percentile": percentile, "n": len(queries)},
        # Only stream-epinions updates the graph; elsewhere this reads 0.
        "update_p50_ms": describe([1000.0 * seconds for seconds in updates] or [0.0]),
    }


def _per_layer(reps: List[dict]) -> Dict[str, dict]:
    traced = [rep for rep in reps if rep["traced"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    values: Dict[str, List[float]] = {}
    for rep in traced:
        for name, value in rep["layers"].items():
            values.setdefault(name, []).append(value)
    found = {name: describe(series) for name, series in values.items()}
    traced_wall = quartiles([rep["wall_s"] for rep in traced])[1]
    untraced_wall = quartiles([rep["wall_s"] for rep in untraced])[1]
    found["trace_overhead_frac"] = describe([traced_wall / untraced_wall - 1.0])
    found.update(_latencies(untraced))
    return {name: dict(stats, value=stats["median"]) for name, stats in found.items()}


def _check_layer_sum(reps: List[dict]) -> None:
    """Self times plus the untraced remainder must add up to the traced wall."""
    for rep in reps:
        if rep["traced"]:
            metrics = rep["layers"]
            total = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
            if abs(total - metrics["traced_wall_s"]) > 1e-6 * max(1.0, metrics["traced_wall_s"]):
                raise RuntimeError(
                    f"layer self times add up to {total}, not {metrics['traced_wall_s']}"
                )


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    shm_before = _shm_segments()
    try:
        reps = _repetitions(args, scratch)
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # Segments a killed or leaking child left behind: counted below as
        # failures, then removed so they do not outlive the run.
        leaked = sorted(_shm_segments() - shm_before)
        for name in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps) + len(leaked)
    digests = {rep["answers_digest"] for rep in reps}
    if len(digests) > 1:
        failed += len(reps)
    if args.trace:
        _check_layer_sum(reps)
        details = _per_layer(reps)
        wanted = spec["per_layer"]
    else:
        details = _end_to_end(reps)
        wanted = spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": details[entry["name"]]["value"], "unit": entry["unit"]}
        for entry in wanted
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "repetitions": len(reps),
        "checked_against": sorted({rep["checked_against"] for rep in reps}),
        "mismatches": sorted({m for rep in reps for m in rep["mismatches"]}),
        "leaked_shm": leaked,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "metrics": {name: dict(details[name], unit=metrics[name]["unit"]) for name in metrics},
        "missing_targets": sorted({t for rep in reps for t in rep.get("missing_targets", [])}),
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    results_file = Path(args.results) if args.results else RESULTS / "runs.jsonl"
    with open(results_file, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    for name, entry in record["metrics"].items():
        extra = ""
        if "q1" in entry:
            extra = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n {entry['n']}]"
        if "percentile" in entry:
            extra = f"  [p{entry['percentile']} of {entry['n']}]"
        print(f"{args.workload} seed={args.seed} {name} = {entry['value']:.6g} {entry['unit']}{extra}")
    if args.trace:
        print("note: pool worker time appears as exec.dispatch.self_s")
    print(
        f"checked {attempted} answers against {', '.join(record['checked_against'])}: "
        f"{failed} failed"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the paper's workloads.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append the run record here")
    parser.add_argument("--capture", action="store_true",
                        help="write golden answers for this workload and seed")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two result files")
    parser.add_argument("--spread", metavar="RESULTS",
                        help="print each metric's run-to-run spread in a result file")
    args = parser.parse_args()
    args.started = time.monotonic()
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    if args.spread:
        import compare

        return compare.spread_main(args.spread, ROOT / "BENCHMARK.json")
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
