"""One repetition of one workload in a fresh interpreter.

``run.py`` starts this script once per repetition, so the program's
per-process state (generational LRU caches, the persistent worker pool)
starts cold every time.  It writes one JSON document to ``--out``:

* ``setup_s``, ``wall_s``, ``query_s``, ``update_s`` — raw timings;
* ``peak_rss_mb`` — this process's ``ru_maxrss``, read right after the
  measured phase (the pool's workers are separate processes);
* ``attempted`` / ``failed`` / ``mismatches`` — answers checked against the
  golden capture for this seed, or against the workload's invariants when
  no capture exists;
* ``answers_digest`` — so repetitions of one run can be compared;
* with ``--trace 1``, ``layers`` — the per-layer metrics (see layers.py).

``--prepare`` writes the ``scale-million`` edge list instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
#: Set-ups per untraced repetition; ``setup_s`` is their median.
SETUP_REPS = 5


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN / f"{workload}-seed{seed}.json"


def _normalise(answers):
    """Answers as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(answers, sort_keys=True))


def _instance_recorder(instances, kind):
    def make(original, _name):
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            instances[kind].append(self)

        return init

    return make


def _check(outcome, workload: str, seed: int):
    """Return ``(attempted, mismatched op ids, checked_against)``."""
    answers = _normalise(outcome.answers)
    path = golden_path(workload, seed)
    if path.exists():
        golden = json.loads(path.read_text(encoding="utf-8"))["answers"]
        keys = sorted(set(golden) | set(answers))
        return len(keys), [key for key in keys if golden.get(key) != answers.get(key)], "golden"
    checks = outcome.invariants()
    return len(checks), sorted(key for key, ok in checks.items() if not ok), "invariants"


def run(args) -> dict:
    from tracer import Patcher, Recorder, Tracer

    import workloads

    patcher = Patcher()
    recorder = Recorder()
    tracer = instances = None
    if args.trace:
        import layers

        tracer = Tracer()
        instances = {"relation": [], "oracle": [], "engine": []}
        for target in layers.targets():
            patcher.patch(target.spec, tracer.wrapper_for(target))
        for kind, spec in (
            ("relation", "repro.compatibility.base:CompatibilityRelation.__init__"),
            ("oracle", "repro.compatibility.distance:DistanceOracle.__init__"),
            ("engine", "repro.compatibility.engine:CompatibilityEngine.__init__"),
        ):
            patcher.patch(spec, _instance_recorder(instances, kind))
        patcher.rewrite_defaults()
        tracer.start()
    function = workloads.WORKLOADS[args.workload]
    extra = {"edges_path": args.edges} if args.workload == "scale-million" else {}
    # A traced repetition sets up once, so the trace covers one set-up.
    setup_reps = 1 if args.trace else SETUP_REPS
    outcome = function(args.seed, recorder, patcher, setup_reps, **extra)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.stop()
    patcher.restore()

    attempted, mismatches, checked_against = _check(outcome, args.workload, args.seed)
    digest = hashlib.sha256(
        json.dumps(_normalise(outcome.answers), sort_keys=True).encode("utf-8")
    ).hexdigest()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": outcome.setup_s,
        "wall_s": outcome.wall_s,
        "query_s": outcome.query_s,
        "update_s": outcome.update_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(mismatches),
        "mismatches": mismatches[:20],
        "checked_against": checked_against,
        "answers_digest": digest,
    }
    if args.capture:
        GOLDEN.mkdir(exist_ok=True)
        golden_path(args.workload, args.seed).write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "answers": _normalise(outcome.answers)}, indent=1, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    if tracer is not None:
        import layers

        result["layers"] = layers.layer_metrics(tracer, instances)
        result["missing_targets"] = patcher.missing
        if args.chrome_trace:
            tracer.write_chrome_trace(
                args.chrome_trace,
                {"workload": args.workload, "seed": args.seed,
                 "note": "pool worker time appears as exec.dispatch self time"},
            )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--edges", help="edge list for scale-million")
    parser.add_argument("--chrome-trace", help="write Chrome trace-event JSON here")
    parser.add_argument("--capture", action="store_true", help="write the golden answers")
    parser.add_argument("--prepare", action="store_true", help="only write --edges")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    try:
        if args.prepare:
            import workloads

            workloads.write_million_edges(args.seed, args.edges)
            result = {"prepared": args.edges}
        else:
            result = run(args)
    except Exception:  # reported to the parent, which fails the run
        traceback.print_exc()
        return 1
    finally:
        try:
            from repro.exec import shutdown_pools
        except ImportError:
            pass
        else:
            shutdown_pools()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    os.environ.pop("REPRO_SNAPSHOT_CACHE_DIR", None)
    sys.exit(main())
