"""One cold benchmark pass in a fresh process.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/worker.py --workload fig5a_ci --seed 0 --spawned-at <monotonic>
        [--setup-only] [--trace <chrome-trace.json>]

Imports ``repro`` from ``src/``, builds the workload's plan, runs it once on a
serial ``SweepEngine`` and prints one JSON object: host timings, peak RSS,
every run's outputs and, with ``--trace``, the per-layer span totals.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn
(a system-wide clock), so ``setup_s`` includes interpreter start.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sum(results, key: str) -> float:
    return float(sum(result.counters.get(key, 0.0) for result in results))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, results, summary, run_s: float) -> dict:
    """Per-layer self times and counts of a traced pass (``BENCHMARK.json`` names)."""
    from tracer import SPANS

    totals = tracer.totals()
    metrics = {}
    for name in SPANS:
        calls, own = totals.get(name, (0, 0.0))
        metrics[f"{name}_s"] = own
        metrics[f"{name}_calls"] = calls
    metrics["matching.greedy_batch_problems"] = tracer.measured.get("matching.greedy_batch", 0)
    metrics["core.mapping_solver_ratio"] = _ratio(
        _sum(results, "mapping_solver_pairs"), _sum(results, "mapping_pairs_total")
    )
    for kind in ("adjacency", "weight"):
        hits = _sum(results, f"hw_{kind}_cache_hits")
        metrics[f"core.hw_{kind}_hit_ratio"] = _ratio(
            hits, hits + _sum(results, f"hw_{kind}_cache_misses")
        )
    metrics["pipeline.block_write_events"] = _sum(results, "block_write_events")
    metrics["pipeline.weight_write_events"] = _sum(results, "weight_write_events")
    metrics["experiments.runs"] = summary["runs_executed"]
    hits = sum(v for k, v in summary.items() if k.startswith("artifact_") and k.endswith("_hits"))
    misses = sum(
        v for k, v in summary.items() if k.startswith("artifact_") and k.endswith("_misses")
    )
    metrics["experiments.artifact_hit_ratio"] = _ratio(hits, hits + misses)
    metrics["trace.unattributed_s"] = run_s - tracer.root_seconds()
    return metrics


def run_outputs(plan, sweep) -> dict:
    """Per-run outputs the output check compares, keyed by :func:`run_key`."""
    from workloads import run_key

    runs, failed = {}, []
    for spec in plan:
        key = run_key(spec)
        result = sweep.get(spec)
        if result is None:
            failed.append(key)
            continue
        runs[key] = {
            "train_acc": result.final_train_accuracy,
            "test_acc": result.final_test_accuracy,
            "loss": list(result.loss_history),
            "accuracy_history": list(result.train_accuracy_history)
            + list(result.test_accuracy_history),
            "epochs": result.epochs_run,
            "block_writes": result.counters.get("block_write_events", 0.0),
            "weight_writes": result.counters.get("weight_write_events", 0.0),
        }
    return {"runs": runs, "failed": failed, "complete": sweep.complete()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import repro.experiments  # noqa: F401  (the import is part of set-up)
    from repro.experiments.sweeps import SweepEngine
    from workloads import WORKLOADS

    plan = WORKLOADS[args.workload].plan(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    setup_s = time.monotonic() - args.spawned_at
    payload = {"setup_s": setup_s, "specs": len(plan), "numpy": numpy.__version__}
    if not args.setup_only:
        engine = SweepEngine(max_workers=1)
        start = time.perf_counter()
        sweep = engine.run(plan)
        run_s = time.perf_counter() - start
        payload.update(run_outputs(plan, sweep))
        payload["run_s"] = run_s
        payload["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            payload["layers"] = layer_metrics(
                tracer, list(sweep.results.values()), engine.summary(), run_s
            )
            tracer.write_chrome_trace(args.trace)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
