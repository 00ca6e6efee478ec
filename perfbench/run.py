"""FARe reproduction benchmark: cold, serial passes of a named workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5a_ci --seed 0 --seconds 24 --trace 0

One run spawns a few set-up-only processes, then one cold pass per instance
of the workload (``workloads.instance_seeds``), each in a fresh process
(``worker.py``) so the result memo, the artifact cache and the normalisation
LRUs start cold, on a serial ``SweepEngine`` with BLAS/OpenMP pinned to one
thread.  Every pass's outputs are checked (``checks.py``).  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the per-layer ones, from a pass of the first instance whose
layer calls are wrapped in spans (``tracer.py``) plus an untraced pass of the
same instance for the tracing overhead.  The last stdout line is one JSON
object; the machine fingerprint, every pass's figures and the Chrome trace
go to ``perfbench/out/`` (untracked).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the benchmark writes only under perfbench/out

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

from checks import check_pass, load_reference
from workloads import WORKLOADS, instance_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up-only processes spawned before the passes (``setup_s`` is a median).
SETUP_PROBES = 5
#: Hard wall budget of one benchmark invocation, below the 180 s limit.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached (as a user's checkout would) but only under OUT.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def spawn(workload: str, seed: int, timeout: float, extra=()) -> dict:
    """Run one worker process; its JSON payload, or ``{"error": ...}``."""
    started = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    command += ["--seed", str(seed), "--spawned-at", repr(started), *extra]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"seed": seed, "error": f"exit {proc.returncode}: {tail[0]}"}
    payload = json.loads(lines[-1])
    payload["seed"] = seed
    return payload


def fingerprint(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def end_to_end(passes, setups) -> dict:
    runs = [run for p in passes for run in p["runs"].values()]
    return {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "test_acc_mean": statistics.fmean(run["test_acc"] for run in runs),
        "sim_block_writes": sum(run["block_writes"] for run in runs) / len(passes),
    }


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="FARe reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seed < 0:
        return fail("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = wanted["per_layer"] if args.trace else wanted["end_to_end"]
    OUT.mkdir(exist_ok=True)
    begin = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - begin)

    seeds = instance_seeds(args.workload, args.seed, args.seconds)
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(args.workload, seeds[0], remaining(), ["--setup-only"])
        if "error" in probe:
            return fail(f"set-up of {args.workload} failed: {probe['error']}")
        setups.append(probe["setup_s"])
    specs = probe["specs"]
    references = {seed: load_reference(args.workload, seed) for seed in seeds}

    traced = None
    if args.trace:
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        traced = spawn(args.workload, seeds[0], remaining(), ["--trace", str(trace_path)])
        seeds = seeds[:1]
    passes = [spawn(args.workload, seed, remaining()) for seed in seeds]

    problems = []
    for outputs in passes + ([traced] if traced else []):
        if "error" in outputs:
            problems.append({"seed": outputs["seed"], "error": outputs["error"], "runs": specs})
            continue
        failed = check_pass(outputs, references[outputs["seed"]])
        if failed:
            problems.append({"seed": outputs["seed"], "failed": failed, "runs": len(failed)})
    attempted = specs * (len(passes) + (1 if traced else 0))
    failed_runs = sum(problem["runs"] for problem in problems)

    good = [p for p in passes if "error" not in p]
    values = {}
    if good:
        setups += [p["setup_s"] for p in good]
        values = end_to_end(good, setups)
    if traced and "error" not in traced and good:
        values.update(traced["layers"])
        values["trace.overhead_s"] = traced["run_s"] - values["run_s"]
    missing = [m["name"] for m in wanted if m["name"] not in values]

    machine = fingerprint(probe["numpy"])
    referenced = [seed for seed in seeds if references[seed] is not None]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "instance_seeds": seeds,
        "referenced_seeds": referenced,
        "pass_run_s": [p.get("run_s") for p in passes],
        "setup_samples_s": setups,
        "problems": problems,
        "metrics": values,
    }
    if traced and "error" not in traced:
        record["traced_run_s"] = traced["run_s"]
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(
        f"workload {args.workload} seed {args.seed}: {len(passes)} cold passes of "
        f"{specs} runs on RunSpec seeds {seeds} ({len(referenced)} with a stored reference)"
    )
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for metric in wanted:
        value = values.get(metric["name"], float("nan"))
        print(
            f"  {metric['name']:34s} {value:>14.6g} {metric['unit']:8s} "
            f"({metric['better']} is better)"
        )
    ratio = failed_runs / max(attempted, 1)
    print(f"  {'failed_ratio':34s} {ratio:>14.6g} {'fraction':8s} (lower is better)")
    for problem in problems:
        print(f"  FAILED: {json.dumps(problem)[:400]}")
    if missing:
        print(f"  FAILED: metrics not produced: {missing}")
    print(f"details: {out_path.relative_to(ROOT)}")
    result = {
        "correct": not problems and not missing,
        "attempted": max(attempted, 1),
        "failed": failed_runs,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
