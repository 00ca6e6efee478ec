"""Regenerate the output-check references from fresh benchmark passes.

Usage (from the root of a checkout)::

    python3 perfbench/make_references.py --workload fig5a_ci --seeds 0-9

Runs one cold pass per seed (the same worker as ``run.py``) and writes
``perfbench/references/<workload>.json``, keeping the other seeds already
stored.  Refuses to write when a pass crashes, leaves a run quarantined, or
produces a non-finite or out-of-range loss or accuracy.  Regenerate only for a change that is *meant* to alter the
simulated outputs, and say so in the change's description.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json

from checks import REFERENCES, check_pass, reference_row
from run import DEADLINE_S, spawn
from workloads import WORKLOADS


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7")
    args = parser.parse_args(argv)

    path = REFERENCES / f"{args.workload}.json"
    stored = json.loads(path.read_text()) if path.exists() else {"runs": None, "seeds": {}}
    for seed in parse_seeds(args.seeds):
        outputs = spawn(args.workload, seed, DEADLINE_S)
        if "error" in outputs:
            print(f"seed {seed}: pass failed: {outputs['error']}", file=sys.stderr)
            return 1
        problems = check_pass(outputs, expected=None)
        if problems:
            print(f"seed {seed}: outputs fail the check: {problems}", file=sys.stderr)
            return 1
        keys = list(outputs["runs"])
        if stored["runs"] not in (None, keys):
            print(f"seed {seed}: runs differ from the stored run list", file=sys.stderr)
            return 1
        stored["runs"] = keys
        stored["seeds"][str(seed)] = [reference_row(outputs["runs"][key]) for key in keys]
        print(f"seed {seed}: {len(keys)} runs")
    REFERENCES.mkdir(exist_ok=True)
    seeds = stored["seeds"]
    lines = [
        "{",
        f' "workload": {json.dumps(args.workload)},',
        f' "runs": {json.dumps(stored["runs"])},',
        ' "seeds": {',
        ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(seeds[seed])}" for seed in sorted(seeds, key=int)
        ),
        " }",
        "}",
    ]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
