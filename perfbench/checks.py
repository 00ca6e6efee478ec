"""Output check of one benchmark pass.

A run fails the check when it was quarantined or missing, when a loss or an
accuracy is non-finite or out of range, or when its final accuracies, loss
history or write counters differ from the reference stored for the pass's
``RunSpec.seed`` in ``references/<workload>.json`` (a seed with no stored
reference gets the range checks only).

The references are this repository's own output (``make_references.py``),
not measurements of ReRAM hardware: the simulator is unvalidated against
real devices, so the check guards determinism and regressions, not physics.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Optional

REFERENCES = Path(__file__).resolve().parent / "references"

#: Absolute tolerance on accuracies: the round-off contract of
#: docs/ARCHITECTURE.md (fused training steps reassociate sums, measured
#: ≤ 4e-16; the equivalence tests pin 1e-9).  Write counters must match exactly.
ATOL = 1e-9

#: Loss histories are stored as a digest of the values rounded to this many
#: decimals: a 4e-16 round-off difference changes the digest only if a value
#: sits within 4e-16 of a rounding boundary.
LOSS_DECIMALS = 9


def loss_digest(losses) -> str:
    rounded = [round(float(x), LOSS_DECIMALS) for x in losses]
    return hashlib.sha256(json.dumps(rounded).encode()).hexdigest()[:16]


def reference_row(run: dict) -> list:
    """What the reference files store of one run, in a fixed field order."""
    return [
        float(f"{run['train_acc']:.12g}"),
        float(f"{run['test_acc']:.12g}"),
        run["block_writes"],
        run["weight_writes"],
        loss_digest(run["loss"]),
    ]


def load_reference(workload: str, seed: int) -> Optional[Dict[str, list]]:
    """Run key → :func:`reference_row` of ``RunSpec.seed == seed``, if stored."""
    path = REFERENCES / f"{workload}.json"
    if not path.exists():
        return None
    stored = json.loads(path.read_text())
    rows = stored["seeds"].get(str(seed))
    return None if rows is None else dict(zip(stored["runs"], rows))


def _invariant_problem(run: dict) -> Optional[str]:
    losses = run["loss"]
    if len(losses) != run["epochs"] or not losses:
        return f"{len(losses)} losses for {run['epochs']} epochs"
    if not all(math.isfinite(x) and x >= 0.0 for x in losses):
        return "non-finite or negative loss"
    accuracies = [run["train_acc"], run["test_acc"]] + run["accuracy_history"]
    if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in accuracies):
        return "accuracy outside [0, 1]"
    return None


def _mismatch(run: dict, expected: list) -> Optional[str]:
    train_acc, test_acc, block_writes, weight_writes, digest = expected
    if abs(run["train_acc"] - train_acc) > ATOL or abs(run["test_acc"] - test_acc) > ATOL:
        return f"accuracies {run['train_acc']!r}/{run['test_acc']!r} != {train_acc!r}/{test_acc!r}"
    if run["block_writes"] != block_writes or run["weight_writes"] != weight_writes:
        return (
            f"writes {run['block_writes']!r}/{run['weight_writes']!r} != "
            f"{block_writes!r}/{weight_writes!r}"
        )
    if loss_digest(run["loss"]) != digest:
        return "loss history differs from the reference"
    return None


def check_pass(outputs: dict, expected: Optional[Dict[str, list]]) -> Dict[str, str]:
    """Failed run key → reason for one pass's outputs (empty when all pass)."""
    problems = {key: "quarantined or missing" for key in outputs["failed"]}
    for key, run in outputs["runs"].items():
        problem = _invariant_problem(run)
        if problem is None and expected is not None:
            problem = (
                _mismatch(run, expected[key]) if key in expected else "not in the reference"
            )
        if problem is not None:
            problems[key] = problem
    if expected is not None:
        for key in expected:
            if key not in outputs["runs"] and key not in problems:
                problems[key] = "expected run not produced"
    return problems
