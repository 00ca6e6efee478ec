"""The benchmark's workloads: named, seeded sweep plans built from the public API.

Each workload is a :class:`repro.experiments.sweeps.SweepPlan`; the seed only
sets ``RunSpec.seed`` (:func:`instance_seeds` maps a benchmark seed to the
seeds of its passes).  ``repro`` is imported lazily so the parent process of
the benchmark never loads the library (every pass runs in a fresh process).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple


class Workload(NamedTuple):
    plan: Callable[[int], object]
    #: Typical cold pass on a 2-core Xeon VM (it drifts up to 2x with the
    #: host's load); sizes the instances of a run.
    nominal_pass_s: float


def _fig5a_ci(seed: int):
    from repro.experiments.configs import SA_RATIO_9_1
    from repro.experiments.fig5 import plan_fig5

    return plan_fig5(sa_ratio=SA_RATIO_9_1, scale="ci", seed=seed)


def _fig6a_ci(seed: int):
    from repro.experiments.configs import SA_RATIO_9_1
    from repro.experiments.fig6 import plan_fig6

    return plan_fig6(sa_ratio=SA_RATIO_9_1, scale="ci", seed=seed)


def _reddit_fare_paper(seed: int):
    from repro.experiments.configs import SA_RATIO_1_1
    from repro.experiments.sweeps import RunSpec, SweepPlan

    return SweepPlan(
        [
            RunSpec.make(
                "reddit",
                "gcn",
                "fare",
                0.05,
                sa_ratio=SA_RATIO_1_1,
                scale="paper",
                seed=seed,
                epochs=20,
            )
        ]
    )


#: Why each workload is in the benchmark: see ``perfbench/README.md``.
WORKLOADS: Dict[str, Workload] = {
    # A figure regeneration: training/eval across GCN, GAT and SAGE plus
    # batched Algorithm 1 planning and artifact sharing across 78 runs.
    "fig5a_ci": Workload(_fig5a_ci, 11.5),
    # The only workload on the post-deployment fault path (injection, BIST
    # re-scan, row re-permutation every epoch).
    "fig6a_ci": Workload(_fig6a_ci, 15.0),
    # One paper-scale run whose time is mostly batched greedy planning.
    "reddit_fare_paper": Workload(_reddit_fare_paper, 6.0),
}


def instance_seeds(workload: str, seed: int, seconds: float) -> List[int]:
    """``RunSpec.seed`` of each pass of one benchmark run.

    A run measures ``K = round(seconds / nominal_pass_s)`` instances of the
    workload, one cold pass each, on the disjoint seeds ``seed*K .. seed*K+K-1``.
    The graphs and fault maps a seed draws change the amount of work (e.g.
    33 to 50 adjacency blocks for the paper-scale Reddit run), so reporting
    over K instances keeps the figures comparable across benchmark seeds.
    """
    count = max(1, round(seconds / WORKLOADS[workload].nominal_pass_s))
    return [seed * count + index for index in range(count)]


def run_key(spec) -> str:
    """Stable, readable name of one run of a plan (used by the references)."""
    extra = "" if not spec.post_deployment_extra else f"+{spec.post_deployment_extra:g}"
    ratio = ":".join(f"{x:g}" for x in spec.sa_ratio)
    return (
        f"{spec.dataset}/{spec.model}/{spec.strategy}/"
        f"{spec.fault_density:g}{extra}/{ratio}/{spec.scale}"
    )
