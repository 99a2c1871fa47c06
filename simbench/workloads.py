"""The benchmark's workloads: run items generated from ``--seed``.

Every workload is a closed-loop batch job -- one client, one job at a
time -- whose runs are plain ``run_many``-style item dicts.  The program
only ever sees these generated items; the seed never reaches it any
other way.  ``repro`` must be importable (``src`` on the path).
"""

from __future__ import annotations

import random

WORKLOADS = ("apache-detailed", "specint-sampled", "seed-sweep")

#: Retired-instruction budget of the apache-detailed job.
APACHE_INSTRUCTIONS = 100_000

#: specint-sampled: fast-tier warm-up, then 95:5 fast:detailed intervals.
SPECINT_WARMUP = 100_000
SPECINT_INSTRUCTIONS = 400_000
SPECINT_SAMPLE = (9_500, 500)

#: seed-sweep: the eight canonical (workload, cpu, os_mode) triples of
#: ``repro.analysis.runner.CANONICAL_SPECS``, each at this many seeds and
#: this short budget.
SWEEP_SEEDS = 2
SWEEP_INSTRUCTIONS = 10_000


def _scaled(n: int, scale: float) -> int:
    return max(1, int(n * scale))


def sim_seeds(workload: str, seed: int, count: int) -> list[int]:
    """*count* distinct simulator seeds derived from the benchmark seed."""
    rng = random.Random(f"{workload}/{seed}")
    return rng.sample(range(1, 1_000_000), count)


def items(workload: str, seed: int, scale: float = 1.0) -> list[dict]:
    """The run items of one job.  *scale* shrinks every budget (the
    self-tests run at tiny budgets); the benchmark itself uses 1.0."""
    if workload == "apache-detailed":
        (s,) = sim_seeds(workload, seed, 1)
        return [{"workload": "apache", "cpu": "smt", "os_mode": "full",
                 "instructions": _scaled(APACHE_INSTRUCTIONS, scale),
                 "seed": s}]
    if workload == "specint-sampled":
        (s,) = sim_seeds(workload, seed, 1)
        return [{"workload": "specint", "cpu": "smt", "os_mode": "full",
                 "instructions": _scaled(SPECINT_INSTRUCTIONS, scale),
                 "seed": s, "mode": "sampled",
                 "warmup": _scaled(SPECINT_WARMUP, scale),
                 "sample": [_scaled(n, scale) for n in SPECINT_SAMPLE]}]
    if workload == "seed-sweep":
        from repro.analysis.runner import CANONICAL_SPECS

        return [{"workload": wl, "cpu": cpu, "os_mode": os_mode,
                 "instructions": _scaled(SWEEP_INSTRUCTIONS, scale),
                 "seed": s}
                for s in sim_seeds(workload, seed, SWEEP_SEEDS)
                for wl, cpu, os_mode in CANONICAL_SPECS]
    raise ValueError(f"unknown workload {workload!r} (want one of {WORKLOADS})")


def operations(workload: str) -> int:
    """Operations one repetition attempts: one per executed run, plus,
    on seed-sweep, one per warm-pass store resolve."""
    n = len(items(workload, 0))
    return 2 * n if workload == "seed-sweep" else n
