"""Scale probe (informational, not a workload): generate_network and the
two weight solvers at n = 10^3, 10^4, 10^5 with k = 3.

Before allocating anything it predicts each point's dense bytes and
floating-point operations from the arrays the code builds, marks the
point infeasible when a prediction exceeds the budget, and times only
the points that fit.  It never allocates gigabytes to find out.
"""

from __future__ import annotations

import json
import time

import numpy as np

import proxyvote as pv

from harness import OUT, environment
from traced import exact_bytes, exact_flops, sweep_flops

POINTS = (1_000, 10_000, 100_000)
K = 3
ACTIVE_SHARE = 0.05
#: budget for a point's dense arrays and its operation count
MEMORY_BUDGET_B = 512 * 2**20
FLOP_BUDGET = 2e10
#: sweeps assumed for the iterative prediction (about 500-600 were
#: measured at n=2000 with 100 active nodes)
ASSUMED_SWEEPS = 1000


def predict(n: int) -> dict[str, dict[str, float]]:
    a = max(1, int(n * ACTIVE_SHARE))
    t = n - a  # at most n - a transient nodes
    return {
        # float64 score matrix n x (n-1) and argpartition's int64 index array of the same shape
        "generate": {"bytes": 16.0 * n * (n - 1), "flops": 2.0 * n * (n - 1)},
        "exact": {"bytes": exact_bytes(t, a), "flops": exact_flops(t, a)},
        # dense Q (t x t) and R (t x a)
        "iterative": {"bytes": 8.0 * (t * t + t * a), "flops": ASSUMED_SWEEPS * sweep_flops(t, a)},
    }


def _fits(p: dict[str, float]) -> bool:
    return p["bytes"] <= MEMORY_BUDGET_B and p["flops"] <= FLOP_BUDGET


def main() -> int:
    points = []
    for n in POINTS:
        predicted = predict(n)
        row = {"n": n, "k": K, "active": max(1, int(n * ACTIVE_SHARE))}
        network = None
        for stage in ("generate", "exact", "iterative"):
            p = predicted[stage]
            entry = {"predicted_bytes": p["bytes"], "predicted_flops": p["flops"]}
            if not _fits(p):
                entry["status"] = "infeasible"
            elif stage != "generate" and network is None:
                entry["status"] = "skipped: no network (generate infeasible)"
            else:
                rng = np.random.default_rng(n)
                start = time.perf_counter()
                if stage == "generate":
                    network = pv.generate_network(n, K, rng)
                else:
                    active = pv.ActiveSet(rng.choice(n, size=row["active"], replace=False))
                    policy = pv.StrandedPolicy.UNIFORM_TO_ACTIVE
                    if stage == "exact":
                        pv.compute_weights_exact(network, active, policy)
                    else:
                        pv.compute_weights_iterative(network, active, pv.PropagationConfig(stranded_policy=policy))
                entry["status"] = "timed"
                entry["seconds"] = time.perf_counter() - start
            row[stage] = entry
            seconds = f"{entry['seconds']:.3f} s" if "seconds" in entry else entry["status"]
            print(f"scale n={n:>6} {stage:<9} predicted {p['bytes'] / 2**20:12.1f} MiB "
                  f"{p['flops']:10.3g} flop -> {seconds}")
        points.append(row)
    record = {
        "budget": {"memory_bytes": MEMORY_BUDGET_B, "flops": FLOP_BUDGET,
                   "assumed_iterative_sweeps": ASSUMED_SWEEPS},
        "env": environment(None, None, False),
        "points": points,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "scale_probe.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0
