"""Self-check of the benchmark: the work counts of a traced run repeat
exactly across two runs of one seed, on every workload.

    python3 -m pytest perfbench/test_counts.py     (about two minutes)

Counts are what a later change may cite as evidence without timing noise,
so they must be a function of the inputs alone.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

EXACT = ("oracle.terms", "coeffs.orders", "saddles.chain_members",
         "expansions.terms_computed", "expansions.terms_used",
         "expansions.cap_hits", "tables.cells")


def traced_counts(workload: str, seed: int) -> dict:
    ops, _ = run.build_ops(workload, seed)
    job = {"root": str(HERE.parent),
           "warmups": [run.WARMUP[n] for n in run.WORKLOADS[workload]["warmups"]],
           "ops": ops, "seconds": 1e9, "trace": True, "setup_only": False,
           "spans_out": None}
    _, result = run.run_child(HERE.parent, job, time.monotonic() + 170)
    assert len(result["ops"]) == len(ops)
    return {k: v for k, v in result["layers"].items()
            if k in EXACT or k.endswith((".calls", ".fail"))}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, seed=3)
    second = traced_counts(workload, seed=3)
    assert first == second
    assert set(EXACT) <= set(first)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
