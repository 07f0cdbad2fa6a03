"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --out BENCH_16.json --parent HEAD \
        --seeds 101-110 --what "..." --claim "..."

Run from the root of a checkout.  Both sides run from fresh exports, so
that they start alike: the parent commit is exported with `git archive`
into a temporary directory, and the working tree's tracked files (new
files count once they are staged with `git add`) into another, through
the commit `git stash create` makes of them (HEAD itself when nothing is
changed); the working tree and the stash list are left as they are.
Then, for each seed and each workload in BENCHMARK.json, the benchmark's
command (`perfbench/run.py`, with BENCHMARK.json's run length as
--seconds) runs once on the parent and once on the change (one pair per
seed).  The side that runs first alternates from seed to seed: the parent
on even pairs, the change on odd ones.  Each run's exit code and last
output line (the JSON object run.py prints) are kept, and for a run that
exits with a nonzero code also its `CHECK FAILED` lines and the last
lines of its stderr, so that the record says why it failed; the record
names both sides' commits, and it ends with the median and the
interquartile distance of every end-to-end metric per workload and side.
The exit code is 1 if any run exited with a nonzero code.

--parent names the commit the working tree is compared with: HEAD while
the change is uncommitted, HEAD~1 once it is committed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]
COMMAND = [*SPEC["command"], "--workload", "<workload>", "--seed", "<seed>",
           "--seconds", f"{SPEC['run_seconds']:g}"]
# lines of stderr kept from a run that exits with a nonzero code
STDERR_TAIL = 20


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _export(rev: str, dest: Path) -> str:
    """Unpack `rev` into dest; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _export_worktree(dest: Path) -> str:
    """Unpack the working tree's tracked files into dest; returns the id
    of the commit that holds them."""
    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    return _export(stash or "HEAD", dest)


def _run(root: Path, workload: str, seed: int) -> dict:
    argv = [{"<workload>": workload, "<seed>": str(seed)}.get(a, a)
            for a in COMMAND]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        final = None
    out = {"exit": proc.returncode, "final_line": final}
    if proc.returncode:
        out["check_failed"] = [ln.strip() for ln in lines
                               if "CHECK FAILED" in ln]
        out["stderr_tail"] = proc.stderr.splitlines()[-STDERR_TAIL:]
    return out


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "iqr": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1}


def _summarize(runs: list[dict]) -> dict:
    """Median and interquartile distance of each metric, per workload and
    side, over the runs that printed their JSON line."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        out[workload] = {}
        for metric in METRICS:
            out[workload][metric] = {
                side: _spread([r["final_line"]["metrics"][metric]["value"]
                               for r in runs
                               if r["workload"] == workload
                               and r["side"] == side and r["final_line"]])
                for side in ("parent", "change")}
    return out


def _machine() -> str:
    return (f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, mpmath {mpmath.__version__}"
            f" ({mpmath.libmp.BACKEND} backend)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="record to write")
    ap.add_argument("--parent", default="HEAD",
                    help="commit to compare the working tree with")
    ap.add_argument("--seeds", default="101-110",
                    help="seeds, one pair each: 101-110 or 101,103")
    ap.add_argument("--what", default="perfbench run on the parent commit "
                    "and on the change, alternating which side runs first, "
                    "one pair per seed")
    ap.add_argument("--claim", default="none")
    args = ap.parse_args()
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for root in roots.values():
            root.mkdir()
        commit = _export(args.parent, roots["parent"])
        change = _export_worktree(roots["change"])
        for pair, seed in enumerate(_seeds(args.seeds)):
            order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                                "parent")
            for workload in WORKLOADS:
                for side in order:
                    run = _run(roots[side], workload, seed)
                    runs.append({"side": side, "workload": workload,
                                 "seed": seed, "pair": pair,
                                 "ran_first": side == order[0], **run})
                    m = (run["final_line"] or {}).get("metrics", {})
                    p50 = m.get("latency_p50_ms", {}).get("value")
                    print(f"pair {pair} seed {seed} {workload:<14} "
                          f"{side:<6} exit {run['exit']} p50 {p50}",
                          flush=True)
    record = {
        "what": args.what,
        "command": " ".join(COMMAND),
        "parent_commit": commit,
        "change_commit": change,
        "machine": _machine(),
        "claim": args.claim,
        "runs": runs,
        "summary": _summarize(runs),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
