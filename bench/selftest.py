"""Self-test of the benchmark harness; takes a few seconds.

    python3 bench/selftest.py

On a mini workload (the corpus cases without diagonal-quadrics-curve):
  * the exact counters of two traced passes, each in a fresh process,
    are equal;
  * tracing leaves every report byte-identical to an untraced pass, and
    the verdicts match the golden ones.
On two random-ci instances with a one-second deadline:
  * the stalling instance is killed, counted as a deadline hit with the
    stage it stalled in, and the next instance still runs.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys

from layers import EXACT, span_metrics
from run import WORK, check_pass, generate, load_golden, run_pass

MINI_SKIP = "diagonal-quadrics-curve"


def _subset(run_dir, entries, names):
    by_name = {e["name"]: e for e in entries}
    chosen = [by_name[name] for name in names]
    path = run_dir / "mini.json"
    path.write_text(json.dumps(chosen))
    return path, chosen


def _reports(p):
    return [json.dumps(r.get("report"), sort_keys=True) for r in p["results"]]


def main():
    failures = []

    def check(ok, label):
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures.append(label)

    run_dir = WORK / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        entries = generate("corpus", 0, run_dir / "corpus")
        manifest, mini = _subset(run_dir, entries,
                                 [e["name"] for e in entries
                                  if e["name"] != MINI_SKIP])
        plain = run_pass(manifest, len(mini), 10.0, False, run_dir / "s")
        traced = [run_pass(manifest, len(mini), 10.0, True,
                           run_dir / f"t{k}") for k in range(2)]
        counters = []
        for p in traced:
            keep = set(range(len(mini)))
            steps = sum(r["steps"] for r in p["results"])
            m = span_metrics(p["spans"], steps, keep)
            counters.append({k: m[k] for k in EXACT})
        print(f"  exact counters: {counters[0]}")
        check(counters[0] == counters[1] and counters[0]["groebner.steps"],
              "exact counters repeat across two traced processes")
        check(all(_reports(p) == _reports(plain) for p in traced),
              "tracing leaves reports byte-identical")
        names = [e["name"] for e in mini]
        attempted, failed, _, wrong = check_pass(names, plain["results"],
                                                 load_golden("corpus"))
        check(attempted == len(names) and not failed and not wrong,
              "mini workload matches golden")

        entries = generate("random-ci", 0, run_dir / "random-ci")
        stall, fast = "ci-n4-fitting-stall", "hyper-n4-a"
        manifest, pair = _subset(run_dir, entries, [stall, fast])
        p = run_pass(manifest, len(pair), 1.0, False, run_dir / "d")
        by_name = {e["name"]: r for e, r in zip(pair, p["results"])}
        print(f"  stall: {by_name[stall]}")
        check(by_name[stall]["status"] == "deadline"
              and "fitting.fitting_profile" in by_name[stall]["stage"]
              and by_name[stall]["elapsed"] == 1.0,
              "deadline hit is charged the deadline, with its stage")
        check(by_name[fast]["status"] == "ok",
              "the workload continues after a deadline hit")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
