"""Record the golden verdicts the benchmark checks against.

    python3 bench/record_golden.py [workload ...]

Runs each workload once with seed 0 and once with seed 1, requires the
two to give the same verdicts (the seed only negates relations), and
writes bench/golden/<workload>.json: case name -> report without the
sign-dependent fields.  Instances that hit the deadline get no entry; the
benchmark checks them by the pipeline's own assertions once they finish.
For corpus it also writes corpus-output.json, the exact standard output
of `diffrees --format json corpus` (run.corpus_cli), which must exit 0.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DEADLINES, HERE, WORK, corpus_cli, generate, run_pass, verdict


def record(workload):
    deadline = DEADLINES[workload]
    seen = []
    for seed in (0, 1):
        run_dir = WORK / f"golden-{workload}-{seed}"
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            entries = generate(workload, seed, run_dir)
            p = run_pass(run_dir / "manifest.json", len(entries), deadline,
                         False, run_dir / "spans")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        verdicts = {}
        for entry, res in zip(entries, p["results"]):
            if "report" in res:
                verdicts[entry["name"]] = verdict(res["report"])
            print(f"{workload} seed {seed}: {entry['name']} {res['status']} "
                  f"{res['elapsed']:.2f} s", file=sys.stderr)
        seen.append(verdicts)
    first, second = seen
    if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
        raise SystemExit(f"{workload}: verdicts depend on the seed")
    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    (golden / f"{workload}.json").write_text(
        json.dumps(first, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    if workload == "corpus":
        code, out = corpus_cli()
        if code != 0:
            raise SystemExit(f"diffrees --format json corpus exited {code}")
        (golden / "corpus-output.json").write_bytes(out)


if __name__ == "__main__":
    for name in sys.argv[1:] or DEADLINES:
        record(name)
