"""diffrees benchmark: run one workload, check every verdict, print metrics.

    python3 bench/run.py --workload corpus|probe|random-ci|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Inputs come from a separate generator process (workloads.py).  Each pass
over a workload runs its instances, in order, in a fresh worker process
(worker.py): the first pass every instance, later passes those with a
golden verdict.  Passes repeat while the next one is predicted to end
within --seconds of measuring (at least one, two when traced).  A
worker that overruns the per-instance deadline is killed, the instance
counts as failed (a known stall, workloads.KNOWN_STALLS, as stalled and
not attempted) and is charged the deadline, and a new worker takes the
remaining instances.

Untraced (--trace 0) the last line is a JSON object with the end-to-end
metrics wall_ref, setup_s and peak_rss_mb; the table before it also
shows wall_s, failed_ratio and the raw set-up time.  Traced (--trace 1)
passes alternate between untraced and traced workers and the last line
has the per-layer metrics of layers.py, which the table prints with the
metric and workload each is predicted to move.  A verdict that differs
from bench/golden, a golden instance without a verdict, or corpus output
of the real CLI that differs from golden/corpus-output.json makes
`correct` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import EXACT, METRICS, span_metrics, stage_metrics
from workloads import KNOWN_STALLS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# Per-instance deadline in seconds.  Every instance with a golden verdict
# finishes in well under a third of its workload's; random-ci's also
# bounds the time spent on each of its two stalls.
DEADLINES = {"corpus": 10.0, "probe": 15.0, "random-ci": 4.0}
# Nominal time of one reference() call (worker.py).  setup_s is the
# median set-up time over the median time of a reference() call timed
# after set-up, in seconds at this nominal rate; wall_ref charges a
# deadline hit the deadline at it, a constant, so neither drifts with the
# machine the way measured time does.
NOMINAL_REF_S = 0.0006
SETUP_SAMPLES = 15
KILL_GRACE = 3.0
READY_TIMEOUT = 120.0
CLI_TIMEOUT = 120.0
MIB = 1024.0
# `diffrees --format json corpus`, run from the checkout's src/.
CORPUS_CLI = ("import sys; sys.path.insert(0, 'src'); "
              "from diffrees.cli import main; "
              "sys.exit(main(['--format', 'json', 'corpus']))")


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# worker processes

class _Lines:
    """JSON lines from a pipe, with a timeout per line."""

    def __init__(self, pipe):
        self.fd = pipe.fileno()
        self.buffer = b""

    def next(self, timeout):
        """The next record, None on timeout, or {"event": "eof"}."""
        end = time.perf_counter() + timeout
        while b"\n" not in self.buffer:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return {"event": "eof"}
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)


def _stop(proc):
    try:
        proc.wait(timeout=KILL_GRACE)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _start(manifest, start, trace, spans_path):
    """Spawn a worker and wait for its ready and calibrate lines.

    Returns the process, its line reader and a pair: the set-up time in
    seconds, from spawn to ready (interpreter start, import and loading
    the case texts), and the time of one reference() call timed right
    after set-up.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(manifest), str(start),
         "1" if trace else "0", str(spans_path)],
        stdout=subprocess.PIPE, cwd=ROOT)
    lines = _Lines(proc.stdout)
    msg = lines.next(READY_TIMEOUT)
    seconds = time.perf_counter() - t0
    calibrate = msg and msg["event"] == "ready" and lines.next(READY_TIMEOUT)
    if not calibrate or calibrate["event"] != "calibrate":
        _stop(proc)
        raise HarnessError("worker did not start; is src/diffrees in this "
                           "checkout?")
    return proc, lines, (seconds,
                         calibrate["seconds"] / calibrate["calls"])


def measure_setup(manifest, count):
    """`count` set-up times of workers that then run nothing."""
    samples = []
    for _ in range(count):
        proc, _, setup = _start(manifest, 1 << 30, False, os.devnull)
        _stop(proc)
        samples.append(setup)
    return samples


def run_pass(manifest, count, deadline, trace, spans_prefix):
    """Run instances 0..count-1 once; restart the worker after a kill."""
    results = [None] * count
    spans = []
    setups = []
    peak_kb = 0
    ref_seconds = ref_calls = 0
    i = 0
    while i < count:
        spans_path = Path(f"{spans_prefix}-{i}.json")
        proc, lines, setup = _start(manifest, i, trace, spans_path)
        setups.append(setup)
        try:
            current = started = None
            while True:
                wait = (READY_TIMEOUT if current is None
                        else deadline - (time.perf_counter() - started))
                msg = lines.next(max(wait, 0.0))
                if msg is None and current is None:
                    raise HarnessError("worker stopped responding")
                if msg is None:                       # deadline hit
                    proc.send_signal(signal.SIGTERM)
                    killed = lines.next(KILL_GRACE) or {}
                    results[current] = {
                        "status": "deadline", "elapsed": deadline,
                        "stage": killed.get("stage", "unknown")}
                    i = current + 1
                    break
                event = msg["event"]
                if event == "start":
                    current, started = msg["i"], time.perf_counter()
                elif event == "done":
                    results[current] = msg
                    peak_kb = max(peak_kb, msg["rss_kb"])
                    current = None
                elif event == "ref":
                    ref_seconds += msg["seconds"]
                    ref_calls += msg["calls"]
                elif event == "exit":
                    i = count
                    break
                else:                                  # worker died
                    if current is None:
                        raise HarnessError(f"worker ended early: {msg}")
                    results[current] = {
                        "status": "crash", "stage": "unknown",
                        "elapsed": time.perf_counter() - started}
                    i = current + 1
                    break
        finally:
            _stop(proc)
        if trace and spans_path.exists():
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    part = json.load(fh)["spans"]
            except ValueError:             # killed while writing its spans
                part = []
            spans_path.unlink()
            offset = len(spans)
            for record in part:
                if record[4] >= 0:
                    record[4] += offset
            spans.extend(part)
    rate = ref_calls / ref_seconds if ref_calls else 1.0 / NOMINAL_REF_S
    return {"results": results, "spans": spans, "setups": setups,
            "peak_kb": peak_kb, "wall": sum(r["elapsed"] for r in results),
            "rate": rate}


def gated(p, golden):
    """Results of pass `p` for the instances that have a golden verdict."""
    return [r for name, r in zip(p["names"], p["results"]) if name in golden]


def wall_ref(p, golden, deadline):
    """Time of the golden instances of pass `p`, in reference calls.

    A completed instance counts its time at the reference rate measured
    in the pass; a deadline hit counts the deadline at NOMINAL_REF_S.
    """
    return sum(deadline / NOMINAL_REF_S if r["status"] == "deadline"
               else r["elapsed"] * p["rate"] for r in gated(p, golden))


# ---------------------------------------------------------------------------
# verdicts

def verdict(report):
    """The report without the fields the seeded relation signs change."""
    out = dict(report)
    out["inputs"] = {k: v for k, v in report["inputs"].items()
                     if k != "relations"}
    out["linear_type"] = {k: v for k, v in report["linear_type"].items()
                          if k != "test_element"}
    return out


def corpus_cli():
    """Exit code and standard output bytes of the real
    `diffrees --format json corpus`; (None, b"") if it overruns."""
    try:
        proc = subprocess.run([sys.executable, "-c", CORPUS_CLI], cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, b""
    return proc.returncode, proc.stdout


def load_golden(workload):
    path = HERE / "golden" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(names, results, golden):
    """Return (attempted, failed, stalled, list of verdict mismatches).

    An instance with a golden verdict must give that verdict; one
    without (a known stall) is checked by the pipeline's assertions.  A
    known stall that hits the deadline counts as stalled, not as an
    attempted instance; any other non-`ok` result counts as failed.
    """
    attempted = failed = stalled = 0
    wrong = []
    for name, res in zip(names, results):
        if name in KNOWN_STALLS and res["status"] == "deadline":
            stalled += 1
            continue
        attempted += 1
        if res["status"] != "ok":
            failed += 1
        if res["status"] == "assertion_failure":
            wrong.append(f"{name}: pipeline assertion failed")
        expected = golden.get(name)
        if expected is None:
            continue
        if "report" not in res:
            wrong.append(f"{name}: no verdict ({res['status']})")
        elif (json.dumps(verdict(res["report"]), sort_keys=True)
              != json.dumps(expected, sort_keys=True)):
            wrong.append(f"{name}: verdict differs from golden")
    return attempted, failed, stalled, wrong


def check_corpus_cli():
    """Mismatches of the real corpus command against its golden bytes."""
    code, out = corpus_cli()
    golden = (HERE / "golden" / "corpus-output.json").read_bytes()
    if code != 0:
        return [f"diffrees --format json corpus exited with {code}"]
    if out != golden:
        return ["diffrees --format json corpus differs from golden bytes"]
    return []


# ---------------------------------------------------------------------------

def generate(workload, seed, out_dir):
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out_dir)], cwd=ROOT)
    if proc.returncode != 0:
        raise HarnessError("input generation failed")
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics(plain, golden, deadline, setups):
    return {
        "wall_ref": (statistics.median(wall_ref(p, golden, deadline)
                                       for p in plain), "ref"),
        "setup_s": (statistics.median(seconds for seconds, _ in setups)
                    / statistics.median(ref for _, ref in setups)
                    * NOMINAL_REF_S, "s"),
        "peak_rss_mb": (statistics.median(p["peak_kb"] for p in plain) / MIB,
                        "MB"),
    }


def layer_metrics(plain, traced, golden, wrong, deadline_hits):
    """Per-layer metrics; a counter that differs between the traced
    passes is appended to `wrong`."""
    per_pass = []
    for p in traced:
        keep = {i for i, r in enumerate(p["results"])
                if r["status"] not in ("deadline", "crash")}
        steps = sum(r.get("steps", 0) for r in p["results"])
        per_pass.append(span_metrics(p["spans"], steps, keep))
    for key in EXACT:
        if len({m[key] for m in per_pass}) > 1:
            wrong.append(f"exact counter {key} differs between traced passes")
    units = {name: unit for name, unit, _ in METRICS}
    metrics = {}
    for key in per_pass[0]:
        value = (per_pass[0][key] if key in EXACT else
                 statistics.median(m[key] for m in per_pass))
        metrics[key] = (value, units[key])
    stages = [stage_metrics(r.get("timings", {}) for r in p["results"])
              for p in plain]
    for key in stages[0]:
        metrics[key] = (statistics.median(s[key] for s in stages), units[key])
    def golden_wall(p):
        return sum(r["elapsed"] for r in gated(p, golden))

    metrics["harness.deadline_hits"] = (deadline_hits, "count")
    metrics["trace.overhead_s"] = (
        statistics.median(golden_wall(p) for p in traced)
        - statistics.median(golden_wall(p) for p in plain), "s")
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result dict, table lines)."""
    deadline = DEADLINES[workload]
    run_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        entries = generate(workload, seed, run_dir)
        manifest = run_dir / "manifest.json"
        golden = load_golden(workload)
        setups = measure_setup(manifest, SETUP_SAMPLES)
        # The first pass runs every instance; later passes repeat only
        # those with a golden verdict, so the known stalls run once and
        # the time goes to the work that completes.
        rerun = [e for e in entries if e["name"] in golden] or entries
        rerun_manifest = run_dir / "rerun.json"
        rerun_manifest.write_text(json.dumps(rerun), encoding="utf-8")

        passes = []
        attempted = failed = stalled = 0
        wrong = []
        took = []
        while True:
            traced = trace and len(passes) % 2 == 1
            todo, path = ((rerun, rerun_manifest) if passes
                          else (entries, manifest))
            t0 = time.perf_counter()
            p = run_pass(path, len(todo), deadline, traced,
                         run_dir / f"spans{len(passes)}")
            took.append(time.perf_counter() - t0)
            p["traced"] = traced
            p["names"] = [e["name"] for e in todo]
            passes.append(p)
            setups += p["setups"]
            n_attempted, n_failed, n_stalled, n_wrong = check_pass(
                p["names"], p["results"], golden)
            attempted += n_attempted
            failed += n_failed
            stalled += n_stalled
            wrong += n_wrong
            print(f"{workload} pass {len(passes)}"
                  f"{' traced' if traced else ''}: {p['wall']:.3f} s, "
                  f"{n_failed} failed, {n_stalled} stalled",
                  file=sys.stderr)
            enough = len(passes) >= (2 if trace else 1)
            if enough and (sum(took) + statistics.mean(took[1:] or took)
                           > seconds):
                break
        if workload == "corpus":
            wrong += check_corpus_cli()

        plain = [p for p in passes if not p["traced"]]
        wall = statistics.median(p["wall"] for p in plain
                                 if len(p["names"]) == len(entries))
        if trace:
            deadline_hits = sum(r["status"] == "deadline" for p in passes
                                for r in p["results"])
            metrics = layer_metrics(plain, [p for p in passes if p["traced"]],
                                    golden, wrong, deadline_hits)
        else:
            metrics = end_to_end_metrics(plain, golden, deadline, setups)

        not_ok = sorted({f"{n} [{r['status']} in {r.get('stage')}]"
                         for p in passes
                         for n, r in zip(p["names"], p["results"])
                         if r["status"] != "ok"})
        lines = [f"{workload}: seed {seed}, {len(passes)} passes, deadline "
                 f"{deadline:g} s",
                 f"  {workload:9} {'wall_s':32} {wall:12.4f} s       "
                 "median untraced pass over every instance",
                 f"  {workload:9} {'failed_ratio':32} "
                 f"{failed / attempted:12.4f} ratio   {failed} of "
                 f"{attempted} instance runs",
                 f"  {workload:9} {'stalled':32} {stalled:12d} count   "
                 "known stalls that hit the deadline",
                 f"  {workload:9} {'setup_wall_s':32} "
                 f"{statistics.median(raw for raw, _ in setups):12.4f} s"
                 "       median measured set-up time"]
        lines += [f"  not ok: {s}" for s in not_ok]
        lines += [f"  WRONG: {w}" for w in sorted(set(wrong))]
        result = {"correct": not wrong, "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
        return result, lines
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                                 # not empty: another run


def table(workload, result, trace):
    notes = {name: note for name, _, note in METRICS} if trace else {}
    rows = []
    for key, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        rows.append(f"  {workload:9} {key:32} {shown:>12} {m['unit']:6}"
                    f"  {notes.get(key, '')}".rstrip())
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(DEADLINES) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind through the finally blocks that stop the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    names = (tuple(DEADLINES) if args.workload == "all"
             else (args.workload,))
    try:
        runs = [(w, *run_workload(w, args.seed, args.seconds, trace))
                for w in names]
    except HarnessError as ex:
        print(f"benchmark cannot run: {ex}", file=sys.stderr)
        return 2
    for workload, result, lines in runs:
        print("\n".join(lines))
        print("\n".join(table(workload, result, trace)))
    if len(runs) == 1:
        final = runs[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r, _ in runs),
                 "attempted": sum(r["attempted"] for _, r, _ in runs),
                 "failed": sum(r["failed"] for _, r, _ in runs),
                 "metrics": {f"{w}.{k}": m for w, r, _ in runs
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
