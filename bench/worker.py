"""The timed process: load case files, run them, report one line each.

    python3 bench/worker.py MANIFEST START TRACE SPANS

Set-up (interpreter start, `import diffrees`, loading every case text of
MANIFEST) ends with a `ready` line.  A `calibrate` line follows: the
fixed reference computation timed right after set-up, so the harness can
express the set-up time in units that slow down with the machine.  Then
instances START.. run in order
through `diffrees.verifier.run_case`, each announced by a `start` line
and closed by a `done` line with its report, status and time.  After
each instance a `ref` line times a fixed reference computation, so the
harness can express the pass time in units that slow down with the
machine.  With
TRACE = 1 the entry points are wrapped (see tracer.py) and the spans are
written to SPANS when the process exits.

An exception from `run_case` is one failed instance, recorded with the
stage it escaped from.  The harness enforces the per-instance deadline
by sending SIGTERM; the handler reports the stage that was running,
writes the spans and exits.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _emit(record):
    data = (json.dumps(record) + "\n").encode()
    while data:
        data = data[os.write(1, data):]


# The reference runs for this share of the instance just run (at least
# REF_MIN seconds), so it samples the machine over the same stretch.
REF_SHARE = 0.2
REF_MIN = 0.02
# After set-up the reference runs this long, about half the set-up time.
REF_SETUP = 0.05


def reference():
    """Fixed pure-Python work in the style of sparse polynomial products:
    tuple keys, dict updates, integer products."""
    terms = {(i % 7, i % 5, i % 3): 3 * i + 1 for i in range(40)}
    acc = {}
    for e1, c1 in terms.items():
        for e2, c2 in terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            acc[e] = acc.get(e, 0) + c1 * c2
    return len(acc)


def time_reference(seconds):
    """Call `reference` for at least `seconds`; (time taken, calls)."""
    t0 = time.perf_counter()
    calls = 0
    while True:
        reference()
        calls += 1
        taken = time.perf_counter() - t0
        if taken >= seconds:
            return taken, calls


def stage_of(frames):
    """Public diffrees functions on a stack, outermost first."""
    names = []
    for frame in frames:
        module = frame.f_globals.get("__name__", "")
        func = frame.f_code.co_name
        if module.startswith("diffrees.") and func[0] not in "_<":
            names.append(f"{module[len('diffrees.'):]}.{func}")
    return " > ".join(names)


def _stack(frame):
    frames = []
    while frame is not None:
        frames.append(frame)
        frame = frame.f_back
    return frames[::-1]


def main(argv):
    manifest, start, trace, spans_path = argv
    start, trace = int(start), trace == "1"
    sys.path.insert(0, str(SRC))
    import diffrees
    if not Path(diffrees.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"diffrees imported from {diffrees.__file__}, not {SRC}")
    from diffrees.casefile import load_case
    from diffrees.verifier import run_case

    with open(manifest, encoding="utf-8") as fh:
        entries = json.load(fh)
    cases = [load_case(e["path"]) for e in entries]

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def on_term(_signum, frame):
        if tracer is not None:
            tracer.dump(spans_path)
        _emit({"event": "killed", "stage": stage_of(_stack(frame))})
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    _emit({"event": "ready"})
    taken, calls = time_reference(REF_SETUP)
    _emit({"event": "calibrate", "seconds": taken, "calls": calls})
    for i in range(start, len(cases)):
        _emit({"event": "start", "i": i})
        if tracer is not None:
            tracer.begin_instance(i)
        record = {"event": "done", "i": i}
        t0 = time.perf_counter()
        try:
            report = run_case(cases[i])
        except Exception as ex:  # one failed instance, never the workload
            elapsed = time.perf_counter() - t0
            frames = [f for f, _ in traceback.walk_tb(ex.__traceback__)]
            record.update(status="exception",
                          error=f"{type(ex).__name__}: {ex}",
                          stage=stage_of(frames))
        else:
            elapsed = time.perf_counter() - t0
            record.update(status=report.status, report=report.to_dict(),
                          timings=report.timings)
        record.update(elapsed=elapsed, rss_kb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            record["steps"] = tracer.end_instance()
        _emit(record)
        taken, calls = time_reference(max(REF_MIN, REF_SHARE * elapsed))
        _emit({"event": "ref", "seconds": taken, "calls": calls})
    if tracer is not None:
        tracer.dump(spans_path)
    _emit({"event": "exit"})


if __name__ == "__main__":
    main(sys.argv[1:])
