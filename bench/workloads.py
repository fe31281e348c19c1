"""Input generation for the benchmark, run in its own process.

    python3 bench/workloads.py --workload probe --seed 3 --out DIR

writes one `.case` file per instance into DIR plus `manifest.json`, the
list of instances in the order the timed worker runs them.  Drawing and
validating instances computes Groebner bases; doing it here keeps those
bases out of the timed process.

Every workload is a fixed family of instances, so every run measures the
same algebra.  The seed changes the case texts without changing the
work: it negates a seeded subset of the relations of each instance and
shuffles the instance order.  Negating a relation leaves its ideal, every
verdict and every Groebner computation the same up to signs, so the
golden verdicts hold for every seed.  Seed-drawn families are not used
because their cost swings far beyond any bound: probe_corpus(seed, 20)
took 13.8, 23.2, 22.6 and 3.0 s for seeds 0 to 3.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# random-ci family: (instance name, variables, dimension, max relation
# degree, seed of random_graded_ci).  Per shape, the first draws that
# finish; plus one draw for each of the two stall sites known at the
# parent commit, which the harness charges its deadline.
RANDOM_CI = (
    ("hyper-n4-a", 4, 3, 3, 0),
    ("hyper-n4-b", 4, 3, 3, 1),
    ("hyper-n5-a", 5, 4, 3, 0),
    ("hyper-n5-b", 5, 4, 3, 1),
    ("ci-n4-a", 4, 2, 3, 0),
    ("ci-n4-b", 4, 2, 3, 4),
    ("ci-n4-rees-stall", 4, 2, 3, 5),
    ("ci-n5-a", 5, 3, 3, 2),
    ("ci-n5-b", 5, 3, 3, 4),
)
# probe_corpus(seed=0) instance 01 stalls in saturation_by_ideal inside
# fitting_profile when run through the full pipeline.
RANDOM_CI_PROBE_STALL = "ci-n4-fitting-stall"
# The draws that stall at the parent commit.  They run once per run; a
# deadline hit on one of them is reported as a stall, not as a failed
# instance, so every counted instance run ends without failure.
KNOWN_STALLS = ("ci-n4-rees-stall", RANDOM_CI_PROBE_STALL)

WORKLOADS = ("corpus", "probe", "random-ci")


def _import_diffrees():
    sys.path.insert(0, str(SRC))
    try:
        import diffrees
    except ImportError as ex:
        raise SystemExit(f"cannot import diffrees from {SRC}: {ex}")
    if not Path(diffrees.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"diffrees imported from {diffrees.__file__}, "
                         f"not from {SRC}")


def case_text(name, algebra, mode, signs):
    """Case-file text for a validated algebra, relation k times signs[k]."""
    relations = [f * s for f, s in zip(algebra.relations, signs)]
    lines = ["[algebra]", f"name = {name}",
             "variables = " + ", ".join(algebra.context.names),
             "relations = " + "; ".join(str(f) for f in relations)]
    if mode:
        lines += ["", "[mode]", f"run = {mode}"]
    return "\n".join(lines) + "\n"


def _corpus():
    """The shipped cases, verbatim; the seed is ignored."""
    base = SRC / "diffrees" / "cases"
    paths = sorted(base.glob("*.case"))
    if not paths:
        raise SystemExit(f"no shipped cases under {base}")
    return [(p.stem, p.read_text(encoding="utf-8"), None) for p in paths]


def _probe():
    from diffrees.sampler import probe_corpus
    return [(name, algebra, "prop31")
            for name, algebra in probe_corpus(seed=0, count=20)]


def _random_ci():
    from diffrees.sampler import probe_corpus, random_graded_ci
    out = []
    for name, n, d, max_degree, draw in RANDOM_CI:
        algebra = random_graded_ci(random.Random(draw), n, d,
                                   max_degree=max_degree)
        out.append((name, algebra, None))
    _, algebra = probe_corpus(seed=0, count=2)[1]
    out.append((RANDOM_CI_PROBE_STALL, algebra, None))
    return out


def instances(workload, seed):
    """[(name, case text)] in run order for one workload and seed."""
    _import_diffrees()
    if workload == "corpus":
        return [(name, text) for name, text, _ in _corpus()]
    family = _probe() if workload == "probe" else _random_ci()
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for name, algebra, mode in family:
        signs = [rng.choice((1, -1)) for _ in algebra.relations]
        out.append((name, case_text(name, algebra, mode, signs)))
    rng.shuffle(out)
    return out


def write_instances(workload, seed, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for idx, (name, text) in enumerate(instances(workload, seed)):
        path = out_dir / f"{idx:02d}-{name}.case"
        path.write_text(text, encoding="utf-8")
        manifest.append({"name": name, "path": str(path)})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_instances(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
