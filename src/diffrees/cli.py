"""Command-line interface.

Exit status: 0 all checks pass, 2 assertion/expectation failure,
3 resource exhaustion, 4 invalid input, 5 a case raised an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from .errors import DiffreesError
from .fitting import height_json
from .groebner import step_budget
from .verifier import (EXIT_ASSERTION, EXIT_INVALID, EXIT_OK, EXIT_RESOURCE,
                       RESOURCE_ERRORS, emit_report, en_dump,
                       ft_section, hypotheses_section, linear_type_section,
                       open_case, probe_sections, rees_cm_section,
                       run_case_path)


def _int_at_least(lowest):
    """An argparse type for integers >= `lowest`, checked at parse time."""
    word = "positive" if lowest == 1 else "nonnegative"

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"expected a {word} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _parser():
    parser = argparse.ArgumentParser(
        prog="diffrees",
        description="Fitting conditions, Rees algebras and Cohen-Macaulay "
                    "verification for differential modules of graded "
                    "complete intersections over Q.")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized choices (test elements, "
                             "row operations)")
    parser.add_argument("--budget", type=_positive_int, default=None,
                        help="Groebner reduction-step budget per case")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="parallel worker processes for directory runs")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="check the input hypotheses") \
        .add_argument("case")
    ft = sub.add_parser("ft-check", help="Fitting-height condition for one t")
    ft.add_argument("case")
    ft.add_argument("--t", type=_nonnegative_int, required=True)
    sub.add_parser("linear-type", help="compare the Rees and symmetric "
                                       "ideals").add_argument("case")
    sub.add_parser("rees-cm", help="depth and Cohen-Macaulay verdict for "
                                   "the Rees algebra").add_argument("case")
    probe = sub.add_parser("prop31", help="last-rows minor comparison probe")
    probe.add_argument("case")
    probe.add_argument("--rowops", type=_nonnegative_int, default=None,
                       help="extra random invertible row-operation trials")
    dump = sub.add_parser("en-dump", help="print the Eagon-Northcott complex "
                                          "of a case's last-rows block or of "
                                          "a [matrix] file")
    dump.add_argument("path")
    verify = sub.add_parser("verify", help="full pipeline with assertions")
    verify.add_argument("target", help="case file or directory of .case "
                                       "files")
    sub.add_parser("corpus", help="run the shipped example cases")
    return parser


def _emit_case(args, fill, standard_graded=False):
    """Print the report of one case command (see `verifier.open_case`)."""
    report = open_case(args.case, fill, args.seed, standard_graded)
    return _emit_reports([report], args)


def cmd_validate(args):
    return _emit_case(args, hypotheses_section)


def cmd_ft_check(args):
    return _emit_case(args, partial(ft_section, t=args.t))


def cmd_linear_type(args):
    return _emit_case(args, linear_type_section, standard_graded=True)


def cmd_rees_cm(args):
    return _emit_case(args, rees_cm_section, standard_graded=True)


def cmd_prop31(args):
    return _emit_case(args, partial(probe_sections, rowops=args.rowops))


def cmd_en_dump(args):
    complex_, record, report = en_dump(args.path)
    if complex_ is None:
        return _emit_reports([report], args)
    payload = {
        "ranks": list(complex_.ranks),
        "differentials": [[[str(p) for p in row] for row in d.entries]
                          for d in complex_.differentials],
        "labels": [[repr(l) for l in stage] for stage in
                   complex_.basis_labels],
        "acyclicity": {"minor_height": height_json(record.minor_height),
                       "bound": record.bound,
                       "criterion_met": record.criterion_met},
        "is_complex": complex_.is_complex(),
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return EXIT_OK
    print(f"ranks: {' '.join(str(r) for r in complex_.ranks)}")
    for k, d in enumerate(complex_.differentials, start=1):
        print(f"d_{k} ({d.nrows}x{d.ncols}):")
        print(d.pretty())
    print(f"height of maximal minors: {record.minor_height} "
          f"(bound {record.bound}) -> "
          + ("acyclic" if record.criterion_met else "criterion not met"))
    return EXIT_OK


def _case_paths(target):
    """The .case files of a directory, else the target itself, so a
    directory without one is refused as a file that cannot be read."""
    path = Path(target)
    found = (sorted(p for p in path.iterdir() if p.suffix == ".case")
             if path.is_dir() else [])
    return found or [path]


def _run_many(paths, args):
    results = []
    if args.jobs > 1 and len(paths) > 1:
        workers = min(args.jobs, len(paths))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(str(p), pool.submit(run_case_path, str(p),
                                            args.seed, args.budget))
                       for p in paths]
            results = [(name, f.result()) for name, f in futures]
    else:
        results = [(str(p), run_case_path(str(p), args.seed, args.budget))
                   for p in paths]
    results.sort(key=lambda pair: pair[1].case)
    return [r for _, r in results]


def _emit_reports(reports, args):
    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload if len(payload) > 1 else payload[0],
                         sort_keys=True, indent=2))
    else:
        chunks = [emit_report(r, "text") for r in reports]
        print("\n\n".join(chunks))
        passed = sum(1 for r in reports if r.status == "ok")
        if len(reports) > 1:
            print(f"\n{passed}/{len(reports)} cases passed")
    worst = EXIT_OK
    for r in reports:
        code = r.exit_code()
        if code == EXIT_ASSERTION:
            return EXIT_ASSERTION
        worst = max(worst, code)
    return worst


def cmd_verify(args):
    return _emit_reports(_run_many(_case_paths(args.target), args), args)


def cmd_corpus(args):
    from importlib import resources
    base = resources.files("diffrees") / "cases"
    paths = sorted(str(p) for p in base.iterdir()
                   if p.name.endswith(".case"))
    return _emit_reports(_run_many(paths, args), args)


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "ft-check": cmd_ft_check,
        "linear-type": cmd_linear_type,
        "rees-cm": cmd_rees_cm,
        "prop31": cmd_prop31,
        "en-dump": cmd_en_dump,
        "verify": cmd_verify,
        "corpus": cmd_corpus,
    }
    try:
        # verify and corpus open a budget per case, in run_case
        with step_budget(args.budget):
            return handlers[args.command](args)
    except RESOURCE_ERRORS as ex:
        print(f"resource exhausted: {ex}", file=sys.stderr)
        return EXIT_RESOURCE
    except DiffreesError as ex:
        print(f"invalid input: {ex}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
