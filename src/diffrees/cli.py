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

from .verifier import (EXIT_ASSERTION, EXIT_OK, emit_report, en_dump,
                       ft_section, hypotheses_section, linear_type_section,
                       open_case, probe_sections, rees_cm_section)


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

    def case_command(name, fill, help, option=None):
        """A subcommand that prints the report `fill` fills (see
        `_emit_case`)."""
        command = sub.add_parser(name, help=help)
        command.add_argument("case")
        command.set_defaults(run=partial(_emit_case, fill=fill,
                                         option=option))
        return command

    case_command("validate", hypotheses_section,
                 "check the input hypotheses")
    ft = case_command("ft-check", ft_section,
                      "Fitting-height condition for one t", option="t")
    ft.add_argument("--t", type=_nonnegative_int, required=True)
    case_command("linear-type", linear_type_section,
                 "compare the Rees and symmetric ideals")
    case_command("rees-cm", rees_cm_section,
                 "depth and Cohen-Macaulay verdict for the Rees algebra")
    probe = case_command("prop31", probe_sections,
                         "last-rows minor comparison probe", option="rowops")
    probe.add_argument("--rowops", type=_nonnegative_int, default=None,
                       help="extra random invertible row-operation trials")
    dump = sub.add_parser("en-dump", help="print the Eagon-Northcott complex "
                                          "of a case's last-rows block or of "
                                          "a [matrix] file")
    dump.add_argument("path")
    dump.set_defaults(run=cmd_en_dump)
    verify = sub.add_parser("verify", help="full pipeline with assertions")
    verify.add_argument("target", help="case file or directory of .case "
                                       "files")
    verify.set_defaults(run=cmd_verify)
    sub.add_parser("corpus", help="run the shipped example cases") \
        .set_defaults(run=cmd_corpus)
    return parser


def _emit_case(args, fill, option=None):
    """Print the report of one case command (see `verifier.open_case`);
    `option` names the command's own option, which `fill` takes as a
    keyword."""
    if option is not None:
        fill = partial(fill, **{option: getattr(args, option)})
    report = open_case(args.case, fill, args.seed, args.budget)
    return _emit_reports([report], args)


def cmd_en_dump(args):
    complex_, payload, report = en_dump(args.path, args.budget)
    if complex_ is None:
        return _emit_reports([report], args)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return EXIT_OK
    print(f"ranks: {' '.join(str(r) for r in complex_.ranks)}")
    for k, d in enumerate(complex_.differentials, start=1):
        print(f"d_{k} ({d.nrows}x{d.ncols}):")
        print(d.pretty())
    acyclicity = payload["acyclicity"]
    print(f"height of maximal minors: {acyclicity['minor_height']} "
          f"(bound {acyclicity['bound']}) -> "
          + ("acyclic" if acyclicity["criterion_met"]
             else "criterion not met"))
    return EXIT_OK


def _case_paths(target):
    """The .case files of a directory, else the target itself, so a
    directory without one is refused as a file that cannot be read."""
    path = Path(target)
    found = (sorted(p for p in path.iterdir() if p.suffix == ".case")
             if path.is_dir() else [])
    return found or [path]


def _run_many(paths, args):
    """The reports of the case files at `paths`, each run in its own mode
    (see `verifier.open_case`), in case-name order."""
    run = partial(open_case, seed=args.seed, budget=args.budget)
    paths = [str(p) for p in paths]
    if args.jobs > 1 and len(paths) > 1:
        workers = min(args.jobs, len(paths))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run, p) for p in paths]
            reports = [f.result() for f in futures]
    else:
        reports = [run(p) for p in paths]
    return sorted(reports, key=lambda r: r.case)


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
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
