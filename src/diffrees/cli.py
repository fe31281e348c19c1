"""Command-line interface.

Exit status: 0 all checks pass, 2 assertion/expectation failure,
3 resource exhaustion, 4 invalid input, 5 a case raised an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .algebra import GradedAlgebra
from .casefile import load_case, load_matrix_file
from .eagon_northcott import build_en, en_acyclicity
from .errors import DiffreesError, ParseError, ValidationError
from .fitting import ft_condition, height_json, last_rows_size
from .groebner import step_budget
from .rees import analytic_spread, is_linear_type, rees_ideal
from .resolution import depth_and_cm
from .verifier import (EXIT_ASSERTION, EXIT_INVALID, EXIT_OK, EXIT_RESOURCE,
                       GRADING_MESSAGE, RESOURCE_ERRORS, emit_report,
                       probe_report, run_case_path)


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


def _emit(payload, fmt, text):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _load(path):
    try:
        return load_case(path), None
    except ParseError as ex:
        return None, str(ex)


def cmd_validate(args):
    case, err = _load(args.case)
    if err:
        _emit({"status": "invalid_input", "errors": [err]}, args.format,
              f"parse error: {err}")
        return EXIT_INVALID
    try:
        algebra = GradedAlgebra.validate(case.context, case.relations)
    except ValidationError as ex:
        payload = {"status": "invalid_input", "case": case.name,
                   "issues": [{"code": i.code, "message": i.message}
                              for i in ex.issues]}
        text = "\n".join([f"case {case.name}: rejected"]
                         + [f"  [{i.code}] {i.message}" for i in ex.issues])
        _emit(payload, args.format, text)
        return EXIT_INVALID
    payload = {"status": "ok", "case": case.name,
               "dimension": algebra.dimension,
               "codimension": algebra.codimension,
               "standard_graded": algebra.standard_graded,
               "relation_degrees": list(algebra.relation_degrees)}
    text = (f"case {case.name}: valid graded complete intersection, "
            f"dim {algebra.dimension}, codim {algebra.codimension}")
    _emit(payload, args.format, text)
    return EXIT_OK


def _validated_algebra(args, standard_graded=False):
    """The case and its validated algebra, or the exit code of a refusal.
    With `standard_graded`, a weighted algebra is refused as `verify`
    refuses it, before any stage of the pipeline runs."""
    case, err = _load(args.case)
    if err:
        _emit({"status": "invalid_input", "errors": [err]}, args.format,
              f"parse error: {err}")
        return None, None, EXIT_INVALID
    try:
        algebra = GradedAlgebra.validate(case.context, case.relations)
    except ValidationError as ex:
        text = "\n".join(f"[{i.code}] {i.message}" for i in ex.issues)
        _emit({"status": "invalid_input",
               "issues": [i.message for i in ex.issues]}, args.format, text)
        return None, None, EXIT_INVALID
    if standard_graded and not algebra.standard_graded:
        _emit({"status": "invalid_input", "issues": [GRADING_MESSAGE]},
              args.format, f"[grading] {GRADING_MESSAGE}")
        return None, None, EXIT_INVALID
    return case, algebra, None


def cmd_ft_check(args):
    case, algebra, code = _validated_algebra(args)
    if code is not None:
        return code
    verdict = ft_condition(algebra, args.t)
    payload = {"case": case.name, **verdict.to_dict()}
    text = (f"case {case.name}: F_{args.t} "
            + ("holds" if verdict.holds else
               f"fails at i={verdict.failing_index} "
               f"(height {verdict.actual} < {verdict.required})"))
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_linear_type(args):
    case, algebra, code = _validated_algebra(args, standard_graded=True)
    if code is not None:
        return code
    rees = rees_ideal(algebra, seed=case.seed_for(args.seed))
    holds = is_linear_type(rees)
    payload = {"case": case.name, "linear_type": holds,
               "test_element": str(rees.test_element),
               "torsion_generators": [str(t)
                                      for t in rees.torsion_generators]}
    text = (f"case {case.name}: "
            + ("of linear type" if holds else
               "not of linear type; torsion witness "
               + str(rees.torsion_generators[0])))
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_rees_cm(args):
    case, algebra, code = _validated_algebra(args, standard_graded=True)
    if code is not None:
        return code
    rees = rees_ideal(algebra, seed=case.seed_for(args.seed))
    rep = depth_and_cm(rees.ideal)
    spread = analytic_spread(rees)
    payload = {"case": case.name, "cohen_macaulay": rep.cohen_macaulay,
               "dim": rep.dimension, "depth": rep.depth,
               "pd": rep.projective_dimension,
               "spread": spread.value, "spread_bounds_ok": spread.bounds_ok}
    text = (f"case {case.name}: Rees algebra "
            + ("is" if rep.cohen_macaulay else "is NOT")
            + f" Cohen-Macaulay (dim {rep.dimension}, depth {rep.depth}, "
              f"pd {rep.projective_dimension}); spread {spread.value}")
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_prop31(args):
    case, err = _load(args.case)
    if err:
        _emit({"status": "invalid_input", "errors": [err]}, args.format,
              f"parse error: {err}")
        return EXIT_INVALID
    report = probe_report(case, rowops=args.rowops, seed=args.seed)
    _emit(report.to_dict(), args.format, emit_report(report, "text"))
    return report.exit_code()


def cmd_en_dump(args):
    path = Path(args.path)
    try:
        if path.suffix == ".case":
            case = load_case(path)
            try:
                algebra = GradedAlgebra.validate(case.context,
                                                 case.relations)
            except ValidationError as ex:
                _emit({"status": "invalid_input",
                       "issues": [i.message for i in ex.issues]},
                      args.format, "\n".join(i.message for i in ex.issues))
                return EXIT_INVALID
            try:
                t = last_rows_size(algebra)
            except ValueError as ex:
                _emit({"status": "invalid_input", "issues": [str(ex)]},
                      args.format, str(ex))
                return EXIT_INVALID
            n = algebra.arity
            theta = algebra.jacobian_presentation()
            matrix = theta.submatrix(range(n - t, n), range(theta.ncols))
            quotient = algebra
        else:
            matrix = load_matrix_file(path)
            quotient = None
    except ParseError as ex:
        _emit({"status": "invalid_input", "errors": [str(ex)]}, args.format,
              f"parse error: {ex}")
        return EXIT_INVALID
    if matrix.nrows > matrix.ncols:
        _emit({"status": "invalid_input",
               "issues": ["matrix needs at least as many columns as rows"]},
              args.format, "matrix needs at least as many columns as rows")
        return EXIT_INVALID
    complex_ = build_en(matrix)
    record = en_acyclicity(matrix, quotient)
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
    lines = [f"ranks: {' '.join(str(r) for r in complex_.ranks)}"]
    for k, d in enumerate(complex_.differentials, start=1):
        lines.append(f"d_{k} ({d.nrows}x{d.ncols}):")
        lines.append(d.pretty())
    lines.append(f"height of maximal minors: {record.minor_height} "
                 f"(bound {record.bound}) -> "
                 + ("acyclic" if record.criterion_met else
                    "criterion not met"))
    _emit(payload, args.format, "\n".join(lines))
    return EXIT_OK


def _case_paths(target):
    path = Path(target)
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix == ".case")
    return [path]


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
    paths = _case_paths(args.target)
    if not paths:
        _emit({"status": "invalid_input",
               "errors": ["no .case files found"]}, args.format,
              "no .case files found")
        return EXIT_INVALID
    return _emit_reports(_run_many(paths, args), args)


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
