"""Full verification pipeline for one case, with report emission.

The pipeline computes hypotheses, Fitting verdicts, linear type, the
Cohen-Macaulay property of the Rees algebra and the analytic spread, then
asserts the cross-implications these verdicts must satisfy:

  alpha: the F_1 verdict and the linear-type verdict agree;
  beta:  when the off-irrelevant condition holds, the Cohen-Macaulay
         verdict, the F_1 verdict, and the combined verdict
         (off-irrelevant F_1 and edim <= 2*dim - 1 at the irrelevant
         maximal ideal) all agree;
  gamma: the F_0 verdict forces the symmetric-algebra ideal to be a
         complete intersection.

Every case command enters through `open_case`, which opens the case's
step budget, parses, validates and lets the command fill the report
sections it computes, with the builders the pipeline runs; a refusal, a
resource error or an unexpected exception ends in the report.

Assertion failures are defects, never tolerated outcomes; the text format
carries timings, the JSON format omits them so equal seeds give byte-equal
output.
"""

from __future__ import annotations

import json
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .algebra import GradedAlgebra
from .casefile import load_case, load_matrix_file
from .eagon_northcott import build_en, en_acyclicity
from .errors import (ParseError, ResolutionLengthError,
                     StepBudgetExceeded, TestElementSearchError,
                     ValidationError)
from .fitting import (euler_minor_identity, fitting_profile, ft_condition,
                      ft_condition_off_irrelevant, height_json,
                      last_rows_probe, last_rows_size)
from .groebner import IdealHandle, step_budget
from .poly import parse_polynomial
from .rees import (analytic_spread, extended_context, is_linear_type,
                   rees_ideal, symmetric_presentation)
from .resolution import depth_and_cm

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_RESOURCE = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5

# why every stage of the pipeline refuses a weighted algebra
GRADING_MESSAGE = ("the pipeline needs a standard-graded algebra; weighted "
                   "inputs only support the probe operations")

# the errors that end a run as resource exhaustion, exit status 3
RESOURCE_ERRORS = (StepBudgetExceeded, TestElementSearchError,
                   ResolutionLengthError)


@dataclass
class Report:
    case: str
    status: str = "ok"                  # ok | assertion_failure |
    #                                     invalid_input | resource_exhausted |
    #                                     internal_error
    inputs: dict = field(default_factory=dict)
    hypotheses: dict = field(default_factory=dict)
    fitting: dict = field(default_factory=dict)
    linear_type: dict = field(default_factory=dict)
    rees_cm: dict = field(default_factory=dict)
    spread: dict = field(default_factory=dict)
    edim: dict = field(default_factory=dict)
    shortcut: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)
    expectation_failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def exit_code(self):
        return {"ok": EXIT_OK, "assertion_failure": EXIT_ASSERTION,
                "resource_exhausted": EXIT_RESOURCE,
                "invalid_input": EXIT_INVALID,
                "internal_error": EXIT_INTERNAL}[self.status]

    def to_dict(self):
        """Every field but the wall-clock `timings`, which would make the
        JSON differ from run to run."""
        out = asdict(self)
        del out["timings"]
        return out


@contextmanager
def _stage(report, name):
    """Record the wall time of the block in the report's timings."""
    start = time.perf_counter()
    try:
        yield
    finally:
        report.timings[name] = round(time.perf_counter() - start, 3)


def _new_report(case):
    """An empty report for the case, with its ring and relations."""
    return Report(case=case.name, inputs={
        "variables": list(case.context.names),
        "weights": list(case.context.weights),
        "relations": [str(f) for f in case.relations],
    })


def _fail(report, status, stage, code, message):
    """Record an error of `stage` in the report, which ends with `status`."""
    report.status = status
    report.errors.append({"stage": stage, "code": code, "message": message})
    return report


# ---------------------------------------------------------------------------
# The front door of every case command: open the case's step budget, parse,
# validate, fill the report's sections, and report whatever goes wrong.

def open_case(path, fill=None, seed=None, budget=None):
    """The report of one case command on the case file at `path`, under
    one step budget of `budget` steps (the default cap when None) for the
    parse and the run together.  The file is parsed and its algebra
    validated; then `fill(case, algebra, report, seed)` fills the sections
    the command computes, `seed` being the case's seed for `seed`; with
    `fill` None those of the case's own mode.  A refusal or a resource
    error becomes the report's status and errors, and any other exception
    an internal-error report (see `_door`)."""
    def run(case):
        return _checked(case, fill or _MODES[case.mode], seed)

    return _door(path, load_case, run, budget)


def run_case(case, seed=None, budget=None):
    """Run a parsed case in its mode under one step budget for the whole
    case (`budget` reduction steps, the default cap when None); an
    exception no report stage names is raised."""
    with step_budget(budget):
        return _checked(case, _MODES[case.mode], seed)


def _door(path, load, run, budget):
    """Under one step budget of `budget` steps: `run(parsed)`, the report
    of what `load` reads from the file at `path`, or the refusal report of
    its parse.  Any other exception of the parse or the run becomes an
    internal-error report carrying its traceback, so one faulty case never
    loses the others of a directory run."""
    name = str(path)
    with step_budget(budget):
        try:
            parsed, refusal = _parsed(path, load)
            if parsed is None:
                return refusal
            # a case's report bears its name, a matrix file's its path
            name = getattr(parsed, "name", name)
            return run(parsed)
        except Exception as ex:
            report = Report(case=name, status="internal_error")
            report.errors.append({"stage": "pipeline", "code": "internal",
                                  "message": f"{type(ex).__name__}: {ex}",
                                  "traceback": traceback.format_exc()})
            return report


def _parsed(path, load):
    """What `load` reads from the file at `path` and None, or None and a
    refusal report when the file does not parse or its parse runs out of
    the step budget."""
    try:
        return load(path), None
    except ParseError as ex:
        status, code, message = "invalid_input", "parse", str(ex)
    except StepBudgetExceeded as ex:
        status, code, message = "resource_exhausted", "resource", str(ex)
    return None, _fail(Report(case=str(path)), status, "parse", code, message)


def _checked(case, fill, seed):
    """A report for the parsed case: its validation issues, or the
    sections `fill` computes (see `open_case`)."""
    report = _new_report(case)
    with _resources(report):
        try:
            algebra = GradedAlgebra.validate(case.context, case.relations)
        except ValidationError as ex:
            for issue in ex.issues:
                _fail(report, "invalid_input", "validate", issue.code,
                      issue.message)
            return report
        fill(case, algebra, report, case.seed_for(seed))
    return report


@contextmanager
def _resources(report):
    """End `report` as resource_exhausted, stage `pipeline`, when the
    block runs out of a resource."""
    try:
        yield
    except RESOURCE_ERRORS as ex:
        _fail(report, "resource_exhausted", "pipeline", "resource", str(ex))


def _standard_graded(algebra, report):
    """Whether the algebra is standard graded, as every stage of the
    pipeline needs; a weighted one is refused in the report."""
    if algebra.standard_graded:
        return True
    _fail(report, "invalid_input", "validate", "grading", GRADING_MESSAGE)
    return False


# ---------------------------------------------------------------------------
# Section builders, shared by the pipeline and the single-verdict commands.
# Each takes (case, algebra, report, seed), as `open_case` calls it.

def hypotheses_section(case, algebra, report, seed):
    """The hypotheses validation establishes, and the embedding dimension
    at the irrelevant maximal ideal."""
    report.hypotheses = {
        "standard_graded": algebra.standard_graded,
        "regular_sequence": True,
        "relation_degrees": list(algebra.relation_degrees),
    }
    report.edim = algebra.irrelevant_local_data()._asdict()


def ft_section(case, algebra, report, seed, *, t):
    """The F_t verdict, as the pipeline reports F_0 and F_1."""
    report.fitting = {f"f{t}": ft_condition(algebra, t).to_dict()}


def linear_type_section(case, algebra, report, seed):
    """The linear-type verdict, with the test element and the torsion."""
    if _standard_graded(algebra, report):
        _linear_type(report, _rees(algebra, report, seed))


def rees_cm_section(case, algebra, report, seed):
    """The Cohen-Macaulay verdict of the Rees algebra and the analytic
    spread."""
    if _standard_graded(algebra, report):
        _rees_cm(report, _rees(algebra, report, seed))


NOT_REDUCED = "rank hypotheses not met: base is not reduced"


def _rees(algebra, report, seed, symmetric=None):
    """The Rees presentation, or None when the base is not reduced."""
    if not algebra.is_reduced():
        return None
    with _stage(report, "rees"):
        return rees_ideal(algebra, seed=seed, symmetric=symmetric)


def _linear_type(report, rees):
    """Fill the linear-type section, with a note in place of the verdict
    without `rees`."""
    if rees is None:
        report.linear_type = {"holds": None, "note": NOT_REDUCED}
        return
    witness = (str(rees.torsion_generators[0])
               if rees.torsion_generators else None)
    report.linear_type = {
        "holds": is_linear_type(rees),
        "test_element": str(rees.test_element),
        "torsion_generators": [str(t) for t in rees.torsion_generators],
        "torsion_witness": witness,
    }


def _rees_cm(report, rees):
    """Fill the Rees Cohen-Macaulay and spread sections, with notes in
    place of the verdicts without `rees`."""
    if rees is None:
        report.rees_cm = {"holds": None, "note": NOT_REDUCED}
        report.spread = {"value": None, "note": NOT_REDUCED}
        return
    with _stage(report, "rees_cm"):
        cm = depth_and_cm(rees.ideal)
    report.rees_cm = {
        "holds": cm.cohen_macaulay,
        "dim": cm.dimension,
        "depth": cm.depth,
        "pd": cm.projective_dimension,
        "method": cm.method,
    }
    with _stage(report, "spread"):
        report.spread = asdict(analytic_spread(rees))


def _pipeline(case, algebra, report, seed):
    """The full pipeline: every section, then the structural assertions
    on the verdicts the sections hold, and the case's expectations, a
    Rees ideal among them, on the finished report."""
    if not _standard_graded(algebra, report):
        return
    algebra.euler_residuals()
    with _stage(report, "hypotheses"):
        reduced = algebra.is_reduced()
        profile = fitting_profile(algebra)
        condition_i = ft_condition_off_irrelevant(algebra, 0)
    hypotheses_section(case, algebra, report, seed)
    report.hypotheses.update(reduced=reduced, condition_i=condition_i.holds)
    with _stage(report, "fitting"):
        f1 = ft_condition(algebra, 1)
        f0 = ft_condition(algebra, 0)
        f1_off = ft_condition_off_irrelevant(algebra, 1)
    report.fitting = {
        "rank": profile.rank,
        "generators": algebra.arity,
        "profile": [{"i": r.index,
                     "height": height_json(r.height),
                     "height_off_irrelevant":
                         height_json(r.height_off_irrelevant)}
                    for r in profile.rows],
        "f0": f0.to_dict(),
        "f1": f1.to_dict(),
        "f1_off_irrelevant": f1_off.to_dict(),
    }

    with _stage(report, "symmetric"):
        sym = symmetric_presentation(algebra)
    rees = _rees(algebra, report, seed, symmetric=sym)
    _linear_type(report, rees)
    _rees_cm(report, rees)
    # read after the Rees stage, from the basis of J its division built
    report.hypotheses["symmetric_algebra_ci"] = sym.is_complete_intersection

    _run_assertions(report)
    if reduced:
        with _stage(report, "shortcut"):
            report.shortcut = _shortcut(algebra, report)
        if check_rees_ideal_expectation(case, rees) is False:
            report.expectation_failures.append(
                {"key": "rees_ideal",
                 "expected": case.expectations["rees_ideal"],
                 "actual": [str(g) for g in rees.ideal.groebner_basis()]})
    else:
        report.shortcut = {"applicable": False,
                           "reason": "base is not reduced"}
    _check_expectations(case, report)
    if report.expectation_failures and report.status == "ok":
        report.status = "assertion_failure"


def _run_assertions(report):
    """The cross-implications (see the module doc), read off the verdicts
    the pipeline's sections hold."""
    hypotheses, fitting = report.hypotheses, report.fitting
    f0, f1 = fitting["f0"]["holds"], fitting["f1"]["holds"]
    assertions = {}
    if hypotheses["reduced"]:
        linear = report.linear_type["holds"]
        assertions["f1_iff_linear_type"] = {
            "pass": f1 == linear,
            "f1": f1, "linear_type": linear,
        }
        if hypotheses["condition_i"]:
            cm = report.rees_cm["holds"]
            combined = (fitting["f1_off_irrelevant"]["holds"]
                        and report.edim["at_most_2d_minus_1"])
            assertions["cm_iff_f1"] = {
                "pass": (cm == f1) and (f1 == combined),
                "rees_cm": cm, "f1": f1,
                "combined_local_verdict": combined,
            }
        else:
            assertions["cm_iff_f1"] = {
                "pass": None,
                "skipped": "condition (i) fails; raw verdicts only",
            }
        sym_ci = hypotheses["symmetric_algebra_ci"]
        assertions["f0_implies_symmetric_ci"] = {
            "pass": (not f0) or sym_ci,
            "f0": f0, "symmetric_ci": sym_ci,
        }
        assertions["spread_bounds"] = {"pass": report.spread["bounds_ok"]}
    else:
        assertions["f1_iff_linear_type"] = {
            "pass": None, "skipped": "rank hypotheses not met"}
        assertions["cm_iff_f1"] = {
            "pass": None, "skipped": "rank hypotheses not met"}
        assertions["f0_implies_symmetric_ci"] = {
            "pass": None, "skipped": "rank hypotheses not met"}
    report.assertions = assertions
    if any(a.get("pass") is False for a in assertions.values()):
        report.status = "assertion_failure"


def smooth_ci_shortcut(algebra, pipeline_cm=None):
    """Cone-over-smooth-projective-variety shortcut.

    When the input is reduced and smooth away from the vertex (every
    Fitting ideal of the differential module is irrelevant-primary or the
    unit ideal), the Cohen-Macaulay verdict for the Rees algebra is
    decided by the inequality (projective ambient dimension) <= 2 *
    (variety dimension); when the pipeline verdict is supplied the two
    must agree.  A failed smoothness check makes the shortcut
    inapplicable, never fatal.
    """
    smooth_off_origin = all(r.height_off_irrelevant == float("inf")
                            for r in fitting_profile(algebra).rows)
    if not (algebra.is_reduced() and smooth_off_origin):
        return {"applicable": False,
                "reason": "input is not smooth away from the vertex"}
    n, d = algebra.arity, algebra.dimension
    verdict = (n - 1) <= 2 * (d - 1)
    out = {"applicable": True, "projective_ambient": n - 1,
           "projective_dimension": d - 1, "cm": verdict}
    if pipeline_cm is not None:
        out["agrees_with_pipeline"] = verdict == pipeline_cm
    return out


def _shortcut(algebra, report):
    out = smooth_ci_shortcut(algebra,
                             pipeline_cm=report.rees_cm.get("holds"))
    if out.get("agrees_with_pipeline") is False:
        report.status = "assertion_failure"
    return out


def _check_expectations(case, report):
    checks = {
        "standard_graded": lambda: report.hypotheses.get("standard_graded"),
        "reduced": lambda: report.hypotheses.get("reduced"),
        "condition_i": lambda: report.hypotheses.get("condition_i"),
        "f0": lambda: report.fitting.get("f0", {}).get("holds"),
        "f1": lambda: report.fitting.get("f1", {}).get("holds"),
        "linear_type": lambda: report.linear_type.get("holds"),
        "rees_cm": lambda: report.rees_cm.get("holds"),
        "rees_dim": lambda: report.rees_cm.get("dim"),
        "rees_depth": lambda: report.rees_cm.get("depth"),
        "rees_pd": lambda: report.rees_cm.get("pd"),
        "spread": lambda: report.spread.get("value"),
        "edim": lambda: report.edim.get("edim"),
        "dim": lambda: report.edim.get("dim"),
        "shortcut_cm": lambda: report.shortcut.get("cm"),
    }
    for key, expected in case.expectations.items():
        if key == "torsion_contains":
            got = report.linear_type.get("torsion_generators", [])
            for wanted in expected:
                canon = str(_reparse(case, wanted))
                if canon not in got:
                    report.expectation_failures.append(
                        {"key": key, "expected": canon, "actual": got})
        elif key == "rees_ideal":
            continue  # checked by the pipeline, which holds the Rees ideal
        else:
            actual = checks[key]()
            if actual != expected:
                report.expectation_failures.append(
                    {"key": key, "expected": expected, "actual": actual})


def _reparse(case, text):
    return parse_polynomial(extended_context(case.context), text)


def check_rees_ideal_expectation(case, rees):
    """Exact equality of the computed Rees ideal against an expected
    generator list given in the extended ring's variables."""
    expected = case.expectations.get("rees_ideal")
    if not expected:
        return None
    big = rees.symmetric.ideal.context
    gens = [parse_polynomial(big, raw) for raw in expected]
    return rees.ideal.equals(IdealHandle(big, gens))


# ---------------------------------------------------------------------------

def probe_sections(case, algebra, report, seed, rowops=None):
    """The last-rows probe, with `rowops` row-operation trials (the case's
    count when None), and the Euler identity of its corner minor."""
    if _last_rows_size(algebra, report) is None:
        return
    rowops = case.rowops if rowops is None else rowops
    try:
        probe = last_rows_probe(algebra, rowops=rowops, seed=seed)
        residual = euler_minor_identity(algebra)
    except StepBudgetExceeded as ex:
        _fail(report, "resource_exhausted", "probe", "resource", str(ex))
        return
    report.fitting = {
        "minor_size": probe.t,
        "ideals_equal": probe.ideals_equal,
        "height_full": height_json(probe.height_full),
        "height_last_rows": height_json(probe.height_last_rows),
        "row_op_trials": [{"ideals_equal": tr.ideals_equal,
                           "height_full": height_json(tr.height_full),
                           "implication_holds": tr.implication_holds}
                          for tr in probe.row_op_trials],
    }
    report.assertions = {
        "equality_forces_height_drop": {"pass": probe.implication_holds},
        "euler_minor_identity": {"pass": residual.is_zero},
    }
    if not (probe.implication_holds and residual.is_zero):
        report.status = "assertion_failure"


# the section builder of each case mode
_MODES = {"pipeline": _pipeline, "prop31": probe_sections}


def _last_rows_size(algebra, report):
    """`last_rows_size(algebra)`, or None after refusing an algebra the
    last-rows block does not fit."""
    try:
        return last_rows_size(algebra)
    except ValueError as ex:
        _fail(report, "invalid_input", "probe", "shape", str(ex))
        return None


def en_dump(path, budget=None):
    """The Eagon-Northcott complex `en-dump` prints, the JSON payload of
    its table and a report: for a case file the complex of the last-rows
    block of the Jacobian presentation over the case's algebra, for a
    [matrix] file that of its matrix over the polynomial ring.  The whole
    payload is computed behind the door of every case command
    (`open_case`, `_door`), under one step budget of `budget` steps; the
    complex and the payload are None when the report refuses the input,
    or records that a resource ran out or an internal error."""
    found = [None, None]

    def table(matrix, quotient=None):
        complex_ = build_en(matrix)
        record = en_acyclicity(matrix, quotient)
        found[:] = complex_, {
            "ranks": list(complex_.ranks),
            "differentials": [[[str(p) for p in row] for row in d.entries]
                              for d in complex_.differentials],
            "labels": [[repr(label) for label in stage]
                       for stage in complex_.basis_labels],
            "acyclicity": {"minor_height": height_json(record.minor_height),
                           "bound": record.bound,
                           "criterion_met": record.criterion_met},
            "is_complex": complex_.is_complex(),
        }

    def block(case, algebra, report, seed):
        t = _last_rows_size(algebra, report)
        if t is not None:
            n, theta = algebra.arity, algebra.jacobian_presentation()
            table(theta.submatrix(range(n - t, n), range(theta.ncols)),
                  algebra)

    def matrix_report(matrix):
        report = Report(case=str(path))
        with _resources(report):
            table(matrix)
        return report

    if Path(path).suffix == ".case":
        report = open_case(path, block, budget=budget)
    else:
        report = _door(path, load_matrix_file, matrix_report, budget)
    return (*found, report)


# ---------------------------------------------------------------------------

def emit_report(report, fmt="text"):
    """Serialize a report: stable-key JSON (timings omitted) or readable
    text (timings included)."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)
    return _text_report(report)


def _text_report(report):
    lines = [f"case: {report.case}", f"status: {report.status}"]
    if report.inputs:
        lines.append("ring: Q[" + ", ".join(report.inputs["variables"]) + "]"
                     + ("" if all(w == 1 for w in report.inputs["weights"])
                        else f" weights {report.inputs['weights']}"))
        for f in report.inputs["relations"]:
            lines.append(f"  relation: {f}")
    for label, data in (("hypotheses", report.hypotheses),
                        ("fitting", report.fitting),
                        ("linear type", report.linear_type),
                        ("rees cohen-macaulay", report.rees_cm),
                        ("analytic spread", report.spread),
                        ("edim at the irrelevant ideal", report.edim),
                        ("smooth-cone shortcut", report.shortcut)):
        if data:
            lines.append(f"{label}:")
            for k, v in data.items():
                lines.append(f"  {k} = {v}")
    if report.assertions:
        lines.append("assertions:")
        for k, v in report.assertions.items():
            mark = {True: "pass", False: "FAIL", None: "skipped"}[v.get("pass")]
            lines.append(f"  {k}: {mark}")
    for fail in report.expectation_failures:
        lines.append(f"expectation mismatch: {fail}")
    for err in report.errors:
        lines.append(f"error[{err.get('stage')}]: {err.get('message')}")
    if report.timings:
        total = sum(report.timings.values())
        stages = ", ".join(f"{k}={v}s" for k, v in report.timings.items())
        lines.append(f"timings: total={round(total, 3)}s ({stages})")
    return "\n".join(lines)

