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

from .algebra import GradedAlgebra
from .errors import (ParseError, ResolutionLengthError,
                     StepBudgetExceeded, TestElementSearchError,
                     ValidationError)
from .fitting import (euler_minor_identity, fitting_profile, ft_condition,
                      ft_condition_off_irrelevant, height_json,
                      last_rows_probe)
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


def _validated(case, report):
    """The case's algebra, or None after recording every validation issue
    in the report."""
    try:
        return GradedAlgebra.validate(case.context, case.relations)
    except ValidationError as ex:
        report.status = "invalid_input"
        report.errors = [{"stage": "validate", "code": i.code,
                          "message": i.message} for i in ex.issues]
        return None


def run_pipeline(case, seed=None):
    """Execute the full pipeline for a parsed case file and build a report.

    Resource and exhaustion errors are caught and reported per stage; the
    structural assertions are evaluated on whatever verdicts exist, and the
    case's expectations, a Rees ideal among them, on the finished report.
    """
    report = _new_report(case)
    seed = case.seed_for(seed)

    algebra = _validated(case, report)
    if algebra is None:
        return report
    if not algebra.standard_graded:
        report.status = "invalid_input"
        report.errors = [{"stage": "validate", "code": "grading",
                          "message": "the pipeline needs a standard-graded "
                                     "algebra; weighted inputs only support "
                                     "the probe operations"}]
        return report

    algebra.euler_residuals()

    try:
        with _stage(report, "hypotheses"):
            reduced = algebra.is_reduced()
            profile = fitting_profile(algebra)
            condition_i = ft_condition_off_irrelevant(algebra, 0, profile)
        report.hypotheses = {
            "standard_graded": True,
            "regular_sequence": True,
            "relation_degrees": list(algebra.relation_degrees),
            "reduced": reduced,
            "condition_i": condition_i.holds,
        }
        with _stage(report, "fitting"):
            f1 = ft_condition(algebra, 1, profile)
            f0 = ft_condition(algebra, 0, profile)
            f1_off = ft_condition_off_irrelevant(algebra, 1, profile)
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
        report.edim = algebra.irrelevant_local_data()._asdict()

        linear = cm = spread_rec = None
        with _stage(report, "symmetric"):
            sym = symmetric_presentation(algebra)
        if reduced:
            with _stage(report, "rees"):
                rees = rees_ideal(algebra, seed=seed, symmetric=sym)
                linear = is_linear_type(rees)
            witness = (str(rees.torsion_generators[0])
                       if rees.torsion_generators else None)
            report.linear_type = {
                "holds": linear,
                "test_element": str(rees.test_element),
                "torsion_generators": [str(t)
                                       for t in rees.torsion_generators],
                "torsion_witness": witness,
            }
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
                spread_rec = analytic_spread(rees)
            report.spread = asdict(spread_rec)
        else:
            note = "rank hypotheses not met: base is not reduced"
            report.linear_type = {"holds": None, "note": note}
            report.rees_cm = {"holds": None, "note": note}
            report.spread = {"value": None, "note": note}
        report.hypotheses["symmetric_algebra_ci"] = \
            sym.is_complete_intersection

        _run_assertions(report, reduced=reduced,
                        condition_i=condition_i.holds, f0=f0.holds,
                        f1=f1.holds, f1_off=f1_off.holds,
                        linear=linear, cm=cm,
                        spread_rec=spread_rec,
                        sym_ci=sym.is_complete_intersection)
        if reduced:
            with _stage(report, "shortcut"):
                report.shortcut = _shortcut(algebra, profile, report)
            if check_rees_ideal_expectation(case, rees) is False:
                report.expectation_failures.append(
                    {"key": "rees_ideal",
                     "expected": case.expectations["rees_ideal"],
                     "actual": [str(g) for g in rees.ideal.groebner_basis()]})
        else:
            report.shortcut = {"applicable": False,
                               "reason": "base is not reduced"}
    except RESOURCE_ERRORS as ex:
        report.status = "resource_exhausted"
        report.errors.append({"stage": "pipeline", "code": "resource",
                              "message": str(ex)})
        return report

    _check_expectations(case, report)
    if report.expectation_failures and report.status == "ok":
        report.status = "assertion_failure"
    return report


def _run_assertions(report, *, reduced, condition_i, f0, f1, f1_off,
                    linear, cm, spread_rec, sym_ci):
    assertions = {}
    if reduced:
        assertions["f1_iff_linear_type"] = {
            "pass": f1 == linear,
            "f1": f1, "linear_type": linear,
        }
        if condition_i and cm is not None:
            combined = f1_off and report.edim["at_most_2d_minus_1"]
            assertions["cm_iff_f1"] = {
                "pass": (cm.cohen_macaulay == f1) and (f1 == combined),
                "rees_cm": cm.cohen_macaulay, "f1": f1,
                "combined_local_verdict": combined,
            }
        else:
            assertions["cm_iff_f1"] = {
                "pass": None,
                "skipped": "condition (i) fails; raw verdicts only",
            }
        assertions["f0_implies_symmetric_ci"] = {
            "pass": (not f0) or sym_ci,
            "f0": f0, "symmetric_ci": sym_ci,
        }
        if spread_rec is not None:
            assertions["spread_bounds"] = {"pass": spread_rec.bounds_ok}
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


def smooth_ci_shortcut(algebra, profile=None, pipeline_cm=None):
    """Cone-over-smooth-projective-variety shortcut.

    When the input is reduced and smooth away from the vertex (every
    Fitting ideal of the differential module is irrelevant-primary or the
    unit ideal), the Cohen-Macaulay verdict for the Rees algebra is
    decided by the inequality (projective ambient dimension) <= 2 *
    (variety dimension); when the pipeline verdict is supplied the two
    must agree.  A failed smoothness check makes the shortcut
    inapplicable, never fatal.
    """
    profile = profile or fitting_profile(algebra)
    smooth_off_origin = all(r.height_off_irrelevant == float("inf")
                            for r in profile.rows)
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


def _shortcut(algebra, profile, report):
    out = smooth_ci_shortcut(algebra, profile,
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
    big = rees.symmetric.extended_context
    gens = [parse_polynomial(big, raw) for raw in expected]
    return rees.ideal.equals(IdealHandle(big, gens))


# ---------------------------------------------------------------------------

def probe_report(case, rowops=None, seed=None):
    """Report for the last-rows minor probe mode."""
    report = _new_report(case)
    algebra = _validated(case, report)
    if algebra is None:
        return report
    rowops = case.rowops if rowops is None else rowops
    seed = case.seed_for(seed)
    try:
        probe = last_rows_probe(algebra, rowops=rowops, seed=seed)
        residual = euler_minor_identity(algebra)
    except ValueError as ex:
        report.status = "invalid_input"
        report.errors.append({"stage": "probe", "code": "shape",
                              "message": str(ex)})
        return report
    except StepBudgetExceeded as ex:
        report.status = "resource_exhausted"
        report.errors.append({"stage": "probe", "code": "resource",
                              "message": str(ex)})
        return report
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
    return report


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


def run_case(case, seed=None, budget=None):
    """Run a parsed case in its mode under one step budget for the whole
    case (`budget` reduction steps, the default cap when None)."""
    with step_budget(budget):
        return _run_in_mode(case, seed)


def _run_in_mode(case, seed):
    if case.mode == "prop31":
        return probe_report(case, seed=seed)
    return run_pipeline(case, seed=seed)


def run_case_path(path, seed=None, budget=None):
    """Load and run one case file under one step budget of `budget`
    steps for the parse and the run together; parse errors become
    invalid-input reports, a parse out of budget a resource-exhausted one
    and any other exception an internal-error report, so directory runs
    keep going."""
    from .casefile import load_case
    with step_budget(budget):
        try:
            case = load_case(path)
        except ParseError as ex:
            report = Report(case=str(path), status="invalid_input")
            report.errors.append({"stage": "parse", "code": "parse",
                                  "message": str(ex)})
            return report
        except StepBudgetExceeded as ex:
            report = Report(case=str(path), status="resource_exhausted")
            report.errors.append({"stage": "parse", "code": "resource",
                                  "message": str(ex)})
            return report
        try:
            return _run_in_mode(case, seed)
        except Exception as ex:  # one faulty case must not lose the others
            report = Report(case=case.name, status="internal_error")
            report.errors.append({"stage": "pipeline", "code": "internal",
                                  "message": f"{type(ex).__name__}: {ex}",
                                  "traceback": traceback.format_exc()})
            return report
