import json
import re
from importlib import resources
from pathlib import Path

import pytest

from diffrees import groebner
from diffrees.algebra import GradedAlgebra
from diffrees.casefile import EXPECTATIONS, load_case, load_matrix_file
from diffrees.cli import main
from diffrees.errors import ParseError
from diffrees.fitting import euler_minor_identity
from diffrees.verifier import EXIT_INVALID, emit_report, open_case, run_case



def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _steps_of(run, monkeypatch):
    """Reduction steps `run()` spends, counted through StepCounter.spend."""
    steps = [0]
    spend = groebner.StepCounter.spend

    def counted(counter, n=1):
        steps[0] += n
        return spend(counter, n)

    with monkeypatch.context() as patch:
        patch.setattr(groebner.StepCounter, "spend", counted)
        run()
    return steps[0]


QUADRIC = """
[algebra]
name = quadric-cone
variables = X, Y, Z
relations = X*Y - Z^2
"""

CROSS = """
[algebra]
name = coordinate-cross
variables = X, Y
relations = X*Y

[expect]
f1 = false
linear_type = false
torsion_contains = X*T2
rees_ideal = X*Y; X*T2; Y*T1; T1*T2
rees_cm = false
rees_dim = 2
rees_depth = 1
spread = 1
"""


def test_load_case(tmp_path):
    case = load_case(_write(tmp_path, "q.case", QUADRIC))
    assert case.name == "quadric-cone"
    assert case.context.names == ("X", "Y", "Z")
    assert [str(f) for f in case.relations] == ["X*Y - Z^2"]
    assert case.mode == "pipeline"


def test_load_case_multiline_relations(tmp_path):
    text = """
[algebra]
name = multi
variables = X, Y, Z, W
relations = X*W - Y*Z;
    X^2 + Y^2 + Z^2 + W^2
"""
    case = load_case(_write(tmp_path, "m.case", text))
    assert len(case.relations) == 2


def test_load_case_rejects_unknown_variable(tmp_path):
    text = QUADRIC.replace("X*Y - Z^2", "X*Y - Q^2")
    with pytest.raises(ParseError):
        load_case(_write(tmp_path, "bad.case", text))


def test_load_case_rejects_bad_expect_key(tmp_path):
    with pytest.raises(ParseError):
        load_case(_write(tmp_path, "bad.case",
                         QUADRIC + "\n[expect]\nnonsense = 1\n"))


@pytest.mark.parametrize("line,message", [
    ("rowops = -3", "a nonnegative integer"), ("rowops = two", "a nonnegative"),
    ("seed = abc", "an integer")])
def test_load_case_rejects_bad_mode_counts(tmp_path, line, message):
    text = QUADRIC + f"\n[mode]\nrun = prop31\n{line}\n"
    with pytest.raises(ParseError, match=message):
        load_case(_write(tmp_path, "bad.case", text))


def test_load_case_rejects_expectations_of_a_probe(tmp_path):
    """Only the pipeline checks [expect], so a prop31 case may not carry
    one; the refusal names both sections."""
    text = QUADRIC + "\n[mode]\nrun = prop31\n\n[expect]\nf1 = true\n"
    with pytest.raises(ParseError, match=r"\[expect\].*prop31"):
        load_case(_write(tmp_path, "bad.case", text))


def test_matrix_file(tmp_path):
    text = """
[matrix]
variables = X, Y, Z, W
rows = X; Y; Z
    Y; Z; W
"""
    matrix = load_matrix_file(_write(tmp_path, "m.matrix", text))
    assert matrix.shape == (2, 3)


def test_pipeline_quadric(tmp_path):
    case = load_case(_write(tmp_path, "q.case", QUADRIC))
    report = run_case(case)
    assert report.status == "ok"
    assert report.hypotheses["reduced"]
    assert report.hypotheses["condition_i"]
    assert report.fitting["f1"]["holds"]
    assert report.linear_type["holds"]
    assert report.rees_cm == {
        "holds": True, "dim": 4, "depth": 4, "pd": 2,
        "method": report.rees_cm["method"]}
    assert report.spread["value"] == 3
    assert all(a["pass"] for a in report.assertions.values())
    assert report.shortcut["applicable"] and report.shortcut["cm"]


def test_pipeline_cross_with_expectations(tmp_path):
    report = run_case(load_case(_write(tmp_path, "c.case", CROSS)))
    assert report.status == "ok"
    assert report.expectation_failures == []
    assert report.fitting["f1"]["holds"] is False
    assert report.fitting["f1"]["witness"]["i"] == 1
    assert "X*T2" in report.linear_type["torsion_generators"]
    assert report.linear_type["torsion_witness"] is not None
    assert report.rees_cm["depth"] == 1


def test_pipeline_rejects_invalid(tmp_path):
    text = """
[algebra]
name = broken
variables = X, Y
relations = X + Y^2
"""
    report = run_case(load_case(_write(tmp_path, "b.case", text)))
    assert report.status == "invalid_input"
    assert report.errors[0]["code"] == "inhomogeneous"


def test_pipeline_rejection_lists_every_issue(tmp_path):
    text = """
[algebra]
name = broken
variables = X, Y
relations = X + Y^2; X + Y
"""
    report = run_case(load_case(_write(tmp_path, "b.case", text)))
    codes = {e["code"] for e in report.errors}
    assert codes >= {"inhomogeneous", "degree"}


def test_pipeline_nonreduced_reports_raw_verdicts(tmp_path):
    text = """
[algebra]
name = doubled-line
variables = X, Y
relations = X^2
"""
    report = run_case(load_case(_write(tmp_path, "n.case", text)))
    assert report.status == "ok"
    assert report.hypotheses["reduced"] is False
    assert report.linear_type["holds"] is None
    assert "rank hypotheses" in report.linear_type["note"]
    assert all(a["pass"] is None for a in report.assertions.values())


def test_expectation_mismatch_fails(tmp_path):
    text = QUADRIC + "\n[expect]\nf1 = false\n"
    report = run_case(load_case(_write(tmp_path, "q.case", text)))
    assert report.status == "assertion_failure"
    assert report.expectation_failures[0]["key"] == "f1"


def _wrong_value(key, report):
    """An `[expect]` value for `key` that the quadric cone's `report`
    contradicts."""
    check = EXPECTATIONS[key][1]
    if check == "torsion":
        return "X*T2"            # the cone is of linear type: no torsion
    if check == "rees_ideal":
        return "X*Y - Z^2"       # the linear forms are missing
    value = report
    for part in check:
        value = value[part]
    return str(not value).lower() if isinstance(value, bool) else value + 1


@pytest.mark.parametrize("key", list(EXPECTATIONS))
def test_every_expectation_key_can_fail(tmp_path, capsys, key):
    """A wrong value for any key of the [expect] vocabulary gives exactly
    one failure entry, naming the key, and exit status 2."""
    path = _write(tmp_path, "q.case", QUADRIC)
    report = _json_report(capsys, "verify", path)
    text = QUADRIC + f"\n[expect]\n{key} = {_wrong_value(key, report)}\n"
    path = _write(tmp_path, "wrong.case", text)
    report = _json_report(capsys, "verify", path, code=2)
    assert report["status"] == "assertion_failure"
    assert [f["key"] for f in report["expectation_failures"]] == [key]


def test_rees_ideal_expectation_without_a_rees_ideal_fails(tmp_path, capsys):
    """A non-reduced base has no Rees ideal, so an expected one fails with
    actual None, as every other key without a verdict does; failures come
    in file order, expected polynomials in their printed form."""
    text = """
[algebra]
name = doubled-plane
variables = X, Y, Z
relations = X^2

[expect]
rees_ideal = 1*X
linear_type = true
"""
    report = _json_report(capsys, "verify", _write(tmp_path, "n.case", text),
                          code=2)
    assert report["expectation_failures"] == [
        {"key": "rees_ideal", "expected": ["X"], "actual": None},
        {"key": "linear_type", "expected": True, "actual": None}]


def test_readme_names_every_expectation_key():
    """README's "Expectation keys" paragraph lists the table's keys, no
    more and no fewer."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    paragraph = readme.split("Expectation keys:", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`([a-z_0-9]+)`", paragraph)) == sorted(
        EXPECTATIONS)


def test_report_json_roundtrip_and_determinism(tmp_path):
    case = load_case(_write(tmp_path, "q.case", QUADRIC))
    first = emit_report(run_case(case, seed=7), "json")
    second = emit_report(run_case(case, seed=7), "json")
    assert first == second
    data = json.loads(first)
    assert json.dumps(data, sort_keys=True, indent=2) == first
    assert "timings" not in data


def test_probe_mode(tmp_path):
    text = """
[algebra]
name = curve-probe
variables = X1, X2, X3, X4
relations = X1^2 + X2^2 + X3^2 + X4^2; X1^2 + 2*X2^2 + 3*X3^2 + 4*X4^2

[mode]
run = prop31
rowops = 2
"""
    report = run_case(load_case(_write(tmp_path, "p.case", text)))
    assert report.status == "ok"
    assert report.fitting["minor_size"] == 1
    assert report.assertions["equality_forces_height_drop"]["pass"]
    assert report.assertions["euler_minor_identity"]["pass"]
    assert len(report.fitting["row_op_trials"]) == 2


def test_open_case_parse_error(tmp_path):
    path = _write(tmp_path, "bad.case", "not a case file [")
    report = open_case(path)
    assert report.status == "invalid_input"


# ---------------------------------------------------------------------------
# CLI surface

def _json_report(capsys, *argv, code=0):
    """The JSON report `diffrees --format json *argv` prints, asserting
    its exit status."""
    assert main(["--format", "json", *argv]) == code
    return json.loads(capsys.readouterr().out)


def test_cli_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "q.case", QUADRIC)
    report = _json_report(capsys, "validate", path)
    assert report["status"] == "ok"
    assert report["hypotheses"] == {"standard_graded": True,
                                    "regular_sequence": True,
                                    "relation_degrees": [2]}
    assert (report["edim"]["edim"], report["edim"]["dim"]) == (3, 2)


def test_cli_validate_invalid_exit_4(tmp_path, capsys):
    path = _write(tmp_path, "b.case", QUADRIC.replace("X*Y - Z^2", "X + Y"))
    report = _json_report(capsys, "validate", path, code=4)
    assert report["status"] == "invalid_input"
    assert report["hypotheses"] == {}
    assert [(e["stage"], e["code"]) for e in report["errors"]] == [
        ("validate", "degree"), ("validate", "linear-term")]


def test_cli_ft_check(tmp_path, capsys):
    path = _write(tmp_path, "q.case", QUADRIC)
    report = _json_report(capsys, "ft-check", path, "--t", "1")
    assert report["fitting"]["f1"]["holds"] is True


def test_cli_linear_type_and_rees_cm(tmp_path, capsys):
    path = _write(tmp_path, "c.case", CROSS)
    report = _json_report(capsys, "linear-type", path)
    assert report["linear_type"]["holds"] is False
    assert report["rees_cm"] == {}
    report = _json_report(capsys, "rees-cm", path)
    assert report["rees_cm"]["holds"] is False
    assert report["linear_type"] == {}


WEIGHTED = {
    "cross": """
[algebra]
name = weighted-cross
variables = X, Y
weights = 1, 2
relations = X*Y
""",
    "fermat": """
[algebra]
name = weighted-fermat
variables = X, Y, Z
weights = 1, 1, 2
relations = X^4 + Y^4 + Z^2
"""}
@pytest.mark.parametrize("command", ["linear-type", "rees-cm"])
def test_cli_weighted_input(tmp_path, capsys, monkeypatch, command):
    """Both commands run stages of the pipeline, which needs a standard
    grading, so they refuse a weighted algebra as `verify` does: exit 4
    with its "grading" message, before any saturation runs.  Under
    weights 1, 1, 2 the Rees ideal of X^4 + Y^4 + Z^2 could be saturated
    at a variable; under weights 1, 2 that of X*Y could not."""
    def no_saturation(*args):
        raise AssertionError("a saturation ran")

    for name in ("saturation", "_divided"):
        monkeypatch.setattr(groebner.IdealHandle, name, no_saturation)
    for text in WEIGHTED.values():
        path = _write(tmp_path, "w.case", text)
        assert main(["--format", "json", "verify", path]) == EXIT_INVALID
        (error,) = json.loads(capsys.readouterr().out)["errors"]
        assert error["code"] == "grading"
        assert main(["--format", "json", command, path]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert json.loads(captured.out)["errors"] == [error]
        assert not captured.err


CASE_COMMANDS = {"validate": [], "ft-check": ["--t", "1"], "linear-type": [],
                 "rees-cm": [], "prop31": [], "en-dump": []}
PROBE = """
[algebra]
name = curve-probe
variables = X1, X2, X3, X4
relations = X1^2 + X2^2 + X3^2 + X4^2; X1^2 + 2*X2^2 + 3*X3^2 + 4*X4^2

[mode]
run = prop31
"""
CROSS_RING = CROSS[:CROSS.index("[expect]")]
# name: (case file text, global options, the commands that refuse it, or
# that report an internal error on it)
REFUSED = {
    "unparseable": ("not a case file [\n", [], list(CASE_COMMANDS)),
    "linear-relation": (QUADRIC.replace("X*Y - Z^2", "X + Y"), [],
                        list(CASE_COMMANDS)),
    "weighted": (WEIGHTED["cross"], [], ["linear-type", "rees-cm"]),
    "parse-over-budget": (QUADRIC.replace("X*Y - Z^2", "(X+Y+Z)^3000"),
                          ["--budget", "1000"], list(CASE_COMMANDS)),
    # [expect] is checked by the pipeline only
    "prop31-expect": (PROBE + "\n[expect]\nf1 = false\n", [],
                      list(CASE_COMMANDS)),
    # its reducedness test overflows the packed exponents
    "exponent-overflow": (QUADRIC.replace(
        "X*Y - Z^2", "X^2000000000*Y - Z^2000000001"), [],
        ["ft-check", "linear-type", "rees-cm"]),
    # the parser recurses once per parenthesis and per leading sign
    "nested-parentheses": (QUADRIC.replace(
        "X*Y - Z^2", "(" * 3000 + "X*Y - Z^2" + ")" * 3000), [],
        list(CASE_COMMANDS)),
    "nested-signs": (QUADRIC.replace("X*Y - Z^2", "X*" + "-" * 3000 + "Y"),
                     [], list(CASE_COMMANDS)),
    # [expect] polynomials are parsed, in the extended ring, with the file
    "unknown-torsion-variable": (CROSS_RING + "\n[expect]\n"
                                 "torsion_contains = X*T9\n", [],
                                 list(CASE_COMMANDS)),
    "unbalanced-rees-ideal": (CROSS_RING + "\n[expect]\n"
                              "rees_ideal = X*Y; (X*T2\n", [],
                              list(CASE_COMMANDS)),
}


def _untraced(report):
    """The report without the `traceback` of its errors, which differs
    from command to command."""
    for error in report["errors"]:
        error.pop("traceback", None)
    return report


@pytest.mark.parametrize("refused,command", [
    (name, command) for name, (_, _, commands) in REFUSED.items()
    for command in commands])
def test_cli_refusals_match_verify(tmp_path, capsys, refused, command):
    """Every case command refuses, and reports an unexpected error,
    through the verifier's front door: its JSON is the report `verify`
    prints on the same file (traceback aside), with the same exit status,
    and its text names the status and every error."""
    text, options, _ = REFUSED[refused]
    path = _write(tmp_path, "refused.case", text)
    argv = [command, path, *CASE_COMMANDS[command]]
    code = main([*options, "--format", "json", "verify", path])
    expected = _untraced(json.loads(capsys.readouterr().out))
    assert code == {"invalid_input": 4, "resource_exhausted": 3,
                    "internal_error": 5}[expected["status"]]
    assert main([*options, "--format", "json", *argv]) == code
    captured = capsys.readouterr()
    report = _untraced(json.loads(captured.out))
    assert (report["status"], report["errors"]) == (expected["status"],
                                                   expected["errors"])
    assert report == expected
    assert not captured.err
    assert main([*options, *argv]) == code
    out = capsys.readouterr().out
    assert f"status: {expected['status']}\n" in out
    for error in expected["errors"]:
        assert f"error[{error['stage']}]: {error['message']}" in out


@pytest.mark.parametrize("refused", [
    "nested-parentheses", "nested-signs", "unknown-torsion-variable",
    "unbalanced-rees-ideal"])
def test_cli_refuses_bad_text_as_it_parses(tmp_path, capsys, refused):
    """A relation nested too deeply and a bad [expect] polynomial are
    refused as the file is parsed: stage `parse`, exit 4, nothing run."""
    path = _write(tmp_path, "refused.case", REFUSED[refused][0])
    report = _json_report(capsys, "verify", path, code=EXIT_INVALID)
    assert report["status"] == "invalid_input"
    assert [(e["stage"], e["code"]) for e in report["errors"]] == [
        ("parse", "parse")]
    assert report["fitting"] == {}


def test_cli_verify_refuses_a_directory_without_cases(tmp_path, capsys):
    report = _json_report(capsys, "verify", str(tmp_path), code=4)
    (error,) = report["errors"]
    assert (error["stage"], error["code"]) == ("parse", "parse")
    assert str(tmp_path) in error["message"]


def test_cli_explicit_seed_zero_beats_the_case_seed(tmp_path, capsys):
    """`--seed 0` is a seed like any other: linear-type draws the test
    element verify draws with it, not the one of the file's seed 5."""
    path = _write(tmp_path, "s.case", """
[algebra]
name = seeded
variables = X, Y, Z, W
relations = X*Y - Z*W

[mode]
seed = 5
""")

    def run(*argv):
        assert main(["--format", "json", *argv, path]) == 0
        return json.loads(capsys.readouterr().out)

    zero = run("--seed", "0", "linear-type")["linear_type"]
    assert zero == run("--seed", "0", "verify")["linear_type"]
    assert zero != run("linear-type")["linear_type"]
    assert (run("linear-type")["linear_type"]
            == run("--seed", "5", "verify")["linear_type"])


def test_cli_verify_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.case", QUADRIC)
    assert main(["verify", good]) == 0
    capsys.readouterr()
    bad = _write(tmp_path, "bad.case", QUADRIC + "\n[expect]\nf1 = false\n")
    assert main(["verify", bad]) == 2
    capsys.readouterr()
    invalid = _write(tmp_path, "invalid.case",
                     QUADRIC.replace("X*Y - Z^2", "X + Y"))
    assert main(["verify", invalid]) == 4
    capsys.readouterr()


def test_en_dump_is_not_a_case_mode(tmp_path, capsys):
    path = _write(tmp_path, "d.case", QUADRIC + "\n[mode]\nrun = en-dump\n")
    with pytest.raises(ParseError, match="unknown mode"):
        load_case(path)
    assert main(["verify", path]) == 4
    assert "unknown mode" in capsys.readouterr().out


def test_cli_verify_rejects_exponents_of_2_31(tmp_path, capsys):
    path = _write(tmp_path, "huge.case", """
[algebra]
name = huge-exponents
variables = X, Y
relations = X^2147483648 - Y^2147483648
""")
    assert main(["--format", "json", "verify", path]) == 4
    (error,) = json.loads(capsys.readouterr().out)["errors"]
    assert error["code"] == "parse"
    assert "2^31" in error["message"]
    with pytest.raises(ParseError):
        load_case(path)


def test_cli_verify_charges_the_parse_to_the_budget(tmp_path, capsys):
    """Expanding (X+Y+Z)^3000 would run for minutes; its products are
    charged to the case budget, so the parse stops at once and the report
    says the resources ran out."""
    path = _write(tmp_path, "power.case", """
[algebra]
name = large-power
variables = X, Y, Z
relations = (X+Y+Z)^3000
""")
    assert main(["--budget", "1000", "--format", "json", "verify",
                 path]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "resource_exhausted"
    (error,) = report["errors"]
    assert (error["stage"], error["code"]) == ("parse", "resource")
    assert "budget of 1000" in error["message"]


def test_cli_verify_budget_exhaustion_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "q.case", QUADRIC)
    assert main(["--budget", "2", "verify", path]) == 3
    capsys.readouterr()


def _shipped(name):
    return str(resources.files("diffrees") / "cases" / f"{name}.case")


def test_cli_budget_is_not_per_basis(capsys):
    """Each basis of diagonal-quadrics-curve, and its resolution, fits
    1000 steps; the case as a whole does not (the largest basis took 351
    steps, the resolution 829 and the case 1376 when this was written)."""
    assert main(["--budget", "1000", "verify",
                 _shipped("diagonal-quadrics-curve")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("name", ["diagonal-quadrics-curve",
                                  "coordinate-cross"])
def test_cli_budget_bounds_the_whole_case(capsys, monkeypatch, name):
    """--budget counts every step of the case up to its last, which for
    coordinate-cross is spent checking the expected Rees ideal."""
    path = _shipped(name)
    total = _steps_of(lambda: main(["verify", path]), monkeypatch)
    assert main(["--budget", str(total - 1), "verify", path]) == 3
    assert main(["--budget", str(total), "verify", path]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "validate"])
def test_cli_budget_run_out_in_validation_is_a_resource_error(
        capsys, monkeypatch, command):
    """The regular-sequence check of validation spends from the case's
    budget; when the budget runs out there, the report says the resources
    ran out (exit 3), as after validation."""
    path = _shipped("four-point-cone")
    case = load_case(path)
    steps = _steps_of(lambda: load_case(path), monkeypatch) + _steps_of(
        lambda: GradedAlgebra.validate(case.context, case.relations),
        monkeypatch)
    report = _json_report(capsys, "--budget", str(steps - 1), command, path,
                          code=3)
    assert report["status"] == "resource_exhausted"
    assert report["hypotheses"] == {}
    assert [(e["stage"], e["code"]) for e in report["errors"]] == [
        ("pipeline", "resource")]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_budget_is_per_case_in_a_directory(tmp_path, capsys, monkeypatch,
                                               jobs):
    """Each case fits the budget, the two together do not."""
    a = _write(tmp_path, "a.case", QUADRIC)
    b = _write(tmp_path, "b.case", CROSS)
    steps = [_steps_of(lambda: open_case(p), monkeypatch) for p in (a, b)]
    limit = max(steps)
    assert sum(steps) > limit
    assert main(["--jobs", jobs, "--budget", str(limit), "verify",
                 str(tmp_path)]) == 0
    assert "2/2 cases passed" in capsys.readouterr().out


def test_cli_verify_directory_merged(tmp_path, capsys):
    _write(tmp_path, "a.case", QUADRIC)
    _write(tmp_path, "b.case", CROSS)
    assert main(["verify", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2/2 cases passed" in out
    assert out.index("coordinate-cross") < out.index("quadric-cone")


def test_cli_verify_directory_parallel(tmp_path, capsys):
    _write(tmp_path, "a.case", QUADRIC)
    _write(tmp_path, "b.case", CROSS)
    assert main(["--jobs", "2", "verify", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2/2 cases passed" in out
    assert out.index("coordinate-cross") < out.index("quadric-cone")


@pytest.mark.parametrize("option", ["--budget", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-5", "two"])
def test_cli_counts_must_be_positive_integers(tmp_path, capsys, option, value):
    path = _write(tmp_path, "q.case", QUADRIC)
    with pytest.raises(SystemExit) as exit_info:
        main([option, value, "verify", path])
    assert exit_info.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command,option", [("ft-check", "--t"),
                                            ("prop31", "--rowops")])
@pytest.mark.parametrize("value", ["-7", "two"])
def test_cli_counts_must_be_nonnegative_integers(tmp_path, capsys, command,
                                                 option, value):
    path = _write(tmp_path, "q.case", QUADRIC)
    with pytest.raises(SystemExit) as exit_info:
        main([command, path, option, value])
    assert exit_info.value.code == 2
    assert "expected a nonnegative integer" in capsys.readouterr().err


def test_cli_ft_check_accepts_t_zero(tmp_path, capsys):
    path = _write(tmp_path, "q.case", QUADRIC)
    report = _json_report(capsys, "ft-check", path, "--t", "0")
    assert report["fitting"]["f0"]["holds"] is True


def test_cli_pool_is_capped_at_the_case_count(tmp_path, capsys, monkeypatch):
    """A pool larger than the number of cases would only start idle
    workers; the stand-in executor runs each case in this process."""
    from concurrent.futures import Future

    from diffrees import cli

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    _write(tmp_path, "a.case", QUADRIC)
    _write(tmp_path, "b.case", CROSS)
    assert main(["--jobs", "8", "verify", str(tmp_path)]) == 0
    assert main(["--jobs", "2", "verify", str(tmp_path)]) == 0
    assert sizes == [2, 2]
    assert capsys.readouterr().out.count("2/2 cases passed") == 2


def test_cli_verify_isolates_a_raising_case(tmp_path, capsys, monkeypatch):
    from diffrees import verifier
    real = verifier._MODES["pipeline"]

    def flaky(case, algebra, report, seed):
        if case.name == "coordinate-cross":
            raise ArithmeticError("constant Jacobian entry")
        real(case, algebra, report, seed)

    monkeypatch.setitem(verifier._MODES, "pipeline", flaky)
    _write(tmp_path, "a.case", QUADRIC)
    _write(tmp_path, "b.case", CROSS)
    _write(tmp_path, "c.case", QUADRIC.replace("quadric-cone", "second-cone"))
    assert main(["--format", "json", "verify", str(tmp_path)]) == 5
    reports = json.loads(capsys.readouterr().out)
    assert [(r["case"], r["status"]) for r in reports] == [
        ("coordinate-cross", "internal_error"), ("quadric-cone", "ok"),
        ("second-cone", "ok")]
    (error,) = reports[0]["errors"]
    assert error["message"] == "ArithmeticError: constant Jacobian entry"
    assert "flaky" in error["traceback"]


def test_cli_verify_directory_with_non_utf8_case(tmp_path, capsys):
    (tmp_path / "a.case").write_bytes(b"[algebra]\nname = bad\xff\n")
    _write(tmp_path, "b.case", QUADRIC)
    assert main(["verify", str(tmp_path)]) == 4
    out = capsys.readouterr().out
    assert "not UTF-8" in out
    assert "case: quadric-cone\nstatus: ok" in out


def test_cli_json_output_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "q.case", QUADRIC)
    assert main(["--format", "json", "--seed", "5", "verify", path]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "--seed", "5", "verify", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_cli_prop31(tmp_path, capsys):
    text = """
[algebra]
name = curve-probe
variables = X1, X2, X3, X4
relations = X1^2 + X2^2 + X3^2 + X4^2; X1^2 + 2*X2^2 + 3*X3^2 + 4*X4^2
"""
    path = _write(tmp_path, "p.case", text)
    assert main(["prop31", path, "--rowops", "1"]) == 0
    capsys.readouterr()


def test_cli_en_dump_matrix(tmp_path, capsys):
    text = """
[matrix]
variables = X, Y, Z, W
rows = X; Y; Z
    Y; Z; W
"""
    path = _write(tmp_path, "m.matrix", text)
    assert main(["en-dump", path]) == 0
    out = capsys.readouterr().out
    assert "ranks: 1 3 2" in out
    assert "acyclic" in out


@pytest.mark.parametrize("body", [
    b"[matrix]\nvariables = X, Y\nweights = 1, a\nrows = X; Y\n",
    b"[matrix]\nvariables = X, X\nrows = X; X\n",
    b"[matrix]\nvariables = X, Y\nrows = X; Y # \xff\n",
    b"[matrix]\nvariables = X, Y\nrows = X\n    Y\n"],
    ids=["non-integer-weight", "duplicate-variable", "not-utf8",
         "more-rows-than-columns"])
def test_cli_en_dump_rejects_a_bad_matrix_file(tmp_path, capsys, body):
    (tmp_path / "bad.matrix").write_bytes(body)
    assert main(["en-dump", str(tmp_path / "bad.matrix")]) == 4
    out = capsys.readouterr().out
    assert "status: invalid_input\nerror[parse]: " in out


def test_last_rows_shape_is_rejected_with_one_message(tmp_path, capsys,
                                                     quadric_cone):
    """n = 3 < 2*dim: en-dump, prop31 and the Euler identity refuse the
    quadric cone with the same message."""
    with pytest.raises(ValueError) as raised:
        euler_minor_identity(quadric_cone)
    message = str(raised.value)
    path = _write(tmp_path, "q.case", QUADRIC)
    dump = _json_report(capsys, "en-dump", path, code=4)
    probe = _json_report(capsys, "prop31", path, code=4)
    assert dump == probe
    assert [e["message"] for e in probe["errors"]] == [message]


def test_cli_ft_check_json_is_the_pipeline_entry(tmp_path, capsys):
    path = _write(tmp_path, "c.case", CROSS)
    assert main(["--format", "json", "verify", path]) == 0
    fitting = json.loads(capsys.readouterr().out)["fitting"]
    for t in (0, 1):
        report = _json_report(capsys, "ft-check", path, "--t", str(t))
        assert report["case"] == "coordinate-cross"
        assert report["fitting"] == {f"f{t}": fitting[f"f{t}"]}
    assert "witness" in fitting["f1"]


def test_cli_en_dump_case(tmp_path, capsys):
    text = """
[algebra]
name = curve
variables = X1, X2, X3, X4
relations = X1^2 + X2^2 + X3^2 + X4^2; X1^2 + 2*X2^2 + 3*X3^2 + 4*X4^2
"""
    path = _write(tmp_path, "c.case", text)
    assert main(["en-dump", path]) == 0
    capsys.readouterr()


def test_cli_probe_budget_is_reported_by_the_door(capsys, cases_dir):
    """The last-rows probe leaves a budget run out to the door, as every
    other builder does: verify, prop31 and en-dump report the same
    error, stage `pipeline`."""
    path = str(cases_dir / "curve-probe.case")
    errors = [_json_report(capsys, "--budget", "20", command, path,
                           code=3)["errors"]
              for command in ("verify", "prop31", "en-dump")]
    assert errors[0] == errors[1] == errors[2]
    assert [(e["stage"], e["code"]) for e in errors[0]] == [
        ("pipeline", "resource")]


def test_cli_en_dump_budget_ends_in_a_report(tmp_path, capsys, cases_dir):
    """A budget that lets the parse through but runs out in the complex
    table ends as every case command's does: a resource_exhausted report
    with exit status 3, nothing on stderr.  A matrix file does the same."""
    path = str(cases_dir / "curve-probe.case")
    report = _json_report(capsys, "--budget", "20", "en-dump", path, code=3)
    assert report["status"] == "resource_exhausted"
    assert report["case"] == "curve-probe"
    assert [(e["stage"], e["code"]) for e in report["errors"]] == [
        ("pipeline", "resource")]
    assert "budget of 20 exceeded" in report["errors"][0]["message"]
    assert not capsys.readouterr().err
    assert main(["--budget", "20", "en-dump", path]) == 3
    out = capsys.readouterr().out
    assert "status: resource_exhausted\n" in out
    assert "error[pipeline]: Groebner step budget of 20 exceeded" in out
    matrix = _write(tmp_path, "m.matrix", "[matrix]\nvariables = X, Y, Z, W"
                    "\nrows = X; Y; Z\n    Y; Z; W\n")
    report = _json_report(capsys, "--budget", "1", "en-dump", matrix, code=3)
    assert (report["case"], report["status"]) == (matrix,
                                                  "resource_exhausted")
    assert not capsys.readouterr().err


@pytest.mark.parametrize("name,text", [
    ("c.case", PROBE),
    ("m.matrix", "[matrix]\nvariables = X, Y, Z, W\nrows = X; Y; Z\n"
                 "    Y; Z; W\n")])
def test_cli_en_dump_reports_an_internal_error(tmp_path, capsys, monkeypatch,
                                               name, text):
    """The whole table, its `is_complex` check included, is computed
    behind the case door: an exception there is an internal-error report
    with exit status 5, for case and matrix files, nothing on stderr."""
    from diffrees.eagon_northcott import FreeComplex

    def broken(complex_):
        raise ArithmeticError("broken product")

    monkeypatch.setattr(FreeComplex, "is_complex", broken)
    path = _write(tmp_path, name, text)
    report = _json_report(capsys, "en-dump", path, code=5)
    assert report["status"] == "internal_error"
    (error,) = report["errors"]
    assert error["message"] == "ArithmeticError: broken product"
    assert "is_complex" in error["traceback"]
    assert not capsys.readouterr().err


def test_cli_corpus(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "7/7 cases passed" in out


def test_smooth_ci_shortcut_public(tmp_path):
    from diffrees.verifier import smooth_ci_shortcut
    from diffrees.algebra import GradedAlgebra
    from diffrees.poly import VariableContext, parse_polynomial

    # quadric surface in P^3: 3 <= 2*2
    ctx = VariableContext(("X", "Y", "Z", "W"))
    surface = GradedAlgebra.validate(ctx, [parse_polynomial(ctx, "X*W - Y*Z")])
    out = smooth_ci_shortcut(surface)
    assert out["applicable"]
    assert (out["projective_ambient"], out["projective_dimension"]) == (3, 2)
    assert out["cm"]

    # diagonal quadrics curve in P^3: 3 > 2*1
    curve_ctx = VariableContext(("X1", "X2", "X3", "X4"))
    curve = GradedAlgebra.validate(curve_ctx, [
        parse_polynomial(curve_ctx, "X1^2 + X2^2 + X3^2 + X4^2"),
        parse_polynomial(curve_ctx, "X1^2 + 2*X2^2 + 3*X3^2 + 4*X4^2")])
    out = smooth_ci_shortcut(curve, pipeline_cm=False)
    assert out["applicable"] and not out["cm"]
    assert out["agrees_with_pipeline"]

    # fermat cubic in P^2: 2 <= 2*1
    cubic_ctx = VariableContext(("X", "Y", "Z"))
    cubic = GradedAlgebra.validate(cubic_ctx,
                                   [parse_polynomial(cubic_ctx,
                                                     "X^3 + Y^3 + Z^3")])
    assert smooth_ci_shortcut(cubic)["cm"]

    # singular along a line: inapplicable, not fatal
    sing = GradedAlgebra.validate(cubic_ctx,
                                  [parse_polynomial(cubic_ctx, "X^2 - Y^2")])
    out = smooth_ci_shortcut(sing)
    assert not out["applicable"]
    assert "smooth" in out["reason"]


def test_pipeline_condition_i_violation_reports_raw_verdicts(tmp_path):
    # reduced, but singular along a line away from the vertex: the
    # pipeline must report every verdict and skip the CM/F_1 biconditional
    text = """
[algebra]
name = four-point-cone
variables = X, Y, Z, W
relations = X^2 + Y^2 + Z^2; X^2 + 2*Y^2 + 3*Z^2
"""
    report = run_case(load_case(_write(tmp_path, "f.case", text)))
    assert report.status == "ok"
    assert report.hypotheses["reduced"] is True
    assert report.hypotheses["condition_i"] is False
    assert report.fitting["f0"]["holds"] is False
    assert report.fitting["f1"]["holds"] is False
    assert report.linear_type["holds"] is False
    assert report.rees_cm["holds"] is False
    assert (report.rees_cm["dim"], report.rees_cm["depth"]) == (4, 3)
    assert report.assertions["cm_iff_f1"]["pass"] is None
    assert report.assertions["f1_iff_linear_type"]["pass"] is True
    assert not report.shortcut["applicable"]


def test_pipeline_dimension_one_case(tmp_path):
    # d = 1 runs through the same pipeline, no special casing
    text = """
[algebra]
name = plane-conic-pair
variables = X, Y
relations = X^2 + Y^2
"""
    report = run_case(load_case(_write(tmp_path, "d1.case", text)))
    assert report.status == "ok"
    assert report.hypotheses["condition_i"] is True
    assert report.fitting["f1"]["holds"] is False
    assert report.linear_type["holds"] is False
    assert report.rees_cm["holds"] is False
    assert report.assertions["cm_iff_f1"]["pass"] is True
