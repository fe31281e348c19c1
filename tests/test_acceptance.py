"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All verdicts are exact (integer/boolean/ideal equalities); the only
tolerances are the stated wall-clock bounds.
"""

import random
import time

import pytest

from diffrees.eagon_northcott import build_en, en_acyclicity, koszul_complex
from diffrees.fitting import (euler_minor_identity, ft_condition,
                              ft_condition_off_irrelevant, last_rows_probe)
from diffrees.groebner import IdealHandle
from diffrees.matrix import PolyMatrix
from diffrees.poly import DEGREVLEX, VariableContext, parse_polynomial
from diffrees.rees import (analytic_spread, is_linear_type, rees_ideal,
                           symmetric_presentation)
from diffrees.resolution import depth_and_cm, free_resolution
from diffrees.sampler import probe_corpus
from diffrees.verifier import run_case
from diffrees.casefile import CaseFile

from conftest import random_homogeneous
from oracles import LEX, brute_force_dimension, naive_buchberger


def _line(criterion, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def probe_instances():
    return probe_corpus(seed=0, count=20)


@pytest.fixture(scope="module")
def named_algebras(quadric_cone, coordinate_cross, curve_cone, surface_cone):
    return {
        "quadric-cone": quadric_cone,
        "coordinate-cross": coordinate_cross,
        "diagonal-quadrics-curve": curve_cone,
        "quadric-surface": surface_cone,
    }


def test_criterion_1_quadric_cone(quadric_cone):
    start = time.monotonic()
    rp = rees_ideal(quadric_cone)
    ok = ft_condition(quadric_cone, 1).holds
    ok = ok and is_linear_type(rp)
    ok = ok and rp.ideal.equals(rp.symmetric.ideal)
    cm = depth_and_cm(rp.ideal)
    ok = ok and cm.cohen_macaulay and (cm.dimension, cm.depth,
                                       cm.projective_dimension) == (4, 4, 2)
    data = quadric_cone.irrelevant_local_data()
    ok = ok and data.edim == 3 == 2 * data.dim - 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    _line(1, ok, f"quadric cone positive case ({elapsed:.1f}s)")


def test_criterion_2_coordinate_cross(coordinate_cross):
    start = time.monotonic()
    f1 = ft_condition(coordinate_cross, 1)
    ok = (not f1.holds and f1.failing_index == 1
          and f1.actual == 1 and f1.required == 2)
    rp = rees_ideal(coordinate_cross)
    big = rp.symmetric.ideal.context
    witnesses = {str(t) for t in rp.torsion_generators}
    ok = ok and "X*T2" in witnesses
    expected = IdealHandle(big, [parse_polynomial(big, s) for s in
                                 ("X*Y", "X*T2", "Y*T1", "T1*T2")])
    ok = ok and rp.ideal.equals(expected)
    cm = depth_and_cm(rp.ideal)
    ok = ok and not cm.cohen_macaulay
    ok = ok and (cm.dimension, cm.depth) == (2, 1)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    _line(2, ok, f"coordinate cross negative case ({elapsed:.1f}s)")


def test_criterion_3_curve_cone(curve_cone):
    start = time.monotonic()
    ok = ft_condition_off_irrelevant(curve_cone, 0).holds
    f1 = ft_condition(curve_cone, 1)
    ok = ok and not f1.holds and f1.failing_index == 3
    case = CaseFile(name="curve", context=curve_cone.context,
                    relations=curve_cone.relations)
    report = run_case(case)
    ok = ok and report.status == "ok"
    ok = ok and report.rees_cm["holds"] is False
    ok = ok and report.shortcut["applicable"]
    ok = ok and report.shortcut["cm"] is False          # 3 > 2*1
    ok = ok and report.shortcut["agrees_with_pipeline"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    _line(3, ok, f"diagonal-quadrics curve cone ({elapsed:.1f}s)")


def test_criterion_4_surface_cone(surface_cone):
    start = time.monotonic()
    case = CaseFile(name="surface", context=surface_cone.context,
                    relations=surface_cone.relations)
    report = run_case(case)
    ok = report.status == "ok"
    ok = ok and report.fitting["f1"]["holds"]
    ok = ok and report.linear_type["holds"]
    ok = ok and report.rees_cm["holds"]
    ok = ok and report.shortcut["cm"] and report.shortcut[
        "agrees_with_pipeline"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _line(4, ok, f"quadric surface cone ({elapsed:.1f}s)")


def test_criterion_5_probe_suite(probe_instances):
    start = time.monotonic()
    violations = []
    hits = 0
    for name, algebra in probe_instances:
        probe = last_rows_probe(algebra)
        if probe.height_full == algebra.dimension:
            hits += 1
            if probe.ideals_equal:
                violations.append(name)
        if not probe.implication_holds:
            violations.append(name)
    elapsed = time.monotonic() - start
    ok = (len(probe_instances) >= 20 and not violations and hits > 0
          and elapsed < 1800)
    _line(5, ok, f"{len(probe_instances)} random instances, "
                 f"{hits} with full height, {len(violations)} violations "
                 f"({elapsed:.1f}s)")


def test_criterion_6_euler_minor_identity(probe_instances, curve_cone):
    bad = []
    for name, algebra in probe_instances:
        if not euler_minor_identity(algebra).is_zero:
            bad.append(name)
    if not euler_minor_identity(curve_cone).is_zero:
        bad.append("diagonal-quadrics-curve")
    _line(6, not bad, f"residual zero on {len(probe_instances) + 1} "
                      f"instances; failures: {bad}")


def test_criterion_7_eagon_northcott():
    rng = random.Random(77)
    ctx = VariableContext(("X", "Y", "Z"))
    ok = True
    for t in (1, 2, 3):
        for m in range(t, 6):
            entries = tuple(tuple(random_homogeneous(rng, ctx, 2,
                                                     max_terms=2)
                                  for _ in range(m)) for _ in range(t))
            ok = ok and build_en(PolyMatrix(ctx, entries)).is_complex()
    for m in (2, 3, 4):
        entries = tuple(random_homogeneous(rng, ctx, 1, max_terms=2)
                        for _ in range(m))
        en = build_en(PolyMatrix(ctx, (entries,)))
        kz = koszul_complex(entries)
        ok = ok and en.ranks == kz.ranks and (en.differentials
                                              == kz.differentials)
    big = VariableContext(("X", "Y", "Z", "W"))
    X, Y, Z, W = big.gens()
    cat = PolyMatrix(big, ((X, Y, Z), (Y, Z, W)))
    record = en_acyclicity(cat)
    ok = ok and record.minor_height == 2 and record.criterion_met
    res = free_resolution(IdealHandle(big, cat.minors(2)))
    ok = ok and res.pd == 2
    _line(7, ok, "complex property, Koszul degeneration, catalecticant")


def test_criterion_8_projdim_one_crosschecks(named_algebras):
    from diffrees.sampler import random_graded_ci
    rng = random.Random(55)
    violations = []
    cases = list(named_algebras.items())
    for k in range(3):
        cases.append((f"random-diagonal-{k}",
                      random_graded_ci(rng, 4, 2, max_degree=2,
                                       mixed_terms=0)))
    for name, algebra in cases:
        if not algebra.is_reduced():
            continue
        rp = rees_ideal(algebra)
        if is_linear_type(rp) != ft_condition(algebra, 1).holds:
            violations.append((name, "f1-vs-linear-type"))
        if ft_condition(algebra, 0).holds:
            if not symmetric_presentation(algebra).is_complete_intersection:
                violations.append((name, "f0-vs-symmetric-ci"))
    _line(8, not violations,
          f"{len(cases)} reduced cases; violations: {violations}")


def test_criterion_9_spread_bounds(named_algebras):
    ok = True
    for name, algebra in named_algebras.items():
        sp = analytic_spread(rees_ideal(algebra))
        ok = ok and sp.bounds_ok
        if name == "quadric-cone":
            ok = ok and sp.value == 3
        if name == "coordinate-cross":
            ok = ok and sp.value == 1
    _line(9, ok, "spread within [e, d+e-1] and <= n; named values exact")


def test_criterion_10_kernel_oracles(named_algebras):
    rng = random.Random(101)
    ok = True
    checked = 0
    while checked < 25:
        n = rng.randint(2, 3)
        ctx = VariableContext(tuple("XYZ"[:n]))
        gens = []
        for _ in range(rng.randint(1, 3)):
            try:
                gens.append(random_homogeneous(rng, ctx, rng.randint(1, 3),
                                               max_terms=3))
            except ValueError:
                pass
        if not gens:
            continue
        order = rng.choice([DEGREVLEX, LEX])
        if IdealHandle(ctx, gens).groebner_basis(order) != naive_buchberger(
                ctx, gens, order):
            ok = False
        checked += 1

    dims = 0
    for algebra in named_algebras.values():
        if algebra.arity > 6:
            continue
        handle = algebra.defining_ideal
        if handle.krull_dimension().dimension != brute_force_dimension(
                handle):
            ok = False
        dims += 1

    euler_ok = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        ctx = VariableContext(tuple(f"X{i}" for i in range(n)),
                              tuple(rng.randint(1, 3) for _ in range(n)))
        deg = rng.randint(2, 6)
        try:
            p = random_homogeneous(rng, ctx, deg, max_terms=5)
        except ValueError:
            p = ctx.gen(0) ** deg
        acc = ctx.zero
        for i in range(n):
            acc = acc + ctx.gen(i) * p.derivative(i) * ctx.weights[i]
        if acc == p * p.weighted_degree_info()[1]:
            euler_ok += 1
    ok = ok and euler_ok == 100
    _line(10, ok, f"25 basis oracles, {dims} dimension oracles, "
                  f"{euler_ok}/100 Euler residuals")
