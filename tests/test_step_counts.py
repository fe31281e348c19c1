"""Exact step-count gate on a fixed mini-workload.

Reduction steps (`StepCounter.spend` units) do not depend on the machine,
so this gate has no timing noise: a rise shows a costlier engine or a
basis built more often than before.  The workload is the shipped cases
plus the first probe instances of `probe_corpus(seed=0)`, run the way a
user's case is run, through `run_case`.
"""

from diffrees import groebner
from diffrees.verifier import run_case

# Steps the mini-workload spends once every distinct basis is built once
# per case, the Fitting heights off the irrelevant ideal and the
# nonzerodivisor test come from dimension checks, a resolution of an
# ideal starts from the ideal's cached reduced basis, later stages reduce
# only their minimal Schreyer pairs and are not interreduced, the
# linear-type verdict reads the torsion generators, ideals with equal
# generator sets compare without a basis, a redundant input generator is
# reduced to zero before it forms any pair, a saturation keeps the
# degrevlex basis it rebuilt from its divided basis, the signature-based
# pair loop skips the pairs whose signature a known syzygy or a later
# element covers, a dimension query stops its basis build on the
# zero-dimensional certificate (leads holding a pure power of every
# variable, for an ideal without constant terms in its generators), an
# equality of nested generator sets tests one inclusion, a row-operation
# trial of the last-rows probe takes the base probe's height
# (I_t(U theta) = I_t(theta) by Cauchy-Binet) instead of a dimension
# query, a constant generator makes the unit basis with no step spent,
# every saturation is one Bayer-Stillman division of a degrevlex
# basis (the Rees ideal divides by a base variable, ranked last, wherever
# one qualifies, and elsewhere by a variable z adjoined for the test
# element g, mapped back by z := g), a resolution resolves the section
# of its ideal by the trailing variables that divide no lead of its
# basis, and the certificate of a sum I + J starts from the pure powers
# among the cached leads of I; raise it only with a reason recorded in
# CHANGES.md.
STEP_CEILING = 5041


def test_step_count_does_not_grow(shipped_cases, probe_cases, monkeypatch):
    steps = [0]
    spend = groebner.StepCounter.spend

    def counted(counter, n=1):
        steps[0] += n
        return spend(counter, n)

    monkeypatch.setattr(groebner.StepCounter, "spend", counted)
    for case in shipped_cases + probe_cases:
        assert run_case(case).status == "ok", case.name
    assert steps[0] <= STEP_CEILING


def test_no_basis_built_twice_in_a_probe_case(probe_cases, monkeypatch):
    """Every basis build, a build that stopped on the zero-dimensional
    certificate included, starts in `IdealHandle._build`: a certified
    handle that is later built in full counts as a repeat."""
    built = set()
    repeats = []
    build = groebner.IdealHandle._build

    def recording(handle, order, certify=False):
        key = (handle.context, order, frozenset(handle.generators))
        if key in built:
            repeats.append(handle)
        built.add(key)
        return build(handle, order, certify)

    monkeypatch.setattr(groebner.IdealHandle, "_build", recording)
    for case in probe_cases:
        built.clear()
        assert run_case(case).status == "ok", case.name
        assert not repeats, f"{case.name} rebuilt {repeats}"
