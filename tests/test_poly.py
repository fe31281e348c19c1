import random
from fractions import Fraction

import pytest

from diffrees.errors import (ContextMismatchError, ExponentOverflowError,
                             ParseError)
from diffrees.poly import (DEGREVLEX, MonomialOrder, Polynomial,
                           VariableContext, parse_polynomial)

from conftest import P, random_homogeneous
from oracles import LEX, ReferenceOrder


def test_multiply_difference_of_squares(xyz):
    X, Y, _ = xyz.gens()
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_multiply_by_zero_and_one(xyz):
    f = P(xyz, "X*Y - Z^2")
    assert (f * xyz.zero).is_zero
    assert f * xyz.one == f


def test_context_mismatch_raises(xyz):
    other = VariableContext(("A", "B"))
    with pytest.raises(ContextMismatchError):
        xyz.gen(0) * other.gen(0)


def test_partial_derivatives(xyz):
    f = P(xyz, "X*Y - Z^2")
    assert f.derivative("X") == xyz.variable("Y")
    assert f.derivative("Z") == P(xyz, "-2*Z")
    assert xyz.constant(7).derivative(0).is_zero


def test_derivative_index_out_of_range(xyz):
    with pytest.raises(IndexError):
        xyz.one.derivative(5)


def test_weighted_degree_info():
    ctx = VariableContext(("X", "Y", "Z"))
    assert P(ctx, "X*Y - Z^2").weighted_degree_info() == (True, 2)
    flat = VariableContext(("X", "Y"))
    assert P(flat, "X + Y^2").weighted_degree_info() == (False, None)
    weighted = VariableContext(("X", "Y"), weights=(2, 1))
    assert P(weighted, "X + Y^2").weighted_degree_info() == (True, 2)
    assert flat.zero.weighted_degree_info() == (True, None)


def test_ring_axioms_on_random_inputs(xyz):
    rng = random.Random(2)

    def rand_poly():
        terms = []
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            terms.append((e, Fraction(rng.randint(-5, 5),
                                      rng.randint(1, 4))))
        return Polynomial.from_terms(xyz, terms)

    for _ in range(60):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p + q == q + p


def test_leibniz_rule(xyz):
    rng = random.Random(3)
    for _ in range(30):
        p = random_homogeneous(rng, xyz, rng.randint(1, 4), max_terms=4)
        q = random_homogeneous(rng, xyz, rng.randint(1, 4), max_terms=4)
        for i in range(3):
            lhs = (p * q).derivative(i)
            rhs = p * q.derivative(i) + q * p.derivative(i)
            assert lhs == rhs


def test_euler_identity_in_ambient_ring():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 4)
        ctx = VariableContext(tuple(f"X{i}" for i in range(n)),
                              tuple(rng.randint(1, 3) for _ in range(n)))
        deg = rng.randint(2, 7)
        try:
            p = random_homogeneous(rng, ctx, deg, max_terms=5)
        except ValueError:
            continue
        acc = ctx.zero
        for i in range(n):
            acc = acc + ctx.gen(i) * p.derivative(i) * ctx.weights[i]
        assert acc == p * deg


def test_parse_print_roundtrip(xyz):
    rng = random.Random(5)
    for _ in range(50):
        terms = []
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 4) for _ in range(3))
            terms.append((e, Fraction(rng.randint(-9, 9),
                                      rng.randint(1, 5))))
        p = Polynomial.from_terms(xyz, terms)
        assert parse_polynomial(xyz, str(p)) == p


def test_parser_features(xyz):
    assert P(xyz, "2X*Y") == P(xyz, "2*X*Y")
    assert P(xyz, "(X + Y)^2") == P(xyz, "X^2 + 2*X*Y + Y^2")
    assert P(xyz, "3/2 * X") == xyz.variable("X") * Fraction(3, 2)
    assert P(xyz, "-X - (-Y)") == -xyz.variable("X") + xyz.variable("Y")
    assert P(xyz, "0") == xyz.zero


def test_parser_errors(xyz):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(xyz, "X + Q")
    assert exc.value.column == 5
    with pytest.raises(ParseError):
        parse_polynomial(xyz, "X +")
    with pytest.raises(ParseError):
        parse_polynomial(xyz, "X / Y")
    with pytest.raises(ParseError):
        parse_polynomial(xyz, "X ^ Y")


def test_deep_nesting_is_a_parse_error(xyz):
    """The parser recurses once per parenthesis and per leading sign; text
    nested past the recursion limit is refused, and nesting 100 deep is
    not."""
    nested = "(" * 100 + "X*Y" + ")" * 100
    assert parse_polynomial(xyz, nested) == P(xyz, "X*Y")
    for text in ("(" * 3000 + "X*Y" + ")" * 3000, "X*" + "-" * 3000 + "Y"):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_polynomial(xyz, text)


def test_exponents_of_2_31_are_rejected(xyz):
    """The Groebner kernel packs each exponent into 31 bits, so neither
    the parser nor `monomial` lets one reach 2^31."""
    assert xyz.monomial((2**31 - 1, 0, 0)).terms[0][0][0] == 2**31 - 1
    with pytest.raises(ExponentOverflowError):
        xyz.monomial((0, 2**31, 0))
    with pytest.raises(ValueError):
        xyz.monomial((0, 0, 2**40))
    with pytest.raises(ParseError) as exc:
        parse_polynomial(xyz, "X^2147483648 - Y^2147483648")
    assert exc.value.column == 3
    for text in ("X^1073741824 * X^1073741824", "(X^65536)^32768",
                 "Y + Z*Z^2147483647"):
        with pytest.raises(ParseError):
            parse_polynomial(xyz, text)
    assert parse_polynomial(xyz, "X^2147483647").terms[0][0] == (
        2**31 - 1, 0, 0)


def test_canonical_term_order_is_stable(xyz):
    p = P(xyz, "Z^2 + X*Y + X^2")
    q = P(xyz, "X^2 + X*Y + Z^2")
    assert p.terms == q.terms
    assert hash(p) == hash(q)


def test_monomial_order_properties(xyz):
    grev = DEGREVLEX.key_for(xyz)
    # x > y > z among the variables
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert grev(x) > grev(y) > grev(z)
    assert LEX.key_for(xyz)(x) > LEX.key_for(xyz)((0, 9, 9))
    # X ranked last: among monomials of one degree, a smaller power of X
    # makes the larger one
    first = MonomialOrder(0)
    assert first == MonomialOrder(0) != DEGREVLEX
    assert hash(first) == hash(MonomialOrder(0))
    last = first.key_for(xyz)
    assert last(y) > last(z) > last(x)
    assert last((2, 0, 0)) < last((0, 0, 2)) < last((0, 0, 3))
    # multiplicative: comparing after a common shift preserves order
    rng = random.Random(6)
    for _ in range(100):
        a = tuple(rng.randint(0, 4) for _ in range(3))
        b = tuple(rng.randint(0, 4) for _ in range(3))
        c = tuple(rng.randint(0, 3) for _ in range(3))
        shift = lambda m: tuple(u + v for u, v in zip(m, c))
        if grev(a) < grev(b):
            assert grev(shift(a)) < grev(shift(b))


def test_block_order_front_dominates():
    ctx = VariableContext(("U", "X", "Y"))
    key = ReferenceOrder.elimination((0,)).key_for(ctx)
    assert key((1, 0, 0)) > key((0, 9, 9))


def test_context_validation():
    with pytest.raises(ValueError):
        VariableContext(())
    with pytest.raises(ValueError):
        VariableContext(("X", "X"))
    with pytest.raises(ValueError):
        VariableContext(("X",), weights=(0,))
    with pytest.raises(ValueError):
        VariableContext(("X",), weights=(1, 2))
    VariableContext(("X", "Y"), weights=(2**30, 2**30))
    with pytest.raises(ValueError, match="sum to at most 2"):
        VariableContext(("X", "Y"), weights=(2**30, 2**30 + 1))
