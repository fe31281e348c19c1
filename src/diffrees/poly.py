"""Exact multivariate polynomial arithmetic over Q with weighted gradings.

Monomials are dense exponent tuples, coefficients are Fractions, and every
polynomial is immutable with its terms stored in a canonical descending
order, so equal polynomials are structurally identical and safe to share
across threads.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import ContextMismatchError, ExponentOverflowError, ParseError

# Every exponent stays below 2^31: the Groebner kernel packs each into a
# 32-bit field whose top bit is a guard bit.  An order key is one int: a
# tuple of digits (a row of the order's weight matrix per digit, then a
# Schreyer tie per frame stage) read in base 2^64, most significant digit
# first.  The ints compare like the tuples while every digit lies in
# (-2^63, 2^63), since the lower digits then never outweigh a higher one.
# Each does: an exponent or its negative is below 2^31 in magnitude, and
# below 2^32 in the F_0 image x^(a + L) a Schreyer key reads (L is an lcm
# of stage-one leads); a weighted degree is below 2^32 times the weight
# sum, which is at most WEIGHT_SUM_LIMIT = 2^31; a module position or a
# Schreyer tie is below a rank.
EXPONENT_LIMIT = 1 << 31
WEIGHT_SUM_LIMIT = 1 << 31
KEY_DIGIT = 64             # bits per order-key digit


def exponent_overflow(e):
    """The error for an exponent tuple with an entry >= EXPONENT_LIMIT."""
    return ExponentOverflowError(
        f"exponent {max(e)} is too large: exponents must stay below "
        f"2^31 = {EXPONENT_LIMIT}")

# ---------------------------------------------------------------------------
# monomial helpers (dense exponent tuples)

def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


class MonomialOrder:
    """Weighted degree-reverse-lexicographic order on monomials, a total,
    multiplicative well-order.  It may rank one chosen variable `last`,
    the variable whose exponent breaks degree ties first, in place of the
    final one: the other variables keep their order, and among monomials
    of one degree the smaller power of this variable makes the larger
    one."""

    __slots__ = ("last",)

    def __init__(self, last=None):
        self.last = last

    def key_for(self, context):
        """Return the order key on exponent tuples, e -> sum_i K_i e_i: one
        int, larger for a larger monomial.  The vector K, built here once,
        holds per variable its column of the order's weight matrix in base
        2^64 (see EXPONENT_LIMIT), so the key of a product is the sum of
        the keys of its factors."""
        n, weights = context.arity, context.weights
        ranks = [i for i in range(n) if i != self.last]
        if self.last is not None:
            ranks.append(self.last)
        vector = [0] * n
        for i, k in zip(ranks, _drl_vector([weights[i] for i in ranks])):
            vector[i] = k
        return lambda e: sum(map(operator.mul, vector, e))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.last == other.last

    def __hash__(self):
        return hash((MonomialOrder, self.last))

    def __repr__(self):
        return f"MonomialOrder({'' if self.last is None else self.last})"


def _drl_vector(weights):
    """K of weighted degrevlex on len(weights) variables: the digits
    (deg, -x_n, ..., -x_1), so K_i = w_i 2^(64n) - 2^(64i)."""
    top = KEY_DIGIT * len(weights)
    return [(w << top) - (1 << (KEY_DIGIT * i))
            for i, w in enumerate(weights)]


DEGREVLEX = MonomialOrder()


# ---------------------------------------------------------------------------

class VariableContext:
    """Ordered, weighted variable set of a polynomial ring over Q."""

    __slots__ = ("names", "weights", "_index", "_canon_key", "_hash")

    def __init__(self, names, weights=None):
        names = tuple(str(n) for n in names)
        if not names:
            raise ValueError("at least one variable is required")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(names):
            raise ValueError("need exactly one weight per variable")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        if sum(weights) > WEIGHT_SUM_LIMIT:
            raise ValueError("weights must sum to at most 2^31")
        self.names = names
        self.weights = weights
        self._index = {n: i for i, n in enumerate(names)}
        self._canon_key = DEGREVLEX.key_for(self)
        self._hash = hash((names, weights))

    @property
    def arity(self):
        return len(self.names)

    @property
    def is_standard_graded(self):
        return all(w == 1 for w in self.weights)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def weighted_degree(self, exponents):
        return sum(w * e for w, e in zip(self.weights, exponents))

    # -- element constructors ------------------------------------------------

    def monomial(self, exponents, coefficient=1):
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.arity:
            raise ValueError("exponent length must match arity")
        if any(e < 0 for e in exponents):
            raise ValueError("exponents must be nonnegative")
        if any(e >= EXPONENT_LIMIT for e in exponents):
            raise exponent_overflow(exponents)
        return Polynomial._make(self, {exponents: Fraction(coefficient)})

    def constant(self, value):
        return Polynomial._make(self, {(0,) * self.arity: Fraction(value)})

    @property
    def zero(self):
        return Polynomial._make(self, {})

    @property
    def one(self):
        return self.constant(1)

    def gen(self, i):
        e = [0] * self.arity
        e[i] = 1
        return self.monomial(e)

    def gens(self):
        return tuple(self.gen(i) for i in range(self.arity))

    def variable(self, name):
        return self.gen(self.index(name))

    def fresh_names(self, base, count):
        """Deterministic variable names built from `base` avoiding clashes."""
        taken = set(self.names)
        out = []
        i = 0
        while len(out) < count:
            i += 1
            cand = f"{base}{i}"
            while cand in taken:
                cand = "_" + cand
            taken.add(cand)
            out.append(cand)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, VariableContext)
                and self.names == other.names and self.weights == other.weights)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_standard_graded:
            return f"VariableContext({list(self.names)})"
        return f"VariableContext({list(self.names)}, weights={list(self.weights)})"


# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("context", "terms", "_hash")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use VariableContext constructors or parse_polynomial")

    @classmethod
    def _make(cls, context, mapping):
        """Build from {exponents: coefficient}; zero coefficients are dropped."""
        key = context._canon_key
        return cls._ordered(context, tuple(sorted(
            ((e, c) for e, c in mapping.items() if c),
            key=lambda t: key(t[0]), reverse=True)))

    @classmethod
    def _ordered(cls, context, terms):
        """Build from a tuple of nonzero terms already in canonical
        descending order (see `groebner._polynomial`)."""
        self = object.__new__(cls)
        self.context = context
        self.terms = terms
        self._hash = None
        return self

    @classmethod
    def from_terms(cls, context, pairs):
        acc = {}
        for e, c in pairs:
            e = tuple(e)
            acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
        return cls._make(context, acc)

    # -- predicates and views -------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return not self.terms or (len(self.terms) == 1
                                  and not any(self.terms[0][0]))

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    def weighted_degree_info(self):
        """(is_homogeneous, degree): homogeneous iff all terms share one
        weighted degree; the zero polynomial is homogeneous of degree None."""
        if not self.terms:
            return True, None
        wd = self.context.weighted_degree
        degs = {wd(e) for e, _ in self.terms}
        if len(degs) == 1:
            return True, degs.pop()
        return False, None

    @property
    def weighted_degree(self):
        """Largest weighted degree of a term, or None for zero."""
        if not self.terms:
            return None
        wd = self.context.weighted_degree
        return max(wd(e) for e, _ in self.terms)

    @property
    def min_total_degree(self):
        """Smallest exponent sum of a term, or None for zero."""
        if not self.terms:
            return None
        return min(sum(e) for e, _ in self.terms)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.context != other.context:
            raise ContextMismatchError(
                f"operands live in different rings: {self.context!r} "
                f"vs {other.context!r}")

    def _promote(self, value):
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return self.context.constant(value)
        return NotImplemented

    def __add__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return Polynomial._make(self.context, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.context, {e: -c for e, c in self.terms})

    def __sub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.context.zero
            return Polynomial._make(
                self.context, {e: c * other for e, c in self.terms})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                v = acc.get(e)
                acc[e] = c1 * c2 if v is None else v + c1 * c2
        return Polynomial._make(self.context, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Polynomial):
            if not other.is_constant:
                raise ValueError("can only divide by a nonzero constant")
            other = other.constant_value()
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, n):
        """Repeated squaring; each product a * b first spends len(a) *
        len(b) steps of the open step budget, so a power too large to
        expand runs out of budget instead of running for minutes."""
        from .groebner import _steps   # groebner imports this module
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not defined")
        counter = _steps()
        result = self.context.one
        base = self
        while n:
            if n & 1:
                counter.spend(len(result.terms) * len(base.terms))
                result = result * base
            n >>= 1
            if n:
                counter.spend(len(base.terms) ** 2)
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.context, self.terms))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- calculus ---------------------------------------------------------------

    def derivative(self, variable):
        """Formal partial derivative by variable index or name."""
        i = (variable if isinstance(variable, int)
             else self.context.index(variable))
        if not 0 <= i < self.context.arity:
            raise IndexError(f"variable index {i} out of range")
        acc = {}
        for e, c in self.terms:
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            acc[tuple(d)] = acc.get(tuple(d), Fraction(0)) + c * e[i]
        return Polynomial._make(self.context, acc)

    # -- printing ---------------------------------------------------------------

    def _monomial_str(self, e):
        parts = []
        for name, exp in zip(self.context.names, e):
            if exp == 1:
                parts.append(name)
            elif exp > 1:
                parts.append(f"{name}^{exp}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.terms:
            mono = self._monomial_str(e)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


def lift_to_extended(p, big):
    """`p` in `big`, a ring with the variables of p's ring first and more
    adjoined after them: each exponent tuple padded with zeros."""
    pad = (0,) * (big.arity - p.context.arity)
    return Polynomial.from_terms(big, ((e + pad, c) for e, c in p.terms))


def extended_context(ctx):
    """The ring of the symmetric and Rees algebras: the base variables
    followed by T-variables, one per module generator dX_i, so one per
    base variable.

    T_i carries the weight of X_i, which keeps each linear form
    sum_i (df_j/dX_i) T_i homogeneous of the degree of f_j; under standard
    grading every T-weight is 1.
    """
    t_names = ctx.fresh_names("T", ctx.arity)
    return VariableContext(ctx.names + t_names, ctx.weights + ctx.weights)


# ---------------------------------------------------------------------------
# text grammar: identifiers, ^ powers, optional * between factors,
# integer/rational coefficients, parentheses.

_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^()])")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), line, col))
        col += m.end() - pos
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, context, tokens):
        self.context = context
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)

    def parse(self):
        p = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"unexpected {self.peek()[1]!r}")
        for e, _ in p.terms:
            if any(x >= EXPONENT_LIMIT for x in e):
                _, _, line, col = self.tokens[0]
                raise ParseError(str(exponent_overflow(e)), line, col)
        return p

    def expr(self):
        sign = 1
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            if self.take()[1] == "-":
                sign = -sign
        p = self.term() * sign
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _, _ = self.peek()
            if (kind, val) == ("op", "*"):
                self.take()
                p = p * self.factor()
            elif (kind, val) == ("op", "/"):
                self.take()
                q = self.factor()
                if not q.is_constant or q.is_zero:
                    self.fail("division is only defined by nonzero constants")
                p = p / q.constant_value()
            elif kind in ("num", "name") or (kind, val) == ("op", "("):
                p = p * self.factor()  # implicit multiplication
            else:
                return p

    def factor(self):
        base = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, val, _, _ = self.peek()
            if kind != "num":
                self.fail("exponent must be a nonnegative integer")
            if int(val) >= EXPONENT_LIMIT:
                self.fail(str(exponent_overflow((int(val),))))
            self.take()
            return base ** int(val)
        return base

    def base(self):
        kind, val, _, _ = self.peek()
        if (kind, val) == ("op", "-"):
            self.take()
            return -self.base()
        if kind == "num":
            self.take()
            return self.context.constant(int(val))
        if kind == "name":
            self.take()
            if val not in self.context._index:
                self.pos -= 1
                self.fail(f"unknown variable {val!r}")
            return self.context.variable(val)
        if (kind, val) == ("op", "("):
            self.take()
            p = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.take()
            return p
        self.fail(f"unexpected {val!r}" if val else "unexpected end of input")


def parse_polynomial(context, text):
    """Parse `text` in the polynomial grammar against `context`.  The
    parser recurses once per parenthesis and per leading sign, so text
    nested past the interpreter's recursion limit is refused."""
    try:
        return _Parser(context, _tokenize(text)).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
