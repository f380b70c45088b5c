"""Exact arithmetic in the real field Q(sqrt3, sqrt5).

Every quantity in this package is a `Scalar`: a rational combination

    a + b*sqrt3 + c*sqrt5 + d*sqrt15

with `fractions.Fraction` coordinates.  The field is closed under the
arithmetic we need (products of the two roots give sqrt15) and admits an
exact sign decision, so comparisons never go through floats.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]

_F0 = Fraction(0)


def _fraction(x: RationalLike) -> Fraction:
    """x as a Fraction; only ints (bools included) and Fractions are exact
    rationals, so a float or a string is a TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot interpret {x!r} as a rational")
    return Fraction(x)


@functools.total_ordering
class Scalar:
    """An element a + b*sqrt3 + c*sqrt5 + d*sqrt15 of Q(sqrt3, sqrt5)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0) -> None:
        self.a = _fraction(a)
        self.b = _fraction(b)
        self.c = _fraction(c)
        self.d = _fraction(d)

    @classmethod
    def _of(cls, a: Fraction, b: Fraction = _F0, c: Fraction = _F0,
            d: Fraction = _F0) -> Scalar:
        """The Scalar with these Fraction coordinates, taken as they are;
        every arithmetic result is built here, skipping `__init__`."""
        x = object.__new__(cls)
        x.a, x.b, x.c, x.d = a, b, c, d
        return x

    @classmethod
    def coerce(cls, x: ScalarLike) -> Scalar:
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot interpret {x!r} as a Scalar")

    @property
    def is_rational(self) -> bool:
        return self.b == 0 and self.c == 0 and self.d == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: ScalarLike) -> Scalar:
        if isinstance(other, Scalar):
            if self.b or self.c or self.d or other.b or other.c or other.d:
                return Scalar._of(self.a + other.a, self.b + other.b,
                                  self.c + other.c, self.d + other.d)
            return Scalar._of(self.a + other.a)
        if isinstance(other, (int, Fraction)):
            return Scalar._of(self.a + other, self.b, self.c, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> Scalar:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        o = Scalar.coerce(other)
        return Scalar._of(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other: ScalarLike) -> Scalar:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) - self

    def __neg__(self) -> Scalar:
        if self.b or self.c or self.d:
            return Scalar._of(-self.a, -self.b, -self.c, -self.d)
        return Scalar._of(-self.a)

    def __mul__(self, other: ScalarLike) -> Scalar:
        if isinstance(other, Scalar):
            if not (other.b or other.c or other.d):
                return self._scale(other.a)
            if not (self.b or self.c or self.d):
                return other._scale(self.a)
        elif isinstance(other, (int, Fraction)):
            return self._scale(other)
        else:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        # sqrt3*sqrt5 = sqrt15, sqrt3*sqrt15 = 3*sqrt5, sqrt5*sqrt15 = 5*sqrt3
        return Scalar._of(
            a1 * a2 + 3 * b1 * b2 + 5 * c1 * c2 + 15 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def _scale(self, r: RationalLike) -> Scalar:
        """self * r for a rational r: one product if self is rational too."""
        if self.b or self.c or self.d:
            return Scalar._of(self.a * r, self.b * r, self.c * r, self.d * r)
        return Scalar._of(self.a * r)

    def conj3(self) -> Scalar:
        """Galois conjugate sending sqrt3 -> -sqrt3."""
        return Scalar._of(self.a, -self.b, self.c, -self.d)

    def conj5(self) -> Scalar:
        """Galois conjugate sending sqrt5 -> -sqrt5."""
        return Scalar._of(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> Scalar:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero Scalar")
        if not (self.b or self.c or self.d):
            return Scalar._of(1 / self.a)
        # norm down the tower: x * conj5(x) lies in Q(sqrt3)
        y = self * self.conj5()
        z = y * y.conj3()          # rational
        num = self.conj5() * y.conj3()
        n = z.a
        return Scalar._of(num.a / n, num.b / n, num.c / n, num.d / n)

    def __truediv__(self, other: ScalarLike) -> Scalar:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        o = Scalar.coerce(other)
        if o.is_rational:
            if o.a == 0:
                raise ZeroDivisionError("division by zero Scalar")
            return Scalar._of(self.a / o.a, self.b / o.a, self.c / o.a, self.d / o.a)
        return self * o.inverse()

    def __rtruediv__(self, other: ScalarLike) -> Scalar:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) / self

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        o = Scalar.coerce(other)
        return (self.a == o.a and self.b == o.b
                and self.c == o.c and self.d == o.d)

    def __hash__(self) -> int:
        # a rational Scalar equals its int or Fraction, so it hashes alike
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), decided without floating point by one
        rule at each step of the tower Q < Q(sqrt3) < Q(sqrt3, sqrt5)."""
        return _sign(self)

    def __lt__(self, other: ScalarLike) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return (self - other).sign() < 0

    def __abs__(self) -> Scalar:
        return -self if self.sign() < 0 else self

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        parts = []
        for coeff, root in ((self.a, ""), (self.b, "sqrt3"),
                            (self.c, "sqrt5"), (self.d, "sqrt15")):
            if coeff == 0:
                continue
            mag = abs(coeff)
            if not root:
                body = str(mag)
            elif mag == 1:
                body = root
            else:
                body = f"{mag}*{root}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    @classmethod
    def parse(cls, text: str) -> Scalar:
        """Inverse of __str__; accepts e.g. '1/2 - 3*sqrt5 + sqrt15'."""
        return parse_terms(text, scalar=True).get((), ZERO)


def _sign(x: Scalar) -> int:
    """Sign of x = u + v*sqrt(r), with u and v one step down the tower.

    Unless u and v have opposite signs, x has the sign of whichever is
    nonzero.  Otherwise x has the sign of the larger of u^2 and r*v^2,
    and is zero if they are equal.  The recursion stays out of
    `Scalar.sign`, so one call of the method is one sign decision.
    """
    if x.c or x.d:
        u, v, r = Scalar._of(x.a, x.b), Scalar._of(x.c, x.d), 5
    elif x.b:
        u, v, r = Scalar._of(x.a), Scalar._of(x.b), 3
    else:
        return (x.a > 0) - (x.a < 0)
    su, sv = _sign(u), _sign(v)
    if su * sv >= 0:
        return su or sv
    s = _sign(u * u - v * v * r)
    return su if s > 0 else sv if s < 0 else 0


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT3 = Scalar(0, 1)
SQRT5 = Scalar(0, 0, 1)
SQRT15 = Scalar(0, 0, 0, 1)


def rational(p: RationalLike, q: RationalLike = 1) -> Scalar:
    return Scalar(_fraction(p) / _fraction(q))


# ---------------------------------------------------------------------------
# sparse maps of Scalars: forms, spinors, matrix rows and polynomials are
# dicts that never store a zero, so an empty dict is the zero element

def add_to(terms: dict, key, value: Scalar) -> None:
    """terms[key] += value, dropping the key when the sum is zero."""
    total = terms[key] + value if key in terms else value
    if total.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = total


def dot(x: dict, y: dict) -> Scalar:
    """Sum of x[k] * y[k] over the keys two sparse maps share."""
    small, big = (x, y) if len(x) <= len(y) else (y, x)
    total = ZERO
    for k, v in small.items():
        w = big.get(k)
        if w is not None:
            total = total + v * w
    return total


# ---------------------------------------------------------------------------
# the one grammar of scalar and form strings

class ParseError(ValueError):
    """Malformed scalar or form string; offset locates the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# a number n or n/m, a monomial, a root, an operator, or else a word or
# character the grammar does not know; blanks only separate tokens
_TOKEN_RE = re.compile(
    r"(\d+)(?:/(\d+))?|e_([1-8]+)\b|(sqrt15|sqrt3|sqrt5)\b|([-+*()])|(\w+|\S)")
_ROOTS = {"sqrt3": SQRT3, "sqrt5": SQRT5, "sqrt15": SQRT15}


def parse_terms(text: str, scalar: bool = False) -> dict[tuple[int, ...], Scalar]:
    """The zero-free map {indices as written: coefficient} of a string in

        sum     := "+"? signed (("+" | "-") signed)*
        signed  := "-"* product
        product := factor ("*" factor)*      -- at most one monomial
        factor  := n | n/m | sqrt3 | sqrt5 | sqrt15
                 | e_<distinct digits 1..8> | "(" sum ")"  -- no monomial in ( )

    with () keying the scalar part; a `scalar` string holds no monomial.  A
    syntax error raises ParseError; a zero denominator raises
    ZeroDivisionError once the whole string has parsed, so that a syntax
    error anywhere is reported first.
    """
    parser = _Parser(text, scalar)
    terms = parser.sum()
    parser.expect("end")
    if parser.zero:
        raise ZeroDivisionError(f"zero denominator in {parser.zero!r}")
    return terms


class _Parser:
    """Recursive descent over the tokens (kind, term, offset, text) of one
    string; kind is "n" for a number, root or monomial, whose term is its
    (indices, coefficient) pair, "end", or the operator itself."""

    def __init__(self, text: str, scalar: bool) -> None:
        self.tokens: list[tuple] = []
        self.zero = ""  # the first n/0, raised after the syntax check
        self.depth = int(scalar)  # a scalar string reads as if inside ( )
        self.pos = 0
        opened: list[int] = []
        for m in _TOKEN_RE.finditer(text):
            num, den, digits, root, op, bad = m.groups()
            at, kind, term = m.start(), op or "n", ((), ZERO)
            if bad:
                raise ParseError(f"unexpected {bad!r}", at)
            if root:
                term = ((), _ROOTS[root])
            elif digits:
                term = (tuple(map(int, digits)), ONE)
                if len(set(digits)) < len(digits):
                    raise ParseError(f"repeated index in {m.group()!r}", at)
            elif op == "(":
                opened.append(at)
            elif op == ")":
                if not opened:
                    raise ParseError("unbalanced ')'", at)
                opened.pop()
            elif den and not int(den):
                self.zero = self.zero or m.group()
            elif num:
                term = ((), Scalar._of(Fraction(int(num), int(den or 1))))
            self.tokens.append((kind, term, at, m.group()))
        if opened:
            raise ParseError("unbalanced '('", opened[0])
        # an unexpected end is reported at the last token, the dangling one
        self.tokens.append(("end", None, self.tokens[-1][2] if self.tokens else 0, ""))

    def take(self, kind: str) -> bool:
        found = self.tokens[self.pos][0] == kind
        self.pos += found
        return found

    def expect(self, kind: str) -> None:
        if not self.take(kind):
            _, _, at, text = self.tokens[self.pos]
            raise ParseError("unexpected " + (repr(text) if text else "end of string"), at)

    def sum(self) -> dict[tuple[int, ...], Scalar]:
        terms: dict[tuple[int, ...], Scalar] = {}
        self.take("+")
        while True:
            # a binary '-' is left to the next signed term: a - b = a + -b
            sign = 1
            while self.take("-"):
                sign = -sign
            key, value = self.product()
            add_to(terms, key, value if sign > 0 else -value)
            if not (self.take("+") or self.tokens[self.pos][0] == "-"):
                return terms

    def product(self) -> tuple:
        key, value = self.factor()
        while self.take("*"):
            at = self.tokens[self.pos][2]
            k, v = self.factor()
            if k and key:
                raise ParseError("two monomials in one term", at)
            key, value = key or k, value * v
        return key, value

    def factor(self) -> tuple:
        kind, term, at, text = self.tokens[self.pos]
        if kind == "n":
            if term[0] and self.depth:
                raise ParseError(f"monomial {text!r} where a scalar belongs", at)
            self.pos += 1
            return term
        self.expect("(")
        self.depth += 1
        inner = self.sum()
        self.depth -= 1
        self.expect(")")
        return (), inner.get((), ZERO)
