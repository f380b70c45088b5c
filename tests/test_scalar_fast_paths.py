"""The rational fast paths of `Scalar` against the general arithmetic.

`ReferenceScalar` is the field arithmetic without fast paths: every
operation forms all four coordinates, and every coordinate goes through
`Fraction()`.  Operands come in three shapes, rational, one root and all
four coordinates, with zero coordinates and numerators and denominators
up to 10**30; each result must have the reference coordinates, all of
them `Fraction`s, and print, parse, hash, compare and sign like a
`Scalar` built from those coordinates by the public constructor.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from spin7.scalars import Scalar


class ReferenceScalar:
    """a + b*sqrt3 + c*sqrt5 + d*sqrt15, general formulas only."""

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a, self.b, self.c, self.d = (Fraction(a), Fraction(b),
                                          Fraction(c), Fraction(d))

    @classmethod
    def of(cls, x):
        if isinstance(x, Scalar):
            return cls(x.a, x.b, x.c, x.d)
        return cls(x)

    def coords(self):
        return self.a, self.b, self.c, self.d

    def __add__(self, o):
        return ReferenceScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o):
        return ReferenceScalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self):
        return ReferenceScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o):
        a1, b1, c1, d1 = self.coords()
        a2, b2, c2, d2 = o.coords()
        return ReferenceScalar(
            a1 * a2 + 3 * b1 * b2 + 5 * c1 * c2 + 15 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    def conj3(self):
        return ReferenceScalar(self.a, -self.b, self.c, -self.d)

    def conj5(self):
        return ReferenceScalar(self.a, self.b, -self.c, -self.d)

    def inverse(self):
        y = self * self.conj5()
        z = y * y.conj3()
        num = self.conj5() * y.conj3()
        n = z.a
        return ReferenceScalar(num.a / n, num.b / n, num.c / n, num.d / n)

    def __truediv__(self, o):
        if not (o.b or o.c or o.d):
            return ReferenceScalar(self.a / o.a, self.b / o.a, self.c / o.a, self.d / o.a)
        return self * o.inverse()


def _agrees(got: Scalar, ref: ReferenceScalar) -> None:
    coords = (got.a, got.b, got.c, got.d)
    assert all(type(v) is Fraction for v in coords)
    assert coords == ref.coords()
    want = Scalar(*ref.coords())
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and got.sign() == want.sign()
    assert Scalar.parse(str(got)) == got
    if not (ref.b or ref.c or ref.d):
        assert got == ref.a and hash(got) == hash(ref.a)


small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
huge = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
coords = st.one_of(st.just(Fraction(0)), small, huge)


def _one_root(a, slot, v):
    parts = [a, 0, 0, 0]
    parts[slot] = v
    return Scalar(*parts)


scalars = st.one_of(
    coords.map(Scalar),
    st.builds(_one_root, coords, st.integers(1, 3), coords),
    st.builds(Scalar, coords, coords, coords, coords),
)
rationals = st.one_of(st.integers(-10**30, 10**30), coords)
examples = settings(deadline=None, max_examples=300)


@examples
@given(scalars, scalars)
def test_binary_operations_match_the_reference(x, y):
    rx, ry = ReferenceScalar.of(x), ReferenceScalar.of(y)
    _agrees(x + y, rx + ry)
    _agrees(x - y, rx - ry)
    _agrees(x * y, rx * ry)
    if not y.is_zero:
        _agrees(x / y, rx / ry)


@examples
@given(scalars)
def test_unary_operations_match_the_reference(x):
    rx = ReferenceScalar.of(x)
    _agrees(-x, -rx)
    _agrees(x.conj3(), rx.conj3())
    _agrees(x.conj5(), rx.conj5())
    if not x.is_zero:
        _agrees(x.inverse(), rx.inverse())


@examples
@given(scalars, rationals)
def test_mixed_operands_match_the_reference(x, r):
    rx, rr = ReferenceScalar.of(x), ReferenceScalar.of(r)
    _agrees(x + r, rx + rr)
    _agrees(r + x, rr + rx)
    _agrees(x - r, rx - rr)
    _agrees(r - x, rr - rx)
    _agrees(x * r, rx * rr)
    _agrees(r * x, rr * rx)
    if r:
        _agrees(x / r, rx / rr)
    if not x.is_zero:
        _agrees(r / x, rr / rx)
