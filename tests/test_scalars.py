import operator
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from spin7.scalars import SQRT3, SQRT5, SQRT15, ZERO, Scalar, rational


def rational_part(x: Scalar) -> Fraction:
    if not x.is_rational:
        raise ValueError(f"{x} is not rational")
    return x.a


def test_square_roots_multiply_into_the_field():
    assert SQRT3 * SQRT3 == Scalar(3)
    assert SQRT5 * SQRT5 == Scalar(5)
    assert SQRT3 * SQRT5 == SQRT15
    assert SQRT15 * SQRT15 == Scalar(15)


def test_conjugate_products_collapse_to_rationals():
    assert (1 + SQRT3) * (1 - SQRT3) == Scalar(-2)
    assert (SQRT15 * rational(1, 5)) ** 2 == rational(3, 5)
    assert (2 + SQRT5) * (2 - SQRT5) == Scalar(-1)


def test_field_axioms_on_random_triples():
    rng = random.Random(0)

    def pick():
        return Scalar(*(Fraction(rng.randint(-9, 9),
                                 rng.randint(1, 9)) for _ in range(4)))

    for _ in range(1000):
        a, b, c = pick(), pick(), pick()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def test_division_inverts_multiplication():
    rng = random.Random(1)
    for _ in range(50):
        a = Scalar(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(4)))
        b = Scalar(rng.randint(1, 5), rng.randint(-3, 3),
                   rng.randint(-3, 3), rng.randint(-3, 3))
        if b.is_zero:
            continue
        assert (a / b) * b == a


def test_division_by_zero_is_a_hard_error():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_rational_embedding():
    a = Scalar(Fraction(3, 2))
    assert a.is_rational and rational_part(a) == Fraction(3, 2)
    assert not SQRT3.is_rational
    assert rational(7, 3) + rational(2, 3) == Scalar(3)
    # equal values hash alike, so ints and Fractions find rational Scalars
    assert 1 in {Scalar(1)} and Scalar(1) in {1}
    assert hash(a) == hash(Fraction(3, 2))
    assert {Scalar(1), SQRT3} == {1, SQRT3}


def test_string_round_trip():
    samples = [Scalar(0), Scalar(1), Scalar(-1), rational(1, 2),
               SQRT3, -1 * SQRT5, SQRT15 * rational(2, 7),
               rational(1, 2) - 3 * SQRT5 + SQRT15,
               1 + SQRT3 + SQRT5 + SQRT15]
    for v in samples:
        assert Scalar.parse(str(v)) == v


def test_parse_rejects_garbage():
    for text in ("", "sqrt7", "1//2", "2**2", "sqrt3 sqrt5", "1+", "1 + + 2",
                 "+"):
        with pytest.raises(ValueError):
            Scalar.parse(text)
    assert Scalar.parse("-1 + -sqrt3") == Scalar.parse("-1 - sqrt3")


def test_exact_sign_determination():
    assert (Scalar(4) - SQRT15).sign() > 0
    assert (SQRT15 - Scalar(4)).sign() < 0
    assert Scalar(0).sign() == 0
    # close call: sqrt3 + sqrt5 against sqrt15 - 1/7
    assert (SQRT3 + SQRT5 - SQRT15 + rational(1, 7)).sign() > 0
    # ordering and reflected arithmetic against a foreign type defer to
    # it, then fail as a TypeError
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__rsub__", "__rtruediv__"):
        for other in ("2", "x"):
            assert getattr(SQRT3, op)(other) is NotImplemented
    with pytest.raises(TypeError):
        SQRT3 < "2"
    assert 1 < SQRT3 < Fraction(7, 4) and SQRT3 >= SQRT3


def test_truth_is_being_nonzero():
    assert not Scalar(0) and not ZERO and not SQRT3 - SQRT3
    assert Scalar(1) and SQRT5 and rational(-1, 2) and Scalar(0, 0, 0, 1)
    assert bool(Scalar(0)) is bool(Fraction(0)) is False


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, "1/2", "3", None, 1j])
def test_only_ints_and_fractions_construct_scalars(value):
    with pytest.raises(TypeError):
        Scalar(value)
    with pytest.raises(TypeError):
        Scalar(0, 0, 0, value)
    with pytest.raises(TypeError):
        rational(value)
    with pytest.raises(TypeError):
        rational(1, value)
    with pytest.raises(TypeError):
        Scalar.coerce(value)


def test_ints_bools_and_fractions_still_construct_scalars():
    assert Scalar(True) == Scalar(1) and Scalar(False, True) == SQRT3
    assert Scalar(Fraction(1, 3), 2) == rational(1, 3) + 2 * SQRT3
    assert rational(True, 2) == rational(Fraction(3, 2), 3) == Scalar(Fraction(1, 2))



# ---------------------------------------------------------------------------
# the sign, against an oracle that brackets the roots by integer square
# roots: no step down the tower and no squaring

def _oracle_sign(x: Scalar) -> int:
    coords = (x.a, x.b, x.c, x.d)
    if not any(coords):
        return 0  # 1, sqrt3, sqrt5 and sqrt15 are linearly independent over Q
    den = lcm(*(q.denominator for q in coords))
    a, b, c, d = (int(q * den) for q in coords)
    bits = 8
    while True:
        # n * sqrt(r) * 2^bits lies strictly between n * lo and n * (lo + 1)
        low = high = a << bits
        for n, r in ((b, 3), (c, 5), (d, 15)):
            lo = isqrt(r << (2 * bits))
            low += min(n * lo, n * (lo + 1))
            high += max(n * lo, n * (lo + 1))
        if low > 0:
            return 1
        if high < 0:
            return -1
        bits *= 2


def _root(n: Fraction, r: int) -> Fraction:
    """A rational within |n| * 2^-64 of n * sqrt(r)."""
    return n * Fraction(isqrt(r << 128), 1 << 64)


_coords = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-50, max_value=50, max_denominator=12))
_shifts = st.sampled_from([Fraction(0), Fraction(1, 10**6), Fraction(-1, 10**6),
                           Fraction(1, 10**40), Fraction(-1, 10**40)])
# tiny irrational values: powers of 2 - sqrt3, sqrt5 - 2, 4 - sqrt15 and
# sqrt5 - sqrt3, each a near tie at one step of the tower
_small_powers = st.builds(
    lambda base, n, sign: base ** n * sign,
    st.sampled_from([2 - SQRT3, SQRT5 - 2, 4 - SQRT15, SQRT5 - SQRT3]),
    st.integers(1, 24), st.sampled_from([1, -1]))
field_values = st.one_of(
    st.builds(Scalar, _coords, _coords, _coords, _coords),
    # the rational part cancels the roots up to a tiny shift
    st.builds(lambda b, c, d, e: Scalar(e - _root(b, 3) - _root(c, 5) - _root(d, 15),
                                        b, c, d),
              _coords, _coords, _coords, _shifts),
    # u = a + b sqrt3 cancels v sqrt5, v = c + d sqrt3, up to tiny shifts
    st.builds(lambda c, d, e, f: Scalar(e - _root(c, 5), f - _root(d, 5), c, d),
              _coords, _coords, _shifts, _shifts),
    _small_powers)
_CANCELLING = (SQRT3 + SQRT5) ** 2 - 8 - 2 * SQRT15


@settings(deadline=None, max_examples=600)
@given(field_values)
@example(_CANCELLING)
@example(_CANCELLING + Fraction(1, 10**30))
@example(_CANCELLING - Fraction(1, 10**30))
@example(_CANCELLING + (SQRT5 - SQRT3) ** 20)
@example(_CANCELLING - (SQRT5 - SQRT3) ** 20)
def test_sign_matches_an_interval_oracle(x):
    assert x.sign() == _oracle_sign(x)
    assert (-x).sign() == -x.sign()


@settings(deadline=None, max_examples=300)
@given(field_values, st.one_of(field_values, st.integers(-3, 3), _coords))
def test_comparisons_agree_with_the_sign_of_the_difference(x, y):
    s = (x - y).sign()
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (y < x, y <= x, y > x, y >= x) == (s > 0, s >= 0, s < 0, s <= 0)


def test_ordering_against_a_foreign_type_is_a_type_error():
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((Scalar(1), "x"), ("x", Scalar(1)), (SQRT3, None)):
            with pytest.raises(TypeError):
                compare(left, right)
