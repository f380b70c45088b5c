import random
from fractions import Fraction

import pytest

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
