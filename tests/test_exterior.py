import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from spin7.exterior import (CAYLEY, DIM, E, KAHLER, VOL, MultiVector,
                            contract, evaluate, form, format_form,
                            format_terms, hodge, inner, merge_sign, monomials,
                            norm_sq, sigma_t, wedge)
from spin7.scalars import SQRT3, ParseError, Scalar, rational


def _random_form(rng, grade, terms=6):
    out = MultiVector()
    for idx in rng.sample(monomials(grade), terms):
        out = out + MultiVector.monomial(idx) * rng.randint(-4, 4)
    return out


def test_monomial_counts_per_grade():
    for k in range(DIM + 1):
        assert len(monomials(k)) == comb(DIM, k)


def _parity(seq):
    """(-1)^(number of pairs out of order), counted pair by pair; 0 when
    an index repeats."""
    if len(set(seq)) < len(seq):
        return 0
    return (-1) ** sum(a > b for a, b in itertools.combinations(seq, 2))


def test_merge_sign_is_the_parity_of_the_concatenation():
    subsets = [m for k in range(DIM + 1) for m in monomials(k)]
    pairs = 0
    for left in subsets:
        for right in subsets:
            if len(left) + len(right) > DIM:
                continue
            pairs += 1
            sign = _parity(left + right)
            want = (tuple(sorted(left + right)), sign) if sign else ((), 0)
            assert merge_sign(left, right) == want, (left, right)
    assert pairs == 39203


def test_monomials_and_coefficients_of_every_short_index_tuple():
    # every coefficient distinct and a scalar part present, so a repeated
    # index must not read any stored term
    keys = [m for k in range(6) for m in monomials(k)]
    rank = {m: n for n, m in enumerate(keys)}
    a = MultiVector({m: Scalar(rank[m] + 1) for m in keys})
    tuples = 0
    for length in range(6):
        for idx in itertools.product(range(1, DIM + 1), repeat=length):
            tuples += 1
            sign = _parity(idx)
            key = tuple(sorted(idx))
            value = Scalar(rank[key] + 1) * sign if sign else Scalar(0)
            assert a.coeff(idx) == value, idx
            assert MultiVector.monomial(idx, 3) == (
                MultiVector({key: Scalar(3 * sign)}) if sign else MultiVector())
    assert tuples == 37449


def test_wedge_is_graded_anticommutative():
    rng = random.Random(2)
    for _ in range(10):
        a = _random_form(rng, 1, terms=4)
        b = _random_form(rng, 1, terms=4)
        c = _random_form(rng, 2)
        d = _random_form(rng, 3)
        assert wedge(a, b) == -1 * wedge(b, a)
        assert wedge(c, d) == wedge(d, c)
        assert wedge(wedge(a, c), d) == wedge(a, wedge(c, d))


def test_volume_and_hodge_involution():
    assert VOL == MultiVector.monomial(tuple(range(1, DIM + 1)))
    rng = random.Random(3)
    for k in (1, 2, 3, 4):
        a = _random_form(rng, k)
        sign = (-1) ** (k * (DIM - k))
        assert hodge(hodge(a)) == a * sign


def test_hodge_pairs_with_the_inner_product():
    rng = random.Random(4)
    for k in (2, 3):
        a = _random_form(rng, k)
        b = _random_form(rng, k)
        assert wedge(a, hodge(b)) == VOL * inner(a, b)


def test_contraction_is_adjoint_to_wedge():
    rng = random.Random(5)
    for _ in range(8):
        x = _random_form(rng, 1, terms=4)
        a = _random_form(rng, 3)
        b = _random_form(rng, 2)
        assert inner(contract(x, a), b) == inner(a, wedge(x, b))


def test_evaluate_against_coordinates():
    a = form("2*e_135 - e_236")
    assert evaluate(a, [E[1], E[3], E[5]]) == Scalar(2)
    assert evaluate(a, [E[3], E[1], E[5]]) == Scalar(-2)
    assert evaluate(a, [E[2], E[3], E[6]]) == Scalar(-1)
    assert evaluate(a, [E[1], E[2], E[4]]).is_zero


def test_calibration_form_is_self_dual():
    assert hodge(CAYLEY) == CAYLEY
    assert wedge(CAYLEY, CAYLEY) == VOL * Scalar(14)
    assert norm_sq(CAYLEY) == Scalar(14)


def test_quadratic_shadow_of_single_monomials_vanishes():
    # each contraction e_i -| t of a decomposable 3-form repeats a factor
    for text in ("e_567", "e_127", "3*e_345"):
        assert sigma_t(form(text)).is_zero


def test_quadratic_shadow_of_a_mixed_form_is_nonzero():
    t = form("e_127 + e_347 - 2*e_567") + form(
        "e_246 - e_145 - e_235 - e_136")
    assert not sigma_t(t).is_zero


def test_parse_and_format_round_trip():
    samples = ["e_135 - e_146 - e_236 - e_245",
               "2 + 1/2*e_12 - sqrt3*e_34 + (1 + sqrt5)*e_56",
               "7*e_567",
               "0"]
    for text in samples:
        assert format_form(form(text)) == text


def test_parse_errors_carry_offsets():
    cases = [("e_135 - e_2w45", 8),
             ("e_12)", 4),
             ("(e_12", 0),
             ("e_12*e_34", 5),
             ("", 0),
             ("e_12 +", 5),
             ("e_12 -", 5),
             ("e_12 + + e_34", 7),
             ("e_12 - + e_34", 7)]
    for text, offset in cases:
        with pytest.raises(ParseError) as err:
            form(text)
        assert err.value.offset == offset
        assert f"offset {offset}" in str(err.value)
    assert form("-e_12 + -3/2*e_135") == form("-e_12 - 3/2*e_135")


def test_a_double_minus_is_a_plus():
    assert form("e_12 - -e_34") == form("e_12 + e_34")
    assert form("- -e_12") == form("e_12")
    assert form("e_12 + -3/2*e_135") == form("e_12 - 3/2*e_135")
    assert form("e_12 - -(1 + sqrt3)*e_34") == form("e_12 + (1 + sqrt3)*e_34")


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
field_elements = st.tuples(*[_rationals] * 4).map(lambda c: Scalar(*c))
any_forms = st.dictionaries(
    st.sampled_from([m for k in range(DIM + 1) for m in monomials(k)]),
    field_elements, max_size=6).map(MultiVector)
scalar_strings = st.recursive(
    st.sampled_from(["0", "2", "3/4", "1/0", "sqrt3", "sqrt5", "sqrt15",
                     "sqrt7", ""]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", " - -", "+-"]),
                  inner).map("".join),
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"-{s}")),
    max_leaves=8)


@settings(deadline=None, max_examples=200)
@given(any_forms)
def test_printed_forms_and_coefficients_read_back(a):
    assert form(format_form(a)) == a
    for v in a.terms.values():
        assert Scalar.parse(format_terms([("", v)])) == v


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ZeroDivisionError) as exc:
        return type(exc)


@settings(deadline=None, max_examples=200)
@given(scalar_strings)
def test_a_scalar_string_reads_alike_alone_in_a_form_and_as_a_coefficient(text):
    value = _outcome(Scalar.parse, text)
    failed = isinstance(value, type)
    assert _outcome(form, text) == (
        value if failed else MultiVector({(): value}))
    assert _outcome(form, f"({text})*e_12") == (
        value if failed else MultiVector.monomial((1, 2), value))


def test_scalar_multiples_and_zero_cleanup():
    a = form("e_12") * SQRT3
    assert (a * SQRT3) == form("3*e_12")
    assert (a + -1 * a).is_zero
    assert not (a + -1 * a).terms
