"""Property tests: sparse maps of Scalars never store a zero.

Coefficients come from a small set closed under negation, so sums cancel
often and every accumulation path meets a zero.
"""

from hypothesis import given, settings, strategies as st

from spin7.clifford import N_SPIN, act, spinor_add, spinor_scale
from spin7.exterior import DIM, MultiVector, contract, wedge
from spin7.linalg import _axpy
from spin7.scalars import SQRT3, ZERO, Scalar, add_to, rational

_VALUES = [Scalar(1), Scalar(2), rational(1, 2), SQRT3, 1 + SQRT3]
coeffs = st.sampled_from(_VALUES + [-v for v in _VALUES])
indices = st.sets(st.integers(1, DIM), max_size=4).map(lambda s: tuple(sorted(s)))
forms = st.dictionaries(indices, coeffs, max_size=6).map(MultiVector)
vectors = st.dictionaries(st.integers(1, DIM).map(lambda i: (i,)), coeffs,
                          max_size=4).map(MultiVector)
spinors = st.dictionaries(st.integers(0, N_SPIN - 1), coeffs, max_size=8)
examples = settings(deadline=None, max_examples=200)


def _zero_free(terms: dict) -> bool:
    return not any(v.is_zero for v in terms.values())


@examples
@given(forms, spinors)
def test_a_sum_with_its_negative_has_no_terms(a, s):
    assert (a + (-a)).terms == {}
    assert spinor_add(s, spinor_scale(s, -1)) == {}


@examples
@given(forms, forms, forms)
def test_form_addition_is_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@examples
@given(forms, forms, vectors, spinors, spinors, coeffs)
def test_no_accumulation_stores_a_zero(a, b, x, s, t, f):
    target = dict(s)
    _axpy(target, f, t)
    for terms in (wedge(a, b).terms, contract(x, a).terms, act(a, s),
                  spinor_add(s, t), target):
        assert _zero_free(terms)
    dense = {k: s.get(k, ZERO) - f * t.get(k, ZERO) for k in set(s) | set(t)}
    assert target == {k: v for k, v in dense.items() if not v.is_zero}


@examples
@given(st.lists(st.tuples(st.integers(0, 5), coeffs), max_size=30))
def test_add_to_agrees_with_a_dense_sum(pairs):
    sparse: dict[int, Scalar] = {}
    dense = [ZERO] * 6
    for k, v in pairs:
        add_to(sparse, k, v)
        dense[k] = dense[k] + v
    assert sparse == {k: v for k, v in enumerate(dense) if not v.is_zero}
