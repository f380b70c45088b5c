"""Column-form operators against the representations they replaced.

The reference implementations below are the earlier dense and dyad
forms, kept here only as oracles: a curvature operator applied as a sum
of dyads, the bracket as a commutator of dense skew 8x8 matrices, and the
rotation of a vector read off that matrix.
"""

from functools import lru_cache
from unittest import mock

from hypothesis import given, settings, strategies as st

from spin7 import curvature
from spin7.curvature import CurvatureTensor, dyad
from spin7.exterior import DIM, MultiVector, inner, monomials, to_coords
from spin7.liealg import act_on_form, algebra, bracket
from spin7.scalars import SQRT3, ZERO, Scalar, add_to, rational

_VALUES = [Scalar(1), Scalar(2), rational(1, 2), SQRT3, 1 + SQRT3]
coeffs = st.sampled_from(_VALUES + [-v for v in _VALUES])
two_forms = st.dictionaries(st.sampled_from(monomials(2)), coeffs,
                            max_size=6).map(MultiVector)
vectors = st.dictionaries(st.integers(1, DIM).map(lambda i: (i,)), coeffs,
                          max_size=4).map(MultiVector)
quadruples = st.lists(st.tuples(*[st.integers(1, DIM)] * 4), min_size=1, max_size=12)
examples = settings(deadline=None, max_examples=30)


# ---------------------------------------------------------------------------
# reference implementations

def dyad_apply(pieces, a: MultiVector) -> MultiVector:
    out = MultiVector()
    for c, left, right in pieces:
        weight = c * inner(right, a)
        if not weight.is_zero:
            out = out + left * weight
    return out


def dyad_entry(pieces, i, j, k, l) -> Scalar:
    image = dyad_apply(pieces, MultiVector.monomial((i, j)))
    return inner(image, MultiVector.monomial((k, l)))


def mat(w: MultiVector) -> list[list[Scalar]]:
    m = [[ZERO] * DIM for _ in range(DIM)]
    for (i, j), c in w.terms.items():
        m[i - 1][j - 1] = m[i - 1][j - 1] - c
        m[j - 1][i - 1] = m[j - 1][i - 1] + c
    return m


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(DIM)), ZERO)
             for j in range(DIM)] for i in range(DIM)]


def commutator_bracket(a: MultiVector, b: MultiVector) -> MultiVector:
    ab, ba = matmul(mat(a), mat(b)), matmul(mat(b), mat(a))
    return MultiVector({(i + 1, j + 1): ab[j][i] - ba[j][i]
                        for i in range(DIM) for j in range(i + 1, DIM)})


def act_on_vector(w: MultiVector, x: MultiVector) -> MultiVector:
    m = mat(w)
    out: dict = {}
    for (i,), c in x.terms.items():
        for r in range(DIM):
            if not m[r][i - 1].is_zero:
                add_to(out, (r + 1,), c * m[r][i - 1] * 2)
    return MultiVector(out)


def _matches_oracle(tensor: CurvatureTensor, pieces, quads) -> bool:
    for m in monomials(2):
        a = MultiVector.monomial(m)
        if tensor.apply(a) != dyad_apply(pieces, a):
            return False
    return all(tensor.entry(*q) == dyad_entry(pieces, *q) for q in quads)


# ---------------------------------------------------------------------------
# curvature operators

dyads = st.lists(st.tuples(coeffs, two_forms, two_forms), max_size=3)


@examples
@given(dyads, two_forms, quadruples)
def test_dyad_built_columns_match_the_dyad_sum(raw, a, quads):
    pieces = [dyad(c, left, right) for c, left, right in raw]
    tensor = CurvatureTensor.from_dyads(pieces)
    assert _matches_oracle(tensor, pieces, quads)
    assert tensor.apply(a) == dyad_apply(pieces, a)
    assert tensor.is_zero == all(dyad_apply(pieces, MultiVector.monomial(m)).is_zero
                                 for m in monomials(2))


@lru_cache(maxsize=None)
def _bianchi_solutions(name: str):
    """The nullspace vectors behind bianchi_space, with the members built."""
    h = algebra(name)
    seen = []
    build = curvature._operator

    def record(sol, hcoords):
        seen.append(sol)
        return build(sol, hcoords)

    with mock.patch.object(curvature, "_operator", record):
        members = curvature.bianchi_space(h, symmetric=False)
    return h, seen, members


def _solution_dyads(sol, h):
    grade2 = monomials(2)
    return [(c, h[key % len(h)], MultiVector.monomial(grade2[key // len(h)]))
            for key, c in sol.items()]


@examples
@given(st.sampled_from(["su2", "r+su2", "u2"]),
       st.lists(coeffs, min_size=1, max_size=5), quadruples)
def test_solution_vector_columns_match_the_dyad_sum(name, weights, quads):
    h, sols, members = _bianchi_solutions(name)
    assert len(members) == len(sols) > 0
    for member, sol in zip(members, sols):
        assert _matches_oracle(member, _solution_dyads(sol, h), quads)
    combo: dict = {}
    for w, sol in zip(weights, sols):
        for key, c in sol.items():
            add_to(combo, key, w * c)
    tensor = curvature._operator(combo, [to_coords(w, 2) for w in h])
    assert _matches_oracle(tensor, _solution_dyads(combo, h), quads)


# ---------------------------------------------------------------------------
# rotations

@examples
@given(two_forms, two_forms)
def test_bracket_is_the_matrix_commutator(a, b):
    assert bracket(a, b) == commutator_bracket(a, b)


@examples
@given(two_forms, vectors)
def test_rotation_of_a_vector_matches_the_skew_matrix(w, x):
    assert act_on_form(w, x) == act_on_vector(w, x)
