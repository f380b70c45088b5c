"""Column-form operators against the representations they replaced.

The reference implementations below are the earlier dense and dyad
forms, kept here only as oracles: a curvature operator applied as a sum
of dyads, the torsion term of the cyclic identity evaluated by four
contractions, the bracket as a commutator of dense skew 8x8 matrices, and
the rotation of a vector read off that matrix.
"""

from functools import lru_cache
from unittest import mock

from hypothesis import given, settings, strategies as st

from spin7 import curvature
from spin7.curvature import (CurvatureTensor, build_rc, case_family,
                             cyclic_residue, dyad)
from spin7.exterior import (DIM, E, MultiVector, evaluate, inner, monomials,
                            sigma_t, to_coords)
from spin7.liealg import act_on_form, algebra, bracket
from spin7.scalars import SQRT3, ZERO, Scalar, add_to, rational

_VALUES = [Scalar(1), Scalar(2), rational(1, 2), SQRT3, 1 + SQRT3]
coeffs = st.sampled_from(_VALUES + [-v for v in _VALUES])
two_forms = st.dictionaries(st.sampled_from(monomials(2)), coeffs,
                            max_size=6).map(MultiVector)
three_forms = st.dictionaries(st.sampled_from(monomials(3)), coeffs,
                              min_size=1, max_size=4).map(MultiVector)
four_forms = st.dictionaries(st.sampled_from(monomials(4)), coeffs,
                             max_size=12).map(MultiVector)
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


def evaluated_cyclic_residue(r: CurvatureTensor, t: MultiVector | None) -> bool:
    """cyclic_residue with sigma_t(t) evaluated on each quadruple."""
    sig = sigma_t(t) if t is not None else None
    for i in range(1, DIM + 1):
        for j in range(i + 1, DIM + 1):
            for k in range(j + 1, DIM + 1):
                for v in range(1, DIM + 1):
                    tot = r.entry(i, j, k, v) + r.entry(j, k, i, v) + r.entry(k, i, j, v)
                    if sig is not None:
                        tot = tot - evaluate(sig, [E[i], E[j], E[k], E[v]])
                    if not tot.is_zero:
                        return False
    return True


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


@examples
@given(four_forms, quadruples)
def test_a_coefficient_is_the_evaluation_on_basis_vectors(sig, quads):
    for q in quads:
        assert sig.coeff(q) == evaluate(sig, [E[x] for x in q])


# the first golden sample of four curvature cases; each passes the
# torsion-corrected identity and fails the plain one
_CASES = {"5.1.1": {"a1": 1, "b1": 2, "b2": 3},
          "5.2.2": {"a1": 1},
          "5.3.1-I": {"a1": 1, "a2": 1, "b1": 1},
          "5.3.1-II": {"a1": 1, "a2": 1, "b1": 1}}


@examples
@given(st.sampled_from(sorted(_CASES)), dyads,
       st.sampled_from(["none", "own", "twice", "drawn"]), three_forms)
def test_cyclic_residue_matches_the_evaluated_torsion(case, raw, torsion, drawn):
    params = {k: Scalar(v) for k, v in _CASES[case].items()}
    own = case_family(case, params).torsion(params)
    t = {"none": None, "own": own, "twice": own * 2, "drawn": drawn}[torsion]
    rc = build_rc(case, params)
    columns = {m: dict(col) for m, col in rc.columns.items()}
    extra = CurvatureTensor.from_dyads([dyad(c, left, right) for c, left, right in raw])
    for m, col in extra.columns.items():
        for n, v in col.items():
            add_to(columns.setdefault(m, {}), n, v)
    perturbed = CurvatureTensor(columns)
    for r in (rc, perturbed):
        assert cyclic_residue(r, t) == evaluated_cyclic_residue(r, t)
    assert cyclic_residue(rc, own) and not cyclic_residue(rc)


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
