"""Column-form operators and the string grammar against the code they
replaced.

The reference implementations below are the earlier dense and dyad
forms, kept here only as oracles: a curvature operator applied as a sum
of dyads, the torsion term of the cyclic identity evaluated by four
contractions, the bracket as a commutator of dense skew 8x8 matrices, and
the rotation of a vector read off that matrix.  The two hand-split
parsers of scalar and form strings are kept the same way, and so is the
renumbering of the monomials of a grade as 0..C(8, k)-1 that the linear
algebra once ran on.  The square map of a torsion, now one action of
sigma_t per spinor, is checked against the 3-form applied twice, and the
oracle solves below build their square map that way.  The Clifford
action of a form, one signed permutation per monomial, is checked
against the generator-by-generator product it replaced.  The Ricci tensors
are checked against the dense symmetric 8x8 matrices they were, the
spinor solve against its run over int-renumbered unknowns, against the
row elimination that the read-off from one invariant spinor replaced
and, on a warm cache, against its own run on cleared caches, and the
reconstructed Lie algebras against the upper-triangle bracket table read
with sign flips.
The Bianchi spaces and invariant Ricci families, kernels over S^2(h), are
checked for span against the rows over the unknowns (monomial, member of
h) they were solved from, with and without the symmetry rows.  The table
of curvature cases is checked against the per-case branches it replaced.
"""

import re
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from spin7 import curvature, linalg, structure, verification
from spin7.classify import reconstruct_lie_algebra
from spin7.clifford import (N_SPIN, act, basis_spinor, gamma_apply,
                            spinor_scale)
from spin7.curvature import (CASES, CurvatureTensor, build_rc, case_family,
                             case_weights, cyclic_residue, dyad,
                             vanishing_constraints)
from spin7.exterior import (CAYLEY, DIM, E, MultiVector, evaluate, form, hodge,
                            inner, monomials, norm_sq, sigma_t, wedge)
from spin7.liealg import (CATALOG_NAMES, SPIN7_BASIS, act_on_form, algebra,
                          algebra_by_label, bracket, express,
                          invariant_spinors, rotation)
from spin7.scalars import (ONE, SQRT3, SQRT5, SQRT15, ZERO, ParseError, Scalar,
                           add_to, dot, rational)
from spin7.verification import load_golden

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


def _perturbed(rc: CurvatureTensor, raw) -> CurvatureTensor:
    """rc plus the operator of the drawn dyads."""
    columns = {m: dict(col) for m, col in rc.columns.items()}
    extra = CurvatureTensor.from_dyads([dyad(c, left, right) for c, left, right in raw])
    for m, col in extra.columns.items():
        for n, v in col.items():
            add_to(columns.setdefault(m, {}), n, v)
    return CurvatureTensor(columns)


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
    for r in (rc, _perturbed(rc, raw)):
        assert cyclic_residue(r, t) == evaluated_cyclic_residue(r, t)
    assert cyclic_residue(rc, own) and not cyclic_residue(rc)


@lru_cache(maxsize=None)
def _bianchi_solutions(name: str):
    """The S^2(h) kernel vectors behind bianchi_space, with the members built."""
    h = algebra(name)
    seen = []
    kernel = linalg.kernel

    def record(columns, keys):
        basis = kernel(columns, keys)
        seen.extend(basis)
        return basis

    with mock.patch.object(linalg, "kernel", record):
        members = curvature.bianchi_space(h)
    return h, seen, members


def _solution_dyads(sol, h):
    """The dyads h_a <h_b, .> + h_b <h_a, .> of the keys (a, b), one for a = b."""
    pieces = []
    for (a, b), c in sol.items():
        pieces.append((c, h[a], h[b]))
        if a != b:
            pieces.append((c, h[b], h[a]))
    return pieces


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
    tensor = curvature._s2_operator(combo, h)
    assert _matches_oracle(tensor, _solution_dyads(combo, h), quads)


# ---------------------------------------------------------------------------
# int coordinates: the monomials of a grade renumbered 0..C(8, k)-1, as the
# linear algebra read forms before it took the index tuples as keys

@lru_cache(maxsize=None)
def _index(grade: int) -> dict:
    return {m: i for i, m in enumerate(monomials(grade))}


def to_coords(a: MultiVector, grade: int) -> dict:
    return {_index(grade)[k]: v for k, v in a.terms.items()}


def from_coords(row: dict, grade: int) -> dict:
    """The tuple-keyed terms of a coordinate row, in the row's order."""
    return {monomials(grade)[i]: v for i, v in row.items()}


def express_int(target, basis, grade):
    rows = linalg.transpose({i: to_coords(b, grade) for i, b in enumerate(basis)})
    t = to_coords(target, grade)
    keys = sorted(set(rows) | set(t))
    return linalg.solve([rows.get(j, {}) for j in keys], [t.get(j, ZERO) for j in keys])


def _pair_int(i, j):
    index = _index(2)
    return (index[(i, j)], 1) if i < j else (index[(j, i)], -1)


def bianchi_space_int(h, symmetric):
    """The Bianchi space as columns keyed by monomials, solved from the
    cyclic rows, and the symmetry rows if asked, over the unknowns
    m * nh + a of the operator R(e_m) = sum_a x[m * nh + a] h_a."""
    nmon, nh = len(monomials(2)), len(h)
    hcoords = [to_coords(w, 2) for w in h]
    rows = []
    for i in range(1, DIM + 1):
        for j in range(i + 1, DIM + 1):
            for k in range(j + 1, DIM + 1):
                for v in range(1, DIM + 1):
                    row = {}
                    for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                        if z == v:
                            continue
                        (m, s), (n, t) = _pair_int(x, y), _pair_int(z, v)
                        for a, ha in enumerate(hcoords):
                            if n in ha:
                                add_to(row, m * nh + a, ha[n] if s == t else -ha[n])
                    if row:
                        rows.append(row)
    if symmetric:
        for m in range(nmon):
            for n in range(m + 1, nmon):
                row = {}
                for a, ha in enumerate(hcoords):
                    if n in ha:
                        row[m * nh + a] = ha[n]
                    if m in ha:
                        row[n * nh + a] = -ha[m]
                if row:
                    rows.append(row)
    out = []
    for sol in linalg.nullspace(rows, range(nmon * nh)):
        columns = defaultdict(dict)
        for key, c in sol.items():
            m, a = divmod(key, nh)
            for n, v in hcoords[a].items():
                add_to(columns[m], n, c * v)
        out.append({monomials(2)[m]: from_coords(col, 2)
                    for m, col in columns.items() if col})
    return out


def _ordered(d):
    """A nested dict as nested item lists, so that == also compares key order."""
    return [(k, _ordered(v) if isinstance(v, dict) else v) for k, v in d.items()]


grades = st.integers(1, 4)


def forms_of(grade, max_size=6):
    return st.dictionaries(st.sampled_from(monomials(grade)), coeffs,
                           max_size=max_size).map(MultiVector)


@examples
@given(grades.flatmap(lambda g: st.tuples(st.just(g), st.lists(forms_of(g), max_size=6),
                                          forms_of(g))))
def test_rank_and_express_read_tuple_keys_as_the_int_coordinates(drawn):
    grade, basis, other = drawn
    rows = [b.terms for b in basis]
    assert linalg.rank(rows) == linalg.rank([to_coords(b, grade) for b in basis])
    combo = sum((b * c for b, c in zip(basis, _VALUES)), MultiVector())
    for target in (other, combo, combo + other):
        assert _ordered(express(target, basis) or {}) == \
            _ordered(express_int(target, basis, grade) or {})
        assert (express(target, basis) is None) == (express_int(target, basis, grade) is None)


@examples
@given(st.tuples(st.integers(1, 2), grades).flatmap(lambda gs: st.tuples(
    st.just(gs), st.dictionaries(st.sampled_from(monomials(gs[0])), forms_of(gs[1]),
                                 max_size=10))))
def test_kernel_over_monomials_is_the_int_kernel_mapped_through_them(drawn):
    (source, target), images = drawn
    columns = {m: f.terms for m, f in images.items()}
    old = linalg.kernel({_index(source)[m]: to_coords(f, target) for m, f in images.items()},
                        range(len(monomials(source))))
    new = linalg.kernel(columns, monomials(source))
    assert [_ordered(r) for r in new] == [_ordered(from_coords(r, source)) for r in old]


def invariant_ricci_family_rows(h):
    """invariant_ricci_family as rows over the unknowns (m, a) of the
    operator R(e_m) = sum_a x[(m, a)] h_a: symmetry rows, and one row per
    entry of each commutator with a rotation from h."""
    if not h:
        return []
    mons = monomials(2)
    rows = []
    for p, m in enumerate(mons):
        for n in mons[p + 1:]:
            row = {}
            for a, w in enumerate(h):
                if n in w.terms:
                    row[(m, a)] = w.terms[n]
                if m in w.terms:
                    row[(n, a)] = -w.terms[m]
            if row:
                rows.append(row)
    for w in h:
        rot = rotation(w, 2)
        img = [linalg.apply(rot, ha.terms) for ha in h]
        for m in mons:
            columns = {(m, a): img[a] for a in range(len(h))}
            for n, c in rot.get(m, {}).items():
                for a, ha in enumerate(h):
                    columns[(n, a)] = {slot: -(c * v) for slot, v in ha.terms.items()}
            rows.extend(linalg.transpose(columns).values())
    riccis = []
    for sol in linalg.nullspace(rows, [(m, a) for m in mons for a in range(len(h))]):
        columns = defaultdict(dict)
        for (m, a), c in sol.items():
            for n, v in h[a].terms.items():
                add_to(columns[m], n, c * v)
        riccis.append(CurvatureTensor(columns).ricci())
    ech = linalg.Echelon()
    return [ric for ric in riccis if ech.add_row(ric) is not None]


def _entries(columns):
    """An operator's columns as one row keyed by its entries (m, n)."""
    return {(m, n): v for m, col in columns.items() for n, v in col.items()}


def _assert_spaces_agree(h):
    """The S^2(h) kernels span the row-built spaces: the Bianchi space with
    and without symmetry rows, and the invariant Ricci family."""
    new = [_entries(r.columns) for r in curvature.bianchi_space(h)]
    for symmetric in (False, True):
        assert linalg.span_equal(new, [_entries(c) for c in bianchi_space_int(h, symmetric)])
    assert linalg.span_equal(curvature.invariant_ricci_family(h), invariant_ricci_family_rows(h))


@settings(deadline=None, max_examples=15)
@given(st.lists(forms_of(2), min_size=1, max_size=3))
def test_s2_kernels_span_the_row_built_spaces_of_drawn_lists(h):
    _assert_spaces_agree(h)


def test_s2_kernels_span_the_row_built_spaces_of_the_catalog():
    for name in CATALOG_NAMES:
        _assert_spaces_agree(algebra(name))
    for k, l in ((1, 0), (0, 1), (1, 1)):
        _assert_spaces_agree(algebra("t1tilde", k, l))


# ---------------------------------------------------------------------------
# the torsion square: the 3-form applied twice against one action of sigma_t

def ref_shift(t: MultiVector) -> Scalar:
    """7|t_8|^2 = sum_i <t, *(e_i ^ Phi)>^2, the eight 3-forms *(e_i ^ Phi)
    being pairwise orthogonal of norm squared 7."""
    total = ZERO
    for i in range(1, DIM + 1):
        c = inner(t, hodge(wedge(E[i], CAYLEY)))
        total = total + c * c
    return total


def ref_square_map(t: MultiVector, shift: Scalar) -> dict:
    """Column images of psi -> t^2 psi - shift psi, t applied twice."""
    columns = {}
    for k in range(N_SPIN):
        col = act(t, act(t, basis_spinor(k)))
        add_to(col, k, -shift)
        if col:
            columns[k] = col
    return columns


_SURDS = [SQRT3, -SQRT5, 1 + SQRT3, SQRT5 - rational(1, 2), SQRT15,
          2 - SQRT3 + SQRT5, rational(3, 2) * SQRT15]
square_torsions = st.one_of(*[
    st.dictionaries(st.sampled_from(monomials(3)), values,
                    min_size=1, max_size=20).map(MultiVector)
    for values in (st.integers(-5, 5).filter(bool).map(Scalar),
                   st.sampled_from(_SURDS + [-v for v in _SURDS]))])


@settings(deadline=None, max_examples=40)
@given(square_torsions)
def test_square_map_is_the_3_form_applied_twice(t):
    new, ref = structure._square_map(t, sigma_t(t)), ref_square_map(t, ref_shift(t))
    assert list(new) == list(ref)
    for k, col in ref.items():
        assert new[k] == col, k


def test_the_square_of_a_3_form_is_its_norm_minus_twice_sigma_t():
    torsions = [fam.torsion(dict(zip(fam.params, (1, SQRT3, -2))))
                for fam in structure.FAMILIES.values()]
    for t in torsions + [form("e_123"), form("e_123 + e_145 - 3*e_678")]:
        sig = sigma_t(t)
        for k in range(N_SPIN):
            psi = basis_spinor(k)
            want = spinor_scale(psi, norm_sq(t))
            for s, v in act(sig, psi).items():
                add_to(want, s, -2 * v)
            assert act(t, act(t, psi)) == want, (t, k)


# ---------------------------------------------------------------------------
# the Clifford action: one signed permutation per monomial against the
# generator-by-generator product it replaced

def ref_act(a: MultiVector, spinor: dict) -> dict:
    """Each monomial applied one generator at a time, right to left."""
    total: dict = {}
    for idx, coeff in a.terms.items():
        part = spinor
        for i in reversed(idx):
            part = gamma_apply(i, part)
        for k, v in part.items():
            add_to(total, k, v * coeff)
    return total


ALL_MONOMIALS = [idx for grade in range(DIM + 1) for idx in monomials(grade)]


def test_every_monomial_acts_as_its_generator_product():
    for idx in ALL_MONOMIALS:
        for coeff in (ONE, -SQRT3):
            a = MultiVector({idx: coeff})
            for k in range(N_SPIN):
                psi = basis_spinor(k)
                assert list(act(a, psi).items()) == list(ref_act(a, psi).items()), (idx, k)


_IRRATIONAL = _SURDS + [-v for v in _SURDS]
field_forms = st.dictionaries(st.sampled_from(ALL_MONOMIALS),
                              st.sampled_from(_IRRATIONAL + _VALUES),
                              max_size=24).map(MultiVector)
field_spinors = st.dictionaries(st.integers(0, N_SPIN - 1),
                                st.sampled_from(_IRRATIONAL + _VALUES), max_size=N_SPIN)


@settings(deadline=None, max_examples=80)
@given(field_forms, field_spinors)
def test_act_is_the_generator_product_on_field_coefficients(a, psi):
    assert list(act(a, psi).items()) == list(ref_act(a, psi).items())


# ---------------------------------------------------------------------------
# Ricci tensors: the dense symmetric 8x8 matrices, and the spinor solve over
# the unknowns (i, j), i <= j, renumbered as ints

def dense_ricci_solver(t, h):
    spinors = invariant_spinors(h)
    square = ref_square_map(t, ref_shift(t))
    if any(linalg.apply(square, psi) for psi in spinors):
        return None

    pairs = [(i, j) for i in range(1, DIM + 1) for j in range(i, DIM + 1)]
    col_of = {p: n for n, p in enumerate(pairs)}
    rows, rhs = [], []
    for psi in spinors:
        gammas = [gamma_apply(j, psi) for j in range(1, DIM + 1)]
        for k in range(1, DIM + 1):
            target = linalg.apply(square, gammas[k - 1])
            slots = set(target)
            for j in range(1, DIM + 1):
                slots.update(gammas[j - 1])
            for s in sorted(slots):
                row = {}
                for j in range(1, DIM + 1):
                    v = gammas[j - 1].get(s, ZERO)
                    if not v.is_zero:
                        col = col_of[(min(j, k), max(j, k))]
                        row[col] = row.get(col, ZERO) + Scalar(-4) * v
                rows.append(row)
                rhs.append(target.get(s, ZERO))
    sol = linalg.solve(rows, rhs)
    if sol is None:
        return None
    ric = [[ZERO] * DIM for _ in range(DIM)]
    for (i, j), n in col_of.items():
        v = sol.get(n, ZERO)
        ric[i - 1][j - 1] = v
        ric[j - 1][i - 1] = v
    return ric


def rows_ricci_solver(t, h):
    """The solve as it was built: one row per spinor slot, basis vector
    e_k and invariant spinor, eliminated by `linalg.solve`."""
    spinors = invariant_spinors(h)
    square = ref_square_map(t, ref_shift(t))
    if any(linalg.apply(square, psi) for psi in spinors):
        return None

    rows: list[linalg.Row] = []
    rhs: list[Scalar] = []
    for psi in spinors:
        gammas = [gamma_apply(j, psi) for j in range(1, DIM + 1)]
        for k in range(1, DIM + 1):
            target = linalg.apply(square, gammas[k - 1])
            slots = set(target)
            for j in range(1, DIM + 1):
                slots.update(gammas[j - 1])
            for s in sorted(slots):
                rows.append({(min(j, k), max(j, k)): Scalar(-4) * g[s]
                             for j, g in enumerate(gammas, 1) if s in g})
                rhs.append(target.get(s, ZERO))
    return linalg.solve(rows, rhs)


def dense_ricci(r: CurvatureTensor):
    out = [[ZERO] * DIM for _ in range(DIM)]
    for x in range(1, DIM + 1):
        for y in range(x, DIM + 1):
            tot = sum((r.entry(i, x, y, i) for i in range(1, DIM + 1)), ZERO)
            out[x - 1][y - 1] = out[y - 1][x - 1] = tot
    return out


def upper_nonzero(dense):
    """The nonzero entries (i, j), i <= j, of a dense matrix, 1-based."""
    return {(i + 1, j + 1): dense[i][j] for i in range(DIM) for j in range(i, DIM)
            if not dense[i][j].is_zero}


def _family_torsion(fam_id, values):
    fam = structure.FAMILIES[fam_id]
    return fam.torsion(dict(zip(fam.params, values)))


family_torsions = st.builds(_family_torsion, st.sampled_from(sorted(structure.FAMILIES)),
                            st.lists(coeffs, min_size=3, max_size=3))
torsions = st.one_of(family_torsions, three_forms,
                     st.builds(lambda a, b: a + b, family_torsions, three_forms))


@settings(deadline=None, max_examples=40)
@given(torsions, st.sampled_from(CATALOG_NAMES + ("zero",)))
def test_ricci_solver_map_is_the_upper_half_of_the_dense_solve(t, name):
    h = algebra(name)
    ric, dense = structure.ricci_solver(t, h), dense_ricci_solver(t, h)
    assert (ric is None) == (dense is None)
    if ric is not None:
        assert ric == upper_nonzero(dense)
        assert structure.diagonal(ric) == [dense[i][i] for i in range(DIM)]


_FIELD = [Scalar(1), Scalar(-2), rational(3, 2), SQRT3, -SQRT5, 1 + SQRT3,
          SQRT5 - rational(1, 2), SQRT15, 2 - SQRT3 + SQRT5]
field_torsions = st.builds(_family_torsion, st.sampled_from(sorted(structure.FAMILIES)),
                           st.lists(st.sampled_from(_FIELD), min_size=3, max_size=3))
solver_torsions = st.one_of(field_torsions, three_forms,
                            st.builds(lambda a, b: a + b, three_forms, three_forms),
                            st.builds(lambda a, b: a + b, field_torsions, three_forms))
SLOPES = ((1, 0), (0, 1), (1, 1))
HOLONOMY_LABELS = CATALOG_NAMES + tuple(f"{name}[{k},{l}]" for name in ("t1", "t1tilde")
                                        for k, l in SLOPES)


@settings(deadline=None, max_examples=60)
@given(solver_torsions, st.sampled_from(HOLONOMY_LABELS))
def test_ricci_solver_reads_off_the_row_solve(t, label):
    _, h = algebra_by_label(label)
    assert structure.ricci_solver(t, h) == rows_ricci_solver(t, h)


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field_torsions, st.sampled_from(HOLONOMY_LABELS), st.sampled_from(HOLONOMY_LABELS))
def test_ricci_solver_on_a_warm_cache_equals_a_cold_solve(clear_caches, t, label, other):
    # the square map of t is cached by another holonomy's solve and looked
    # up through an equal torsion built anew; the frames of h may come
    # from an earlier example
    _, h = algebra_by_label(label)
    structure.ricci_solver(t, algebra_by_label(other)[1])
    warm = structure.ricci_solver(MultiVector(dict(t.terms)), h)
    clear_caches()
    assert structure.ricci_solver(t, h) == warm


def test_ricci_solver_reads_off_the_row_solve_on_the_families():
    # first invariant spinors of norm 1 (su3, u2, so3, r+su2) and 2 (r+su2c,
    # g2, spin7); under spin7 the e_j psi span the other half-spinor and
    # t^2 is symmetric, so every 3-form passes the residual there and
    # e_123 + e_145 fails the square condition alone
    torsions = [fam.torsion({p: 1 for p in fam.params})
                for fam in structure.FAMILIES.values()]
    for t in torsions + [form("e_123"), form("e_123 + e_145")]:
        for name in ("su3", "u2", "so3", "r+su2", "r+su2c", "g2", "spin7"):
            h = algebra(name)
            assert structure.ricci_solver(t, h) == rows_ricci_solver(t, h), (t, name)
    assert rows_ricci_solver(form("e_123"), algebra("spin7")) is not None
    assert rows_ricci_solver(form("e_123 + e_145"), algebra("spin7")) is None


def _read_off_residuals(t, h):
    """The Ricci map read off the first invariant spinor, and the 1-based
    numbers of the invariant spinors on which its residual is nonzero."""
    spinors = invariant_spinors(h)
    square = ref_square_map(t, ref_shift(t))
    images = [[gamma_apply(j, psi) for j in range(1, DIM + 1)] for psi in spinors]
    scale = (-4 * dot(spinors[0], spinors[0])).inverse()
    ric = {}
    for k in range(1, DIM + 1):
        target = linalg.apply(square, images[0][k - 1])
        for j in range(k, DIM + 1):
            value = dot(target, images[0][j - 1]) * scale
            if not value.is_zero:
                ric[(k, j)] = value
    failing = []
    for n, gammas in enumerate(images, 1):
        for k in range(1, DIM + 1):
            residual = linalg.apply(square, gammas[k - 1])
            for j in range(1, DIM + 1):
                for s, v in gammas[j - 1].items():
                    add_to(residual, s, 4 * ric.get((min(j, k), max(j, k)), ZERO) * v)
            if residual:
                failing.append(n)
                break
    return ric, failing


def test_ricci_solver_agrees_on_an_inconsistent_solve():
    # 5.4 passes the square condition under these holonomies, and the
    # residual on the first invariant spinor; a later spinor alone fails
    t = structure.FAMILIES["5.4"].torsion({"b1": 1})
    for label, failing in (("so3diag", [2, 4]), ("t1[1,1]", [3, 4, 7, 8]),
                           ("t1tilde[1,1]", [3, 4])):
        _, h = algebra_by_label(label)
        assert not any(linalg.apply(structure._torsion_square(t), psi)
                       for psi in invariant_spinors(h))
        ric, bad = _read_off_residuals(t, h)
        assert ric and bad == failing, label
        assert dense_ricci_solver(t, h) is None and rows_ricci_solver(t, h) is None
        assert structure.ricci_solver(t, h) is None


_GOLDEN_CASES = load_golden("curvature_cases.json")["cases"]


@examples
@given(st.sampled_from(sorted(CASES)), dyads)
def test_operator_ricci_map_is_the_upper_half_of_the_dense_trace(case, raw):
    params = {k: Scalar.parse(v) for k, v in _GOLDEN_CASES[case]["samples"][0]["params"].items()}
    rc = build_rc(case, params)
    for r in (rc, _perturbed(rc, raw)):
        ric, want = r.ricci(), upper_nonzero(dense_ricci(r))
        # equal maps with the keys in the same ascending order
        assert list(ric.items()) == list(want.items())


# ---------------------------------------------------------------------------
# the curvature case table: the per-case branches it replaced

def _ref_two_torus():
    p = SPIN7_BASIS
    return p[6], p[6] + 2 * p[7]


def ref_case_operator(case, r1, r2):
    p = SPIN7_BASIS
    ta, tb = _ref_two_torus()
    pieces = [dyad(r1, ta), dyad(r2, tb)]
    if case == "5.1.1":
        pieces += [dyad(r2, p[12]), dyad(r2, p[13])]
    elif case not in ("5.3.1", "5.3.1-I", "5.3.1-II"):
        raise KeyError(case)
    return CurvatureTensor.from_dyads(pieces)


def ref_vanishing_constraints(case, h):
    return (not ref_case_operator(case, 1, 0).range_inside(h),
            not ref_case_operator(case, 0, 1).range_inside(h))


_REF_CASE_FAMILY = {"5.1.1": "5.1", "5.1.2": "5.1", "5.2.1": "5.2", "5.2.2": "5.2",
                    "5.3.1-I": "5.3-I", "5.3.1-II": "5.3-II"}


def ref_case_family(case, assignment):
    fam_id = _REF_CASE_FAMILY[case]
    if fam_id == "5.2":
        fam_id = "5.2-II" if "a2" in assignment else "5.2-I"
    return structure.FAMILIES[fam_id]


def ref_case_weights(case, diag):
    c1, c2 = ((rational(3, 8), rational(-1, 8)) if case == "5.1.1"
              else (rational(1, 4), rational(-1, 4)))
    lam, kap = diag[0], diag[4]
    return c1 * kap - lam, c2 * kap


def ref_build_rc(case, assignment):
    p = SPIN7_BASIS
    ta, tb = _ref_two_torus()
    fam = ref_case_family(case, assignment)
    if case in ("5.1.1", "5.3.1-I", "5.3.1-II"):
        return ref_case_operator(case, *ref_case_weights(case, fam.ricci_diag(assignment)))
    if case == "5.1.2":
        vals = fam.values(assignment)
        if not (vals["b1"].is_zero and vals["b2"].is_zero):
            raise ValueError("the irreducible so(3) case needs b1 = b2 = 0")
        w = -vals["a1"] * vals["a1"]
        mixed = SQRT15 * rational(1, 2)
        return CurvatureTensor.from_dyads([
            dyad(w * rational(5, 2), p[4]), dyad(-w * mixed, p[4], p[9]),
            dyad(-w * mixed, p[9], p[4]), dyad(w * rational(3, 2), p[9]),
            dyad(w * rational(5, 2), p[5]), dyad(w * mixed, p[5], p[8]),
            dyad(w * mixed, p[8], p[5]), dyad(w * rational(3, 2), p[8]),
            dyad(w, p[6] + 3 * p[7])])
    lam = fam.ricci_diag(assignment)[0]
    if case == "5.2.1":
        w = -lam * rational(1, 2)
        return CurvatureTensor.from_dyads([
            dyad(w * rational(1, 2), p[0] + p[4]), dyad(w * rational(1, 2), p[1] + p[5]),
            dyad(w, p[6] + p[7])])
    w = -lam * rational(1, 4)
    return CurvatureTensor.from_dyads([dyad(3 * w, ta), dyad(w, tb)])


_CASE_INPUTS = [("5.1.1", "5.1"), ("5.1.2", "5.1"), ("5.2.1", "5.2-I"), ("5.2.1", "5.2-II"),
                ("5.2.2", "5.2-I"), ("5.2.2", "5.2-II"), ("5.3.1-I", "5.3-I"),
                ("5.3.1-II", "5.3-II")]
field_values = st.one_of(st.just(ZERO), coeffs)


@st.composite
def case_assignments(draw):
    case, fam_id = draw(st.sampled_from(_CASE_INPUTS))
    params = {name: draw(field_values) for name in structure.FAMILIES[fam_id].params}
    if case == "5.1.2":
        params.update(b1=ZERO, b2=ZERO)
    return case, params


@settings(deadline=None, max_examples=60)
@given(case_assignments())
def test_case_table_matches_the_per_case_branches(drawn):
    case, params = drawn
    assert case_family(case, params) is ref_case_family(case, params)
    assert build_rc(case, params).columns == ref_build_rc(case, params).columns
    if case in ("5.1.1", "5.3.1-I", "5.3.1-II"):
        diag = case_family(case, params).ricci_diag(params)
        assert case_weights(case, diag) == ref_case_weights(case, diag)


def test_case_table_constraints_match_the_per_case_branches():
    tables = verification._CONSTRAINT_TABLES
    cases = {"5.1.1": ("5.1.1",), "5.3.1": ("5.3.1-I", "5.3.1-II")}
    assert sorted(tables) == sorted(cases)
    for key, table in tables.items():
        for label in table:
            h = algebra_by_label(label)[1]
            for case in cases[key]:
                assert vanishing_constraints(case, h) == ref_vanishing_constraints(key, h)
    assert CASES["5.3.1-I"].blocks is CASES["5.3.1-II"].blocks


# ---------------------------------------------------------------------------
# reconstructed Lie algebras: the upper-triangle bracket table

class TriangleAlgebra:
    """The bracket table {(i, j): [e_i, e_j]} over i < j, read with a sign
    flip for i > j; ad(e_i) is rebuilt from it for the Killing form."""

    def __init__(self, dim, structure_table):
        self.dim, self.structure = dim, structure_table

    def bracket_vec(self, x, y):
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i == j:
                    continue
                row = self.structure.get((i, j))
                sign = 1
                if row is None:
                    row = self.structure.get((j, i))
                    sign = -1
                if not row:
                    continue
                c = xi * yj
                for m, v in row.items():
                    add_to(out, m, c * v if sign == 1 else -(c * v))
        return out

    def killing_nondegenerate(self):
        ads = [{k: col for k in range(self.dim)
                if (col := self.bracket_vec({i: ONE}, {k: ONE}))}
               for i in range(self.dim)]
        rows = []
        for p in ads:
            row = {}
            for j, q in enumerate(ads):
                tr = sum((linalg.apply(p, col).get(k, ZERO)
                          for k, col in q.items()), ZERO)
                if not tr.is_zero:
                    row[j] = tr
            rows.append(row)
        return linalg.rank(rows) == self.dim

    def jacobi_ok(self):
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    tot = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner_br = self.bracket_vec({a: ONE}, {b: ONE})
                        for m, v in self.bracket_vec(inner_br, {c: ONE}).items():
                            add_to(tot, m, v)
                    if tot:
                        return False
        return True


def triangle_table(t, r, h, dims):
    """The bracket table of reconstruct_lie_algebra, built entry by entry."""
    nh, pos = len(h), {d: i for i, d in enumerate(dims)}
    table = {}

    def h_coords(w):
        return {} if w.is_zero else express(w, h)

    def put(i, j, co):
        if co:
            table[(i, j)] = co

    for a in range(nh):
        for b in range(a + 1, nh):
            put(a, b, h_coords(bracket(h[a], h[b])))
        for d in dims:
            put(a, nh + pos[d], {nh + pos[i]: c for (i,), c in bracket(h[a], E[d]).terms.items()})
    for xi, x in enumerate(dims):
        for y in dims[xi + 1:]:
            co = {}
            if r is not None:
                for m, v in h_coords(r.apply(MultiVector.monomial((x, y)))).items():
                    co[m] = -v
            for z in dims:
                add_to(co, nh + pos[z], -evaluate(t, [E[x], E[y], E[z]]))
            put(nh + pos[x], nh + pos[y], co)
    return table


def _example(which):
    """The inputs of `spin7 reconstruct --example which`."""
    if which == 3:
        return (structure.FAMILIES["5.2-I"].torsion({"a1": 1}), build_rc("5.2.2", {"a1": 1}),
                algebra("t2"), list(range(1, 8)))
    values = {1: {"a1": 1, "b1": -1, "b2": 0},
              2: {"a1": rational(4, 7), "b1": rational(3, 7), "b2": SQRT3}}[which]
    return structure.FAMILIES["5.1"].torsion(values), None, [], list(range(1, DIM + 1))


def _agrees_with_the_triangle(t, r, h, dims):
    rec = reconstruct_lie_algebra(t, r, h, dims)
    ref = TriangleAlgebra(len(h) + len(dims), triangle_table(t, r, h, dims))
    assert rec.dim == ref.dim
    assert rec.structure == ref.structure
    assert rec.jacobi_ok == ref.jacobi_ok()
    assert rec.killing_nondegenerate() == ref.killing_nondegenerate()
    for i in range(rec.dim):
        for j in range(rec.dim):
            assert rec.bracket_vec({i: ONE}, {j: SQRT3}) == ref.bracket_vec({i: ONE}, {j: SQRT3})
    return rec


def test_reconstruction_examples_match_the_triangle_table():
    got = [_agrees_with_the_triangle(*_example(which)) for which in (1, 2, 3)]
    assert [(r.dim, r.jacobi_ok, r.killing_nondegenerate()) for r in got] == \
        [(8, True, False), (8, True, True), (9, True, True)]


@examples
@given(three_forms)
def test_flat_reconstruction_matches_the_triangle_table(t):
    _agrees_with_the_triangle(t, None, [], list(range(1, DIM + 1)))


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


# ---------------------------------------------------------------------------
# scalar and form strings: the two hand-split parsers that the one grammar
# replaced, copied verbatim except that form reads a parenthesised
# coefficient with its `scalar_parse` argument (Scalar.parse by default)
# and that `MultiVector.scalar(c)` is spelled out

_FRACTION_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_MONOMIAL_RE = re.compile(r"^e_([1-8]+)$")


def ref_scalar_parse(text: str) -> Scalar:
    """Inverse of __str__; accepts e.g. '1/2 - 3*sqrt5 + sqrt15'."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar string")
    # every '-' opens a chunk, so only "+ -" and a leading sign may
    # leave an empty one; any other empty chunk is a dangling '+'
    chunks = s.replace("-", "+-").split("+")
    total = Scalar()
    for n, chunk in enumerate(chunks):
        if chunk.strip():
            total = total + _ref_scalar_term(chunk.strip())
        elif n and not (n + 1 < len(chunks) and chunks[n + 1].startswith("-")):
            raise ValueError(f"dangling '+' in scalar {text!r}")
    return total


def _ref_scalar_term(term: str) -> Scalar:
    negate = False
    if term.startswith("-"):
        negate = True
        term = term[1:].strip()
    pieces = [p.strip() for p in term.split("*")]
    coeff = Fraction(1)
    root = ""
    for p in pieces:
        if p in ("sqrt3", "sqrt5", "sqrt15"):
            if root:
                raise ValueError(f"two roots in term {term!r}")
            root = p
        elif _FRACTION_RE.match(p):
            coeff *= Fraction(p)
        else:
            raise ValueError(f"bad scalar term {term!r}")
    if negate:
        coeff = -coeff
    slot = {"": "a", "sqrt3": "b", "sqrt5": "c", "sqrt15": "d"}[root]
    return Scalar(**{slot: coeff})


class FormSyntaxError(ValueError):
    """Malformed form string; offset locates the problem in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def ref_form(text: str, scalar_parse=ref_scalar_parse) -> MultiVector:
    """Parse '1/2*e_12 - sqrt3*e_34 + (1 + sqrt5)*e_56 + 2'."""
    total = MultiVector()
    for sign, term, start in _split_terms(text):
        a = _ref_form_term(term, start, scalar_parse)
        total = total + (a if sign > 0 else -a)
    return total


def _split_terms(text: str) -> list[tuple[int, str, int]]:
    out = []
    depth = 0
    sign = 1
    open_at = -1
    cur: list[str] = []
    start = -1
    pending = -1  # offset of an operator that no term has followed yet

    def flush() -> None:
        # the sign carries over an empty term, so "- -e_12" is e_12
        nonlocal sign, cur, start
        if "".join(cur).strip():
            out.append((sign, "".join(cur).strip(), start))
            sign = 1
        cur = []
        start = -1

    for n, ch in enumerate(text):
        if ch == "(":
            depth += 1
            open_at = n
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormSyntaxError("unbalanced ')'", n)
        if ch in "+-" and depth == 0:
            if ch == "+" and pending >= 0:
                raise FormSyntaxError("'+' right after an operator", n)
            flush()
            pending = n
            if ch == "-":
                sign = -sign
        else:
            if not ch.isspace():
                pending = -1
                if start < 0:
                    start = n
            cur.append(ch)
    if depth:
        raise FormSyntaxError("unbalanced '('", open_at)
    if pending >= 0:
        raise FormSyntaxError("form ends in an operator", pending)
    flush()
    if not out:
        raise FormSyntaxError("empty form string", 0)
    return out


def _ref_form_term(term: str, base: int, scalar_parse) -> MultiVector:
    parts: list[tuple[str, int]] = []
    depth = 0
    cur: list[str] = []
    start = 0

    def flush(end: int) -> None:
        nonlocal cur, start
        parts.append(("".join(cur).strip(), base + start))
        cur = []
        start = end + 1

    for n, ch in enumerate(term):
        if ch == "(":
            depth += 1
        if ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            flush(n)
        else:
            cur.append(ch)
    flush(len(term))
    coeff = Scalar(1)
    mono: tuple[int, ...] | None = None
    for p, at in parts:
        if not p:
            raise FormSyntaxError("empty factor", at)
        m = _MONOMIAL_RE.match(p)
        if m:
            if mono is not None:
                raise FormSyntaxError("two monomials in one term", at)
            digits = [int(ch) for ch in m.group(1)]
            if len(set(digits)) != len(digits):
                raise FormSyntaxError(f"repeated index in {p!r}", at)
            mono = tuple(digits)
        else:
            parse = ref_scalar_parse
            if p.startswith("(") and p.endswith(")"):
                p, parse = p[1:-1], scalar_parse
            try:
                coeff = coeff * parse(p)
            except ValueError:
                raise FormSyntaxError(f"bad coefficient {p!r}", at) from None
    if mono is None:
        return MultiVector({(): coeff})
    return MultiVector.monomial(mono, coeff)


# The named widening: the parent's Scalar.parse rejected parentheses,
# repeated unary minus and products of roots, all of which its form read
# outside parentheses, and form read the inside of parentheses with
# Scalar.parse.  The one grammar reads scalar strings and parenthesised
# coefficients with form's own language.  The widened references below are
# the parent's form with exactly that change.

def wide_scalar(text: str) -> Scalar:
    if "e_" in text:
        raise ValueError(f"monomial in scalar {text!r}")
    return ref_form(text, wide_scalar).coeff(())


def wide_form(text: str) -> MultiVector:
    return ref_form(text, wide_scalar)


SYNTAX, ZERO_DENOMINATOR = "syntax error", "zero denominator"


def _new_outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return SYNTAX
    except ZeroDivisionError:
        return ZERO_DENOMINATOR


def _ref_outcome(parse, text):
    """A reference meets a zero denominator before a later syntax error;
    the string with "/1" for every zero denominator tells which it has."""
    try:
        return parse(text)
    except ZeroDivisionError:
        try:
            parse(re.sub(r"/0+(?!\d)", "/1", text))
        except ValueError:
            return SYNTAX
        return ZERO_DENOMINATOR
    except ValueError:
        return SYNTAX


# tokens of both parsers, with repeated and out-of-range indices, zero
# denominators and words neither knows; adjacent tokens may fuse
_WORDS = ["0", "1", "2", "12", "3/4", "6/4", "1/0", "0/0", "sqrt3", "sqrt5",
          "sqrt15", "sqrt7", "e_12", "e_21", "e_135", "e_1355", "e_19", "e_",
          "e_1x"]
_ALPHABET = _WORDS + ["+", "-", "*", "(", ")", " ", " ", "/", "x"]
token_strings = st.lists(st.sampled_from(_ALPHABET), max_size=12).map("".join)
expressions = st.recursive(
    st.sampled_from(_WORDS + [""]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", "+-", " - -", "-"]),
                  inner).map("".join),
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"-{s}")),
    max_leaves=8)
parser_examples = settings(deadline=None, max_examples=400)


@parser_examples
@given(st.one_of(token_strings, expressions))
def test_scalar_strings_match_the_parent_parser_up_to_the_widening(text):
    new = _new_outcome(Scalar.parse, text)
    old = _ref_outcome(ref_scalar_parse, text)
    assert new == _ref_outcome(wide_scalar, text)
    assert new == old or old == SYNTAX


@parser_examples
@given(st.one_of(token_strings, expressions))
def test_form_strings_match_the_parent_parser_up_to_the_widening(text):
    new = _new_outcome(form, text)
    old = _ref_outcome(ref_form, text)
    assert new == _ref_outcome(wide_form, text)
    assert new == old or old == SYNTAX
