from hypothesis import example, given, settings, strategies as st

from spin7 import linalg
from spin7.exterior import DIM, monomials
from spin7.scalars import SQRT3, Scalar, dot, rational


def _rows(dense):
    return [{j: Scalar(v) for j, v in enumerate(row) if v}
            for row in dense]


def test_solve_recovers_a_known_solution():
    rows = _rows([[1, 2], [3, 4]])
    sol = linalg.solve(rows, [Scalar(5), Scalar(11)])
    assert sol is not None
    assert sol.get(0, Scalar(0)) == Scalar(1)
    assert sol.get(1, Scalar(0)) == Scalar(2)


def test_solve_reports_inconsistency():
    rows = _rows([[1, 1], [2, 2]])
    assert linalg.solve(rows, [Scalar(1), Scalar(3)]) is None


def test_solve_handles_irrational_pivots():
    rows = [{0: SQRT3, 1: Scalar(1)}, {0: Scalar(1), 1: -1 * SQRT3}]
    sol = linalg.solve(rows, [Scalar(3) + SQRT3, Scalar(0)])
    assert sol is not None
    x = sol.get(0, Scalar(0))
    y = sol.get(1, Scalar(0))
    assert SQRT3 * x + y == Scalar(3) + SQRT3
    assert x - SQRT3 * y == Scalar(0)


def test_rank_and_nullspace_are_complementary():
    rows = _rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r = linalg.rank(rows)
    null = linalg.nullspace(rows, range(3))
    assert r == 2
    assert len(null) == 1
    vec = null[0]
    for row in rows:
        total = Scalar(0)
        for j, c in row.items():
            total = total + c * vec.get(j, Scalar(0))
        assert total.is_zero


def test_in_span_and_span_equal():
    basis = _rows([[1, 0, 1], [0, 1, 1]])
    assert linalg.in_span(basis, {0: Scalar(2), 1: Scalar(3), 2: Scalar(5)})
    assert not linalg.in_span(basis, {0: Scalar(1)})
    rotated = _rows([[1, 1, 2], [1, -1, 0]])
    assert linalg.span_equal(basis, rotated)


def test_matvec_applies_sparse_rows():
    rows = _rows([[0, 2], [1, 0]])
    out = [dot(row, {0: rational(1, 2), 1: Scalar(3)}) for row in rows]
    assert out[0] == Scalar(6)
    assert out[1] == rational(1, 2)


def test_column_maps_apply_transpose_and_kernel():
    # the map with columns (1, 3), (2, 4), (3, 7) and the zero column
    columns = {0: {0: Scalar(1), 1: Scalar(3)}, 1: {0: Scalar(2), 1: Scalar(4)},
               2: {0: Scalar(3), 1: Scalar(7)}}
    assert linalg.transpose(columns) == {0: {0: Scalar(1), 1: Scalar(2), 2: Scalar(3)},
                                         1: {0: Scalar(3), 1: Scalar(4), 2: Scalar(7)}}
    assert linalg.transpose(linalg.transpose(columns)) == columns
    assert linalg.apply(columns, {0: Scalar(1), 1: Scalar(1), 2: Scalar(-1)}) == {}
    assert linalg.apply(columns, {1: rational(1, 2), 3: Scalar(5)}) == \
        {0: Scalar(1), 1: Scalar(2)}
    assert linalg.kernel(columns, range(4)) == [{2: Scalar(1), 0: Scalar(-1), 1: Scalar(-1)},
                                         {3: Scalar(1)}]


# the unknowns of the Ricci solve and of the curvature-operator spaces
PAIR_KEYS = [(i, j) for i in range(1, DIM + 1) for j in range(i, DIM + 1)]
MEMBER_KEYS = [(m, a) for m in monomials(2)[:8] for a in range(3)]
_VALUES = [Scalar(1), Scalar(-2), rational(1, 2), SQRT3, 1 - SQRT3]


def _systems(keys):
    rows = st.lists(st.dictionaries(st.sampled_from(keys), st.sampled_from(_VALUES),
                                    max_size=4), min_size=1, max_size=8)
    vectors = st.dictionaries(st.sampled_from(keys), st.sampled_from(_VALUES), max_size=4)
    return st.tuples(st.just(keys), rows, vectors,
                     st.lists(st.sampled_from(_VALUES), min_size=8, max_size=8),
                     st.sampled_from(["consistent", "drawn", "contradicted"]))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([PAIR_KEYS, MEMBER_KEYS]).flatmap(_systems))
# eliminating (1, 1) from the second row appends (1, 3) behind the
# augmented column, which must still sort after it
@example((PAIR_KEYS, [{(1, 1): Scalar(1), (1, 3): Scalar(1)}, {(1, 1): Scalar(1)}],
          {(1, 1): Scalar(1), (1, 3): Scalar(-1)}, _VALUES[:1] * 8, "consistent"))
def test_solve_over_tuple_keys_is_the_int_renumbered_solve(system):
    keys, rows, x, drawn, kind = system
    if kind == "consistent":
        rhs = [dot(row, x) for row in rows]
    else:
        rhs = drawn[:len(rows)]
    if kind == "contradicted":
        rows, rhs = rows + [rows[0]], rhs + [rhs[0] + 1]
    index = {k: n for n, k in enumerate(sorted(keys))}
    new = linalg.solve(rows, rhs)
    old = linalg.solve([{index[k]: v for k, v in row.items()} for row in rows], rhs)
    assert (new is None) == (old is None)
    if kind != "drawn":
        assert (new is None) == (kind == "contradicted")
    if new is not None:
        assert list(new.items()) == [(sorted(keys)[n], v) for n, v in old.items()]
