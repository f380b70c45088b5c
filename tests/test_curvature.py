import random

import pytest

from spin7 import verification
from spin7.curvature import (CASES, CurvatureTensor, bianchi_dim,
                             bianchi_nontrivial, bianchi_space, build_rc,
                             case_weights, cyclic_residue, dyad,
                             vanishing_constraints)
from spin7.exterior import form
from spin7.liealg import CATALOG_NAMES, algebra
from spin7.scalars import Scalar, rational
from spin7.structure import FAMILIES, diagonal


def test_single_dyad_tensor_entries_and_trace():
    r = CurvatureTensor.from_dyads([dyad(1, form("e_12"))])
    assert r.is_symmetric()
    assert r.entry(1, 2, 1, 2) == Scalar(1)
    assert r.entry(2, 1, 1, 2) == Scalar(-1)
    assert r.entry(1, 2, 2, 1) == Scalar(-1)
    assert r.entry(1, 3, 1, 3).is_zero
    assert diagonal(r.ricci()) == [Scalar(v)
                                   for v in (-1, -1, 0, 0, 0, 0, 0, 0)]


def test_invariance_checks_every_member_of_h():
    # e_57 is fixed by the first torus generator e_12 - e_34 and moved by
    # the second, e_12 + e_34 - 2 e_56
    h = algebra("t2")
    r = CurvatureTensor.from_dyads([dyad(1, form("e_57"))])
    assert r.invariant_under(h[:1])
    assert not r.invariant_under(h)
    assert not r.invariant_under(h[::-1])


def test_mixed_dyads_detect_asymmetry():
    r = CurvatureTensor.from_dyads([dyad(1, form("e_12"), form("e_34"))])
    assert not r.is_symmetric()
    sym = CurvatureTensor.from_dyads([dyad(1, form("e_12"), form("e_34")),
                                      dyad(1, form("e_34"), form("e_12"))])
    assert sym.is_symmetric()


def test_bianchi_space_members_satisfy_the_plain_identity():
    members = bianchi_space(algebra("r+su2"))
    assert len(members) == 5
    assert cyclic_residue(members[0])
    assert bianchi_space(algebra("t2")) == []


# Bryant, Ann. of Math. 126 (1987): 168 for spin7 and 77 for g2; 27 is the
# Ricci-flat Kahler curvature of C^3 and 5 the anti-self-dual Weyl space
# of R^4.  Every other catalog algebra carries only the zero operator.
_BIANCHI_DIMS = {"spin7": 168, "g2": 77, "su3": 27, "su2+su2c": 5, "u2": 5,
                 "su2": 5, "r+su2": 5}


def test_bianchi_dimensions_are_the_literature_values():
    for name in CATALOG_NAMES:
        assert bianchi_dim(name) == _BIANCHI_DIMS.get(name, 0), name
        assert bianchi_nontrivial(name) == (bianchi_dim(name) > 0), name
        members = bianchi_space(algebra(name))
        assert len(members) == bianchi_dim(name)
        assert all(r.is_symmetric() and r.range_inside(algebra(name)) and cyclic_residue(r)
                   for r in members), name


def test_operators_fail_plain_bianchi_but_pass_with_torsion():
    rc = build_rc("5.2.2", {"a1": 1})
    t = FAMILIES["5.2-I"].torsion({"a1": 1})
    assert not cyclic_residue(rc)
    assert cyclic_residue(rc, t)


def test_case_operator_weights_appear_in_entries():
    blocks = CASES["5.1.1"].blocks

    def weighted(*weights):
        return CurvatureTensor.from_dyads([(w * c, left, right)
                                           for w, block in zip(weights, blocks)
                                           for c, left, right in block.dyads])

    # the first block is the dyad of e_12 - e_34 with itself
    half = weighted(rational(1, 2), Scalar(0))
    assert half.entry(1, 2, 1, 2) == rational(1, 2)
    assert half.entry(1, 2, 3, 4) == rational(-1, 2)
    assert weighted(Scalar(0), Scalar(0)).is_zero
    params = {"a1": 1, "b1": 2, "b2": 3}
    weights = case_weights("5.1.1", FAMILIES["5.1"].ricci_diag(params))
    assert build_rc("5.1.1", params).columns == weighted(*weights).columns


def test_constraint_flags_depend_on_the_holonomy():
    still_r1, still_r2 = vanishing_constraints("5.1.1", algebra("r+su2c"))
    assert (still_r1, still_r2) == (False, False)
    dropped_r1, dropped_r2 = vanishing_constraints("5.1.1", algebra("su2c"))
    assert (dropped_r1, dropped_r2) == (True, False)


def test_build_rc_validates_input():
    with pytest.raises(KeyError):
        build_rc("9.9", {"a1": 1})
    with pytest.raises(ValueError):
        build_rc("5.1.2", {"a1": 1, "b1": 1, "b2": 0})


def test_every_case_has_a_holonomy_label():
    for case, record in CASES.items():
        name = record.holonomy
        assert algebra(name)
        rc = build_rc(case, _witness(case))
        assert rc.range_inside(algebra(name))


def _witness(case):
    if case in ("5.1.1", "5.1.2"):
        return {"a1": 1, "b1": 0, "b2": 0}
    if case in ("5.2.1", "5.2.2"):
        return {"a1": 1}
    return {"a1": 1, "a2": 1, "b1": 1}


def test_curvature_suite_fails_an_off_diagonal_spinor_solve(monkeypatch):
    # the golden diagonal plus one off-diagonal entry
    solve = verification.ricci_solver
    monkeypatch.setattr(verification, "ricci_solver",
                        lambda t, h: {**solve(t, h), (1, 2): Scalar(1)})
    rep = verification.suite_curvature(random.Random(0))
    failed = [c.label for c in rep.checks if not c.ok]
    cases = verification.load_golden("curvature_cases.json")["cases"]
    assert len(failed) == sum(len(meta["samples"]) for meta in cases.values())
    assert all(label.endswith("agrees with the spinor solve") for label in failed)
