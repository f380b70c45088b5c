import random

import pytest

from spin7 import structure
from spin7.classify import _ROWS, _family_with
from spin7.exterior import (CAYLEY, E, MultiVector, contract, form, inner,
                            monomials, norm_sq, sigma_t)
from spin7.liealg import algebra
from spin7.scalars import Scalar, rational
from spin7.structure import (FAMILIES, contraction_identity, diagonal,
                             is_diagonal, lee_form, lee_norm_identity,
                             project_8_48, ricci_solver, scal_pair,
                             sigma_report)


def w_class(t: MultiVector) -> str:
    """Structure class of a torsion form, read off the splitting: W0, W1
    (48-type), W2 (vector type) or the mixed W."""
    small, big = project_8_48(t)
    if small.is_zero and big.is_zero:
        return "W0"
    if big.is_zero:
        return "W2"
    if small.is_zero:
        return "W1"
    return "W"


def _random_3form(rng, terms=8):
    out = MultiVector()
    for idx in rng.sample(monomials(3), terms):
        out = out + MultiVector.monomial(idx) * rng.randint(-3, 3)
    return out


def test_type_projection_splits_orthogonally():
    rng = random.Random(11)
    for _ in range(5):
        t = _random_3form(rng)
        small, large = project_8_48(t)
        assert small + large == t
        assert inner(small, large).is_zero
        again_small, again_large = project_8_48(small)
        assert again_small == small and again_large.is_zero


def test_vector_type_forms_project_onto_themselves():
    t = contract(E[3], CAYLEY)
    small, large = project_8_48(t)
    assert small == t and large.is_zero
    assert w_class(t) == "W2"


def test_w_classes():
    assert w_class(MultiVector()) == "W0"
    assert w_class(FAMILIES["5.4"].torsion({"b1": 1})) == "W1"
    assert w_class(FAMILIES["5.1"].torsion({"a1": 1, "b1": 2, "b2": 3})) == "W"


def test_dual_1form_norm_identity_sample():
    t = FAMILIES["5.1"].torsion({"a1": 1, "b1": -2, "b2": 1})
    assert lee_norm_identity(t)
    small, _ = project_8_48(t)
    theta = lee_form(t)
    assert norm_sq(theta) == rational(36, 7) * norm_sq(small)


def test_scalar_pair_consistency_sample():
    t = FAMILIES["5.3-I"].torsion({"a1": 1, "a2": 2, "b1": 3})
    scal_g, scal_c = scal_pair(t)
    assert scal_c == scal_g - rational(3, 2) * norm_sq(t)
    assert contraction_identity(t)


def test_contracted_square_identity_equals_square_condition():
    rng = random.Random(12)
    t = _random_3form(rng, terms=9)
    rep = sigma_report(t)
    assert rep["basis_identity"] == rep["basis_square"]
    assert rep["base_identity"] == rep["base_square"]


def test_family_torsion_satisfies_base_identity():
    t = FAMILIES["5.2-I"].torsion({"a1": 1})
    rep = sigma_report(t)
    assert rep["base_identity"]
    assert sum(rep["basis_identity"]) == 4
    assert rep["base_square"]
    assert not rep["basis_square"][2]


def test_ricci_solver_reproduces_closed_forms():
    fam = FAMILIES["5.4"]
    t = fam.torsion({"b1": 1})
    ric = ricci_solver(t, algebra(fam.iso_name))
    assert ric is not None and is_diagonal(ric)
    assert diagonal(ric) == [Scalar(v) for v in (0, 0, 0, 0, -4, -4, 0, 0)]
    assert diagonal(ric) == fam.ricci_diag({"b1": 1})


def test_ricci_solver_rejects_oversized_holonomy():
    t = FAMILIES["5.1"].torsion({"a1": 1, "b1": 0, "b2": 0})
    assert ricci_solver(t, algebra("su3")) is None


def test_ricci_solver_leaves_the_cached_square_map_as_it_was(clear_caches):
    t = FAMILIES["5.3-I"].torsion({"a1": 1, "a2": 2, "b1": 3})
    square = structure._torsion_square(t)
    snapshot = {k: dict(col) for k, col in square.items()}
    assert square == structure._square_map(t, sigma_t(t))
    for name in ("u2", "su2", "t2", "zero", "g2", "spin7"):
        ricci_solver(t, algebra(name))
    assert structure._torsion_square(t) is square
    assert square == snapshot


def test_sigma_report_and_square_condition_cache_no_torsion(clear_caches):
    # sigma_report meets streams of distinct torsions: the square map is
    # built afresh, and the splitting keeps the last torsion only
    ricci_solver(FAMILIES["5.4"].torsion({"b1": 1}), algebra("su2"))
    before = structure._torsion_square.cache_info().currsize
    rng = random.Random(13)
    for _ in range(3):
        t = _random_3form(rng)
        sigma_report(t)
    assert structure._torsion_square.cache_info().currsize == before == 1
    split = project_8_48.cache_info()
    assert split.maxsize == 1 and split.currsize <= 1


def test_the_torsion_cache_is_bounded_and_holds_every_witness():
    witnesses = {_family_with(row, w)[1] for row in _ROWS.values()
                 for w in row["witnesses"].values()}
    maxsize = structure._torsion_square.cache_info().maxsize
    assert maxsize is not None and len(witnesses) <= maxsize


def test_family_parameter_validation():
    fam = FAMILIES["5.1"]
    with pytest.raises(KeyError):
        fam.torsion({"a1": 1})
    with pytest.raises(KeyError):
        fam.torsion({"a1": 1, "b1": 0, "b2": 0, "c9": 2})
    assert fam.torsion({"a1": 0, "b1": 0, "b2": 0}).is_zero


def test_family_generators_match_parameter_lists():
    for fam in FAMILIES.values():
        assert len(fam.params) == len(fam.generators)
        assert len(fam.ricci_diag({k: 1 for k in fam.params})) == 8
