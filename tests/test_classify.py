import dataclasses
import json
from pathlib import Path

import pytest

from spin7 import classify, verification
from spin7.classify import (ClassificationRow, admissibility_table, admissible_pairs,
                            family_span_dims, flat_operator_locus,
                            phi_from_hermitian, reconstruct_lie_algebra,
                            run_recipe, splitting_check,
                            two_weight_vanishing_locus)
from spin7.curvature import bianchi_nontrivial, build_rc
from spin7.exterior import CAYLEY, E
from spin7.liealg import algebra, bracket, express
from spin7.scalars import Scalar
from spin7.structure import FAMILIES


def test_recipe_rows_for_known_pairs():
    row = run_recipe("g2", "g2")
    assert row.admissible and row.k_nontrivial
    assert row.torsion_family == "5.1"
    assert "diag(12" in row.ricci_params

    flat = run_recipe("g2", "so3ir")
    assert flat.admissible and not flat.k_nontrivial

    gone = run_recipe("g2", "su3")
    assert not gone.admissible and gone.reason


@pytest.mark.parametrize("hol", ["spin7", "t2tilde"])
def test_recipe_refuses_a_candidate_partly_outside_the_invariance_algebra(hol, clear_caches):
    # 14 of the 21 members of spin7 and 1 of the 2 of t2tilde lie in g2
    with pytest.raises(ValueError, match=f"{hol} is not a subalgebra of g2"):
        run_recipe("g2", hol)
    # the refusal comes before the Bianchi elimination of the candidate
    assert bianchi_nontrivial.cache_info().currsize == 0


# every field of the 61 decisions, recorded once, by invariance label and
# candidate label
ROWS_FILE = Path(__file__).parent / "data" / "classification" / "rows.json"
RECORDED_ROWS = {(iso, hol): ClassificationRow(**fields)
                 for iso, rows in json.loads(ROWS_FILE.read_text(encoding="utf-8")).items()
                 for hol, fields in rows.items()}


def _recipe_args(label):
    name, _, slope = label.partition("[")
    return [name, *(Scalar.parse(v) for v in slope.rstrip("]").split(",") if slope)]


def test_table_rows_are_the_recipe_decisions():
    assert len(RECORDED_ROWS) == 61
    assert {r.key(): r for r in admissibility_table()} == RECORDED_ROWS
    for (iso, hol), row in RECORDED_ROWS.items():
        assert run_recipe(iso, *_recipe_args(hol)) == row


def test_every_row_key_has_exactly_one_outcome():
    groups = ("admissible", *classify._EXCLUSIONS)
    for iso, row in classify._ROWS.items():
        assert set(row) <= {"family", "fixed", "witnesses", *groups}, iso
        keys = [key for group in groups for key in row.get(group, ())]
        assert len(keys) == len(set(keys)), iso


@pytest.mark.parametrize("key, source, target, failure", [
    # t2tilde's Ricci system solves, zero's has no solution
    ("t2tilde", "outside", "inconsistent", "became consistent"),
    ("zero", "inconsistent", "outside", "no longer outside"),
], ids=["t2tilde", "zero"])
def test_a_key_in_the_wrong_exclusion_group_fails_its_check(monkeypatch, key, source,
                                                           target, failure):
    row = dict(classify._ROWS["r+su2"])
    row[source] = tuple(k for k in row[source] if k != key)
    row[target] = (*row[target], key)
    monkeypatch.setitem(classify._ROWS, "r+su2", row)
    with pytest.raises(AssertionError, match=failure):
        run_recipe("r+su2", key)


def test_table_is_cached_and_complete():
    table = admissibility_table()
    assert table is not admissibility_table()
    assert [r.key() for r in table] == [r.key()
                                       for r in admissibility_table()]
    seen = {(r.iso, r.hol) for r in table}
    assert len(seen) == len(table)


def test_grouped_pairs_structure():
    grouped = admissible_pairs()
    assert set(grouped["g2"]["k_nonzero"]) == {"g2", "su2+su2c"}
    assert set(grouped["g2"]["k_zero"]) == {"r+su2c", "so3ir"}
    assert grouped["r+su2"]["k_zero"] == []


def test_two_weight_locus_eliminates_every_branch():
    for fam_id in ("5.3-I", "5.3-II"):
        branches = two_weight_vanishing_locus(fam_id)
        assert branches
        for branch in branches:
            assert branch["excluded"]
            assert branch["family"] == fam_id


def test_flat_locus_has_the_two_sign_branch():
    branches = flat_operator_locus()
    assert len(branches) == 3
    assert sorted(str(b["b2"]) for b in branches) == [
        "-7*sqrt(3)*b1/3", "0", "7*sqrt(3)*b1/3"]
    assert {str(b["a1"]) for b in branches} == {"-b1", "4*b1/3"}


@pytest.mark.parametrize("fam_id, locus, args", [
    ("5.1", flat_operator_locus, ()),
    ("5.3-I", two_weight_vanishing_locus, ("5.3-I",)),
    ("5.3-II", two_weight_vanishing_locus, ("5.3-II",)),
])
def test_eliminations_catch_a_perturbed_closed_form(monkeypatch, fam_id, locus, args):
    fam = FAMILIES[fam_id]

    def perturbed(v):
        # one more a1^2 in lambda, the first block of the diagonal
        diag = fam.closed_form(v)
        return [d + v["a1"] * v["a1"] for d in diag[:4]] + diag[4:]

    monkeypatch.setitem(FAMILIES, fam_id,
                        dataclasses.replace(fam, closed_form=perturbed))
    with pytest.raises(AssertionError, match="elimination identity failed"):
        locus.__wrapped__(*args)


def test_reconstruction_requires_enough_directions():
    t = FAMILIES["5.2-I"].torsion({"a1": 1})
    rc = build_rc("5.2.2", {"a1": 1})
    rec = reconstruct_lie_algebra(t, rc, algebra("t2"), dims=range(1, 8))
    assert rec.dim == 9 and rec.jacobi_ok
    with pytest.raises(ValueError):
        reconstruct_lie_algebra(t, rc, algebra("t2"), dims=range(1, 7))


def test_lie_isomorphism_check_fails_a_bracket_leaving_the_span(monkeypatch):
    # express answers None for the commuting pair (v[6], v[7]) of the
    # reference basis, as for a bracket outside span(v)
    pairs = []

    def spy_bracket(a, b):
        pairs.append((a, b))
        return bracket(a, b)

    def lost_express(target, basis):
        if pairs and pairs[-1] == (basis[6], basis[7]):
            return None
        return express(target, basis)

    monkeypatch.setattr(verification, "bracket", spy_bracket)
    monkeypatch.setattr(verification, "express", lost_express)
    rep = verification.suite_reconstruction(None)
    failed = [c.label for c in rep.checks if not c.ok]
    assert failed == [f"centralizer {sign} negated frame map is a Lie isomorphism "
                      "onto the reference basis" for sign in ("plus", "minus")]


def test_splitting_rejects_non_orthonormal_frames():
    t = FAMILIES["5.1"].torsion({"a1": 1, "b1": 0, "b2": 0})
    with pytest.raises(ValueError):
        splitting_check(t, [E[1], E[1]], [E[2], E[3]])
    with pytest.raises(ValueError):
        splitting_check(t, [2 * E[1]], [E[2]])


def test_splitting_accepts_the_full_frame():
    t = FAMILIES["5.1"].torsion({"a1": 1, "b1": 2, "b2": 0})
    res = splitting_check(t, [E[i] for i in range(1, 9)], [])
    assert res.holds and res.plus_part == t and res.minus_part.is_zero


def test_hermitian_data_rebuilds_the_calibration():
    assert phi_from_hermitian() == CAYLEY


def test_family_span_dimensions():
    dims = family_span_dims()
    assert dims == {"r+su2c": 3, "su3": 2, "so3": 4, "u2": 5,
                    "r+su2": 1, "g2": 1, "so3ir": 1, "su2+su2c": 2}
