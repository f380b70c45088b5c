"""Deterministic work counts on one curvature case, the Bianchi dimensions,
the rows of the invariant Ricci family, the spinor solve and one rebuilt
Lie algebra.

Call counts, unlike timers, are free of noise, so a change that brings
back redundant work fails here.  Each counted function is wrapped in
every `spin7` module namespace that holds it, so a function imported by
name into another module is counted too.
"""

import sys

import pytest

from spin7 import curvature, exterior, liealg, linalg, structure
from spin7.classify import ReconstructedAlgebra, reconstruct_lie_algebra
from spin7.curvature import (CurvatureTensor, bianchi_dim, build_rc, case_family,
                             cyclic_residue, invariant_ricci_family)
from spin7.liealg import CATALOG_NAMES, algebra
from spin7.scalars import SQRT3, rational
from spin7.structure import FAMILIES, ricci_solver

CASE = "5.3.1-I"
PARAMS = {"a1": 1, "a2": 2, "b1": 3}


def _count_calls(monkeypatch, owners, name):
    """Wrap `name` wherever one of `owners` or a spin7 module holds it."""
    original = getattr(owners[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    holders = list(owners) + [mod for key, mod in sys.modules.items()
                              if key.startswith("spin7.")]
    for holder in holders:
        if vars(holder).get(name) is original:
            monkeypatch.setattr(holder, name, counted)
    return calls


def test_cyclic_residue_contracts_only_inside_sigma_t(monkeypatch):
    rc = build_rc(CASE, PARAMS)
    t = case_family(CASE, PARAMS).torsion(PARAMS)
    calls = _count_calls(monkeypatch, [exterior], "contract")
    assert cyclic_residue(rc, t)
    # sigma_t contracts once per basis vector; the 4-form is read term by term
    assert len(calls) <= exterior.DIM


def test_cyclic_residue_reads_the_columns_not_the_entries(monkeypatch):
    rc = build_rc(CASE, PARAMS)
    t = case_family(CASE, PARAMS).torsion(PARAMS)
    calls = _count_calls(monkeypatch, [CurvatureTensor], "entry")
    assert cyclic_residue(rc, t) and not cyclic_residue(rc)
    assert calls == []


def test_ricci_and_cyclic_residue_never_apply_the_operator(monkeypatch):
    rc = build_rc(CASE, PARAMS)
    t = case_family(CASE, PARAMS).torsion(PARAMS)
    calls = _count_calls(monkeypatch, [CurvatureTensor], "apply")
    rc.ricci()
    assert cyclic_residue(rc, t)
    assert calls == []


def test_bianchi_dim_solves_each_name_once_per_process(monkeypatch):
    bianchi_dim.cache_clear()
    calls = _count_calls(monkeypatch, [curvature], "bianchi_space")
    for _ in range(2):
        for name in CATALOG_NAMES:
            bianchi_dim(name)
    assert len(calls) == len(CATALOG_NAMES)


@pytest.mark.parametrize("name, rows", [("su2", 54), ("su3", 912)])
def test_invariant_ricci_family_eliminates_one_triangle_of_commutators(
        monkeypatch, name, rows):
    # [r, rot] is symmetric, so only its entries (m, n) with m <= n are
    # rows; with both triangles su2 has 96 rows and su3 1,728
    kernel, seen = linalg.kernel, []

    def counted(columns, keys):
        seen.append(len(linalg.transpose(columns)))
        return kernel(columns, keys)

    monkeypatch.setattr(linalg, "kernel", counted)
    invariant_ricci_family(algebra(name))
    assert seen == [rows]


def test_ricci_solver_repeats_no_work_for_the_same_holonomy(monkeypatch):
    structure._spinor_frames.cache_clear()
    t = case_family(CASE, PARAMS).torsion(PARAMS)
    h = algebra("u2")
    first = ricci_solver(t, h)
    counts = [_count_calls(monkeypatch, [linalg.Echelon], "add_row"),
              _count_calls(monkeypatch, [linalg], "solve"),
              _count_calls(monkeypatch, [liealg], "invariant_spinors")]
    assert ricci_solver(t, h) == first
    assert counts == [[], [], []]


def test_ricci_solver_finds_the_invariant_spinors_once_per_algebra(monkeypatch):
    structure._spinor_frames.cache_clear()
    calls = _count_calls(monkeypatch, [liealg], "invariant_spinors")
    t = FAMILIES["5.4"].torsion({"b1": 1})
    for _ in range(2):
        for name in CATALOG_NAMES:
            ricci_solver(t, algebra(name))
    # t1 and t1tilde at their default slope (1, 0) are one line, spanned by
    # e_12 - e_34, so 17 names hold 16 algebras
    assert algebra("t1") == algebra("t1tilde")
    assert len(calls) == len({tuple(algebra(name)) for name in CATALOG_NAMES}) == 16


def test_killing_form_reads_the_stored_brackets(monkeypatch):
    t = FAMILIES["5.1"].torsion({"a1": rational(4, 7), "b1": rational(3, 7), "b2": SQRT3})
    rec = reconstruct_lie_algebra(t, None, [])
    calls = _count_calls(monkeypatch, [ReconstructedAlgebra], "bracket_vec")
    assert rec.killing_nondegenerate()
    assert calls == []
