"""Deterministic work counts on one curvature case, the Bianchi dimensions,
the rows of the invariant Ricci family, the spinor solve, the Clifford
action, the torsion square map, one sigma report, the 8 + 48 splitting
shared by the readers of one torsion, the work that admissibility
decisions share, a cold admissibility table and one rebuilt
Lie algebra.

Call counts, unlike timers, are free of noise, so a change that brings
back redundant work fails here.  Each counted function is wrapped in
every `spin7` module namespace that holds it, so a function imported by
name into another module is counted too.
"""

import ast
import importlib
import random
import sys
from pathlib import Path

import pytest

import spin7
from spin7 import clifford, curvature, exterior, liealg, linalg, structure
from spin7.classify import (ReconstructedAlgebra, admissibility_table,
                            reconstruct_lie_algebra, run_recipe)
from spin7.curvature import (CurvatureTensor, bianchi_dim, build_rc, case_family,
                             cyclic_residue, invariant_ricci_family)
from spin7.liealg import CATALOG_NAMES, algebra
from spin7.scalars import SQRT3, rational
from spin7.structure import (FAMILIES, lee_norm_identity, project_8_48,
                             ricci_solver, scal_pair, sigma_report)

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


def test_bianchi_dim_solves_each_name_once_per_process(monkeypatch, clear_caches):
    calls = _count_calls(monkeypatch, [curvature], "_dependent_cyclic_sums")
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


def test_ricci_solver_repeats_no_work_for_the_same_holonomy(monkeypatch, clear_caches):
    t = case_family(CASE, PARAMS).torsion(PARAMS)
    h = algebra("u2")
    first = ricci_solver(t, h)
    counts = [_count_calls(monkeypatch, [linalg.Echelon], "add_row"),
              _count_calls(monkeypatch, [linalg], "solve"),
              _count_calls(monkeypatch, [liealg], "invariant_spinors")]
    assert ricci_solver(t, h) == first
    assert counts == [[], [], []]


def test_ricci_solver_finds_the_invariant_spinors_once_per_algebra(monkeypatch, clear_caches):
    calls = _count_calls(monkeypatch, [liealg], "invariant_spinors")
    t = FAMILIES["5.4"].torsion({"b1": 1})
    for _ in range(2):
        for name in CATALOG_NAMES:
            ricci_solver(t, algebra(name))
    # t1 and t1tilde at their default slope (1, 0) are one line, spanned by
    # e_12 - e_34, so 17 names hold 16 algebras
    assert algebra("t1") == algebra("t1tilde")
    assert len(calls) == len({tuple(algebra(name)) for name in CATALOG_NAMES}) == 16


def test_decisions_sharing_a_witness_square_it_once(monkeypatch, clear_caches):
    # the row's generic witness decides g2/g2 (admissible) and g2/su3
    # (an inconsistent Ricci system)
    calls = _count_calls(monkeypatch, [structure], "_square_map")
    admitted, excluded = run_recipe("g2", "g2"), run_recipe("g2", "su3")
    assert admitted.admissible and not excluded.admissible
    assert admitted.torsion_constraints == excluded.torsion_constraints
    assert len(calls) == 1


def test_the_square_map_acts_once_per_basis_spinor(monkeypatch):
    t = case_family(CASE, PARAMS).torsion(PARAMS)
    sig = exterior.sigma_t(t)
    calls = _count_calls(monkeypatch, [clifford], "act")
    assert structure._square_map(t, sig)
    # one action of sigma_t per column; applying t twice made 32
    assert len(calls) == clifford.N_SPIN


def test_act_moves_each_monomial_by_one_cached_permutation(monkeypatch, clear_caches):
    a = case_family(CASE, PARAMS).torsion(PARAMS) + exterior.CAYLEY
    psi = {k: SQRT3 + k for k in range(clifford.N_SPIN)}
    calls = _count_calls(monkeypatch, [clifford], "gamma_apply")
    for _ in range(2):
        assert clifford.act(a, psi)
    # no generator is applied one at a time, and each permutation is
    # composed on first use only
    assert calls == []
    assert clifford._monomial_action.cache_info().misses == len(a.terms)


def test_a_sigma_report_computes_sigma_t_once(monkeypatch):
    t = case_family(CASE, PARAMS).torsion(PARAMS)
    calls = _count_calls(monkeypatch, [exterior], "sigma_t")
    assert structure.sigma_report(t)
    # the eight contractions and the square map share one sigma_t
    assert len(calls) == 1


def _read_the_splitting(t):
    """Run the three readers of a torsion's 8 + 48 parts one after another."""
    assert sigma_report(t)
    scal_pair(t)
    assert lee_norm_identity(t)


def test_the_readers_of_one_torsion_split_it_once(clear_caches):
    _read_the_splitting(case_family(CASE, PARAMS).torsion(PARAMS))
    info = project_8_48.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_no_split_is_reused_across_torsions(clear_caches):
    rng = random.Random(31)
    torsions = []
    while len(torsions) < 20:
        t = exterior.MultiVector()
        for idx in rng.sample(exterior.monomials(3), 6):
            t = t + exterior.MultiVector.monomial(idx) * rng.randint(-3, 3)
        if t.grades() == {3} and t not in torsions:
            torsions.append(t)
    for t in torsions:
        _read_the_splitting(t)
    info = project_8_48.cache_info()
    assert (info.misses, info.hits) == (20, 40)


def test_the_readers_leave_the_cached_split_as_it_was(clear_caches):
    t = case_family(CASE, PARAMS).torsion(PARAMS)
    parts = project_8_48(t)
    snapshot = [dict(part.terms) for part in parts]
    _read_the_splitting(t)
    assert project_8_48(t) is parts
    assert [part.terms for part in parts] == snapshot

def test_a_cold_admissibility_table_stays_within_its_work(monkeypatch, clear_caches):
    # applying t twice made 1,536 actions, and building every Bianchi
    # basis 230 cyclic sums and 37 kernels; the solves, operator builds and
    # invariant families are one per decision that needs them
    bounds = {"act": 1280, "cyclic_sum": 62, "kernel": 21, "_square_map": 16,
              "ricci_solver": 57, "build_rc": 28, "invariant_ricci_family": 2}
    owners = {"act": clifford, "cyclic_sum": curvature, "kernel": linalg,
              "_square_map": structure, "ricci_solver": structure,
              "build_rc": curvature, "invariant_ricci_family": curvature}
    calls = {name: _count_calls(monkeypatch, [owners[name]], name) for name in bounds}
    assert admissibility_table()
    counts = {name: len(seen) for name, seen in calls.items()}
    assert all(counts[name] <= bound for name, bound in bounds.items()), counts


def test_invariance_checks_rotate_each_member_once(monkeypatch, clear_caches):
    rc = build_rc(CASE, PARAMS)
    h = algebra(curvature.CASES[CASE].holonomy)
    calls = _count_calls(monkeypatch, [liealg], "rotation")
    assert rc.invariant_under(h)
    assert invariant_ricci_family(h)
    assert len(calls) == len(h)
    # the rotations are kept per member, so an algebra of members already
    # met rotates nothing
    assert algebra("t1")[0] in h
    assert invariant_ricci_family(algebra("t1"))
    assert len(calls) == len(h)


def test_a_decision_builds_one_echelon_of_the_invariance_algebra(monkeypatch, clear_caches):
    g = [w.terms for w in algebra("g2")]
    echelon, rows_seen = linalg.echelon, []

    def counted(rows):
        rows_seen.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "echelon", counted)
    run_recipe("g2", "su3")
    assert rows_seen.count(g) == 1


def test_ricci_reads_the_columns_not_the_entries(monkeypatch):
    rc = build_rc(CASE, PARAMS)
    calls = _count_calls(monkeypatch, [CurvatureTensor], "entry")
    assert rc.ricci()
    assert calls == []


def _cached_functions():
    """Every `lru_cache`-decorated function of the package, by module and
    attribute path, read from the source."""
    found = []
    for path in sorted(Path(spin7.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = [((), tree)] + [((node.name,), node) for node in tree.body
                                 if isinstance(node, ast.ClassDef)]
        for prefix, owner in owners:
            for node in owner.body:
                if isinstance(node, ast.FunctionDef) and any(
                        "lru_cache" in ast.unparse(d) for d in node.decorator_list):
                    found.append((f"spin7.{path.stem}", prefix + (node.name,)))
    return found


def _cache_sizes():
    sizes = {}
    for modname, attrs in _cached_functions():
        fn = importlib.import_module(modname)
        for attr in attrs:
            fn = getattr(fn, attr)
        sizes[(modname, attrs)] = fn.cache_info().currsize
    return sizes


def test_clear_caches_empties_every_cache_in_the_package(clear_caches):
    # u2/t2 is decided through the operator of 5.3.1-I, so the decision
    # fills the torsion, holonomy and rotation caches
    run_recipe("u2", "t2")
    shared = [("spin7.structure", ("_torsion_square",)),
              ("spin7.structure", ("_spinor_frames",)), ("spin7.curvature", ("_rotation",))]
    assert all(_cache_sizes()[key] for key in shared)
    clear_caches()
    assert set(_cache_sizes().values()) == {0}


def test_killing_form_reads_the_stored_brackets(monkeypatch):
    t = FAMILIES["5.1"].torsion({"a1": rational(4, 7), "b1": rational(3, 7), "b2": SQRT3})
    rec = reconstruct_lie_algebra(t, None, [])
    calls = _count_calls(monkeypatch, [ReconstructedAlgebra], "bracket_vec")
    assert rec.killing_nondegenerate()
    assert calls == []
