"""Named self-check suites over the whole algebraic pipeline.

Each suite re-runs one slice of the theory from scratch and reports a
list of labelled pass/fail checks.  The suites double as the engine of
the command line verifier and of the acceptance tests, so they avoid
asserting: a failed check is recorded with its label and a short
diagnostic instead of raising.

Golden data lives in JSON files next to the package.  The files hold
only printable exact values (scalar and form strings), and every
comparison against them is an exact equality after parsing.  Random
sampling is driven by a caller-provided generator so that two runs with
the same seed produce identical reports.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

from . import linalg
from .clifford import (BASE_SPINOR, N_SPIN, act, basis_spinor, gamma_apply,
                       spinor_add, spinor_scale, spinor_sub)
from .curvature import (CASES, bianchi_dim, build_rc, cyclic_residue,
                        vanishing_constraints)
from .exterior import (CAYLEY, DIM, E, VOL, MultiVector, contract, evaluate,
                       form, hodge, inner, monomials, wedge)
from .classify import (RECONSTRUCTION_EXAMPLES, admissible_pairs,
                       flat_operator_locus, phi_from_hermitian,
                       family_span_dims, splitting_check,
                       two_weight_vanishing_locus)
from .liealg import (SPIN7_BASIS, act_on_form, algebra, algebra_by_label,
                     bracket, express, in_span, in_stabilizer,
                     invariant_forms, invariant_spinors, is_invariant_form,
                     is_subalgebra, membership_equations, span_dim)
from .scalars import SQRT3, SQRT5, ZERO, Scalar, rational
from .structure import (FAMILIES, contraction_identity, diagonal,
                        is_diagonal, lee_norm_identity, ricci_solver,
                        scal_pair, sigma_report)


# ---------------------------------------------------------------------------
# report plumbing

@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    name: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(ok), detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": len(self.checks),
            "failures": [{"label": c.label, "detail": c.detail}
                         for c in self.checks if not c.ok],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# golden data access

def golden_dir() -> Path:
    override = os.environ.get("SPIN7_GOLDEN_DIR")
    if override:
        return Path(override)
    return Path(str(resources.files("spin7") / "golden"))


def load_golden(name: str) -> dict:
    path = golden_dir() / name
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_params(raw: dict) -> dict[str, Scalar]:
    return {k: Scalar.parse(v) for k, v in raw.items()}


def _parse_diag(raw: list) -> list[Scalar]:
    return [Scalar.parse(v) for v in raw]


# ---------------------------------------------------------------------------
# random sampling helpers

_SPREAD = 5  # sampled coefficients lie in [-_SPREAD, _SPREAD]


def random_form(rng: random.Random, grade: int, terms: int) -> MultiVector:
    """Random exact form; terms bounds the support to keep the Clifford
    arithmetic affordable over many samples."""
    pool = monomials(grade)
    out = MultiVector()
    for idx in rng.sample(pool, min(terms, len(pool))):
        c = rng.randint(-_SPREAD, _SPREAD)
        if c:
            out = out + MultiVector.monomial(idx) * c
    if out.is_zero:
        out = MultiVector.monomial(pool[0])
    return out


def random_kernel_form(rng: random.Random) -> MultiVector:
    out = MultiVector()
    for w in SPIN7_BASIS:
        c = rng.randint(-_SPREAD, _SPREAD)
        if c:
            out = out + w * c
    return out


# ---------------------------------------------------------------------------
# suites

def suite_clifford(rng: random.Random) -> SuiteReport:
    """Anticommutation relations of the eight generators on all spinors."""
    rep = SuiteReport("01-clifford-relations")
    bad = []
    for i in range(1, DIM + 1):
        for j in range(1, DIM + 1):
            target = -2 if i == j else 0
            for k in range(N_SPIN):
                s = basis_spinor(k)
                lhs = spinor_add(gamma_apply(i, gamma_apply(j, s)),
                                 gamma_apply(j, gamma_apply(i, s)))
                want = {k: Scalar(target)} if target else {}
                if lhs != want:
                    bad.append((i, j, k))
    rep.add("generator pair relations on every basis spinor", not bad,
            f"{len(bad)} failing triples" if bad else "")
    return rep


def suite_calibration(rng: random.Random) -> SuiteReport:
    """Spinor eigenvalue, self-duality and the squared volume constant."""
    rep = SuiteReport("02-calibration-form")
    out = act(CAYLEY, BASE_SPINOR)
    want = spinor_scale(BASE_SPINOR, Scalar(-14))
    rep.add("calibration form acts on the base spinor with weight -14",
            out == want)
    rep.add("calibration form is self dual", hodge(CAYLEY) == CAYLEY)
    constant = Scalar.parse(
        load_golden("families.json")["constants"]["calibration_square"])
    square = wedge(CAYLEY, CAYLEY)
    rep.add("squared calibration form is the recorded volume multiple",
            (not constant.is_zero) and square == VOL * constant,
            f"recorded {constant}")
    return rep


def suite_stabilizer(rng: random.Random) -> SuiteReport:
    """Kernel dimension and agreement of the two membership tests."""
    rep = SuiteReport("03-stabilizer-kernel")
    rep.add("spanning set of the annihilator has dimension 21",
            span_dim(list(SPIN7_BASIS)) == 21)
    columns = {}
    for idx in monomials(2):
        eqs = membership_equations(MultiVector.monomial(idx))
        columns[idx] = {eq: val for eq, val in enumerate(eqs) if not val.is_zero}
    null_dim = len(linalg.kernel(columns, monomials(2)))
    rep.add("linear membership system has a 21-dimensional solution space",
            null_dim == 21)
    rep.add("every annihilator generator passes both membership tests",
            all(in_stabilizer(w)
                and all(v.is_zero for v in membership_equations(w))
                for w in SPIN7_BASIS))
    disagreements = 0
    hits = 0
    for n in range(1000):
        w = random_kernel_form(rng) if n % 2 else random_form(rng, 2, terms=12)
        linear = all(v.is_zero for v in membership_equations(w))
        spinor = in_stabilizer(w)
        if linear != spinor:
            disagreements += 1
        if linear:
            hits += 1
    rep.add("the two membership tests agree on 1000 sampled 2-forms",
            disagreements == 0, f"{disagreements} disagreements")
    rep.note(f"sampled members inside the kernel: {hits} of 1000")
    return rep


_TEN = (("g2", 14), ("su3", 8), ("su2+su2c", 6), ("u2", 4), ("r+su2c", 4),
        ("so3", 3), ("su2", 3), ("su2c", 3), ("so3ir", 3), ("r+su2", 4))

_CONTAINMENTS = (("su3", "g2"), ("su2+su2c", "g2"), ("u2", "su3"),
                 ("r+su2c", "su2+su2c"), ("so3", "su3"), ("su2", "u2"),
                 ("su2c", "r+su2c"), ("so3ir", "g2"), ("r+su2", "su4"))


def suite_catalog(rng: random.Random) -> SuiteReport:
    """The ten named subalgebras: dimensions, closure, containments."""
    rep = SuiteReport("04-subalgebra-catalog")
    for name, dim in _TEN:
        basis = algebra(name)
        rep.add(f"{name} has dimension {dim}",
                len(basis) == dim and span_dim(basis) == dim)
        rep.add(f"{name} is closed under the bracket", is_subalgebra(basis))
        rep.add(f"{name} lies inside the annihilator algebra",
                all(in_stabilizer(w) for w in basis))
    su4 = algebra("su4")
    rep.add("the ambient su(4) has dimension 15 inside the annihilator",
            len(su4) == 15 and is_subalgebra(su4)
            and all(in_stabilizer(w) for w in su4))
    for sub, sup in _CONTAINMENTS:
        target = algebra(sup)
        rep.add(f"{sub} is contained in {sup}",
                all(in_span(w, target) for w in algebra(sub)))
    return rep


_FAMILY_DIMS = {"g2": 1, "so3ir": 1, "su2+su2c": 2, "r+su2c": 3,
                "su3": 2, "so3": 4, "u2": 5, "r+su2": 1}

_RAW_FORM_DIMS = {"g2": 1, "so3ir": 1, "su2+su2c": 2, "r+su2c": 3,
                  "su3": 4, "so3": 6, "u2": 6, "r+su2": 2}

_SPINOR_DIMS = {"spin7": 1, "g2": 2, "su3": 4, "so3ir": 2, "su2": 8,
                "r+su2": 2, "zero": 16}


def suite_invariants(rng: random.Random) -> SuiteReport:
    """Dimensions of invariant 3-forms and spinors, and the fixed objects
    attached to the reducible holonomy cases."""
    rep = SuiteReport("05-invariant-objects")
    spans = family_span_dims()
    rep.add("essential torsion dimensions per invariance case",
            spans == _FAMILY_DIMS, f"computed {spans}")
    raw = {name: len(invariant_forms(algebra(name), 3))
           for name in _RAW_FORM_DIMS}
    rep.add("raw invariant 3-form kernels match their recorded dimensions",
            raw == _RAW_FORM_DIMS, f"computed {raw}")
    rep.add("every essential dimension is bounded by its raw kernel",
            all(spans[k] <= raw[k] for k in spans))
    spinor_dims = {name: len(invariant_spinors(algebra(name)))
                   for name in _SPINOR_DIMS}
    rep.add("invariant spinor space dimensions",
            spinor_dims == _SPINOR_DIMS, f"computed {spinor_dims}")

    su3_inv = invariant_spinors(algebra("su3"))
    rep.add("the four fixed spinors of the 8-dim case lie in its kernel",
            all(linalg.in_span(su3_inv, basis_spinor(k))
                for k in (0, 1, 8, 9)))
    rsu2_inv = invariant_spinors(algebra("r+su2"))
    rep.add("the two fixed spinors of the product case lie in its kernel",
            all(linalg.in_span(rsu2_inv, basis_spinor(k)) for k in (8, 9)))

    so3ir = algebra("so3ir")
    diff_a = spinor_sub(basis_spinor(0), basis_spinor(1))
    diff_b = spinor_sub(basis_spinor(8), basis_spinor(9))
    rep.add("the irreducible so(3) fixes the two spinor differences",
            all(act(w, s) == {}
                for w in so3ir for s in (diff_a, diff_b)))
    rep.add("the irreducible so(3) fixes the eighth direction",
            all(act_on_form(w, E[8]).is_zero for w in so3ir))
    seven = FAMILIES["5.1"].generators[0]
    rep.add("the top algebra fixes the 7-dim cross product form",
            is_invariant_form(algebra("g2"), seven))

    rsu2 = algebra("r+su2")
    z1, z2 = form("e_12 + e_34"), form("e_56")
    rep.add("the product case fixes its two Kaehler pieces",
            all(is_invariant_form(rsu2, z) for z in (z1, z2)))

    u2 = algebra("u2")
    d_sum = form("e_246 - e_145 - e_235 - e_136")
    rep.add("the 4-dim unitary case fixes both Kaehler pieces and the cubic",
            all(is_invariant_form(u2, z) for z in (z1, z2, d_sum)))
    rep.add("the 4-dim unitary case fixes the last two directions",
            all(act_on_form(w, E[i]).is_zero for w in u2 for i in (7, 8)))
    u2_spinors = invariant_spinors(u2)
    rep.add("the 4-dim unitary case fixes the four recorded spinors",
            all(linalg.in_span(u2_spinors, basis_spinor(k))
                for k in (0, 1, 8, 9)))
    return rep


def suite_ricci(rng: random.Random) -> SuiteReport:
    """Closed-form Ricci diagonals against the independent spinor solve."""
    rep = SuiteReport("06-ricci-families")
    data = load_golden("families.json")["families"]
    for fam_id in sorted(data):
        fam = FAMILIES[fam_id]
        meta = data[fam_id]
        h = algebra(meta["holonomy"])
        for entry in meta["samples"]:
            params = _parse_params(entry["params"])
            want = _parse_diag(entry["ricci"])
            tag = ", ".join(f"{k}={v}" for k, v in entry["params"].items())
            t = fam.torsion(params)
            rep.add(f"family {fam_id} sample ({tag}) has nonzero torsion",
                    not t.is_zero)
            rep.add(f"family {fam_id} sample ({tag}) closed form matches golden",
                    fam.ricci_diag(params) == want)
            sol = ricci_solver(t, h)
            ok = (sol is not None and is_diagonal(sol)
                  and diagonal(sol) == want)
            rep.add(f"family {fam_id} sample ({tag}) solver agrees", ok,
                    "solver inconsistent" if sol is None else "")
    t_top = FAMILIES["5.1"].torsion({"a1": 1, "b1": 0, "b2": 0})
    for name in ("su3", "u2", "su2"):
        rep.add(f"the top-case system is inconsistent under {name}",
                ricci_solver(t_top, algebra(name)) is None)
    return rep


def suite_scalar_identities(rng: random.Random) -> SuiteReport:
    """Curvature scalars, the norm ratio and the contraction identity on
    randomly sampled torsion forms."""
    rep = SuiteReport("07-scalar-identities")
    defect_ok = ratio_ok = contraction_ok = True
    for _ in range(100):
        t = random_form(rng, 3, terms=14)
        try:
            scal_pair(t)
        except AssertionError:
            defect_ok = False
        if not lee_norm_identity(t):
            ratio_ok = False
        if not contraction_identity(t):
            contraction_ok = False
    rep.add("scalar curvature pair satisfies the defect relation "
            "on 100 samples", defect_ok)
    rep.add("squared covector norm is 36/7 of the vector-type norm "
            "on 100 samples", ratio_ok)
    rep.add("double contraction against the calibration form vanishes "
            "on 100 samples", contraction_ok)
    return rep


_SIGMA_WITNESSES = (
    ("5.1", {"a1": 1, "b1": 0, "b2": 0}),
    ("5.1", {"a1": 1, "b1": 2, "b2": 3}),
    ("5.2-I", {"a1": 1}),
    ("5.2-II", {"a1": 1, "a2": 1, "b1": 1}),
    ("5.3-I", {"a1": 1, "a2": 1, "b1": 1}),
    ("5.3-II", {"a1": 1, "a2": 1, "b1": 1}),
    ("5.4", {"b1": 1}),
)


def suite_sigma(rng: random.Random) -> SuiteReport:
    """Quadratic spinor identity for the contracted torsion square.

    On a generic 3-form the identity fails for every spinor; it holds
    exactly where the square condition holds, which is what the random
    half asserts.  The torsion forms of the classification satisfy both
    on the base spinor, which is the case the theory consumes.
    """
    rep = SuiteReport("08-sigma-identity")
    equiv_ok = True
    low, high = N_SPIN, 0
    for _ in range(100):
        t = random_form(rng, 3, terms=10)
        r = sigma_report(t)
        if (r["basis_identity"] != r["basis_square"]
                or r["base_identity"] != r["base_square"]):
            equiv_ok = False
        count = sum(r["basis_identity"])
        low, high = min(low, count), max(high, count)
    rep.add("identity and square condition single out the same spinors "
            "on 100 samples", equiv_ok)
    rep.note("basis spinors passing the identity per random sample: "
             f"min {low}, max {high} of {N_SPIN} (measured, not asserted)")
    family_ok = True
    counts = {}
    for fam_id, raw in _SIGMA_WITNESSES:
        t = FAMILIES[fam_id].torsion(raw)
        sig = sigma_report(t)
        family_ok = family_ok and sig["base_identity"]
        counts[f"{fam_id}"] = max(counts.get(fam_id, 0), sum(sig["basis_identity"]))
    rep.add("identity holds on the base spinor for every family witness",
            family_ok)
    rep.note("basis spinors passing per family witness: "
             + ", ".join(f"{k}:{v}" for k, v in sorted(counts.items())))
    return rep


# Bianchi-space dimensions from the literature, not from this code:
# Bryant, "Metrics with exceptional holonomy", Ann. of Math. 126 (1987),
# gives 77 for g2; 27 is the dimension of the Ricci-flat Kahler curvature
# tensors on C^3, and 5 that of the anti-self-dual Weyl tensors of R^4.
_BIANCHI_DIMS = {"g2": 77, "su3": 27, "su2+su2c": 5, "u2": 5, "su2": 5,
                 "r+su2": 5}
_BIANCHI_ZERO = ("r+su2c", "su2c", "so3", "so3diag", "so3ir",
                 "t2", "t2tilde", "t1", "t1tilde", "zero")


def suite_bianchi(rng: random.Random) -> SuiteReport:
    """Which candidate holonomies admit a nonzero first-identity space."""
    rep = SuiteReport("09-bianchi-partition")
    for name, dim in _BIANCHI_DIMS.items():
        got = bianchi_dim(name)
        rep.add(f"{name} carries an identity space of dimension {dim}",
                got == dim, f"computed {got}")
    for name in _BIANCHI_ZERO:
        got = bianchi_dim(name)
        rep.add(f"{name} carries only the zero operator", got == 0,
                f"computed {got}")
    return rep


def suite_curvature(rng: random.Random) -> SuiteReport:
    """Closed-form curvature operators: axioms, values, weight tables and
    the exact vanishing loci."""
    rep = SuiteReport("10-curvature-cases")
    data = load_golden("curvature_cases.json")
    for case in sorted(data["cases"]):
        meta = data["cases"][case]
        h = algebra(meta["holonomy"])
        if meta["holonomy"] != CASES[case].holonomy:
            rep.add(f"case {case} golden holonomy matches the catalog", False)
            continue
        for pos, entry in enumerate(meta["samples"]):
            params = _parse_params(entry["params"])
            want = _parse_diag(entry["ricci"])
            fam = FAMILIES[entry["family"]]
            tag = ", ".join(f"{k}={v}" for k, v in entry["params"].items())
            rc = build_rc(case, params)
            t = fam.torsion(params)
            rep.add(f"case {case} ({tag}) is symmetric", rc.is_symmetric())
            if pos == 0:
                rep.add(f"case {case} ({tag}) satisfies the torsion identity",
                        cyclic_residue(rc, t))
            rep.add(f"case {case} ({tag}) takes values in its holonomy",
                    rc.range_inside(h))
            rep.add(f"case {case} ({tag}) commutes with its holonomy",
                    rc.invariant_under(h))
            ric = rc.ricci()
            rep.add(f"case {case} ({tag}) traces to the golden diagonal",
                    is_diagonal(ric) and diagonal(ric) == want)
            sol = ricci_solver(t, h)
            rep.add(f"case {case} ({tag}) agrees with the spinor solve",
                    sol is not None and is_diagonal(sol) and diagonal(sol) == want)
    for case, table in data["constraints"].items():
        for label in sorted(table):
            _, h = algebra_by_label(label)
            want = tuple(table[label])
            # the golden key "5.3.1" stands for the blocks both 5.3 cases share
            got = vanishing_constraints("5.3.1-I" if case == "5.3.1" else case, h)
            rep.add(f"case {case} weight constraints under {label}",
                    got == want, f"computed {got}")
    for fam_id in ("5.3-I", "5.3-II"):
        branches = two_weight_vanishing_locus(fam_id)
        rep.add(f"every vanishing branch of the {fam_id} operator is excluded",
                bool(branches) and all(b["excluded"] for b in branches),
                f"{len(branches)} branches")
    flats = flat_operator_locus()
    rep.add("the flat operator locus has exactly three branches",
            len(flats) == 3)
    return rep


def suite_admissibility(rng: random.Random) -> SuiteReport:
    """Recomputed table of admissible holonomy algebras per invariance
    case against the transcribed golden rows."""
    rep = SuiteReport("11-admissibility-table")
    golden = load_golden("admissibility_table.json")["rows"]
    computed = admissible_pairs()
    rep.add("the table covers the recorded invariance cases",
            sorted(computed) == sorted(r["iso"] for r in golden))
    for row in golden:
        iso = row["iso"]
        got = computed.get(iso, {"k_nonzero": [], "k_zero": []})
        for col in ("k_nonzero", "k_zero"):
            rep.add(f"{iso} row, {col} column matches",
                    sorted(got[col]) == sorted(row[col]),
                    f"computed {sorted(got[col])}")
    return rep


def suite_reconstruction(rng: random.Random) -> SuiteReport:
    """Lie algebras rebuilt from flat and curved torsion data."""
    rep = SuiteReport("12-reconstruction")
    p = SPIN7_BASIS

    ex1 = RECONSTRUCTION_EXAMPLES["1"]
    t1, rec1 = ex1.run()
    rep.add("flat two-block sample torsion is 7 times a single monomial",
            t1 == form("7*e_567"))
    rep.add("flat two-block sample rebuilds an 8-dim algebra with exact "
            "Jacobi", rec1.dim == 8 and rec1.jacobi_ok)
    su2_block = {(4, 5): {6: Scalar(-7)}, (4, 6): {5: Scalar(7)},
                 (5, 6): {4: Scalar(-7)}}
    rep.add("its bracket is a three-letter block with constants of size 7",
            rec1.structure == su2_block)
    rep.add("its Killing form is degenerate (five flat directions)",
            rec1.killing_nondegenerate() == ex1.killing)

    z3 = form("e_12 - e_34")
    d_sum = form("e_246 - e_145 - e_235 - e_136")
    reference = wedge(form("e_12 + e_34 - 2*e_56"), E[7]) + d_sum
    ex2 = RECONSTRUCTION_EXAMPLES["2"]
    for sign, b2 in (("plus", SQRT3), ("minus", -1 * SQRT3)):
        ex = ex2._replace(params={**ex2.params, "b2": b2})
        t2, rec2 = ex.run()
        rep.add(f"centralizer {sign} sample equals its reference 3-form",
                t2 == reference + wedge(z3, E[8]) * b2)
        rep.add(f"centralizer {sign} sample sits on the flat locus",
                all(v.is_zero for v in FAMILIES[ex.family].ricci_diag(ex.params)))
        rep.add(f"centralizer {sign} sample rebuilds an 8-dim algebra with "
                "exact Jacobi", rec2.dim == 8 and rec2.jacobi_ok)
        rep.add(f"centralizer {sign} sample has a non-degenerate Killing "
                "form", rec2.killing_nondegenerate() == ex.killing)
        pairing_ok = True
        for i in range(8):
            for j in range(i + 1, 8):
                row = rec2.structure.get((i, j), {})
                for k in range(8):
                    want = evaluate(t2, [E[i + 1], E[j + 1], E[k + 1]])
                    if -row.get(k, ZERO) != want:
                        pairing_ok = False
        rep.add(f"centralizer {sign} bracket reproduces the 3-form through "
                "the metric", pairing_ok)
        scale = SQRT3 * rational(1, 3)
        last = (p[6] + 2 * p[7]) * scale
        if sign == "minus":
            last = -1 * last
        v = [p[3], p[2], p[0], p[1], -1 * p[4], -1 * p[5], p[6], last]
        rep.add(f"centralizer {sign} reference basis spans the 8-dim algebra",
                all(in_span(w, algebra("su3")) for w in v)
                and span_dim(v) == 8)
        rep.add(f"centralizer {sign} reference basis is orthonormal",
                all(inner(v[a], v[b]) == (Scalar(2) if a == b else ZERO)
                    for a in range(8) for b in range(8)))
        homo_ok = True
        for i in range(8):
            for j in range(i + 1, 8):
                want = {k: -c for k, c in
                        rec2.structure.get((i, j), {}).items()}
                if express(bracket(v[i], v[j]), v) != want:
                    homo_ok = False
        rep.add(f"centralizer {sign} negated frame map is a Lie "
                "isomorphism onto the reference basis", homo_ok)

    ex3 = RECONSTRUCTION_EXAMPLES["t2"]
    _, rec3 = ex3.run()
    rep.add("torus case rebuilds a 9-dim algebra with exact Jacobi",
            rec3.dim == 9 and rec3.jacobi_ok)
    rep.add("torus case has a non-degenerate Killing form",
            rec3.killing_nondegenerate() == ex3.killing)
    try:
        ex3._replace(dims=ex3.dims[:-1]).run()
        rep.add("dropping a needed direction is rejected", False)
    except ValueError:
        rep.add("dropping a needed direction is rejected", True)
    return rep


def suite_hermitian(rng: random.Random) -> SuiteReport:
    """Hermitian reassembly, the product splitting and the contraction
    facts tied to the reducible cases."""
    rep = SuiteReport("13-hermitian-splitting")
    rep.add("half the squared Kaehler form plus the real volume part "
            "rebuilds the calibration form", phi_from_hermitian() == CAYLEY)

    fam = FAMILIES["5.3-I"]
    a1, b1 = Scalar(1), Scalar(5)
    a2 = (SQRT5 - 1) * rational(3, 2)
    params = {"a1": a1, "a2": a2, "b1": b1}
    t = fam.torsion(params)
    v_plus = E[7] * (a2 + b1) + E[8] * a1
    v_minus = E[7] * (a2 - rational(2, 5) * b1) + E[8] * a1
    res = splitting_check(t, [E[1], E[2], E[3], E[4], v_plus],
                          [E[5], E[6], v_minus])
    rep.add("the 5-3 sample splits across its two invariant blocks",
            res.holds)
    rep.add("plus part is the Kaehler piece wedged with its axis",
            res.plus_part == wedge(form("e_12 + e_34"), v_plus))
    rep.add("minus part is five times the small piece wedged with its axis",
            res.minus_part == wedge(form("e_56"), v_minus) * 5)
    rep.add("both parts sum back to the torsion",
            res.plus_part + res.minus_part == t)

    whole = splitting_check(t, [E[i] for i in range(1, 9)], [])
    rep.add("the trivial full split always holds",
            whole.holds and whole.plus_part == t and whole.minus_part.is_zero)
    t_top = FAMILIES["5.1"].torsion({"a1": 1, "b1": 0, "b2": 0})
    mixed = splitting_check(t_top, [E[i] for i in range(1, 5)],
                            [E[i] for i in range(5, 9)])
    rep.add("the cubic part obstructs a 4+4 split of the top case",
            not mixed.holds)

    rep.add("the seventh contraction dies exactly on its recorded locus",
            contract(E[7], fam.torsion({"a1": 1, "a2": 0, "b1": 0})).is_zero
            and not contract(E[7], t).is_zero)
    rep.add("the eighth contraction dies exactly on its recorded locus",
            contract(E[8], fam.torsion({"a1": 0, "a2": 1, "b1": 1})).is_zero
            and not contract(E[8], t).is_zero)
    t_51 = FAMILIES["5.1"].torsion({"a1": 1, "b1": 2, "b2": 3})
    rep.add("the eighth contraction of the centralizer family is the "
            "anti-Kaehler piece times its parameter",
            contract(E[8], t_51) == form("e_12 - e_34") * 3)
    return rep


SUITES: dict[str, Callable[[random.Random], SuiteReport]] = {
    fn.__name__.removeprefix("suite_"): fn
    for fn in (suite_clifford, suite_calibration, suite_stabilizer,
               suite_catalog, suite_invariants, suite_ricci,
               suite_scalar_identities, suite_sigma, suite_bianchi,
               suite_curvature, suite_admissibility, suite_reconstruction,
               suite_hermitian)
}


def run_suite(key: str, seed: int = 0) -> SuiteReport:
    return SUITES[key](random.Random(seed))


def run_all(seed: int = 0) -> list[SuiteReport]:
    """Run every suite with an independent generator per suite, ordered
    by report name so that the output is reproducible byte for byte."""
    reports = [fn(random.Random(seed)) for fn in SUITES.values()]
    return sorted(reports, key=lambda r: r.name)


# ---------------------------------------------------------------------------
# golden regeneration

def _ricci_strings(fam_id: str, raw: dict) -> list[str]:
    """The printed Ricci diagonal of a family at string parameters."""
    return [str(v) for v in FAMILIES[fam_id].ricci_diag(_parse_params(raw))]


_FAMILY_SAMPLES: dict[str, list[dict]] = {
    "5.1": [{"a1": "1", "b1": "0", "b2": "0"},
            {"a1": "1", "b1": "2", "b2": "3"},
            {"a1": "4", "b1": "3", "b2": "0"},
            {"a1": "1", "b1": "-1", "b2": "0"}],
    "5.2-I": [{"a1": "1"}, {"a1": "3"}, {"a1": "-2"}],
    "5.2-II": [{"a1": "1", "a2": "1", "b1": "1"},
               {"a1": "1", "a2": "2", "b1": "0"},
               {"a1": "0", "a2": "1", "b1": "5"},
               {"a1": "2", "a2": "1", "b1": "1"}],
    "5.3-I": [{"a1": "1", "a2": "1", "b1": "1"},
              {"a1": "1", "a2": "-1", "b1": "2"},
              {"a1": "3*sqrt5", "a2": "-5", "b1": "10"}],
    "5.3-II": [{"a1": "1", "a2": "1", "b1": "1"},
               {"a1": "0", "a2": "0", "b1": "2"},
               {"a1": "2", "a2": "0", "b1": "0"}],
    "5.4": [{"b1": "1"}, {"b1": "2"}, {"b1": "-3"}],
}

_CASE_SAMPLES: dict[str, list[tuple[str, dict]]] = {
    "5.1.1": [("5.1", {"a1": "1", "b1": "2", "b2": "3"}),
              ("5.1", {"a1": "4", "b1": "3", "b2": "0"}),
              ("5.1", {"a1": "1", "b1": "0", "b2": "0"})],
    "5.1.2": [("5.1", {"a1": "1", "b1": "0", "b2": "0"}),
              ("5.1", {"a1": "3", "b1": "0", "b2": "0"})],
    "5.2.1": [("5.2-I", {"a1": "1"}),
              ("5.2-II", {"a1": "1", "a2": "1", "b1": "1"})],
    "5.2.2": [("5.2-I", {"a1": "1"}), ("5.2-I", {"a1": "2"})],
    "5.3.1-I": [("5.3-I", {"a1": "1", "a2": "1", "b1": "1"}),
                ("5.3-I", {"a1": "1", "a2": "-1", "b1": "2"})],
    "5.3.1-II": [("5.3-II", {"a1": "1", "a2": "1", "b1": "1"}),
                 ("5.3-II", {"a1": "2", "a2": "0", "b1": "0"})],
}

_CONSTRAINT_TABLES: dict[str, dict[str, list[bool]]] = {
    "5.1.1": {"r+su2c": [False, False], "su2c": [True, False],
              "t2": [False, True], "t1[1,0]": [False, True],
              "t1[0,1]": [True, True], "t1[1,1]": [True, True],
              "so3diag": [True, True], "zero": [True, True]},
    "5.3.1": {"u2": [False, False], "t2": [False, False],
              "su2": [False, True], "t1[1,0]": [False, True],
              "t1[0,1]": [True, False], "t1[1,1]": [True, True],
              "zero": [True, True]},
}

_PAIR_ROWS = [
    {"iso": "g2", "k_nonzero": ["g2", "su2+su2c"],
     "k_zero": ["r+su2c", "so3ir"]},
    {"iso": "so3ir", "k_nonzero": [], "k_zero": ["so3ir"]},
    {"iso": "su2+su2c", "k_nonzero": ["su2+su2c", "u2", "su2"],
     "k_zero": ["r+su2c", "su2c", "so3", "t2", "t1", "zero"]},
    {"iso": "r+su2c", "k_nonzero": [],
     "k_zero": ["r+su2c", "su2c", "t2", "t1", "zero"]},
    {"iso": "su3", "k_nonzero": ["su3", "u2"], "k_zero": ["so3", "t2"]},
    {"iso": "so3", "k_nonzero": [], "k_zero": ["so3", "t1", "zero"]},
    {"iso": "u2", "k_nonzero": ["u2", "su2"], "k_zero": ["t2", "t1"]},
    {"iso": "r+su2", "k_nonzero": ["r+su2"], "k_zero": []},
]


def golden_payloads() -> dict[str, dict]:
    """Exact golden content, recomputed from the closed forms."""
    families = {}
    for fam_id, samples in _FAMILY_SAMPLES.items():
        families[fam_id] = {
            "holonomy": FAMILIES[fam_id].iso_name,
            "params": list(FAMILIES[fam_id].params),
            "samples": [{"params": dict(raw), "ricci": _ricci_strings(fam_id, raw)}
                        for raw in samples],
        }
    square = wedge(CAYLEY, CAYLEY)
    constant = square.coeff(tuple(range(1, DIM + 1)))
    cases = {}
    for case, samples in _CASE_SAMPLES.items():
        cases[case] = {
            "holonomy": CASES[case].holonomy,
            "samples": [{"family": fam_id, "params": dict(raw),
                         "ricci": _ricci_strings(fam_id, raw)}
                        for fam_id, raw in samples],
        }
    return {
        "families.json": {
            "constants": {"calibration_square": str(constant)},
            "families": families,
        },
        "curvature_cases.json": {
            "cases": cases,
            "constraints": _CONSTRAINT_TABLES,
        },
        "admissibility_table.json": {"rows": _PAIR_ROWS},
    }


def write_golden(target: Path) -> list[str]:
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name, payload in golden_payloads().items():
        path = target / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(str(path))
    return written
