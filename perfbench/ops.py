"""Seeded inputs and checked operations of the three workloads.

Every input is generated here from the workload seed with this module's
own generators, so a change to the program cannot change the inputs.
An operation returns `(ok, detail, output)`: `ok` is the verdict of the
exact checks, and `output` is the text whose digest must match the
reference run at the same seed.  Inputs repeat past what
perfbench/reference covers (REFERENCE_SEEDS seeds, SPINOR_INPUTS
spinor-identities inputs, CLASSIFICATION_PASSES passes and CLI_BLOCKS
query blocks per seed), so every operation of a run has a reference.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TABLE = ROOT / "src" / "spin7" / "golden" / "admissibility_table.json"

REFERENCE_SEEDS = 16
SPINOR_INPUTS = 1000
CLASSIFICATION_PASSES = 1
CLI_BLOCKS = 2


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work in the style of the
    program (rational arithmetic, small dicts).  The host's speed changes
    by up to a factor two over seconds to minutes; timing this next to
    every operation lets the harness report times at one nominal speed.
    It runs in the harness process, which never imports the program, while
    the process being measured waits, so no program change can alter it."""
    t0 = perf_counter()
    acc = Fraction(0)
    step = Fraction(1, 3)
    table: dict[int, Fraction] = {}
    for i in range(1, 500):
        acc += step * Fraction(i, i + 1)
        table[i % 31] = table.get(i % 31, 0) + acc
    return perf_counter() - t0


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def field_value(rng: random.Random) -> tuple[str, tuple[Fraction, ...]]:
    """A nonzero element of Q(sqrt3, sqrt5) with one or two coordinates,
    as CLI text (e.g. "1/3+sqrt5", "-sqrt15") and as coordinates."""
    coords = [Fraction(0)] * 4
    text = ""
    for slot in sorted(rng.sample(range(4), rng.choice((1, 1, 2)))):
        coeff = Fraction(rng.choice((1, 2, 3, 4)), rng.choice((1, 1, 2, 3)))
        if rng.random() < 0.4:
            coeff = -coeff
        coords[slot] = coeff
        root = ("", "sqrt3", "sqrt5", "sqrt15")[slot]
        mag = abs(coeff)
        body = (str(mag) if not root else root if mag == 1
                else f"{mag}*{root}")
        text += ("-" if coeff < 0 else "+" if text else "") + body
    return text, tuple(coords)


# ---------------------------------------------------------------------------
# spinor-identities: Clifford action, exterior algebra, rational scalars

_MONO2 = list(itertools.combinations(range(1, 9), 2))
_MONO3 = list(itertools.combinations(range(1, 9), 3))


def _nonzero_int(rng: random.Random) -> int:
    return rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))


def spinor_input(seed: int, index: int) -> dict:
    """A 3-form of bounded support and ten 2-forms, half of them integer
    combinations of the stabilizer basis and half generic."""
    rng = _rng("spinor-identities", seed % REFERENCE_SEEDS, index % SPINOR_INPUTS)
    three = {idx: _nonzero_int(rng) for idx in rng.sample(_MONO3, rng.randint(4, 8))}
    twos = []
    for j in range(10):
        if j % 2 == 0:
            picks = rng.sample(range(21), rng.randint(3, 6))
            twos.append(("kernel", {k: _nonzero_int(rng) for k in sorted(picks)}))
        else:
            picks = rng.sample(_MONO2, rng.randint(3, 6))
            twos.append(("generic", {m: _nonzero_int(rng) for m in sorted(picks)}))
    return {"three": dict(sorted(three.items())), "twos": twos}


def spinor_prepare(data: dict):
    from spin7.exterior import MultiVector
    from spin7.liealg import SPIN7_BASIS
    from spin7.scalars import Scalar
    t = MultiVector({idx: Scalar(c) for idx, c in data["three"].items()})
    forms = []
    for kind, coeffs in data["twos"]:
        if kind == "kernel":
            w = MultiVector()
            for k, c in coeffs.items():
                w = w + SPIN7_BASIS[k] * c
        else:
            w = MultiVector({m: Scalar(c) for m, c in coeffs.items()})
        forms.append((kind, w))
    return t, forms


def spinor_run(prepared) -> tuple[bool, str, str]:
    from spin7 import liealg, structure
    t, forms = prepared
    rep = structure.sigma_report(t)
    scal_g, scal_c = structure.scal_pair(t)
    lee = structure.lee_norm_identity(t)
    con = structure.contraction_identity(t)
    stab = []
    for kind, w in forms:
        inside = liealg.in_stabilizer(w)
        eqs = liealg.membership_equations(w)
        stab.append((kind, inside, all(e.is_zero for e in eqs), [str(e) for e in eqs]))
    problems = []
    if rep["basis_identity"] != rep["basis_square"]:
        problems.append("identity and square condition disagree on a basis spinor")
    if rep["base_identity"] != rep["base_square"]:
        problems.append("identity and square condition disagree on the base spinor")
    if not lee:
        problems.append("Lee norm identity failed")
    if not con:
        problems.append("contraction identity failed")
    for n, (kind, inside, eq_zero, _) in enumerate(stab):
        if inside != eq_zero:
            problems.append(f"2-form {n}: in_stabilizer and membership equations disagree")
        if kind == "kernel" and not inside:
            problems.append(f"2-form {n}: kernel combination left the stabilizer")
    output = json.dumps({"sigma": rep, "scal": [str(scal_g), str(scal_c)],
                         "lee": lee, "contraction": con,
                         "stabilizer": [s[1:] for s in stab]}, sort_keys=True)
    return not problems, "; ".join(problems), output


# ---------------------------------------------------------------------------
# classification: the admissibility decisions, eliminations, curvature cases

# the 61 (invariance, holonomy, k, l) decisions of the admissibility table,
# in table order
_T1 = [("t1", 1, 0), ("t1", 0, 1), ("t1", 1, 1)]
_DECISION_ROWS = {
    "g2": ["g2", "su2+su2c", "r+su2c", "so3ir", "su3", "u2", "su2", "so3",
           "so3diag", "su2c", "t2", *_T1, "zero"],
    "so3ir": ["so3ir", "zero"],
    "su2+su2c": ["su2+su2c", "u2", "su2", "r+su2c", "su2c", "so3diag", "t2",
                 *_T1, "zero"],
    "r+su2c": ["r+su2c", "su2c", "t2", *_T1, "zero"],
    "su3": ["su3", "u2", "so3", "t2", "su2", *_T1, "zero"],
    "so3": ["so3", ("t1", 1, 1), "zero"],
    "u2": ["u2", "su2", "t2", ("t1", 0, 1), ("t1", 1, 0), ("t1", 1, 1), "zero"],
    "r+su2": ["r+su2", "su2", "t2tilde", ("t1tilde", 1, 0), ("t1tilde", 0, 1),
              ("t1tilde", 1, 1), "zero"],
}
DECISIONS = [(iso, *(h if isinstance(h, tuple) else (h, 1, 0)))
             for iso, hols in _DECISION_ROWS.items() for h in hols]

ELIMINATIONS = ["5.3-I", "5.3-II", "flat"]
_FLAT_LOCUS = ({"a1": "-b1", "b2": "0"},
               {"a1": "4*b1/3", "b2": "7*sqrt(3)*b1/3"},
               {"a1": "4*b1/3", "b2": "-7*sqrt(3)*b1/3"})

FAMILY_PARAMS = {"5.1": ("a1", "b1", "b2"), "5.2-I": ("a1",),
                 "5.2-II": ("a1", "a2", "b1"), "5.3-I": ("a1", "a2", "b1"),
                 "5.3-II": ("a1", "a2", "b1"), "5.4": ("b1",)}
CASES = {"5.1.1": ("r+su2c", ("5.1",)), "5.1.2": ("so3ir", ("5.1",)),
         "5.2.1": ("so3", ("5.2-I", "5.2-II")),
         "5.2.2": ("t2", ("5.2-I", "5.2-II")),
         "5.3.1-I": ("t2", ("5.3-I",)), "5.3.1-II": ("t2", ("5.3-II",))}


def curvature_input(rng: random.Random, case: str | None = None) -> dict:
    case = case or rng.choice(sorted(CASES))
    family = rng.choice(CASES[case][1])
    params = {p: field_value(rng) for p in FAMILY_PARAMS[family]}
    if case == "5.1.2":
        params["b1"] = params["b2"] = ("0", (Fraction(0),) * 4)
    return {"case": case, "family": family, "params": params}


def classification_plan(seed: int, pass_no: int) -> list[tuple[str, object]]:
    """One pass: the eliminations, then the decisions in table order with
    a curvature-case operation after every tenth decision; the six
    operations take the six cases in a seeded order."""
    rng = _rng("classification", seed % REFERENCE_SEEDS, pass_no % CLASSIFICATION_PASSES)
    cases = sorted(CASES)
    rng.shuffle(cases)
    plan: list[tuple[str, object]] = [("elimination", e) for e in ELIMINATIONS]
    for n, decision in enumerate(DECISIONS, 1):
        plan.append(("decision", decision))
        if n % 10 == 0:
            plan.append(("curvature", curvature_input(rng, cases.pop())))
    return plan


def op_key(kind: str, data) -> str:
    return f"{kind}|{data!r}"


def _golden_rows() -> dict:
    rows = json.loads(GOLDEN_TABLE.read_text())["rows"]
    return {r["iso"]: {"k_nonzero": r["k_nonzero"], "k_zero": r["k_zero"]}
            for r in rows}


_ROW_FIELDS = ("iso", "hol", "k_nontrivial", "torsion_family",
               "torsion_constraints", "ricci_params", "curvature_constraints",
               "admissible", "reason")


class ClassificationPass:
    """Runs the operations of one pass, tracking the grouped admissible
    pairs so the last decision can compare the whole table."""

    def __init__(self) -> None:
        self.golden = _golden_rows()
        self.grouped: dict[str, dict[str, list[str]]] = {}
        self.decided = 0

    def prepare(self, kind: str, data):
        if kind != "curvature":
            return data
        from spin7.scalars import Scalar
        params = {p: Scalar(*c) for p, (_, c) in data["params"].items()}
        return {**data, "params": params}

    def run(self, kind: str, data) -> tuple[bool, str, str]:
        return getattr(self, f"_{kind}")(data)

    def _elimination(self, which: str) -> tuple[bool, str, str]:
        from spin7 import classify
        if which == "flat":
            result = classify.flat_operator_locus()
            ok = result == _FLAT_LOCUS
        else:
            result = classify.two_weight_vanishing_locus(which)
            ok = bool(result) and all(b["excluded"] for b in result)
        return ok, "" if ok else f"elimination {which} changed", repr(result)

    def _decision(self, decision) -> tuple[bool, str, str]:
        from spin7 import classify
        iso, hol, k, l = decision
        row = classify.run_recipe(iso, hol, k, l)
        base = row.hol.split("[")[0]
        base = {"so3diag": "so3"}.get(base, base)
        col = "k_nonzero" if row.k_nontrivial else "k_zero"
        problems = []
        if row.iso != iso or (row.admissible and base not in self.golden[iso][col]):
            problems.append(f"({iso}, {row.hol}) is not admissible in the golden table")
        if not row.admissible and (not row.reason or "not covered" in row.reason):
            problems.append(f"({iso}, {row.hol}) excluded without a reason")
        if row.admissible:
            bucket = self.grouped.setdefault(iso, {"k_nonzero": [], "k_zero": []})
            if base not in bucket[col]:
                bucket[col].append(base)
        self.decided += 1
        if self.decided == len(DECISIONS) and self.grouped != self.golden:
            problems.append("grouped admissible pairs differ from the golden table")
        fields = [getattr(row, name) for name in _ROW_FIELDS]
        return not problems, "; ".join(problems), json.dumps(fields)

    def _curvature(self, data) -> tuple[bool, str, str]:
        from spin7 import curvature, liealg, structure
        case, fam_id, params = data["case"], data["family"], data["params"]
        fam = structure.FAMILIES[fam_id]
        rc = curvature.build_rc(case, params)
        t = fam.torsion(params)
        h = liealg.algebra(CASES[case][0])
        diag = fam.ricci_diag(params)
        ric = rc.ricci()
        sol = structure.ricci_solver(t, h)
        checks = {
            "symmetric": rc.is_symmetric(),
            "range": rc.range_inside(h),
            "invariant": rc.invariant_under(h),
            "cyclic": curvature.cyclic_residue(rc, t),
            "ricci": structure.is_diagonal(ric) and structure.diagonal(ric) == diag,
            "solver": (sol is not None and structure.is_diagonal(sol)
                       and structure.diagonal(sol) == diag),
        }
        bad = [name for name, good in checks.items() if not good]
        output = json.dumps({"checks": checks,
                             "diag": [str(v) for v in diag]}, sort_keys=True)
        return not bad, f"case {case} ({fam_id}) failed {bad}" if bad else "", output


# ---------------------------------------------------------------------------
# cli-queries: one `python -m spin7.cli` subprocess per query

# One block of queries, in a seeded order: each of the five query commands
# once as JSON and once as markdown, and one malformed query of each kind
# the CLI must refuse with exit 2.  The malformed queries count toward the
# error rate but not toward the query times.
COMMANDS = ("ricci", "curvature", "invariants", "iso", "reconstruct")
MALFORMED = ("bad-name", "bad-form", "missing-param", "zero-denominator")
BLOCK = (*COMMANDS, *(f"{c}-md" for c in COMMANDS), *MALFORMED)
# malformed kinds the CLI still refuses with a traceback and exit 1 instead
# of exit 2 (a `--set` value with a zero denominator): counted as contract
# violations, not as failed operations; empty this once the CLI is fixed
KNOWN_DEFECT_KINDS = ("zero-denominator",)
# curvature cases of the first and the second block.  The four costliest
# queries of a run are its curvature queries, and the third of them sets
# the 90th percentile, so the cases whose cost differs most (5.1.1, 5.1.2,
# 5.2.1) are fixed by block and the cases of similar cost are seeded.
_CLI_CURVATURE = {"curvature": (("5.1.1",), ("5.1.2",)),
                  "curvature-md": (("5.2.1",), ("5.2.2", "5.3.1-I", "5.3.1-II"))}
_CATALOG = ("g2", "su3", "su2+su2c", "u2", "r+su2c", "r+su2", "so3",
            "so3diag", "so3ir", "su2", "su2c", "t2", "t2tilde", "zero",
            "spin7")


def _set_arg(params: dict[str, str]) -> str:
    return "--set=" + ",".join(f"{k}={v}" for k, v in params.items())


def _random_form(rng: random.Random) -> str:
    text = ""
    for idx in sorted(rng.sample(_MONO3, rng.randint(2, 5))):
        value, _ = field_value(rng)
        mono = "e_" + "".join(map(str, idx))
        coeff = f"({value})" if any(ch in value[1:] for ch in "+-") else value
        text += (" + " if text else "") + f"{coeff}*{mono}"
    return text


def cli_query(seed: int, index: int) -> tuple[str, list[str]]:
    """The kind and argv of query `index`; each block of len(BLOCK)
    queries holds every kind once."""
    seed %= REFERENCE_SEEDS
    index %= CLI_BLOCKS * len(BLOCK)
    block, pos = divmod(index, len(BLOCK))
    order = list(BLOCK)
    _rng("cli-queries", seed, "block", block).shuffle(order)
    kind = order[pos]
    rng = _rng("cli-queries", seed, index)
    fmt = ["--format", "markdown"] if kind.endswith("-md") else []
    base = kind.removesuffix("-md")
    if base == "ricci":
        fam = rng.choice(sorted(FAMILY_PARAMS))
        params = {p: field_value(rng)[0] for p in FAMILY_PARAMS[fam]}
        return kind, fmt + ["ricci", "--family", fam, _set_arg(params)]
    if base == "curvature":
        data = curvature_input(rng, rng.choice(_CLI_CURVATURE[kind][block]))
        params = {p: text for p, (text, _) in data["params"].items()}
        return kind, fmt + ["curvature", "--case", data["case"], _set_arg(params)]
    if base == "invariants":
        space = rng.choice(("forms3", "spinors"))
        if rng.random() < 0.5:
            name = rng.choice(_CATALOG)
        else:
            name = (f"{rng.choice(('t1', 't1tilde'))}"
                    f"[{field_value(rng)[0]},{field_value(rng)[0]}]")
        return kind, fmt + ["invariants", "--algebra", name, "--space", space]
    if base == "iso":
        return kind, fmt + ["iso", f"--form={_random_form(rng)}"]
    if base == "reconstruct":
        return kind, fmt + ["reconstruct", "--example", rng.choice(("1", "2", "t2"))]
    if kind == "bad-name":
        return kind, rng.choice((
            ["ricci", "--family", rng.choice(("5.9", "6.1", "5.3-III"))],
            ["invariants", "--algebra", rng.choice(("su5", "e8", "t3")),
             "--space", "spinors"],
            ["curvature", "--case", rng.choice(("5.4.1", "5.3.2", "7.1"))]))
    if kind == "bad-form":
        return kind, ["iso", "--form=" + rng.choice((
            "e_13x", "e_135 + * e_246", "2*e_12*e_34", "e_19", "(e_135",
            "e_135 - sqrt7*e_246", "e_1355"))]
    fam = rng.choice(("5.1", "5.2-II", "5.3-I", "5.3-II"))
    params = {p: field_value(rng)[0] for p in FAMILY_PARAMS[fam]}
    victim = rng.choice(FAMILY_PARAMS[fam])
    if kind == "missing-param":
        del params[victim]
    else:  # zero-denominator
        params[victim] = f"{rng.randint(1, 9)}/0"
    return kind, ["ricci", "--family", fam, _set_arg(params)]


def check_cli(kind: str, argv: list[str], code: int, out: bytes,
              err: bytes) -> tuple[str, str]:
    """Verdict of one query: "ok", "failed", or "violation" (a malformed
    query of a known defect kind refused with another exit code than 2 or
    with a traceback)."""
    if kind in MALFORMED:
        if code == 2 and not out and b"Traceback" not in err:
            return "ok", ""
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        detail = f"{kind}: exit {code}, {tail[0]}"
        if kind in KNOWN_DEFECT_KINDS and code != 0 and not out:
            return "violation", detail
        return "failed", detail
    if code != 0 or b"Traceback" in err:
        return "failed", f"{kind}: exit {code}"
    text = out.decode()
    if kind.endswith("-md"):
        good = bool(text.strip()) and "FAILED" not in text and "DISAGREES" not in text
        return ("ok", "") if good else ("failed", f"{kind}: markdown reports a failure")
    env = json.loads(text)
    p = env["payload"]
    good = env["ok"] is True and env["command"] == argv[0]
    if kind == "ricci":
        good = good and p["consistent"] and p["matches"]
    elif kind == "curvature":
        good = good and all(p["checks"].values())
    elif kind in ("invariants", "iso"):
        good = good and p["dim"] == len(p["basis"])
    elif kind == "reconstruct":
        good = good and p["jacobi"]
    return ("ok", "") if good else ("failed", f"{kind}: envelope reports a failure")
