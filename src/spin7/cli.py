"""Command line surface over the verifier and the classification data.

Every command emits a single JSON envelope on stdout (or a markdown
rendering with --format markdown) and communicates success through the
exit code: 0 when all checks in the command passed, 1 when a check
failed (the envelope then carries a structured diff), 2 for malformed
invocations.  JSON output is validated against the schema shipped with
the package before it is printed, by a checker for the JSON Schema
keywords that schema uses, and is byte-identical across runs with the
same seed.  A command imports only the modules it runs on: `classify`
and `verification` load inside the handlers that call them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .curvature import CASES, build_rc, case_family, cyclic_residue
from .exterior import form, format_form, format_terms
from .liealg import (algebra, algebra_by_label, invariant_forms,
                     invariant_spinors, iso_algebra)
from .scalars import ParseError, Scalar
from .structure import FAMILIES, diagonal, is_diagonal, ricci_solver


class UsageError(Exception):
    """Invocation problem: unknown name, bad parameter, bad form string."""


@dataclass
class CommandResult:
    exit_code: int
    payload: str = ""
    diagnostics: str = ""


# ---------------------------------------------------------------------------
# argument helpers

def _resolve_algebra(label: str) -> tuple[str, list]:
    """Catalog lookup, case-insensitive, accepting slope labels "t1[1,0]"."""
    try:
        return algebra_by_label(label.strip().lower())
    except KeyError:
        raise UsageError(f"unknown algebra {label!r}") from None
    except ValueError as exc:
        raise UsageError(f"bad algebra label {label!r}: {exc}") from None


def _parse_set(text: str) -> dict[str, Scalar]:
    out: dict[str, Scalar] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, value = chunk.partition("=")
        key = key.strip()
        if not eq or not key:
            raise UsageError(
                f"--set entries look like name=value, got {chunk!r}")
        if key in out:
            raise UsageError(f"--set names {key!r} twice")
        try:
            out[key] = Scalar.parse(value.strip())
        except ValueError as exc:
            raise UsageError(f"bad value for {key!r}: {exc}") from None
    return out


def _match_key(arg: str, keys: list[str], kind: str) -> str:
    for key in keys:
        if key.lower() == arg.strip().lower():
            return key
    raise UsageError(
        f"unknown {kind} {arg!r}; choose from {', '.join(keys)}")


# ---------------------------------------------------------------------------
# command handlers; each returns (ok, payload, diff, seed)

def _cmd_verify_all(ns) -> tuple:
    from .verification import run_all
    reports = run_all(ns.seed)
    payload = {"suites": [r.to_dict() for r in reports]}
    diff = []
    for rep in reports:
        for check in rep.checks:
            if not check.ok:
                diff.append({"where": f"{rep.name}: {check.label}",
                             "expected": "pass",
                             "actual": check.detail or "fail"})
    return not diff, payload, diff, ns.seed


def _cmd_table(ns) -> tuple:
    from .classify import admissible_pairs
    grouped = admissible_pairs()
    rows = [{"isotropy": iso,
             "k_nonzero": list(cols["k_nonzero"]),
             "k_zero": list(cols["k_zero"])}
            for iso, cols in grouped.items()]
    return True, {"rows": rows}, [], None


def _cmd_invariants(ns) -> tuple:
    label, gens = _resolve_algebra(ns.algebra)
    if ns.space == "forms3":
        forms = invariant_forms(gens, 3)
        basis = [format_form(a) for a in forms]
    else:
        basis = [format_terms((f"psi{k + 1}", v) for k, v in sorted(s.items()))
                 for s in invariant_spinors(gens)]
    payload = {"algebra": label, "space": ns.space,
               "dim": len(basis), "basis": basis}
    return True, payload, [], None


def _cmd_ricci(ns) -> tuple:
    fam_id = _match_key(ns.family, list(FAMILIES), "family")
    fam = FAMILIES[fam_id]
    params = _parse_set(ns.set)
    hol_name, h = _resolve_algebra(
        ns.hol if ns.hol is not None else fam.iso_name)
    try:
        t = fam.torsion(params)
        closed = fam.ricci_diag(params)
    except KeyError as exc:
        raise UsageError(f"family {fam_id}: {exc.args[0]}") from None
    ric = ricci_solver(t, h)
    payload = {"family": fam_id, "holonomy": hol_name,
               "params": {k: str(v) for k, v in sorted(params.items())},
               "torsion": format_form(t),
               "closed_form": [str(v) for v in closed]}
    diff = []
    if ric is None:
        payload.update(solver=None, consistent=False, matches=False)
        diff.append({"where": "ricci solver",
                     "expected": payload["closed_form"],
                     "actual": "inconsistent"})
    else:
        got = diagonal(ric)
        matches = is_diagonal(ric) and got == closed
        payload.update(solver=[str(v) for v in got],
                       consistent=True, matches=matches)
        if not matches:
            diff.append({"where": "ricci solver",
                         "expected": payload["closed_form"],
                         "actual": payload["solver"]})
    return not diff, payload, diff, None


def _cmd_curvature(ns) -> tuple:
    case = _match_key(ns.case, list(CASES), "case")
    params = _parse_set(ns.set)
    try:
        rc = build_rc(case, params)
        t = case_family(case, params).torsion(params)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"case {case}: {exc}") from None
    holonomy = CASES[case].holonomy
    h = algebra(holonomy)
    checks = {"symmetric": rc.is_symmetric(),
              "torsion_identity": cyclic_residue(rc, t),
              "values_in_holonomy": rc.range_inside(h),
              "invariant": rc.invariant_under(h)}
    payload = {"case": case, "holonomy": holonomy,
               "params": {k: str(v) for k, v in sorted(params.items())},
               "ricci": [str(v) for v in diagonal(rc.ricci())],
               "checks": checks}
    diff = [{"where": f"case {case} {name}", "expected": True,
             "actual": False}
            for name, good in checks.items() if not good]
    return not diff, payload, diff, None


def _structure_json(rec) -> dict:
    out = {}
    for (i, j), row in sorted(rec.structure.items()):
        out[f"[{rec.labels[i]},{rec.labels[j]}]"] = {
            rec.labels[k]: str(v) for k, v in sorted(row.items())}
    return out


def _cmd_reconstruct(ns) -> tuple:
    from .classify import RECONSTRUCTION_EXAMPLES
    which = ns.example
    example = RECONSTRUCTION_EXAMPLES[which]
    t, rec = example.run()
    killing = rec.killing_nondegenerate()
    payload = {"example": which, "torsion": format_form(t),
               "dim": rec.dim, "labels": list(rec.labels),
               "jacobi": rec.jacobi_ok,
               "killing_nondegenerate": killing,
               "structure": _structure_json(rec)}
    diff = []
    if not rec.jacobi_ok:
        diff.append({"where": f"example {which} jacobi",
                     "expected": True, "actual": False})
    if killing != example.killing:
        diff.append({"where": f"example {which} killing form",
                     "expected": example.killing, "actual": killing})
    return not diff, payload, diff, None


def _cmd_iso(ns) -> tuple:
    try:
        a = form(ns.form)
    except ParseError as exc:
        raise UsageError(f"--form: {exc}") from None
    name, basis = iso_algebra(a)
    payload = {"form": format_form(a), "algebra": name, "dim": len(basis),
               "basis": [format_form(w) for w in basis]}
    return True, payload, [], None


def _cmd_regen_golden(ns) -> tuple:
    from .verification import write_golden
    written = write_golden(Path(ns.out))
    return True, {"out": ns.out, "written": written}, [], None


_HANDLERS = {
    "verify-all": _cmd_verify_all,
    "table": _cmd_table,
    "invariants": _cmd_invariants,
    "ricci": _cmd_ricci,
    "curvature": _cmd_curvature,
    "reconstruct": _cmd_reconstruct,
    "iso": _cmd_iso,
    "regen-golden": _cmd_regen_golden,
}


# ---------------------------------------------------------------------------
# schema check: the JSON Schema 2020-12 keywords that schema.json uses

class SchemaError(ValueError):
    """A JSON envelope that breaks the shipped schema, at JSON path `path`."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# keywords by what they hold: one subschema, a list or a map of
# subschemas, or plain data
_SUBSCHEMA = ("additionalProperties", "items", "if", "then")
_SUBSCHEMA_LIST = ("allOf", "oneOf")
_SUBSCHEMA_MAP = ("properties", "$defs")
_DATA = ("$schema", "title", "$ref", "type", "enum", "const", "required",
         "minItems", "maxItems", "minLength", "minimum")
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "boolean": bool, "null": type(None)}


def _check_keywords(schema) -> None:
    """Raise ValueError on a keyword or type name `_check` does not read."""
    if isinstance(schema, bool):
        return
    for key, rule in schema.items():
        if key in _SUBSCHEMA:
            _check_keywords(rule)
        elif key in _SUBSCHEMA_LIST or key in _SUBSCHEMA_MAP:
            for sub in rule if key in _SUBSCHEMA_LIST else rule.values():
                _check_keywords(sub)
        elif key not in _DATA:
            raise ValueError(f"schema keyword {key!r} is not supported")
        elif key == "type" and not set(_names(rule)) <= set(_TYPES):
            raise ValueError(f"schema type {rule!r} is not supported")
        elif key == "$ref" and not rule.startswith("#/$defs/"):
            raise ValueError(f"schema reference {rule!r} is not supported")
        elif key in ("enum", "const") and not all(
                isinstance(o, str) for o in (rule if key == "enum" else [rule])):
            raise ValueError(f"schema {key} {rule!r} is not supported: "
                             "only strings are compared")


def _names(rule) -> list:
    return [rule] if isinstance(rule, str) else rule


def _is_type(value, name: str) -> bool:
    """JSON type test: a bool is not an integer but 2.0 is one, and a
    tuple is not an array."""
    if name == "integer":
        return (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer())
    return isinstance(value, _TYPES[name])


def _passes(value, schema, root: dict) -> bool:
    try:
        _check(value, schema, root)
    except SchemaError:
        return False
    return True


def _check(value, schema, root: dict, path: str = "$") -> None:
    """Raise SchemaError at the first place where value breaks schema;
    `$ref`s resolve into root["$defs"]."""
    if isinstance(schema, bool):
        if not schema:
            raise SchemaError(path, "no value is allowed here")
        return
    obj, arr = isinstance(value, dict), isinstance(value, list)
    for key, rule in schema.items():
        bad = None
        if key == "$ref":
            _check(value, root["$defs"][rule.removeprefix("#/$defs/")], root, path)
        elif key == "type":
            if not any(_is_type(value, n) for n in _names(rule)):
                bad = f"{value!r} is not of type {' or '.join(_names(rule))}"
        elif key in ("enum", "const"):
            options = rule if key == "enum" else [rule]
            if value not in options:
                bad = f"{value!r} is not one of {options!r}"
        elif key == "required" and obj:
            missing = [k for k in rule if k not in value]
            if missing:
                bad = f"required property {missing[0]!r} is missing"
        elif key == "properties" and obj:
            for k, sub in rule.items():
                if k in value:
                    _check(value[k], sub, root, f"{path}.{k}")
        elif key == "additionalProperties" and obj:
            named = schema.get("properties", {})
            for k in value:
                if k not in named:
                    _check(value[k], rule, root, f"{path}.{k}")
        elif key == "items" and arr:
            for i, item in enumerate(value):
                _check(item, rule, root, f"{path}[{i}]")
        elif key == "minItems" and arr and len(value) < rule:
            bad = f"array of length {len(value)} is shorter than {rule}"
        elif key == "maxItems" and arr and len(value) > rule:
            bad = f"array of length {len(value)} is longer than {rule}"
        elif key == "minLength" and isinstance(value, str) and len(value) < rule:
            bad = f"{value!r} is shorter than {rule}"
        elif (key == "minimum" and isinstance(value, (int, float))
              and not isinstance(value, bool) and value < rule):
            bad = f"{value!r} is less than {rule}"
        elif key == "allOf":
            for sub in rule:
                _check(value, sub, root, path)
        elif key == "oneOf":
            hits = sum(_passes(value, sub, root) for sub in rule)
            if hits != 1:
                bad = f"{value!r} matches {hits} of the oneOf schemas, not 1"
        elif key == "if" and _passes(value, rule, root):
            _check(value, schema.get("then", True), root, path)
        if bad:
            raise SchemaError(path, bad)


@lru_cache(maxsize=1)
def _schema() -> dict:
    path = resources.files("spin7") / "schema.json"
    schema = json.loads(path.read_text(encoding="utf-8"))
    _check_keywords(schema)
    return schema


def _validate(envelope: dict) -> None:
    schema = _schema()
    _check(envelope, schema, schema)


# ---------------------------------------------------------------------------
# rendering


def _combo(row: dict[str, str]) -> str:
    parts = []
    for label, c in row.items():
        if c == "1":
            parts.append(label)
        elif c == "-1":
            parts.append(f"-{label}")
        elif " " in c:
            parts.append(f"({c})*{label}")
        else:
            parts.append(f"{c}*{label}")
    return " + ".join(parts)


def _markdown(cmd: str, env: dict) -> str:
    p = env["payload"]
    lines: list[str] = []
    if cmd == "verify-all":
        for s in p["suites"]:
            word = "PASS" if s["passed"] else "FAIL"
            unit = "check" if s["checks"] == 1 else "checks"
            lines.append(f"{word} {s['name']} ({s['checks']} {unit})")
            for failure in s["failures"]:
                tail = f" [{failure['detail']}]" if failure["detail"] else ""
                lines.append(f"  failed: {failure['label']}{tail}")
            for note in s["notes"]:
                lines.append(f"  note: {note}")
        total = sum(s["checks"] for s in p["suites"])
        bad = sum(len(s["failures"]) for s in p["suites"])
        lines.append("")
        lines.append(f"{total} checks, "
                     + (f"{bad} failures" if bad else "all passed"))
    elif cmd == "table":
        lines.append("| isotropy | holonomy, curved operators | "
                     "holonomy, flat only |")
        lines.append("| --- | --- | --- |")
        for row in p["rows"]:
            curved = ", ".join(row["k_nonzero"]) or "(none)"
            flat = ", ".join(row["k_zero"]) or "(none)"
            lines.append(f"| {row['isotropy']} | {curved} | {flat} |")
    elif cmd == "invariants":
        lines.append(f"invariants of {p['algebra']} in {p['space']}: "
                     f"dim {p['dim']}")
        for b in p["basis"]:
            lines.append(f"- {b}")
    elif cmd == "ricci":
        head = f"family {p['family']}, holonomy {p['holonomy']}"
        if p["params"]:
            head += ", " + ", ".join(f"{k} = {v}"
                                     for k, v in p["params"].items())
        lines.append(head)
        lines.append(f"torsion: {p['torsion']}")
        lines.append("closed form: diag(" + ", ".join(p["closed_form"]) + ")")
        if p["solver"] is None:
            lines.append("solver: inconsistent")
        else:
            lines.append("solver: diag(" + ", ".join(p["solver"]) + ")")
            lines.append("solver matches closed form" if p["matches"]
                         else "solver DISAGREES with closed form")
    elif cmd == "curvature":
        head = f"case {p['case']}, holonomy {p['holonomy']}"
        if p["params"]:
            head += ", " + ", ".join(f"{k} = {v}"
                                     for k, v in p["params"].items())
        lines.append(head)
        lines.append("Ricci: diag(" + ", ".join(p["ricci"]) + ")")
        for name, good in p["checks"].items():
            lines.append(f"- {name}: {'ok' if good else 'FAILED'}")
    elif cmd == "reconstruct":
        killing = ("non-degenerate" if p["killing_nondegenerate"]
                   else "degenerate")
        jac = "exact" if p["jacobi"] else "FAILED"
        lines.append(f"example {p['example']}: dim {p['dim']}, "
                     f"Jacobi {jac}, Killing form {killing}")
        lines.append(f"torsion: {p['torsion']}")
        for key, row in p["structure"].items():
            lines.append(f"{key} = {_combo(row)}")
    elif cmd == "iso":
        lines.append(f"stabilizer of {p['form']}: {p['algebra']} "
                     f"(dim {p['dim']})")
        for b in p["basis"]:
            lines.append(f"- {b}")
    else:
        lines.append(f"wrote {len(p['written'])} golden files to {p['out']}")
        for name in p["written"]:
            lines.append(f"- {name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "markdown"),
                   default=argparse.SUPPRESS,
                   help="output rendering (default json)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed for the randomized identity checks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin7",
        description="Exact checks and tables for the torsion classification "
                    "on the 8-dimensional model space.")
    parser.add_argument("--format", choices=("json", "markdown"),
                        default="json",
                        help="output rendering (default json)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized identity checks")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")

    p = sub.add_parser("verify-all", help="run every check suite")
    _add_common(p)

    p = sub.add_parser("table", help="print a classification table")
    p.add_argument("which", choices=("admissibility",),
                   help="which table to print")
    _add_common(p)

    p = sub.add_parser("invariants",
                       help="invariant 3-forms or spinors of an algebra")
    p.add_argument("--algebra", required=True,
                   help="catalog name, case-insensitive; t1[k,l] for lines")
    p.add_argument("--space", choices=("forms3", "spinors"), required=True)
    _add_common(p)

    p = sub.add_parser("ricci",
                       help="Ricci tensor of a torsion family member")
    p.add_argument("--family", required=True,
                   help="family id, e.g. 5.1 or 5.3-I")
    p.add_argument("--set", default="", metavar="NAME=VALUE[,...]",
                   help="parameter assignment, exact scalar values")
    p.add_argument("--hol", default=None,
                   help="holonomy algebra for the spinor equations "
                        "(default: the family's isotropy algebra)")
    _add_common(p)

    p = sub.add_parser("curvature",
                       help="closed-form curvature operator of a subcase")
    p.add_argument("--case", required=True,
                   help="case id, e.g. 5.1.1 or 5.3.1-I")
    p.add_argument("--set", default="", metavar="NAME=VALUE[,...]")
    _add_common(p)

    p = sub.add_parser("reconstruct",
                       help="Lie algebra rebuilt from flat or torus data")
    p.add_argument("--example", choices=("1", "2", "t2"), required=True)
    _add_common(p)

    p = sub.add_parser("iso",
                       help="stabilizer of a form inside the 21-dim kernel")
    p.add_argument("--form", required=True, metavar="FORM",
                   help='form string, e.g. "e_135 - e_245"')
    _add_common(p)

    p = sub.add_parser("regen-golden",
                       help="recompute golden data into a directory")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="target directory (never the packaged data)")
    _add_common(p)
    return parser


def dispatch(argv: list[str]) -> CommandResult:
    """Parse argv, run the command, render the result; never exits."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code)
    try:
        ok, payload, diff, seed = _HANDLERS[ns.cmd](ns)
    except UsageError as exc:
        return CommandResult(2, diagnostics=f"spin7: {exc}")
    envelope = {"command": ns.cmd, "seed": seed, "ok": ok, "payload": payload}
    if diff:
        envelope["diff"] = diff
    if ns.format == "json":
        _validate(envelope)
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    else:
        text = _markdown(ns.cmd, envelope)
    diag = "" if ok else (
        f"spin7 {ns.cmd}: {len(diff)} failed check(s)")
    return CommandResult(0 if ok else 1, text, diag)


def main(argv: list[str] | None = None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else list(argv))
    if result.payload:
        sys.stdout.write(result.payload)
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
