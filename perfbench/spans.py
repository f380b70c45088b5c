"""Per-layer spans around the public functions of the spin7 modules.

`Tracer.install()` replaces each listed function with a wrapper that
counts calls and accumulates self time (span time minus the time of the
traced spans opened inside it).  A function imported with
`from .x import f` is bound separately in every importing module, so the
wrapper is rebound in every `spin7` module namespace that holds the
original; methods are replaced on their class.  Span totals stay in
memory and are returned by `Tracer.stats()` when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# layer metric prefix, module, attribute path, aliases on the same class
# (`__radd__ = __add__` and the like), and the statistics reported:
# `calls` and `self_s` come from every span, any other from `_extra`
TARGETS = [
    ("scalars.mul", "spin7.scalars", "Scalar.__mul__", ("__rmul__",),
     ("calls", "self_s", "rational_share")),
    ("scalars.add", "spin7.scalars", "Scalar.__add__", ("__radd__",), ("calls", "self_s")),
    ("scalars.inverse", "spin7.scalars", "Scalar.inverse", (), ("calls", "self_s")),
    ("scalars.sign", "spin7.scalars", "Scalar.sign", (), ("calls",)),
    ("exterior.wedge", "spin7.exterior", "wedge", (), ("calls", "self_s")),
    ("exterior.hodge", "spin7.exterior", "hodge", (), ("calls", "self_s")),
    ("exterior.contract", "spin7.exterior", "contract", (), ("calls", "self_s")),
    ("exterior.scale", "spin7.exterior", "MultiVector.__mul__", ("__rmul__",),
     ("calls", "self_s")),
    ("exterior.add", "spin7.exterior", "MultiVector.__add__", (), ("calls", "self_s")),
    ("clifford.act", "spin7.clifford", "act", (), ("calls", "self_s", "monomials")),
    ("clifford.gamma_apply", "spin7.clifford", "gamma_apply", (), ("calls", "self_s")),
    ("linalg.add_row", "spin7.linalg", "Echelon.add_row", (),
     ("calls", "self_s", "dependent_share")),
    ("linalg.nullspace", "spin7.linalg", "nullspace", (), ("calls", "self_s")),
    ("linalg.solve", "spin7.linalg", "solve", (), ("calls", "self_s", "inconsistent_share")),
    ("liealg.invariant_spinors", "spin7.liealg", "invariant_spinors", (),
     ("calls", "self_s", "repeat_share")),
    ("liealg.algebra", "spin7.liealg", "algebra", (), ("calls", "repeat_share")),
    ("liealg.invariant_forms", "spin7.liealg", "invariant_forms", (), ("calls", "self_s")),
    ("liealg.act_on_form", "spin7.liealg", "act_on_form", (), ("calls", "self_s")),
    ("liealg.in_span", "spin7.liealg", "in_span", (), ("calls", "self_s")),
    ("liealg.in_stabilizer", "spin7.liealg", "in_stabilizer", (), ("calls", "self_s")),
    ("structure.sigma_report", "spin7.structure", "sigma_report", (), ("calls", "self_s")),
    ("structure.project_8_48", "spin7.structure", "project_8_48", (), ("calls", "self_s")),
    ("structure.ricci_solver", "spin7.structure", "ricci_solver", (),
     ("calls", "self_s", "inconsistent_share")),
    ("curvature.build_rc", "spin7.curvature", "build_rc", (), ("calls", "self_s")),
    ("curvature.entry", "spin7.curvature", "CurvatureTensor.entry", (), ("calls", "self_s")),
    ("curvature.apply", "spin7.curvature", "CurvatureTensor.apply", (), ("calls", "self_s")),
    ("curvature.cyclic_residue", "spin7.curvature", "cyclic_residue", (),
     ("calls", "self_s")),
    ("curvature.bianchi_space", "spin7.curvature", "bianchi_space", (), ("calls", "self_s")),
    ("curvature.invariant_ricci_family", "spin7.curvature", "invariant_ricci_family", (),
     ("calls", "self_s")),
    ("classify.run_recipe", "spin7.classify", "run_recipe", (), ("calls", "self_s")),
    ("classify.eliminations", "spin7.classify", "two_weight_vanishing_locus", (),
     ("self_s",)),
    ("classify.eliminations", "spin7.classify", "flat_operator_locus", (), ("self_s",)),
    ("classify.reconstruct_lie_algebra", "spin7.classify", "reconstruct_lie_algebra", (),
     ("calls", "self_s")),
    ("cli.dispatch", "spin7.cli", "dispatch", (), ("calls", "self_s")),
    ("cli.validate", "spin7.cli", "_validate", (), ("self_s",)),
]
REPORTED = {name: stats for name, _, _, _, stats in TARGETS}


def _rational(x) -> bool:
    """Whether a multiplication operand is rational (ints and Fractions are)."""
    b = getattr(x, "b", None)
    return b is None or not (b or x.c or x.d)


def _algebra_key(args, kwargs):
    name = args[0] if args else kwargs.get("name")
    rest = [str(a) for a in args[1:]] + [f"{k}={v}" for k, v in sorted(kwargs.items())]
    return (name, *rest)


# extra statistic -> function(args, kwargs, result, seen) returning the
# (numerator, denominator) increment
def _extra(stats):
    kind = stats[-1]
    if kind == "rational_share":
        return lambda a, k, r, seen: (_rational(a[0]) and _rational(a[1]), 1)
    if kind == "monomials":
        return lambda a, k, r, seen: (len(a[0].terms), 0)
    if kind in ("dependent_share", "inconsistent_share"):
        return lambda a, k, r, seen: (r is None, 1)
    if kind == "repeat_share":
        def repeat(a, k, r, seen):
            key = _algebra_key(a, k) if a and isinstance(a[0], str) else tuple(a[0])
            hit = key in seen
            seen.add(key)
            return hit, 1
        return repeat
    return None


class Tracer:
    """Call counts, self time and extra statistics per traced layer."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.num: dict[str, float] = {}
        self.den: dict[str, float] = {}
        self._stack: list[float] = []

    def _wrap(self, name: str, fn, extra):
        calls, self_s, num, den, stack = (self.calls, self.self_s, self.num,
                                          self.den, self._stack)
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        seen: set = set()

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self_s[name] += dt - child
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if extra is not None:
                n, d = extra(args, kwargs, result, seen)
                num[name] = num.get(name, 0) + n
                den[name] = den.get(name, 0) + d
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; imports the modules that hold them."""
        for name, modname, path, aliases, stats in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            extra = _extra(stats)
            if owner_name:
                owner = getattr(module, owner_name)
                wrapper = self._wrap(name, owner.__dict__[attr], extra)
                for a in (attr, *aliases):
                    setattr(owner, a, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, extra)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "spin7":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def stats(self) -> dict:
        """Raw totals; `merge` adds them up across processes."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "num": dict(self.num), "den": dict(self.den)}


def merge(parts: list[dict]) -> dict:
    total = {"calls": {}, "self_s": {}, "num": {}, "den": {}}
    for part in parts:
        for field, values in part.items():
            for name, v in values.items():
                total[field][name] = total[field].get(name, 0) + v
    return total


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics with units from merged raw totals."""
    out: dict[str, tuple[float, str]] = {}
    for name, stats in REPORTED.items():
        for stat in stats:
            if stat == "calls":
                out[f"{name}.calls"] = (raw["calls"].get(name, 0), "count")
            elif stat == "self_s":
                out[f"{name}.self_s"] = (raw["self_s"].get(name, 0.0), "s")
            elif stat == "monomials":
                out[f"{name}.monomials"] = (raw["num"].get(name, 0), "count")
            else:
                den = raw["den"].get(name, 0)
                share = raw["num"].get(name, 0) / den if den else 0.0
                out[f"{name}.{stat}"] = (share, "ratio")
    return out
