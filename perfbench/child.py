"""Child processes of the benchmark: the processes being measured.

    python3 perfbench/child.py spinor --seed N [--trace-out FILE]
runs spinor-identities operations in this long-lived interpreter;

    python3 perfbench/child.py pass --seed N --pass P [--max-ops N]
        [--trace-out FILE]
runs one classification pass in this fresh interpreter.  Both print one
JSON line per operation and then wait for a line on standard input:
`next` runs the next operation, anything else (or the end of the input)
ends the run.  The harness times its speed calibration in that pause, in
its own process.

    python3 perfbench/child.py cli --trace-out FILE -- ARGV...
installs the tracing wrappers, then runs `spin7.cli.main(ARGV)` exactly
as `python -m spin7.cli ARGV...` would, and writes the span totals.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import ops  # noqa: E402
from spans import Tracer  # noqa: E402


def guarded(fn, *args) -> tuple[bool, str, str]:
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:  # the run must go on and report the failure
        detail = f"{type(exc).__name__}: {exc}"
        return False, detail, f"exception {detail}"


def serve(operations, trace_out: str | None) -> None:
    """Run `(kind, key, thunk)` operations one at a time, in lock step with
    the harness."""
    tracer = Tracer() if trace_out else None
    if tracer:
        tracer.install()
    for kind, key, thunk in operations:
        t0 = perf_counter()
        ok, detail, output = guarded(thunk)
        lat = perf_counter() - t0
        print(json.dumps({"kind": kind, "key": key, "lat": lat, "ok": ok,
                          "detail": detail, "digest": ops.digest(output)}),
              flush=True)
        if sys.stdin.readline().strip() != "next":
            break
    if tracer:
        Path(trace_out).write_text(json.dumps(tracer.stats()))


def spinor_ops(seed: int):
    import spin7.liealg  # noqa: F401  (setup: the modules the workload calls)
    import spin7.structure  # noqa: F401
    for index in itertools.count():
        data = ops.spinor_input(seed, index)
        prepared = ops.spinor_prepare(data)
        yield "spinor", ops.op_key("spinor", data), lambda: ops.spinor_run(prepared)


def pass_ops(seed: int, pass_no: int, max_ops: int | None):
    import spin7.classify  # noqa: F401  (setup: the modules the pass calls)
    import spin7.curvature  # noqa: F401
    runner = ops.ClassificationPass()
    plan = ops.classification_plan(seed, pass_no)
    for kind, data in plan[:max_ops]:
        prepared = runner.prepare(kind, data)
        yield kind, ops.op_key(kind, data), lambda: runner.run(kind, prepared)


def run_cli(ns) -> int:
    import spin7.cli
    tracer = Tracer()
    tracer.install()
    try:
        return spin7.cli.main(ns.argv)
    finally:
        Path(ns.trace_out).write_text(json.dumps(tracer.stats()))


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spinor")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--trace-out")
    p = sub.add_parser("pass")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_no", type=int, required=True)
    p.add_argument("--max-ops", type=int)
    p.add_argument("--trace-out")
    c = sub.add_parser("cli")
    c.add_argument("--trace-out", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    import spin7
    if Path(spin7.__file__).resolve().parent != SRC.resolve() / "spin7":
        print(f"child.py: spin7 imported from {spin7.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if ns.mode == "spinor":
        serve(spinor_ops(ns.seed), ns.trace_out)
        return 0
    if ns.mode == "pass":
        serve(pass_ops(ns.seed, ns.pass_no, ns.max_ops), ns.trace_out)
        return 0
    if ns.argv[:1] == ["--"]:
        ns.argv = ns.argv[1:]
    return run_cli(ns)


if __name__ == "__main__":
    raise SystemExit(main())
