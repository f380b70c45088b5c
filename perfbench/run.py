"""Benchmark of the spin7 toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Workloads (each one client in a closed loop, no threads):

  spinor-identities  one long-lived child process; each operation is a seeded
                     3-form through the sigma/scalar-curvature identities
                     plus ten 2-forms through both stabilizer tests
  classification     one fresh interpreter per pass: the exact
                     eliminations, the 61 admissibility decisions in table
                     order, and six seeded curvature-case operations
  cli-queries        one `python -m spin7.cli` subprocess per query: each
                     query command once as JSON and once as markdown, and
                     one malformed query of each kind, per block; the
                     malformed ones count toward `error_rate` only

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs a share of the operations untraced, the same operations again with
spans around the public functions of every layer, and reports per-layer
calls, self time and input properties.  Every operation is checked
exactly, and its output digest is compared with the reference run at the
same seed stored in perfbench/reference/ (written by --record-reference);
an operation without a reference fails.  A malformed CLI query must exit
2 with a one-line message; one of a known defect kind
(ops.KNOWN_DEFECT_KINDS) that the CLI refuses with another exit code is a
contract violation, counted in `error_rate` but not as a failed
operation.  Times are reported at a nominal host speed (see
NOMINAL_CALIB_S).  The last line of standard output is the JSON result; a
result file with run metadata and the per-operation times as measured
goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"
sys.path[:0] = [str(SRC), str(HERE)]

import ops  # noqa: E402
import spans  # noqa: E402

# what a user of each workload imports before the first operation
SETUP_MODULES = {
    "spinor-identities": ("spin7.structure", "spin7.liealg"),
    "classification": ("spin7.classify", "spin7.curvature"),
    "cli-queries": ("spin7.cli",),
}
SETUP_REPEATS = 5
WARMUP_OPS = 3           # spinor-identities operations left out of timing
# nominal seconds of one whole unit (a pass, a block of queries); a run
# holds round(--seconds / UNIT_S) units, at least one
UNIT_S = {"classification": 28.0, "cli-queries": 15.0}
# Times are reported at a nominal host speed: the calibration loop
# (ops.calibrate) runs in this process, which never imports the program,
# after every operation while the measured process waits, and each time is
# scaled by NOMINAL_CALIB_S over the median of the calibration times of the
# operations within SPEED_WINDOW places of it.
NOMINAL_CALIB_S = 0.006
SPEED_WINDOW = 3
UNTRACED_SHARE = 0.3     # share of a traced run spent on the untraced pass
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The harness itself could not run (not an operation failure)."""


@dataclass
class Op:
    kind: str
    key: str
    lat: float
    calib: float           # calibration time measured right after the operation
    status: str            # "ok", "failed", or "violation" (CLI contract)
    detail: str
    digest: str
    timed: bool = True     # counts toward the query times
    referenced: bool = True


@dataclass
class Outcome:
    ops: list[Op] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, cwd=ROOT, env=_child_env(),
                          timeout=CHILD_TIMEOUT_S)


def _drive(cmd: list[str], keep_going) -> list[Op]:
    """Run a lock-step child (see child.py): after each operation it
    reports, this process times the calibration loop while the child
    waits, then tells it to go on while `keep_going(ops_so_far)` holds."""
    done: list[Op] = []
    stderr_file = OUT / "child-stderr.txt"
    with open(stderr_file, "wb") as err, subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            cwd=ROOT, env=_child_env()) as proc:
        try:
            while True:
                if not select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                    raise BenchError(f"no answer from {cmd[2]} child in "
                                     f"{CHILD_TIMEOUT_S} s")
                line = proc.stdout.readline()
                if not line:
                    break
                r = json.loads(line)
                done.append(Op(r["kind"], r["key"], r["lat"], ops.calibrate(),
                               "ok" if r["ok"] else "failed", r["detail"],
                               r["digest"]))
                try:
                    proc.stdin.write(b"next\n" if keep_going(done) else b"stop\n")
                    proc.stdin.flush()
                except BrokenPipeError:
                    break  # the child died; its exit code tells
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{cmd[2]} child exited {proc.returncode}: "
                         f"{stderr_file.read_text(errors='replace')[-2000:]}")
    return done


# ---------------------------------------------------------------------------
# workloads.  spinor-identities runs operations for `budget` seconds of
# operation time; classification and cli-queries run whole units (a pass,
# a block of queries), round(budget / UNIT_S) of them, so every run has
# the same mix of operations whatever the host's speed.  `max_ops` cuts
# any workload short.

def run_spinor(seed: int, budget: float, max_ops: int | None = None,
               trace_dir: Path | None = None) -> Outcome:
    cmd = [sys.executable, str(HERE / "child.py"), "spinor", "--seed", str(seed)]
    trace_file = trace_dir / "spinor.json" if trace_dir else None
    if trace_file:
        cmd += ["--trace-out", str(trace_file)]

    def keep_going(done: list[Op]) -> bool:
        spent = sum(op.lat for op in done[WARMUP_OPS:])
        return (max_ops is None or len(done) < max_ops) and spent < budget

    out = Outcome(_drive(cmd, keep_going))
    for op in out.ops[:WARMUP_OPS]:
        op.timed = False
    if trace_file:
        out.trace.append(json.loads(trace_file.read_text()))
    return out


def _run_units(workload: str, budget: float, max_ops: int | None, out: Outcome,
               run_unit) -> None:
    for unit in range(max(1, round(budget / UNIT_S[workload]))):
        if max_ops is not None and len(out.ops) >= max_ops:
            break
        run_unit(unit, None if max_ops is None else max_ops - len(out.ops))


def run_classification(seed: int, budget: float, max_ops: int | None = None,
                       trace_dir: Path | None = None) -> Outcome:
    out = Outcome()

    def one_pass(pass_no: int, limit: int | None) -> None:
        cmd = [sys.executable, str(HERE / "child.py"), "pass", "--seed", str(seed),
               "--pass", str(pass_no)]
        if limit is not None:
            cmd += ["--max-ops", str(limit)]
        trace_file = trace_dir / f"pass-{pass_no}.json" if trace_dir else None
        if trace_file:
            cmd += ["--trace-out", str(trace_file)]
        out.ops.extend(_drive(cmd, lambda done: True))
        if trace_file:
            out.trace.append(json.loads(trace_file.read_text()))

    _run_units("classification", budget, max_ops, out, one_pass)
    return out


def run_cli(seed: int, budget: float, max_ops: int | None = None,
            trace_dir: Path | None = None) -> Outcome:
    out = Outcome()

    def one_block(block: int, limit: int | None) -> None:
        first = block * len(ops.BLOCK)
        count = len(ops.BLOCK) if limit is None else min(limit, len(ops.BLOCK))
        for index in range(first, first + count):
            kind, argv = ops.cli_query(seed, index)
            if trace_dir:
                trace_file = trace_dir / f"query-{index}.json"
                cmd = [sys.executable, str(HERE / "child.py"), "cli",
                       "--trace-out", str(trace_file), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "spin7.cli", *argv]
            t0 = perf_counter()
            proc = _run_child(cmd)
            lat = perf_counter() - t0
            calib = ops.calibrate()
            try:
                status, detail = ops.check_cli(kind, argv, proc.returncode,
                                               proc.stdout, proc.stderr)
            except (ValueError, KeyError, TypeError) as exc:
                status, detail = "failed", f"{kind}: unreadable output ({exc})"
            valid = kind not in ops.MALFORMED
            out.ops.append(Op(kind, ops.op_key("cli", argv), lat, calib, status, detail,
                              ops.digest(f"{proc.returncode}\n".encode() + proc.stdout),
                              timed=valid, referenced=valid))
            if trace_dir:
                out.trace.append(json.loads(trace_file.read_text()))

    _run_units("cli-queries", budget, max_ops, out, one_block)
    return out


RUNNERS = {"spinor-identities": run_spinor, "classification": run_classification,
           "cli-queries": run_cli}


def run_workload(workload: str, seed: int, budget: float, max_ops: int | None = None,
                 trace_dir: Path | None = None) -> Outcome:
    OUT.mkdir(exist_ok=True)
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
    return RUNNERS[workload](seed, budget, max_ops, trace_dir)


# ---------------------------------------------------------------------------
# set-up, memory, references, metadata

def measure_setup(workload: str,
                  repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported the
    modules the workload calls, i.e. until a first operation could start,
    and the calibration time measured after each start."""
    code = (f"import {', '.join(SETUP_MODULES[workload])}\n"
            "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()")
    samples, calibs = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              cwd=ROOT, env=_child_env()) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"importing {SETUP_MODULES[workload]} failed")
        calibs.append(ops.calibrate())
    return samples, calibs


def import_times(workload: str, repeats: int = 3) -> dict[str, float]:
    """Import cost of sympy, jsonschema and the spin7 module bodies, from
    `python -X importtime`; medians over fresh interpreters."""
    code = f"import {', '.join(SETUP_MODULES[workload])}"
    samples: dict[str, list[float]] = {"sympy": [], "jsonschema": [], "spin7": []}
    for _ in range(repeats):
        proc = _run_child([sys.executable, "-X", "importtime", "-c", code])
        seen = {"sympy": 0.0, "jsonschema": 0.0, "spin7": 0.0}
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if not self_us.strip().isdigit():
                continue  # the header line
            if name in ("sympy", "jsonschema"):
                seen[name] = max(seen[name], int(cumulative_us) / 1e6)
            elif name.split(".")[0] == "spin7":
                seen["spin7"] += int(self_us) / 1e6
        for name, value in seen.items():
            samples[name].append(value)
    return {f"setup.{name}_import_s": statistics.median(v) for name, v in samples.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def _reference_path(workload: str) -> Path:
    return REFERENCE / f"{workload}.json"


def load_reference(workload: str) -> dict[str, str]:
    path = _reference_path(workload)
    return json.loads(path.read_text()) if path.exists() else {}


def apply_reference(ops_done: list[Op], reference: dict[str, str]) -> None:
    """Fail every operation whose digest differs from the reference run or
    that has no reference.  Malformed CLI queries have none: their whole
    output, exit 2 and no stdout, is checked by ops.check_cli."""
    for op in ops_done:
        if not op.referenced or op.status != "ok":
            continue
        want = reference.get(ops.digest(op.key))
        if want is None:
            op.status = "failed"
            op.detail = f"no reference output for {op.key[:80]}"
        elif want != op.digest:
            op.status = "failed"
            op.detail = f"output differs from the reference run: {op.key[:80]}"


def record_reference(workload: str, seed: int) -> list[Op]:
    """Run every operation the reference covers at `seed` (see
    ops.REFERENCE_SEEDS) and merge the digests of the passing ones into the
    stored reference.  An existing digest is never replaced: to accept a
    deliberate change of output, delete the workload's file and record
    seeds 0 to ops.REFERENCE_SEEDS - 1 again."""
    if workload == "spinor-identities":
        done = run_spinor(seed, float("inf"), max_ops=ops.SPINOR_INPUTS).ops
    else:
        units = (ops.CLASSIFICATION_PASSES if workload == "classification"
                 else ops.CLI_BLOCKS)
        done = run_workload(workload, seed, units * UNIT_S[workload]).ops
    reference = load_reference(workload)
    for op in done:
        if not op.referenced or op.status != "ok":
            continue
        if reference.setdefault(ops.digest(op.key), op.digest) != op.digest:
            raise BenchError(f"digest of {op.key[:80]} differs from the reference")
    REFERENCE.mkdir(exist_ok=True)
    _reference_path(workload).write_text(
        json.dumps(dict(sorted(reference.items())), indent=0) + "\n")
    return done


def run_metadata() -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, cwd=ROOT, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    files = sorted((SRC / "spin7").glob("*.py"))
    lines = {f.name: len(f.read_text().splitlines()) for f in files}
    return {
        "commit": commit,
        "source_sha256": ops.digest(b"".join(f.read_bytes() for f in files)),
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "jsonschema": metadata.version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": {**lines, "total": sum(lines.values())},
    }


# ---------------------------------------------------------------------------
# metrics

def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def scaled(ops_done: list[Op]) -> list[float]:
    """Operation times at the nominal host speed (see NOMINAL_CALIB_S)."""
    calibs = [op.calib for op in ops_done]
    return [op.lat * NOMINAL_CALIB_S
            / statistics.median(calibs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
            for i, op in enumerate(ops_done)]


def end_to_end(ops_done: list[Op], setup: list[float],
               setup_calibs: list[float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics at nominal host speed."""
    lat = [t for t, op in zip(scaled(ops_done), ops_done) if op.timed]
    good = sum(op.status == "ok" for op in ops_done if op.timed)
    speed = NOMINAL_CALIB_S / statistics.median(setup_calibs)
    return {
        "throughput_ops_s": (good / sum(lat), "ops/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90(lat), "s"),
        "setup_s": (statistics.median(setup) * speed, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_run(workload: str, seed: int, seconds: float,
               ops_done: list[Op]) -> dict[str, tuple[float, str]]:
    """Untraced pass, then the same operations traced; per-layer metrics."""
    untraced = run_workload(workload, seed, seconds * UNTRACED_SHARE)
    trace_dir = OUT / f"trace-{workload}-{seed}"
    for stale in trace_dir.glob("*.json") if trace_dir.exists() else ():
        stale.unlink()
    traced = run_workload(workload, seed, seconds * (1 - UNTRACED_SHARE),
                          max_ops=len(untraced.ops), trace_dir=trace_dir)
    ops_done += untraced.ops + traced.ops
    pairs = [(u, t) for u, t, op in zip(scaled(untraced.ops), scaled(traced.ops),
                                        untraced.ops) if op.timed]
    ratio = sum(t for _, t in pairs) / sum(u for u, _ in pairs)
    metrics = {name: (value, "s") for name, value in import_times(workload).items()}
    metrics.update(spans.layer_metrics(spans.merge(traced.trace)))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=RUNNERS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run every operation the reference covers at "
                             "this seed and store its digests (--seconds "
                             "and --trace are ignored)")
    ns = parser.parse_args(argv)
    if not (SRC / "spin7" / "__init__.py").is_file():
        print(f"perfbench: no spin7 sources under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        meta = run_metadata()
        ops_done: list[Op] = []
        if ns.record_reference:
            ops_done, metrics = record_reference(ns.workload, ns.seed), {}
        elif ns.trace:
            metrics = traced_run(ns.workload, ns.seed, ns.seconds, ops_done)
        else:
            setup, setup_calibs = measure_setup(ns.workload)
            ops_done = run_workload(ns.workload, ns.seed, ns.seconds).ops
            metrics = end_to_end(ops_done, setup, setup_calibs)
        apply_reference(ops_done, load_reference(ns.workload))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = len(ops_done)
    failed = sum(op.status == "failed" for op in ops_done)
    violations = sum(op.status == "violation" for op in ops_done)
    timed = sum(op.timed for op in ops_done)
    summary = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
        "trace": ns.trace, "attempted": attempted, "failed": failed,
        "contract_violations": violations,
        "error_rate": (failed + violations) / attempted if attempted else 0.0,
        "timed_ops": timed, "p90_tail_ops": timed - int(0.9 * timed),
    }
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json").write_text(json.dumps(
        {"metadata": meta, "summary": summary, "result": result,
         "ops": [asdict(op) for op in ops_done]}, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in summary.items():
        print(f"{name}: {value}")
    for op in ops_done:
        if op.status != "ok":
            print(f"{op.status}: {op.detail}")
    print(f"metadata: {json.dumps(meta, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
