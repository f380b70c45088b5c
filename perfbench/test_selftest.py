"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench

Each workload runs a handful of operations twice at one seed: the clean
workloads must have no failed operation, cli-queries must show exactly
the known CLI defect, and the output digests of the two runs must match.
"""

from __future__ import annotations

import json

import ops
import run
import spans

SEED = 3


def _error_rate(out: run.Outcome, workload: str) -> float:
    run.apply_reference(out.ops, run.load_reference(workload))
    bad = sum(op.status != "ok" for op in out.ops)
    return bad / len(out.ops)


def _twice(workload: str, max_ops: int) -> tuple[run.Outcome, run.Outcome]:
    first = run.run_workload(workload, SEED, 120, max_ops=max_ops)
    second = run.run_workload(workload, SEED, 120, max_ops=max_ops)
    assert len(first.ops) == len(second.ops) == max_ops
    assert [op.digest for op in first.ops] == [op.digest for op in second.ops]
    return first, second


def test_spinor_identities_is_clean_and_repeatable():
    for out in _twice("spinor-identities", 4):
        assert _error_rate(out, "spinor-identities") == 0


def test_classification_is_clean_and_repeatable():
    # three eliminations, ten decisions and one curvature-case operation
    for out in _twice("classification", 14):
        assert _error_rate(out, "classification") == 0
        assert [op.kind for op in out.ops].count("curvature") == 1


def test_cli_queries_show_exactly_the_known_defect():
    for out in _twice("cli-queries", len(ops.BLOCK)):
        kinds = sorted(op.kind for op in out.ops)
        assert kinds == sorted(ops.BLOCK)
        expected = sum(k in ops.KNOWN_DEFECT_KINDS for k in kinds) / len(kinds)
        assert _error_rate(out, "cli-queries") == expected
        assert not [op for op in out.ops if op.status == "failed"]


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {"setup.sympy_import_s", "setup.jsonschema_import_s",
                 "setup.spin7_import_s", "trace.overhead_ratio",
                 *spans.layer_metrics(spans.merge([]))}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_ops_s", "latency_p50_s", "latency_p90_s", "setup_s",
        "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.RUNNERS)

