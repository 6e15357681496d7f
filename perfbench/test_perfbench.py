"""Tests of the benchmark itself, at toy size.

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lieforge import dk, freelie  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_query_stream_is_deterministic_per_seed():
    first = list(islice(workloads.query_stream(7, toy=True), 600))
    again = list(islice(workloads.query_stream(7, toy=True), 600))
    other = list(islice(workloads.query_stream(8, toy=True), 600))
    assert first == again
    assert first != other


def test_query_stream_blocks_have_the_fixed_mix():
    kind_of = {workloads.op_key(argv): kind
               for kind, group in workloads.query_pool(toy=True).items() for argv in group}
    stream = workloads.query_stream(3, toy=True)
    for _ in range(3):
        block = [kind_of[workloads.op_key(a)] for a in islice(stream, workloads.BLOCK)]
        assert Counter(block) == Counter(workloads.MIX)


def test_reference_covers_every_op():
    table = json.loads(child.REFERENCE.read_text())
    for toy in (True, False):
        keys = {workloads.op_key(argv) for argv in workloads.all_ops(toy)}
        assert keys == set(table["toy" if toy else "full"])


def test_corrupted_reference_digest_counts_as_failure():
    reference = child.load_reference(toy=True)
    ops = workloads.FIXED["lie-lattice"][True]
    res = child.run_untraced(child.Run("lie-lattice", dict(reference)), 1, 0, toy=True)
    assert res["failed"] == 0 and res["attempted"] == len(ops)

    corrupted = dict(reference)
    key = workloads.op_key(ops[0])
    corrupted[key] = "0" * 64
    res = child.run_untraced(child.Run("lie-lattice", corrupted), 1, 0, toy=True)
    assert res["attempted"] == len(ops)  # the run goes on after a failed op
    assert res["failed"] == 1
    assert res["failed"] / res["attempted"] > 0
    assert res["failures"] == [f"{key}: stdout digest differs from reference"]


def test_semantic_check_catches_false_match():
    out = json.dumps({"rows": [{"degree": 1, "match": True}, {"degree": 2, "match": False}]})
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert child.failure_reason(0, out, "k", {"k": digest}) == "a match or pass field is false"
    assert child.failure_reason(1, out, "k", {"k": digest}) == "exit 1"


def test_self_times_on_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 2.0, 3.0, 1, 1),
        ("a", 5.0, 9.0, 0, 1),
        ("b", 6.0, 6.5, 3, 1),
        ("root", 20.0, 21.0, -1, 2),
    ]
    agg = tracing.self_times(spans)
    assert agg["root"] == [2, (10.0 - 3.0 - 4.0) + 1.0]
    assert agg["a"] == [2, (3.0 - 1.0) + (4.0 - 0.5)]
    assert agg["b"] == [2, 1.0 + 0.5]


def test_tracer_spans_parents_and_clock():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    inner_w = t.wrap("m.inner", inner)

    def outer():
        return inner_w() + inner_w()

    outer_w = t.wrap("m.outer", outer)
    assert outer_w() == 2
    # start/end ticks: outer 0..5, inner 1..2 and 3..4
    assert t.spans[0] == ("m.outer", 0.0, 5.0, -1, 0)
    assert t.spans[1] == ("m.inner", 1.0, 2.0, 0, 0)
    assert t.spans[2] == ("m.inner", 3.0, 4.0, 0, 0)
    assert tracing.self_times(t.spans) == {"m.outer": [1, 3.0], "m.inner": [2, 2.0]}


def test_install_rebinds_imported_aliases_and_uninstall_restores():
    original = freelie.lie_bracket
    assert dk.lie_bracket is original
    t = tracing.Tracer()
    t.install(child.MODULES, child.zlattice.LatticeBuilder)
    try:
        assert freelie.lie_bracket is not original
        assert dk.lie_bracket is freelie.lie_bracket
        t.originals["dk.dk_component"].cache_clear()
        dk.dk_component(3, 2)
        names = [s[0] for s in t.spans]
        parents = {t.spans[s[3]][0] for s in t.spans if s[0] == "derivations.der_bracket"}
    finally:
        t.uninstall()
    assert freelie.lie_bracket is original and dk.lie_bracket is original
    assert names.count("dk.dk_component") == 2  # degree 2 calls degree 1
    assert parents == {"dk.dk_component"}
    # three generator pairs at degree 1, then 3 pairs x 3 kept generators
    assert t.dk_scanned == 3 + 3 * 3
    assert t.dk_kept == len(dk.dk_component(3, 1).spanning) + len(dk.dk_component(3, 2).spanning)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_toy_runs_report_every_metric():
    names = {0: {m["name"] for m in BENCHMARK["end_to_end"]},
             1: {m["name"] for m in BENCHMARK["per_layer"]}}
    for w in BENCHMARK["workloads"]:
        for trace in (0, 1):
            proc = _run(["--workload", w["name"], "--seed", "5", "--seconds", "0.5",
                         "--trace", str(trace), "--toy"], ROOT)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
            assert set(last["metrics"]) == names[trace]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(["--workload", "query-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
