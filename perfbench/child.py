"""One benchmark run, inside one fresh process.

Imports ``lieforge.cli`` first, so that the time from process start to
``SETUP_DONE`` is the set-up cost, then drives ``cli.main(argv)`` in a
closed loop: one caller, and the next op starts only when the previous one
has returned.  Each op's stdout is captured and checked; a failed op is
counted and the run goes on.  The result is one JSON line on stdout.

    python3 perfbench/child.py --probe
    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1 [--toy]

``lieforge`` must be importable (run.py puts ``src`` on PYTHONPATH).
"""

import time

from lieforge import cli

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from lieforge import braids, derivations, dk, freelie, magnus, suites, words, zlattice  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MODULES = (zlattice, freelie, words, magnus, braids, derivations, dk, suites, cli)
LAYERS = tuple(m.__name__.rsplit(".", 1)[-1] for m in MODULES)

# query-mix runs at least this many queries, so that the 99th percentile has
# at least ten samples beyond it
MIN_QUERIES = 1000

# per-layer metrics: functions whose calls and self time are reported
TRACED_FUNCTIONS = (
    "zlattice.LatticeBuilder.add", "zlattice.LatticeBuilder.lattice",
    "zlattice.kernel_basis", "zlattice.lattice_intersect", "zlattice.relations_among",
    "zlattice.lattice_member",
    "freelie.lie_bracket", "freelie.tensor_to_lyndon", "freelie.lie_coords",
    "derivations.der_bracket", "derivations.apply_derivation", "derivations.der_vector",
    "derivations.braidlike_lattice",
    "dk.dk_component", "dk.dk_center",
    "magnus.series_endo_compose", "magnus.series_mul", "magnus.magnus_expand",
    "magnus.series_a_degree", "magnus.series_johnson_image",
    "words.word_mul", "words.endo_compose", "braids.evaluate",
    "cli.main",
)
CACHED_LAYERS = ("freelie", "derivations", "dk", "magnus", "suites")


def lru_caches():
    """Every lru_cache in lieforge, as (layer, cached function)."""
    return [
        (layer, obj)
        for layer, mod in zip(LAYERS, MODULES)
        for obj in vars(mod).values()
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__
    ]


def failure_reason(rc, out: str, key: str, reference: dict) -> str | None:
    """Why an op failed, or None when it passed every check."""
    if rc != 0:
        return f"exit {rc}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if reference.get(key) != digest:
        return "stdout digest differs from reference"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    return "a match or pass field is false" if _has_false_check(doc) else None


def _has_false_check(doc) -> bool:
    if isinstance(doc, dict):
        if doc.get("match") is False or doc.get("pass") is False:
            return True
        return any(_has_false_check(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_has_false_check(v) for v in doc)
    return False


class Run:
    """Closed-loop caller of ``cli.main`` with per-op checks."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.op_times: dict[str, list[float]] = {}
        self.caches = lru_caches()

    def clear_caches(self):
        for _, fn in self.caches:
            fn.cache_clear()
        gc.collect()

    def op(self, argv: list[str]) -> float:
        key = workloads.op_key(argv)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            rc = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        dt = time.perf_counter() - t0
        self.attempted += 1
        reason = failure_reason(rc, buf.getvalue(), key, self.reference)
        if reason:
            self.failures.append(f"{key}: {reason}")
        self.latencies.append(dt)
        self.op_times.setdefault(key, []).append(dt)
        return dt

    def run_pass(self, ops, cold: bool, tracer=None) -> float:
        """Run one pass; return the summed op time (checks excluded).

        A cold pass starts from empty lieforge caches, as a fresh CLI process
        would; otherwise caches stay warm from the previous pass.
        """
        if cold:
            self.clear_caches()
        else:
            gc.collect()
        total = 0.0
        for argv in ops:
            if tracer is not None:
                tracer.run_id += 1
            total += self.op(argv)
        return total

    def summary(self) -> dict:
        lat_ms = sorted(1000.0 * t for t in self.latencies)
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:10],
            "query_p50_ms": statistics.median(lat_ms),
            "query_p99_ms": _p99(lat_ms),
            "op_s": {k: v for k, v in self.op_times.items() if self.workload in workloads.FIXED},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _p99(values: list[float]) -> float:
    """99th percentile, interpolated within the data (never beyond its maximum)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def run_untraced(run: Run, seed: int, seconds: float, toy: bool) -> dict:
    min_ops = MIN_QUERIES if run.workload == "query-mix" and not toy else 1
    pass_times = []
    start = time.perf_counter()
    for ops in workloads.passes(run.workload, seed, toy):
        pass_times.append(run.run_pass(ops, cold=run.workload in workloads.FIXED))
        if time.perf_counter() - start >= seconds and run.attempted >= min_ops:
            break
    out = run.summary()
    out["pass_s"] = pass_times
    out["wall_s"] = statistics.median(pass_times)
    out["queries_per_s"] = run.attempted / sum(pass_times)
    return out


def run_traced(run: Run, seed: int, seconds: float, toy: bool, spans_path=None) -> dict:
    """Pairs of (untraced, traced) runs of the first pass, until time is up.

    Both halves of a pair start from empty caches, so their difference is
    the tracing overhead; per-layer figures come from the last traced pass.
    """
    ops = next(workloads.passes(run.workload, seed, toy))
    tracer = tracing.Tracer()
    overheads, untraced, traced = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run.run_pass(ops, cold=True))
        tracer.reset_counters()
        tracer.install(MODULES, zlattice.LatticeBuilder)
        try:
            traced.append(run.run_pass(ops, cold=True, tracer=tracer))
            cache_entries = {layer: 0 for layer in CACHED_LAYERS}
            for layer, fn in run.caches:
                cache_entries[layer] += fn.cache_info().currsize
        finally:
            tracer.uninstall()
        overheads.append(traced[-1] - untraced[-1])
        if time.perf_counter() - start >= seconds:
            break
    if spans_path is not None:
        tracer.write(spans_path)
    metrics = layer_metrics(tracer, cache_entries)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_ratio"] = statistics.median(
        o / u for o, u in zip(overheads, untraced))
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.traced_pass_s"] = statistics.median(traced)
    out = run.summary()
    out["metrics"] = metrics
    return out


def layer_metrics(tracer: tracing.Tracer, cache_entries: dict) -> dict:
    agg = tracing.self_times(tracer.spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s) in agg.items():
        layer_self[name.split(".", 1)[0]] += self_s
    traced_total = sum(layer_self.values())
    m: dict[str, float] = {"trace.spans": len(tracer.spans)}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.self_share"] = layer_self[layer] / traced_total if traced_total else 0.0
    for name in TRACED_FUNCTIONS:
        calls, self_s = agg.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    m["zlattice.add.enlarged_ratio"] = tracer.adds_enlarged / tracer.adds if tracer.adds else 0.0
    m["zlattice.add.input_density"] = (
        tracer.add_nonzeros / tracer.add_length if tracer.add_length else 0.0)
    for i, name in enumerate(("max_ambient", "max_rank", "basis_nnz", "max_entry_bits")):
        m[f"zlattice.{name}"] = tracer.lattice_max[i]
    m["dk.candidates_scanned"] = tracer.dk_scanned
    m["dk.candidates_kept"] = tracer.dk_kept
    m["suites.johnson_scanned"] = tracer.johnson_scanned
    m["suites.johnson_kept"] = tracer.johnson_kept
    m["magnus.series_endo_compose.out_terms"] = tracer.compose_out_terms
    for layer in CACHED_LAYERS:
        m[f"{layer}.cache_entries"] = cache_entries[layer]
    return m


def load_reference(toy: bool) -> dict:
    return json.loads(REFERENCE.read_text())["toy" if toy else "full"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--probe", action="store_true", help="report set-up time only")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--spans", help="file to write the traced spans to")
    args = p.parse_args(argv)
    if args.probe:
        print(json.dumps({"setup_done": SETUP_DONE}))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    run = Run(args.workload, load_reference(args.toy))
    if args.trace:
        out = run_traced(run, args.seed, args.seconds, args.toy, args.spans)
    else:
        out = run_untraced(run, args.seed, args.seconds, args.toy)
    out["setup_done"] = SETUP_DONE
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
