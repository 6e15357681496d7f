"""lieforge benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload lie-lattice --seed 1 --seconds 20 --trace 0

Run from the root of a lieforge checkout; the package is imported from
``src`` there.  Workloads (see workloads.py and BENCHMARK.json):

* ``lie-lattice``: ``ranks`` of the braid Lie ring dk(5, <=5) and of the
  braid-like derivations (5, <=6); integer-lattice elimination dominates.
* ``johnson-series``: ``verify johnson`` for Pn and FnPn at n=4, degree 4;
  composition of truncated Magnus series dominates.
* ``query-mix``: a seeded stream of mostly light ``degree``/``expand``
  queries with a heavy tail of centers and verification suites.

Each run is one fresh child process (child.py) that drives
``lieforge.cli.main`` in a closed loop with one caller.  Before it, the
parent makes one untimed warm-up run at toy size (which also compiles the
bytecode) and starts ``SETUP_PROBES`` children that only import
``lieforge.cli``; ``setup_s`` is the median of their set-up times and the
run child's own.  The child environment has no ``LIEFORGE_JOBS`` and no op
passes ``--jobs``, so the default single-threaded path is measured.

End-to-end metrics: ``wall_s`` is the median pass time, a pass being the
fixed op list of lie-lattice or johnson-series or one block of query-mix;
``queries_per_s`` is ops over summed op time; ``query_p50_ms`` and
``query_p99_ms`` are taken over op latencies (on the two fixed workloads a
pass has only two ops, so they read the middle and the slowest op);
``peak_rss_mb`` is the run child's peak resident memory.  An op fails on a
nonzero exit, an exception, a stdout digest other than reference.json's, or
a false ``match``/``pass`` field; ``failed``/``attempted`` is the error rate
(it is not a metric, because it is 0 when all is well).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans go to ``perfbench/out/``.  ``--toy`` shrinks every workload to about
n=3, degree 3, for the benchmark's own tests.  Lines before the last one
describe the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0
# end-to-end metrics and their units
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "queries_per_s": "1/s",
         "query_p50_ms": "ms", "query_p99_ms": "ms"}


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LIEFORGE_JOBS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def spawn(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py with args; return its JSON result and the spawn time."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("time budget exhausted before starting a child")
    try:
        # run() kills and reaps the child on timeout or any other exception
        proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                  toy: bool) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = child_env(root)
    toy_flag = ["--toy"] if toy else []
    # untimed warm-up: compiles bytecode and touches every module once
    spawn(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--toy"],
          env, deadline)
    setups = []
    for _ in range(SETUP_PROBES):
        res, started = spawn(["--probe"], env, deadline)
        setups.append(res["setup_done"] - started)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), *toy_flag]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        args += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.tsv")]
    res, started = spawn(args, env, deadline)
    setups.append(res["setup_done"] - started)
    res["setup_samples_s"] = setups
    res["setup_s"] = statistics.median(setups)
    return res


def result_line(res: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["metrics"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": unit} for k, unit in UNITS.items()}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_density")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes, for the benchmark's tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lieforge" / "cli.py").is_file():
        print(f"error: no lieforge sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_info(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "toy": args.toy}))
    try:
        res = run_benchmark(root, args.workload, args.seed, args.seconds,
                            bool(args.trace), args.toy)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    error_rate = res["failed"] / res["attempted"]
    print(json.dumps({
        "error_rate": error_rate,
        "failures": res["failures"],
        "pass_s": res.get("pass_s"),
        "op_s": res["op_s"],
        "setup_samples_s": res["setup_samples_s"],
    }))
    print(json.dumps(result_line(res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
