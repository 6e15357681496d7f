"""Workload definitions: which CLI invocations a run makes, and in what order.

Every op is an argv list for ``lieforge.cli.main``.  A run is a sequence of
passes; ``passes(workload, seed, toy)`` yields them without end and the
caller stops when its time is up.

* ``lie-lattice`` and ``johnson-series`` repeat one fixed pass, each from
  empty lieforge caches as a fresh CLI process would start.  The CLI takes
  no seed for these commands (``verify johnson`` ignores ``--seed``), so the
  workload seed has no input to vary.
* ``query-mix`` is a seeded stream with caches kept warm across it.  Queries
  are drawn from a fixed pool, so a stored reference digest exists for
  every query any seed can produce.  The stream is stratified: each block
  of ``BLOCK`` queries, which is also one pass, has the same composition
  (``MIX``) in a seeded order, so the share of heavy queries, and with it
  the tail latency, does not drift from seed to seed.
"""

from __future__ import annotations

import functools
import random
import shlex

WORKLOADS = ("lie-lattice", "johnson-series", "query-mix")

FIXED = {
    "lie-lattice": {
        False: [
            ["ranks", "--object", "dk", "--n", "5", "--max-degree", "5"],
            ["ranks", "--object", "der-t-boundary", "--n", "5", "--max-degree", "6"],
        ],
        True: [
            ["ranks", "--object", "dk", "--n", "3", "--max-degree", "3"],
            ["ranks", "--object", "der-t-boundary", "--n", "3", "--max-degree", "3"],
        ],
    },
    "johnson-series": {
        False: [
            ["verify", "johnson", "--family", "Pn", "--n", "4", "--max-degree", "4"],
            ["verify", "johnson", "--family", "FnPn", "--n", "4", "--max-degree", "4"],
        ],
        True: [
            ["verify", "johnson", "--family", "Pn", "--n", "3", "--max-degree", "3"],
            ["verify", "johnson", "--family", "FnPn", "--n", "3", "--max-degree", "3"],
        ],
    },
}

# Composition of one block.  Light kinds are most of the stream; the heavy
# tail is 6% of it.  The center queries are the slowest kinds and 2% of the
# stream, so the top 1% of latencies lies inside them and p99 reads within
# one group of similar queries, not at the boundary between two.
MIX = {
    "degree-word": 56,
    "expand-word": 56,
    "degree-auto": 38,
    "expand-auto": 38,
    "inner": 4,
    "center-dk": 1,
    "center-dk-star": 3,
    "key-theorem": 2,
    "center-pn": 1,
    "quotient": 1,
}
BLOCK = sum(MIX.values())

POOL_SEED = "lieforge-query-pool-v1"
LIGHT_POOL_SIZE = 300
TOY_LIGHT_POOL_SIZE = 40
INNER_SEEDS = 16


def op_key(argv: list[str]) -> str:
    """Reference-table key of one op."""
    return shlex.join(argv)


def _format_word(pairs) -> str:
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in pairs) or "1"


def _random_pairs(rng: random.Random, n: int, length: int):
    return [(rng.randint(1, n), rng.choice((1, -1, 1, -1, 2, -2))) for _ in range(length)]


def _inverse_pairs(pairs):
    return [(g, -e) for g, e in reversed(pairs)]


def _random_word(rng: random.Random, n: int) -> str:
    """A random word, or a commutator of two short ones (higher degree)."""
    if rng.random() < 0.5:
        return _format_word(_random_pairs(rng, n, rng.randint(1, 6)))
    u = _random_pairs(rng, n, rng.randint(1, 3))
    v = _random_pairs(rng, n, rng.randint(1, 3))
    return _format_word(u + v + _inverse_pairs(u) + _inverse_pairs(v))


def _power(sym: str, p: int) -> str:
    return sym if p == 1 else f"{sym}^{p}"


def _ia_atom(rng: random.Random, n: int) -> str:
    kind = rng.choice(("A", "A", "C", "xi", "inn"))
    if kind == "A":
        i = rng.randint(1, n - 1)
        return f"A({i},{rng.randint(i + 1, n)})"
    if kind == "C":
        return f"C({rng.randint(1, n - 1)})"
    if kind == "xi":
        return "xi"
    return f"inn({_format_word(_random_pairs(rng, n, rng.randint(1, 2)))})"


def _ia_expr(rng: random.Random, n: int) -> str:
    """Product or commutator of IA symbols A(i,j), C(j), xi, inn(w)."""
    if rng.random() < 0.5:
        a, b = _ia_atom(rng, n), _ia_atom(rng, n)
        return ".".join((a, b, _power(a, -1), _power(b, -1)))
    return ".".join(
        _power(_ia_atom(rng, n), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))
    )


def _braid_expr(rng: random.Random, n: int) -> str:
    """Product of any braid symbols s_i, A(i,j), C(j), xi."""
    syms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("s", "s", "A", "C", "xi"))
        if kind == "s":
            sym = f"s{rng.randint(1, n - 1)}"
        elif kind == "A":
            i = rng.randint(1, n - 1)
            sym = f"A({i},{rng.randint(i + 1, n)})"
        elif kind == "C":
            sym = f"C({rng.randint(1, n - 1)})"
        else:
            sym = "xi"
        syms.append(_power(sym, rng.choice((1, -1))))
    return ".".join(syms)


_WORD_DEGREE = {2: 6, 3: 5, 4: 4, 5: 4}


def _light_query(kind: str, rng: random.Random, toy: bool) -> list[str]:
    if kind in ("degree-word", "expand-word"):
        n = rng.randint(2, 3) if toy else rng.randint(2, 5)
        deg = 3 if toy else _WORD_DEGREE[n]
        cmd = kind.split("-")[0]
        return [cmd, "--n", str(n), "--max-degree", str(deg), "--word", _random_word(rng, n)]
    n = 3 if toy else rng.randint(3, 4)
    deg = 3 if toy else rng.randint(3, 4)
    if kind == "degree-auto":
        return ["degree", "--n", str(n), "--max-degree", str(deg), "--auto", _ia_expr(rng, n)]
    return ["expand", "--n", str(n), "--max-degree", str(deg), "--auto", _braid_expr(rng, n)]


def _heavy_pool(toy: bool) -> dict[str, list[list[str]]]:
    n, deg = ("3", "3") if toy else ("4", "4")
    inner = (["--n", "3", "--max-degree", "3", "--samples", "5"] if toy
             else ["--n", "3", "--max-degree", "5", "--samples", "20"])
    ns = ("3",) if toy else ("4", "5")
    return {
        "inner": [["verify", "inner", *inner, "--seed", str(s)]
                  for s in range(4 if toy else INNER_SEEDS)],
        "center-dk": [["center", "--object", "dk", "--n", n, "--max-degree", deg]],
        "center-dk-star": [["center", "--object", "dk-star", "--n", n, "--max-degree", deg]],
        "key-theorem": [["verify", "key-theorem", "--n", n, "--max-degree", deg]],
        "center-pn": [["verify", "center-pn", "--n", m] for m in ns],
        "quotient": [["verify", "quotient", "--n", m] for m in ns],
    }


@functools.cache
def query_pool(toy: bool = False) -> dict[str, list[list[str]]]:
    """Every query query-mix can issue, by kind; fixed, independent of the seed."""
    rng = random.Random(f"{POOL_SEED}:{'toy' if toy else 'full'}")
    size = TOY_LIGHT_POOL_SIZE if toy else LIGHT_POOL_SIZE
    pool = _heavy_pool(toy)
    for kind in ("degree-word", "expand-word", "degree-auto", "expand-auto"):
        seen: dict[str, list[str]] = {}
        while len(seen) < size:
            argv = _light_query(kind, rng, toy)
            seen.setdefault(op_key(argv), argv)
        pool[kind] = [seen[k] for k in sorted(seen)]
    return pool


def query_stream(seed: int, toy: bool = False):
    """Endless seeded query stream, one stratified block at a time."""
    pool = query_pool(toy)
    rng = random.Random(f"query-mix:{seed}")
    kinds = [k for k, c in MIX.items() for _ in range(c)]
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield rng.choice(pool[kind])


def passes(workload: str, seed: int, toy: bool = False):
    """Endless sequence of passes (lists of argv) for one run."""
    if workload in FIXED:
        ops = FIXED[workload][toy]
        while True:
            yield list(ops)
    elif workload == "query-mix":
        stream = query_stream(seed, toy)
        while True:
            yield [next(stream) for _ in range(BLOCK)]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def all_ops(toy: bool) -> list[list[str]]:
    """Every op any seed of any workload can run, for the reference table."""
    ops = [argv for w in FIXED for argv in FIXED[w][toy]]
    for group in query_pool(toy).values():
        ops.extend(group)
    return ops
