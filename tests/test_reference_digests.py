"""Replay ops of the benchmark's reference table through the CLI.

perfbench/reference.json records the stdout sha256 of every op the
benchmark can run.  Its toy ops, and at full size the lie-lattice ops, the
heavy and light query-mix ops and the johnson-series ops, are small enough
for the unit suite, so each one must still print byte-identical output.
The file is only read.
"""

import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import shlex
from pathlib import Path

import pytest

import lieforge
from lieforge.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
TABLES = json.loads(REFERENCE.read_text())
TOY, FULL = TABLES["toy"], TABLES["full"]


def _digest(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(op))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("op", sorted(TOY))
def test_toy_reference_digest(op):
    assert _digest(op) == (0, TOY[op])


# the heavy query-mix ops of the full table: centers, key theorem, the inner
# degree samples, the central braid and the quotient action at n = 4 and 5
HEAVY_PREFIXES = ("center ", "verify inner ", "verify key-theorem ",
                  "verify center-pn ", "verify quotient ")
HEAVY = {op: d for op, d in FULL.items() if op.startswith(HEAVY_PREFIXES)}
# the light query-mix ops (degree and expand, of a word or an automorphism)
# and the johnson-series ops: the Magnus expansion and read-off paths
LIGHT_AND_JOHNSON = {op: d for op, d in FULL.items()
                     if op.startswith(("degree ", "expand ", "verify johnson "))}


def _clear_lieforge_caches():
    for info in pkgutil.iter_modules(lieforge.__path__):
        mod = importlib.import_module(f"lieforge.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                obj.cache_clear()


def test_heavy_ops_are_selected():
    assert len(HEAVY) == 23


@pytest.mark.parametrize("op", sorted(HEAVY))
def test_full_heavy_reference_digest_cold_then_warm(op):
    # cold from empty caches, then warm: a cached result that went stale or
    # was mutated by the first run shows as a digest mismatch in the second
    _clear_lieforge_caches()
    for _ in ("cold", "warm"):
        assert _digest(op) == (0, HEAVY[op])


# the lie-lattice ops: ranks of the braid Lie ring and of the braid-like
# derivations at their full benchmark size
LIE_LATTICE = {op: d for op, d in FULL.items() if op.startswith("ranks ")}


def test_lie_lattice_ops_are_selected():
    assert sorted(LIE_LATTICE) == [
        "ranks --object der-t-boundary --n 5 --max-degree 6",
        "ranks --object dk --n 5 --max-degree 5",
    ]


@pytest.mark.parametrize("op", sorted(LIE_LATTICE))
def test_full_lie_lattice_reference_digest_cold(op):
    _clear_lieforge_caches()
    assert _digest(op) == (0, LIE_LATTICE[op])


def test_light_and_johnson_ops_are_selected():
    assert len(LIGHT_AND_JOHNSON) == 1202


def test_full_light_and_johnson_reference_digests():
    # one loop, not one test per op: 1,202 ops in about 2 s, and a
    # mismatch names the first op that printed something else
    for op in sorted(LIGHT_AND_JOHNSON):
        assert _digest(op) == (0, LIGHT_AND_JOHNSON[op]), op
