"""Replay ops of the benchmark's reference table through the CLI.

perfbench/reference.json records the stdout sha256 of every op the
benchmark can run.  Its toy ops, and the heavy query-mix ops at full size,
are small enough for the unit suite, so each one must still print
byte-identical output.  The file is only read.
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
TOY = json.loads(REFERENCE.read_text())["toy"]


@pytest.mark.parametrize("op", sorted(TOY))
def test_toy_reference_digest(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(op))
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == TOY[op]


# the heavy query-mix ops of the full table: centers, key theorem, the inner
# degree samples, the central braid and the quotient action at n = 4 and 5
HEAVY_PREFIXES = ("center ", "verify inner ", "verify key-theorem ",
                  "verify center-pn ", "verify quotient ")
HEAVY = {op: d for op, d in json.loads(REFERENCE.read_text())["full"].items()
         if op.startswith(HEAVY_PREFIXES)}


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
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(shlex.split(op))
        assert code == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == HEAVY[op]
