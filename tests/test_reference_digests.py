"""Replay the toy ops of the benchmark's reference table through the CLI.

perfbench/reference.json records the stdout sha256 of every op the
benchmark can run; its toy ops are small enough for the unit suite, so
each one must still print byte-identical output.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

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
