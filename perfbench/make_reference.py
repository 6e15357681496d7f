"""Regenerate reference.json: the sha256 of stdout for every op a run can make.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the checkout root.  The table records the outputs of the commit it
was made on; the benchmark counts any op whose stdout digest differs as
failed.  Regenerate it only for a change that is meant to alter CLI output,
and say so in that change.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from lieforge import cli

import workloads

HERE = Path(__file__).resolve().parent


def digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{workloads.op_key(argv)} exited {rc}; no reference recorded")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> int:
    table = {}
    for toy in (True, False):
        table["toy" if toy else "full"] = {
            workloads.op_key(argv): digest(argv) for argv in workloads.all_ops(toy)
        }
    (HERE / "reference.json").write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
