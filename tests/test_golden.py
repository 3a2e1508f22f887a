"""Checked-in CLI reports: each command of golden/cases.json, run in-process, must write the same bytes.

`cases.json` maps a case name to its argv and exit code.  In the argv, `{fixtures}`
stands for the packaged fixtures directory and `{out}` for the directory the
outputs go to; a case's outputs are the files `golden/<name>.*`.  Each command runs
in the fixtures directory, so a report that echoes a relative path in its argv holds
no path of the checkout.  To regenerate every file after a reviewed change of
output, run from the root of the checkout

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path

import pytest

from hypoel.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(name: str, out: Path) -> int:
    """Run one case with its outputs written to `out`; its exit code."""
    fixtures = str(resources.files("hypoel") / "fixtures")
    argv = [a.replace("{fixtures}", fixtures).replace("{out}", str(out)) for a in CASES[name]["argv"]]
    cwd = os.getcwd()
    os.chdir(fixtures)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_writes_its_checked_in_outputs(name, tmp_path):
    assert run_case(name, tmp_path) == CASES[name]["exit_code"]
    want = {p.name: p.read_bytes() for p in GOLDEN.glob(f"{name}.*")}
    assert want, f"no checked-in output for {name}"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == want


if __name__ == "__main__":
    for name in sorted(CASES):
        code = run_case(name, GOLDEN)
        if code != CASES[name]["exit_code"]:
            sys.exit(f"{name}: exit code {code}, the manifest says {CASES[name]['exit_code']}")
        print(name, *sorted(p.name for p in GOLDEN.glob(f"{name}.*")))
