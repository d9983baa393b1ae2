"""Byte-for-byte comparison of ``--out`` JSON reports with stored copies.

Each case runs one CLI command on a small window and compares the report
it writes with ``tests/golden/<case>.json``.  The stored files fix the
answers of the exact pipeline, so a refactor that changes any table
entry, class representative, bracket, page or obstruction coordinate
fails here.  Regenerate a file only for an intended change of answers:
run the command with ``--out DIR`` and copy ``DIR/<command>.json``.
"""

from __future__ import annotations

import pathlib

import pytest

from operadlab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "audit": ["audit", "--d", "7"],
    "cobar": [
        "cobar", "--d", "7", "--variant", "fixing-subgroup", "--p-min", "-4",
        "--q-max", "24",
    ],
    "hochschild_sphere": [
        "hochschild", "--instance", "sphere:d=5", "--n-max", "6", "--q-max", "12",
    ],
    "hochschild_framed": [
        "hochschild", "--instance", "framed:d=5", "--n-max", "5", "--q-max", "12",
    ],
    "bracket": [
        "bracket", "--instance", "sphere:d=5", "--n-max", "4", "--q-max", "8",
        "--class-a=-2,4,0", "--class-b=-2,4,0",
    ],
    "e2": ["e2", "--d", "5", "--n-max", "5", "--q-max", "12"],
    "ss": ["ss", "--instance", "padded-witness:m=2"],
    "ss_framed": [
        "ss", "--instance", "framed:d=5", "--n-max", "4", "--q-max", "14",
    ],
    "ss_sphere": [
        "ss", "--instance", "sphere:d=5", "--n-max", "5", "--q-max", "12",
        "--r-max", "4",
    ],
    "obstruction": ["obstruction", "--instance", "padded-witness:m=3"],
    "obstruction_h1broken": ["obstruction", "--instance", "h1broken-witness:m=2"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_json_matches_golden(case, tmp_path, capsys):
    argv = CASES[case]
    assert main(["--out", str(tmp_path), *argv]) == 0
    capsys.readouterr()
    written = (tmp_path / f"{argv[0]}.json").read_bytes()
    assert written == (GOLDEN / f"{case}.json").read_bytes()
