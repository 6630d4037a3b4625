"""Reference outputs: small CLI runs whose files and checks must not change.

Each case runs the CLI in process and reduces its files to a record: every
PGM as a SHA-256 digest, every CSV column except ``wall_time`` as a list of
values, and the ``key = value`` lines of ``rho.meta.txt`` and of the CSV
comments as values.  A ``verify`` run writes no files; its record is its
stdout, each check's name mapped to ``[status, defect, tolerance]`` and the
closing line as it is.  A record matches its reference by perfbench's rule
(``perfbench/checks.compare``): floats within 1e-12 of the largest reference
magnitude of their field, everything else exactly.  A check's field is its
triple, so a defect far below its tolerance must match almost exactly.

A change that alters an output on purpose re-records the references with
``PYTHONPATH=src python tests/test_reference_outputs.py`` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from maskrec import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12
CASES = {
    "simulate-complex": ["simulate", "--n", "32", "--trials", "6"],
    "simulate-real-K5": [
        "simulate", "--n", "32", "--trials", "6", "--noise-kind", "real", "--K", "5",
    ],
    "simulate-real-K5-n17": [
        "simulate", "--n", "17", "--trials", "6", "--noise-kind", "real", "--K", "5",
    ],
    "simulate-sigma-least": ["simulate", "--n", "32", "--trials", "4", "--sigma", "1e-100"],
    "simulate-sigma-greatest-real": [
        "simulate", "--n", "32", "--trials", "4", "--sigma", "1e100", "--noise-kind", "real",
        "--K", "4",
    ],
    "simulate-t2": ["simulate", "--n", "32", "--trials", "6", "--model-window", "gaussian_t2"],
    "sweep-K": ["sweep", "--n", "32", "--axis", "K", "--values", "1,2,4,8", "--trials", "4"],
    "sweep-K-real": [
        "sweep", "--n", "32", "--axis", "K", "--values", "4,5,8", "--trials", "4",
        "--noise-kind", "real",
    ],
    "sweep-measure": [
        "sweep", "--n", "32", "--axis", "measure", "--values", "4,8,16", "--trials", "4",
    ],
    "sweep-measure-real": [
        "sweep", "--n", "32", "--axis", "measure", "--values", "4,8,16", "--trials", "4",
        "--noise-kind", "real",
    ],
    "spectrum": ["spectrum", "--n", "32"],
    # a disc of measure 1 has m_half = 0, so no eigenvalue is a plateau candidate
    "spectrum-disc-measure-1": ["spectrum", "--n", "16", "--shape", "disc:measure=1"],
    "verify": ["verify", "--sizes", "8,16"],
}


def _value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def reduce_outputs(out_dir: Path) -> dict:
    record = {}
    for path in sorted(out_dir.iterdir()):
        name, data = path.name, path.read_bytes()
        if path.suffix == ".pgm":
            record[name] = hashlib.sha256(data).hexdigest()
            continue
        lines = data.decode().splitlines()
        if path.suffix == ".csv":
            columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
            record[f"{name}:columns"] = columns
            for column, cells in zip(columns, zip(*rows)):
                if column != "wall_time":
                    record[f"{name}:{column}"] = [_value(cell) for cell in cells]
            lines = [line for line in lines if line.startswith("#")]
        for line in lines:
            key, _, value = line.partition(" = ")
            record[f"{name}:{key}"] = _value(value)
    return record


def reduce_checks(stdout: str) -> dict:
    """``stdout:<check name>`` -> ``[status, defect, tolerance]`` of each
    ``verify`` line, and ``stdout:summary`` -> the closing line."""
    *lines, summary = stdout.splitlines()
    record = {"stdout:summary": summary}
    for line in lines:
        status, _, rest = line.partition(" ")
        name, _, values = rest.rpartition(": ")
        defect, tolerance = (_value(v.partition("=")[2]) for v in values.split())
        record[f"stdout:{name}"] = [status, defect, tolerance]
    return record


def run_case(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        if argv[0] == "verify":
            assert cli.main(argv) == 0
            return reduce_checks(stdout.getvalue())
        out = Path(tmp) / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 0
        return reduce_outputs(out)


def _field_matches(actual, expected) -> bool:
    got, want = ([v] if not isinstance(v, list) else v for v in (actual, expected))
    if len(got) != len(want):
        return False
    if not any(isinstance(v, float) for v in want):
        return got == want
    numbers = (int, float)
    scale = max((abs(v) for v in want if isinstance(v, numbers)), default=0.0)
    return all(
        abs(a - b) <= REL_TOL * scale
        if isinstance(a, numbers) and isinstance(b, numbers) else a == b
        for a, b in zip(got, want)
    )


def mismatches(got: dict, want: dict) -> list[str]:
    """The fields of ``got`` that do not match the reference ``want``."""
    bad = sorted(set(got) ^ set(want))
    bad += [key for key in sorted(set(got) & set(want)) if not _field_matches(got[key], want[key])]
    return sorted(bad)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_the_reference(case):
    want = json.loads((REFERENCE_DIR / f"{case}.json").read_text())
    assert want["argv"] == CASES[case]
    assert mismatches(run_case(CASES[case]), want["record"]) == []


def test_a_changed_field_is_a_mismatch():
    want = {"a.pgm": "00", "t.csv:seed": [1, 2], "t.csv:max_rho": [1.0, 4.0]}
    assert mismatches(dict(want), want) == []
    assert mismatches({**want, "t.csv:max_rho": [1.0, 4.0 + 3e-12]}, want) == []
    assert mismatches({**want, "t.csv:max_rho": [1.0, 4.0 + 5e-12]}, want) == ["t.csv:max_rho"]
    assert mismatches({**want, "t.csv:seed": [1, 3]}, want) == ["t.csv:seed"]
    assert mismatches({**want, "a.pgm": "01"}, want) == ["a.pgm"]
    got = {key: value for key, value in want.items() if key != "a.pgm"}
    assert mismatches({**got, "b.pgm": "00"}, want) == ["a.pgm", "b.pgm"]


def test_a_check_matches_by_its_status_and_by_its_floats():
    want = {"stdout:c": ["PASS", 2.0e-3, 1.0e-8], "stdout:summary": "1/1 checks passed"}
    assert mismatches({**want, "stdout:c": ["PASS", 2.0e-3 + 1e-15, 1.0e-8]}, want) == []
    assert mismatches({**want, "stdout:c": ["PASS", 2.0e-3 + 1e-14, 1.0e-8]}, want) == ["stdout:c"]
    assert mismatches({**want, "stdout:c": ["FAIL", 2.0e-3, 1.0e-8]}, want) == ["stdout:c"]
    assert mismatches({**want, "stdout:c": ["PASS", 2.0e-3]}, want) == ["stdout:c"]
    line = "FAIL locop.plateau[full-64]: defect=1.000e+00 tol=0.000e+00"
    assert reduce_checks(f"{line}\n0/1 checks passed\n") == {
        "stdout:locop.plateau[full-64]": ["FAIL", 1.0, 0.0],
        "stdout:summary": "0/1 checks passed",
    }


if __name__ == "__main__":
    REFERENCE_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        path = REFERENCE_DIR / f"{case}.json"
        path.write_text(json.dumps({"argv": argv, "record": run_case(argv)}, indent=1) + "\n")
        print(path)
