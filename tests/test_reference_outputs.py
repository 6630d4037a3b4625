"""Reference outputs: small CLI runs whose files must not change.

Each case runs the CLI in process and reduces its files to a record: every
PGM as a SHA-256 digest, every CSV column except ``wall_time`` as a list of
values, and the ``key = value`` lines of ``rho.meta.txt`` and of the CSV
comments as values.  A record matches its reference by perfbench's rule
(``perfbench/checks.compare``): floats within 1e-12 of the largest reference
magnitude of their field, everything else exactly.

A change that alters an output on purpose re-records the references with
``PYTHONPATH=src python tests/test_reference_outputs.py`` and says why.
"""

from __future__ import annotations

import hashlib
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
    "sweep-K": ["sweep", "--n", "32", "--axis", "K", "--values", "1,2,4,8", "--trials", "4"],
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


def run_case(argv: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 0
        return reduce_outputs(out)


def mismatches(got: dict, want: dict) -> list[str]:
    """The fields of ``got`` that do not match the reference ``want``."""
    bad = sorted(set(got) ^ set(want))
    for key in sorted(set(got) & set(want)):
        actual, expected = got[key], want[key]
        values = expected if isinstance(expected, list) else [expected]
        if any(isinstance(v, float) for v in values):
            a, b = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
            scale = float(np.max(np.abs(b), initial=0.0))
            if a.shape != b.shape or np.max(np.abs(a - b), initial=0.0) > REL_TOL * scale:
                bad.append(key)
        elif actual != expected:
            bad.append(key)
    return bad


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


if __name__ == "__main__":
    REFERENCE_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        path = REFERENCE_DIR / f"{case}.json"
        path.write_text(json.dumps({"argv": argv, "record": run_case(argv)}, indent=1) + "\n")
        print(path)
