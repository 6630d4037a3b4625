"""Output checks: named pass/fail results and reference comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative tolerance for floating-point fields against the reference.
REL_TOL = 1e-12
#: Record fields compared within REL_TOL; every other field must match exactly.
FLOAT_FIELDS = frozenset(
    {"max_rho", "trace", "eigenvalues", "theta_row", "theta_col", "theta_max", "theta_mass"}
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"check {status} {self.name}" + (f": {self.detail}" if self.detail else "")


def bound(name: str, value: float, limit: float) -> Check:
    """Pass when ``value <= limit``."""
    return Check(name, bool(value <= limit), f"{value:.3e} <= {limit:.3e}")


def _float_mismatch(got, want) -> bool:
    a = np.asarray(got, dtype=float)
    b = np.asarray(want, dtype=float)
    if a.shape != b.shape:
        return True
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return bool(np.max(np.abs(a - b), initial=0.0) > REL_TOL * scale)


def compare(name: str, got: dict, want: dict) -> Check:
    """Compare two records field by field: FLOAT_FIELDS within REL_TOL of the
    largest reference magnitude, everything else exactly."""
    bad = []
    for key, expected in want.items():
        if key not in got:
            bad.append(f"{key} (missing)")
        elif key in FLOAT_FIELDS:
            if _float_mismatch(got[key], expected):
                bad.append(key)
        elif got[key] != expected:
            bad.append(key)
    return Check(name, not bad, "mismatch in " + ", ".join(bad) if bad else "")
