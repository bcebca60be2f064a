"""The outcome record shared by every check: verification suites, ODI, analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one verification check.

    ``worst`` is the largest residual or ratio seen across the cases;
    ``passed`` holds iff it is within the tolerance.  ``skipped`` marks
    checks that were not applicable to the inputs at all.
    """

    check_id: str
    n_cases: int
    worst: float
    tolerance: float
    passed: bool
    notes: list = field(default_factory=list)
    skipped: bool = False

    def to_dict(self) -> dict:
        worst = float(self.worst)
        return {
            "check_id": self.check_id,
            "n_cases": int(self.n_cases),
            "worst": worst if math.isfinite(worst) else None,
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "skipped": bool(self.skipped),
            "notes": [str(note) for note in self.notes],
        }
