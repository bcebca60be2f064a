"""The outcome record shared by every check: verification suites, ODI, analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one verification check.

    ``worst`` is the largest residual or ratio seen across the cases.
    ``skipped`` marks checks that were not applicable to the inputs at
    all.  The verdict is derived, never stored: see ``passed``.
    """

    check_id: str
    n_cases: int
    worst: float
    tolerance: float
    notes: list = field(default_factory=list)
    skipped: bool = False

    @property
    def passed(self) -> bool:
        """Skipped, or ``worst`` within the tolerance (so a NaN or +inf ``worst`` fails)."""
        return bool(self.skipped or self.worst <= self.tolerance)

    def to_dict(self) -> dict:
        worst = float(self.worst)
        return {
            "check_id": self.check_id,
            "n_cases": int(self.n_cases),
            "worst": worst if math.isfinite(worst) else None,
            "tolerance": float(self.tolerance),
            "passed": self.passed,
            "skipped": bool(self.skipped),
            "notes": [str(note) for note in self.notes],
        }
