"""Pass/fail reports produced by the verification suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# the default of `--tolerance` and of the suites that take a tolerance
DEFAULT_TOLERANCE = 1e-9


@dataclass
class Check:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    elapsed: float = 0.0


@dataclass
class VerificationReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(
        self,
        name: str,
        max_deviation: float,
        tolerance: float,
        elapsed: float = 0.0,
    ) -> Check:
        """Record one check; a NaN deviation is an error that names the check."""
        if math.isnan(max_deviation):
            raise ValueError(f"{self.suite}.{name}: deviation is NaN")
        check = Check(
            name=name,
            passed=max_deviation <= tolerance,
            max_deviation=float(max_deviation),
            tolerance=float(tolerance),
            elapsed=elapsed,
        )
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport") -> None:
        for check in other.checks:
            self.checks.append(
                Check(
                    name=f"{other.suite}.{check.name}",
                    passed=check.passed,
                    max_deviation=check.max_deviation,
                    tolerance=check.tolerance,
                    elapsed=check.elapsed,
                )
            )

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: deviation {c.max_deviation:.3e}"
                f" (tol {c.tolerance:.1e}, {c.elapsed * 1000:.1f} ms)"
            )
        lines.append(f"suite {self.suite}: {'pass' if self.overall else 'FAIL'}")
        return lines
