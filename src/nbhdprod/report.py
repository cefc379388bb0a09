"""Verification reports shared by all window checks.

Every lemma-level check in this package sweeps a finite enumeration window
and produces a VerificationReport: how many obligations were checked, whether
all of them held, and the first counterexample in canonical order if not.
Reports are plain data and serialize to JSON deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any


class BudgetExceeded(Exception):
    """An enumeration window or guard is larger than the configured budget."""


@dataclass
class VerificationReport:
    lemma: str
    params: dict[str, Any] = field(default_factory=dict)
    checked: int = 0
    passed: bool = True
    counterexample: Any = None
    millis: float = 0.0

    def fail(self, counterexample: Any) -> None:
        """Record the first counterexample; later ones are ignored."""
        if self.passed:
            self.passed = False
            self.counterexample = counterexample

    def to_dict(self, include_millis: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "lemma": self.lemma,
            "params": self.params,
            "checked": self.checked,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }
        if include_millis:
            out["millis"] = self.millis
        return out


class Stopwatch:
    """Context manager stamping report.millis on exit."""

    def __init__(self, report: VerificationReport):
        self.report = report

    def __enter__(self) -> VerificationReport:
        self._t0 = time.perf_counter()
        return self.report

    def __exit__(self, *exc) -> None:
        self.report.millis = (time.perf_counter() - self._t0) * 1000.0
