"""Verification reports shared by all window checks.

Every lemma-level check in this package sweeps a finite enumeration window
and produces a VerificationReport: how many obligations were checked, whether
all of them held, and the first counterexample in canonical order if not.
A check runs inside its report (`with VerificationReport(...) as report:`),
which stamps the wall-clock millis on exit. Reports are plain data and
serialize to JSON deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any


class BudgetExceeded(Exception):
    """An enumeration window or guard is larger than the configured budget."""


def check_window(what: str, first: int, ratio: int, depth: int, budget: int) -> None:
    """Raise BudgetExceeded if the window named by what holds more than budget
    tuples: the empty one, then depth layers of lengths 1..depth, the first
    holding first tuples and each next one ratio times as many. Counts layer
    by layer and stops once past budget, so no window is too large to refuse
    at once, and nothing needs building before the check."""
    if ratio < 2:
        total = 1 + first * max(depth, 0)
    else:
        total, width = 1, first
        for _ in range(depth):
            total += width
            if total > budget:
                break
            width *= ratio
    if total > budget:
        raise BudgetExceeded(f"window of {what} exceeds budget {budget}")


@dataclass
class VerificationReport:
    lemma: str
    params: dict[str, Any] = field(default_factory=dict)
    checked: int = 0
    passed: bool = True
    counterexample: Any = None
    millis: float = 0.0

    def __enter__(self) -> VerificationReport:
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.millis = (time.perf_counter() - self._t0) * 1000.0

    def fail(self, counterexample: Any) -> VerificationReport:
        """Record the first counterexample; later ones are ignored."""
        if self.passed:
            self.passed = False
            self.counterexample = counterexample
        return self

    def count(self, layer: str) -> None:
        """One more obligation of the named layer, a key of params["layers"]."""
        self.checked += 1
        self.params["layers"][layer] += 1

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
