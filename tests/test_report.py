"""Reports and certificates record their own coverage: a report times its
body and counts obligations per layer, a certificate opens layers in order
and a rejection closes the last one."""

import time

import pytest

from nbhdprod.countermodel import Bounds, Certificate
from nbhdprod.omega import ProductPoint, zero_seq
from nbhdprod.report import BudgetExceeded, VerificationReport, check_window


def test_report_stamps_millis_when_its_body_raises():
    report = VerificationReport(lemma="budget")
    with pytest.raises(BudgetExceeded):
        with report:
            time.sleep(0.002)
            raise BudgetExceeded("too big")
    assert report.millis >= 2.0


def test_report_entered_returns_itself_and_stamps_millis():
    with VerificationReport(lemma="ok") as report:
        time.sleep(0.002)
    assert isinstance(report, VerificationReport)
    assert report.millis >= 2.0
    assert "millis" not in report.to_dict(include_millis=False)


def test_fail_keeps_the_first_counterexample_and_returns_the_report():
    report = VerificationReport(lemma="x")
    assert report.fail({"first": 1}) is report
    assert report.fail({"second": 2}) is report
    assert not report.passed
    assert report.counterexample == {"first": 1}


def test_count_bumps_checked_and_the_named_layer():
    report = VerificationReport(
        lemma="x", params={"layers": {"forward": 0, "covering": 0}})
    report.count("forward")
    report.count("covering")
    report.count("covering")
    assert report.checked == 3
    assert report.params["layers"] == {"forward": 1, "covering": 2}


def test_count_in_bulk():
    report = VerificationReport(
        lemma="x", params={"layers": {"forward": 0, "covering": 0}})
    report.count("covering", 5)
    report.count("forward", 0)
    report.count("forward")
    assert report.checked == 6
    assert report.params["layers"] == {"forward": 1, "covering": 5}


def test_certificate_reject_fails_only_the_open_layer():
    anchor = ProductPoint(zero_seq(1), zero_seq(1))
    cert = Certificate("com", ("rt", "rt"), (1, 1), anchor, "st_com", Bounds())
    assert cert.accepted and cert.failure is None
    first = cert.layer("antecedent", outer_m=1)
    first["checked"] += 2
    second = cert.layer("consequent", witnesses=[])
    assert second == {"name": "consequent", "checked": 0, "ok": True,
                      "witnesses": []}
    assert cert.reject({"layer": "consequent", "m": 1}) is cert
    assert [layer["ok"] for layer in cert.layers] == [True, False]
    assert cert.layers[0] == {"name": "antecedent", "checked": 2, "ok": True,
                              "outer_m": 1}
    assert not cert.accepted
    assert cert.to_dict()["failure"] == {"layer": "consequent", "m": 1}


@pytest.mark.parametrize("first,ratio,depth,total", [
    (2, 2, 3, 15),      # words over 2 letters: 1 + 2 + 4 + 8
    (2, 3, 3, 27),      # sequences at branching 2: 3 ** 3
    (1, 1, 10, 11),     # words over one letter
    (0, 0, 10, 1),      # no letters: the empty word alone
    (2, 2, -1, 1),      # a negative depth holds the empty tuple
])
def test_check_window_counts_exactly_up_to_the_budget(first, ratio, depth, total):
    check_window("w", first, ratio, depth, total)
    with pytest.raises(BudgetExceeded, match="window of w exceeds budget"):
        check_window("w", first, ratio, depth, total - 1)


def test_check_window_refuses_huge_windows_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        check_window("w", 2, 2, 10 ** 12, 2_000_000)
    with pytest.raises(BudgetExceeded):
        check_window("w", 1, 1, 10 ** 12, 2_000_000)
    assert time.perf_counter() - start < 0.1
