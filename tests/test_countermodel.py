"""Countermodel certificates against commutation and Church-Rosser on
products of sequence spaces, cross-checked by the bounded evaluator.

The two stabilization-rank valuations are implementer-supplied content, so
every claim about them runs through two independent checkers: the layered
certificate and the blind bounded recursion. Controls document what rejection
looks like.
"""

import itertools
import json

import pytest

from nbhdprod.countermodel import (Bounds, check_chr_certificate,
                                   check_com_certificate, const_true_valuation,
                                   eval_bounded, st_chr_valuation,
                                   st_com_valuation)
from nbhdprod.formula import parse
from nbhdprod.kripke import FrameKind, SymbolicTreeFrame
from nbhdprod.omega import ProductPoint, pseudo, zero_seq

COM = parse("[1][2] p -> [2][1] p")
CHR = parse("~[1]~[2] p -> [2]~[1]~p")

FRAMES = {kind: SymbolicTreeFrame(kind, 1) for kind in FrameKind}
PAIRS = list(itertools.product(FrameKind, FrameKind))
ANCHOR = ProductPoint(zero_seq(1), zero_seq(1))


def test_bounds_validation():
    assert Bounds().to_dict() == {"m": 8, "k": 8, "d": 4}
    with pytest.raises(ValueError):
        Bounds(m_max=0)
    with pytest.raises(ValueError):
        Bounds(d_enum=-1)


def test_com_certificates_accepted_all_pairs():
    for k1, k2 in PAIRS:
        cert = check_com_certificate(FRAMES[k1], FRAMES[k2])
        assert cert.accepted, (k1, k2, cert.failure)
        assert [layer["name"] for layer in cert.layers] == \
            ["antecedent", "consequent"]
        assert all(layer["ok"] for layer in cert.layers)


def test_chr_certificates_accepted_all_pairs():
    for k1, k2 in PAIRS:
        cert = check_chr_certificate(FRAMES[k1], FRAMES[k2])
        assert cert.accepted, (k1, k2, cert.failure)
        assert all(layer["ok"] for layer in cert.layers)


def test_certificates_stable_at_larger_bounds():
    wide = Bounds(m_max=10, k_max=10, d_enum=5)
    for k1, k2 in PAIRS:
        assert check_com_certificate(FRAMES[k1], FRAMES[k2], wide).accepted
        assert check_chr_certificate(FRAMES[k1], FRAMES[k2], wide).accepted


def test_const_true_control_rejected():
    """Com is valid under a constant valuation, so the consequent layer must
    refuse to certify falsity."""
    for k1, k2 in PAIRS:
        cert = check_com_certificate(FRAMES[k1], FRAMES[k2],
                                     valuation=const_true_valuation(ANCHOR))
        assert not cert.accepted
        assert cert.failure["layer"] == "consequent"
        assert cert.failure["reason"] == "p not falsified"
        assert cert.valuation == "const_true"


def test_st_com_on_chr_control_rejected_at_reflexive_pair():
    """Without the puncture the anchor itself witnesses <1>p at (alpha0,
    beta'), so the Church-Rosser consequent cannot be falsified on a
    reflexive first kind."""
    rt = FRAMES[FrameKind.RT]
    cert = check_chr_certificate(rt, rt, valuation=st_com_valuation(ANCHOR))
    assert not cert.accepted
    assert cert.failure["layer"] == "consequent"
    assert cert.failure["reason"] == "p not falsified"
    assert cert.failure["witness"]["first"] == []


def test_certificate_json_shape():
    cert = check_com_certificate(FRAMES[FrameKind.IN], FRAMES[FrameKind.RT])
    data = json.loads(json.dumps(cert.to_dict()))
    assert data["axiom"] == "com"
    assert data["kinds"] == ["in", "rt"]
    assert data["branchings"] == [1, 1]
    assert data["anchor"] == {"first": [], "second": []}
    assert data["valuation"] == "st_com"
    assert data["bounds"] == {"m": 8, "k": 8, "d": 4}
    assert data["accepted"] is True
    assert isinstance(data["layers"], list) and len(data["layers"]) == 2
    assert "failure" not in data

    rejected = check_com_certificate(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                                     valuation=const_true_valuation(ANCHOR))
    assert "failure" in rejected.to_dict()


# --- bounded evaluator ---------------------------------------------------------------

def test_eval_box_under_const_true():
    result = eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                          parse("[1] p"), ANCHOR, const_true_valuation(ANCHOR))
    assert result.value is True
    assert result.label == "true@bounds"
    assert bool(result)


def test_eval_requires_parsed_formula():
    with pytest.raises(TypeError, match="not a formula"):
        eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                     "[1] p", ANCHOR, const_true_valuation(ANCHOR))


def test_eval_box_bottom_false_on_all_kinds():
    """Every kind is serial: each box over bottom meets a real member."""
    for k1, k2 in PAIRS:
        val = st_com_valuation(ANCHOR)
        for phi in (parse("[1] false"), parse("[2] false")):
            result = eval_bounded(FRAMES[k1], FRAMES[k2], phi, ANCHOR, val)
            assert result.value is False, (k1, k2, phi)
            assert result.label == "false@bounds"


def test_eval_com_instance_pin():
    result = eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN], COM,
                          ANCHOR, st_com_valuation(ANCHOR))
    assert result.label == "false@bounds"


def test_evaluator_agrees_with_certificates():
    """false@bounds iff the certificate is accepted, per kind pair and axiom."""
    for k1, k2 in PAIRS:
        f1, f2 = FRAMES[k1], FRAMES[k2]
        com_cert = check_com_certificate(f1, f2)
        com_eval = eval_bounded(f1, f2, COM, ANCHOR, st_com_valuation(ANCHOR))
        assert com_cert.accepted == (not com_eval.value), (k1, k2)
        chr_cert = check_chr_certificate(f1, f2)
        chr_eval = eval_bounded(f1, f2, CHR, ANCHOR, st_chr_valuation(ANCHOR))
        assert chr_cert.accepted == (not chr_eval.value), (k1, k2)


def test_evaluator_agrees_with_rejected_controls():
    in_, rt = FRAMES[FrameKind.IN], FRAMES[FrameKind.RT]
    for f1, f2 in ((in_, in_), (rt, rt)):
        cert = check_com_certificate(f1, f2,
                                     valuation=const_true_valuation(ANCHOR))
        result = eval_bounded(f1, f2, COM, ANCHOR, const_true_valuation(ANCHOR))
        assert not cert.accepted and result.value is True
    cert = check_chr_certificate(rt, rt, valuation=st_com_valuation(ANCHOR))
    result = eval_bounded(rt, rt, CHR, ANCHOR, st_com_valuation(ANCHOR))
    assert not cert.accepted and result.value is True


def test_eval_rejects_other_atoms():
    val = st_com_valuation(ANCHOR)
    with pytest.raises(ValueError):
        eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                     parse("q"), ANCHOR, val)
    with pytest.raises(ValueError):
        eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                     parse("[1] (p -> q)"), ANCHOR, val)


# --- valuations -----------------------------------------------------------------------

def test_valuations_depend_only_on_canonical_form():
    val = st_com_valuation(ANCHOR)
    a = ProductPoint(pseudo((0, 1, 0, 0), 1), pseudo((1,), 1))
    b = ProductPoint(pseudo((0, 1), 1), pseudo((1, 0), 1))
    assert a == b
    assert val.contains(a) == val.contains(b)


def test_valuation_pins():
    com_val = st_com_valuation(ANCHOR)
    chr_val = st_chr_valuation(ANCHOR)
    deep_first = ProductPoint(pseudo((0, 0, 1), 1), pseudo((1,), 1))
    assert not com_val.contains(deep_first)
    assert com_val.contains(ProductPoint(pseudo((0, 0, 1), 1), zero_seq(1)))
    assert com_val.contains(ProductPoint(pseudo((1,), 1), pseudo((0, 1), 1)))
    assert not chr_val.contains(ProductPoint(zero_seq(1), pseudo((1,), 1)))
    assert chr_val.contains(ProductPoint(pseudo((1,), 1), pseudo((0, 1), 1)))
