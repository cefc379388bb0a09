"""Golden corpus: the exact stdout of fixed window and certificate commands
and the reports of the failing controls, diffed byte for byte against
tests/golden/.

The corpus pins every counter, layer count, witness log and first
counterexample of the window lemmas and the countermodel certificates, so
a faster implementation must reproduce them exactly.
Regenerate it only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import sys
from typing import Callable

import pytest

from nbhdprod.cli import main
from nbhdprod.countermodel import (Bounds, check_chr_certificate,
                                   check_com_certificate, const_true_valuation,
                                   st_com_valuation)
from nbhdprod.kripke import FrameKind, SymbolicTreeFrame, check_fractal
from nbhdprod.omega import (ProductPoint, check_chain, lex_window_compare,
                            pseudo, verify_g_morphism, zero_seq)

GOLDEN = pathlib.Path(__file__).parent / "golden"
KINDS = ("in", "rn", "it", "rt")


def _cli(*argv: str) -> Callable[[], str]:
    def run() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return f"exit {code}\n{out.getvalue()}"
    return run


def _report(call: Callable[[], object]) -> Callable[[], str]:
    def run() -> str:
        data = call().to_dict(include_millis=False)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return run


def _certificate(call: Callable[[], object]) -> Callable[[], str]:
    def run() -> str:
        return json.dumps(call().to_dict(), indent=2, sort_keys=True) + "\n"
    return run


def _frame(kind: str, branching: int = 2) -> SymbolicTreeFrame:
    return SymbolicTreeFrame(FrameKind(kind), branching)


def _cases() -> dict[str, Callable[[], str]]:
    cases: dict[str, Callable[[], str]] = {}
    for lemma, kind in itertools.product(("chain", "ff-morphism", "axiom-evidence"),
                                         KINDS):
        cases[f"verify-{lemma}-{kind}-b2-d5"] = _cli(
            "verify", "--lemma", lemma, "--kind", kind, "--branching", "2",
            "--depth", "5")
    for k1, k2 in itertools.product(KINDS, KINDS):
        cases[f"verify-g-morphism-{k1}-{k2}-d4"] = _cli(
            "verify", "--lemma", "g-morphism", "--kind1", k1, "--kind2", k2,
            "--depth", "4")
    for kind in ("rt", "it"):
        cases[f"verify-lex-{kind}-d4"] = _cli(
            "verify", "--lemma", "lex", "--kind", kind, "--depth", "4")
    # the failing controls of the benchmark
    for kind, other in zip(KINDS, KINDS[1:] + KINDS[:1]):
        cases[f"control-chain-reverse-{kind}-d5"] = _report(
            lambda f=_frame(kind): check_chain(f, 5, 8, reverse_inclusion=True))
        cases[f"control-fractal-mixed-{kind}-{other}-d8"] = _report(
            lambda f=_frame(kind), o=FrameKind(other): check_fractal(f, 8, lhs_kind=o))
    # lex windows, passing (with vacuous_intervals) and left-closed controls
    for kind in ("rt", "it"):
        for stored, k in itertools.product(((), (1,), (-1,), (2, -1)), range(4)):
            alpha = pseudo(stored, 2, signed=True)
            tag = ".".join(map(str, stored)) or "e"
            cases[f"lex-window-{kind}-{tag}-k{k}-d3"] = _report(
                lambda f=_frame(kind), a=alpha, k=k: lex_window_compare(f, a, k, 3))
            cases[f"control-lex-left-closed-{kind}-{tag}-k{k}-d4"] = _report(
                lambda f=_frame(kind), a=alpha, k=k: lex_window_compare(
                    f, a, k, 4, k_max=3, anchor_left_closed=True))
    # unequal branchings reach the interleaving map only through the library
    for k1, k2 in (("rt", "in"), ("it", "rn")):
        cases[f"g-morphism-{k1}b1-{k2}b2-d4"] = _report(
            lambda f1=_frame(k1, 1), f2=_frame(k2, 2): verify_g_morphism(f1, f2, 4))
    for kind in KINDS:
        cases[f"verify-fractal-{kind}-b2-d8"] = _cli(
            "verify", "--lemma", "fractal", "--kind", kind, "--branching", "2",
            "--depth", "8")
    # countermodel certificates: every kind pair at b=2, the diagonal at
    # b=1 with wider bounds, and the rejected controls whose failing layer
    # logs how many window points it checked
    for axiom in ("com", "chr"):
        for k1, k2 in itertools.product(KINDS, KINDS):
            cases[f"countermodel-{axiom}-{k1}-{k2}-b2"] = _cli(
                "countermodel", "--axiom", axiom, "--kind1", k1, "--kind2", k2,
                "--branching", "2")
        for kind in KINDS:
            cases[f"countermodel-{axiom}-{kind}-{kind}-b1-10,10,5"] = _cli(
                "countermodel", "--axiom", axiom, "--kind1", kind, "--kind2", kind,
                "--branching", "1", "--bounds", "10,10,5")
    anchor = ProductPoint(zero_seq(1), zero_seq(1))
    for kind in KINDS:
        cases[f"control-com-const-true-{kind}-{kind}-b1"] = _certificate(
            lambda f=_frame(kind, 1): check_com_certificate(
                f, f, Bounds(), valuation=const_true_valuation(anchor)))
        cases[f"control-chr-st-com-{kind}-{kind}-b1"] = _certificate(
            lambda f=_frame(kind, 1): check_chr_certificate(
                f, f, Bounds(), valuation=st_com_valuation(anchor)))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert CASES[name]() == expected


def test_corpus_has_no_strays():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case_name, produce in CASES.items():
        (GOLDEN / f"{case_name}.txt").write_text(produce(), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
