"""Golden corpus: the exact stdout of fixed window, certificate and
finite-frame commands and the reports of the failing controls, diffed byte
for byte against tests/golden/.

The corpus pins every counter, layer count, witness log and first
counterexample of the window lemmas, the countermodel certificates and the
finite-frame deciders (valid, mc, char, parse and the seeded sweeps), plus the
bounded evaluator's labels, so a faster implementation must reproduce them
exactly.
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
import tempfile
from typing import Callable

import pytest

from nbhdprod.cli import main
from nbhdprod.countermodel import (Bounds, check_chr_certificate,
                                   check_com_certificate, const_true_valuation,
                                   eval_bounded, st_chr_valuation,
                                   st_com_valuation)
from nbhdprod.formula import parse
from nbhdprod.kripke import FrameKind, SymbolicTreeFrame, check_fractal
from nbhdprod.nbhd import FiniteNFrame, product_n
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


def _cli_files(files: dict[str, dict], *argv: str) -> Callable[[], str]:
    """_cli with each "@name" argument replaced by the path of a temporary
    JSON file holding files[name]."""
    def run() -> str:
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, data in files.items():
                path = pathlib.Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(data), encoding="utf-8")
                paths[f"@{name}"] = str(path)
            return _cli(*(paths.get(arg, arg) for arg in argv))()
    return run


def _frame(kind: str, branching: int = 2) -> SymbolicTreeFrame:
    return SymbolicTreeFrame(FrameKind(kind), branching)


def _uni(base: dict[str, list[list[str]]]) -> FiniteNFrame:
    return FiniteNFrame.from_dict({"worlds": list(base), "base": {"1": base}})


def _product(left: FiniteNFrame, right: FiniteNFrame) -> dict:
    return product_n(left, right).to_dict()


# unimodal factors: S4 and D4 with redundant superset bases, T, an improper
# point (D fails) and an irreflexive swap (T and Four fail)
S4 = _uni({"a0": [["a0", "a1", "a2"]], "a1": [["a1", "a2"], ["a0", "a1", "a2"]],
           "a2": [["a2"]]})
D4 = _uni({"b0": [["b1"]], "b1": [["b1"], ["b0", "b1"]]})
T2 = _uni({"c0": [["c0", "c1"], ["c0"]], "c1": [["c1"]]})
IMPROPER = _uni({"d0": [[]], "d1": [["d0"]]})
SWAP = _uni({"e0": [["e1"]], "e1": [["e0"]]})
# a bimodal frame that is no product: Com and Chr fail on it
MIXED = {"worlds": ["x", "y", "z"], "base": {
    "1": {"x": [["y"]], "y": [["y", "z"]], "z": [["x", "z"], ["z"]]},
    "2": {"x": [["x", "z"]], "y": [["x"]], "z": [[]]}}}
FINITE_FRAMES = {
    "s4xd4": _product(S4, D4),
    "improperxt": _product(IMPROPER, T2),
    "swapxt": _product(SWAP, T2),
    "mixed": MIXED,
}
FORMULAS = {
    "k1": "[1](p -> q) -> [1]p -> [1]q", "k2": "[2](p -> q) -> [2]p -> [2]q",
    "d1": "[1]p -> <1>p", "d2": "[2]p -> <2>p",
    "t1": "[1]p -> p", "t2": "[2]p -> p",
    "four1": "[1]p -> [1][1]p", "four2": "[2]p -> [2][2]p",
    "com": "[1][2]p -> [2][1]p", "chr": "<1>[2]p -> [2]<1>p",
    "mixed-2-atoms": "[2] p & [2] q -> [1] (p & q)",
    "mixed-late": "p & q & [2] p -> [1] (p & q)",
    "budget-3-atoms": "p -> q -> r",
}
VALID_CASES = {
    "s4xd4": ("k1", "k2", "d1", "d2", "t1", "t2", "four1", "four2", "com",
              "chr", "budget-3-atoms"),
    "improperxt": ("d1", "t1", "d2", "com", "chr"),
    "swapxt": ("t1", "four1", "t2", "com", "chr"),
    "mixed": ("com", "chr", "k1", "mixed-2-atoms", "mixed-late"),
}
MODEL = dict(FINITE_FRAMES["s4xd4"], val={
    "p": ["a0,b1", "a1,b0", "a1,b1", "a2,b1"], "q": ["a2,b0", "a2,b1"]})
PARSE_TEXTS = ("p", "false", "true", "~(p & q) | [2] r", "<1>[2]p -> [2]<1>p",
               "[1](p -> q) -> [1]p -> [1]q", "[1][1][2] s_1 -> <2> t",
               "(p -> p) -> false")


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
    # one window deeper: the blocks of shared obligations that g-morphism,
    # ff-morphism and the lex suite decide at once reach their full size
    for k1, k2 in itertools.product(KINDS, KINDS):
        cases[f"verify-g-morphism-{k1}-{k2}-b2-d5"] = _cli(
            "verify", "--lemma", "g-morphism", "--kind1", k1, "--kind2", k2,
            "--branching", "2", "--depth", "5")
    for kind in ("rt", "it"):
        cases[f"verify-lex-{kind}-b2-d5"] = _cli(
            "verify", "--lemma", "lex", "--kind", kind, "--branching", "2",
            "--depth", "5")
    for kind in KINDS:
        cases[f"verify-ff-morphism-{kind}-b2-d6"] = _cli(
            "verify", "--lemma", "ff-morphism", "--kind", kind, "--branching", "2",
            "--depth", "6")
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
    # fractal windows over branchings and depths, the deeper mixed-kind
    # controls, and tree exports: the successor order of a tree window fixes
    # the first counterexample of these checks and ff-morphism's targets
    for kind, (branching, depth) in itertools.product(
            KINDS, ((2, 8), (1, 8), (3, 8), (2, 10))):
        cases[f"verify-fractal-{kind}-b{branching}-d{depth}"] = _cli(
            "verify", "--lemma", "fractal", "--kind", kind, "--branching",
            str(branching), "--depth", str(depth))
    cases["verify-fractal-rt-b2-d12"] = _cli(
        "verify", "--lemma", "fractal", "--kind", "rt", "--branching", "2",
        "--depth", "12")
    for kind, other in zip(KINDS, KINDS[1:] + KINDS[:1]):
        cases[f"control-fractal-mixed-{kind}-{other}-d10"] = _report(
            lambda f=_frame(kind), o=FrameKind(other): check_fractal(f, 10, lhs_kind=o))
    for kind, (branching, depth), nof in itertools.product(
            KINDS, ((1, 6), (2, 6), (2, 8)), (False, True)):
        cases[f"tree-{kind}-b{branching}-d{depth}{'-nof' if nof else ''}"] = _cli(
            "tree", "--kind", kind, "--branching", str(branching), "--depth",
            str(depth), *(("--nof",) if nof else ()))
    # countermodel certificates: every kind pair at b=2, the diagonal at
    # b=1 and b=2 with wider bounds, and the rejected controls at b=1 and b=2
    # whose failing layer logs how many window points it checked
    for axiom in ("com", "chr"):
        for k1, k2 in itertools.product(KINDS, KINDS):
            cases[f"countermodel-{axiom}-{k1}-{k2}-b2"] = _cli(
                "countermodel", "--axiom", axiom, "--kind1", k1, "--kind2", k2,
                "--branching", "2")
        for kind, branching in itertools.product(KINDS, ("1", "2")):
            cases[f"countermodel-{axiom}-{kind}-{kind}-b{branching}-10,10,5"] = _cli(
                "countermodel", "--axiom", axiom, "--kind1", kind, "--kind2", kind,
                "--branching", branching, "--bounds", "10,10,5")
    for kind, branching in itertools.product(KINDS, (1, 2)):
        anchor = ProductPoint(zero_seq(branching), zero_seq(branching))
        cases[f"control-com-const-true-{kind}-{kind}-b{branching}"] = _certificate(
            lambda f=_frame(kind, branching), a=anchor: check_com_certificate(
                f, f, Bounds(), valuation=const_true_valuation(a)))
        cases[f"control-chr-st-com-{kind}-{kind}-b{branching}"] = _certificate(
            lambda f=_frame(kind, branching), a=anchor: check_chr_certificate(
                f, f, Bounds(), valuation=st_com_valuation(a)))
    # finite frames: validity with first counterexamples, model checking at
    # every world and at one, the D/T/Four flags, parsing, and the seeded sweeps
    for frame, names in VALID_CASES.items():
        for name in names:
            cases[f"valid-{frame}-{name}"] = _cli_files(
                {"frame": FINITE_FRAMES[frame]}, "valid", "--frame", "@frame",
                "--formula", FORMULAS[name])
    for frame, modality in itertools.product(FINITE_FRAMES, (1, 2)):
        cases[f"char-{frame}-m{modality}"] = _cli_files(
            {"frame": FINITE_FRAMES[frame]}, "char", "--frame", "@frame",
            "--modality", str(modality))
    wide = {f"w{n}": [[f"w{n}"]] for n in range(13)}
    cases["char-13-worlds-budget"] = _cli_files(
        {"frame": {"worlds": list(wide), "base": {"1": wide}}}, "char", "--frame",
        "@frame")
    for name in ("k1", "t2", "four2", "com", "chr", "mixed-late"):
        cases[f"mc-s4xd4-{name}"] = _cli_files(
            {"model": MODEL}, "mc", "--model", "@model", "--formula", FORMULAS[name])
        for world in ("a0,b0", "a2,b1"):
            cases[f"mc-s4xd4-{name}-at-{world.replace(',', '.')}"] = _cli_files(
                {"model": MODEL}, "mc", "--model", "@model", "--formula",
                FORMULAS[name], "--world", world)
    for n, text in enumerate(PARSE_TEXTS):
        cases[f"parse-{n}"] = _cli("parse", "--formula", text)
    for lemma in ("nf-agreement", "fusion-axioms", "finite-com"):
        cases[f"verify-{lemma}-seed0"] = _cli("verify", "--lemma", lemma,
                                              "--seed", "0")
    # the bounded evaluator's label at the anchor, per kind pair
    for axiom, make_val in (("com", st_com_valuation), ("chr", st_chr_valuation)):
        phi = parse(FORMULAS[axiom])
        for branching in (1, 2):
            cases[f"eval-bounded-{axiom}-b{branching}"] = (
                lambda f=phi, v=make_val, b=branching: _eval_labels(f, v, b))
    return cases


def _eval_labels(phi, make_val, branching: int) -> str:
    anchor = ProductPoint(zero_seq(branching), zero_seq(branching))
    labels = {f"{k1}-{k2}": eval_bounded(_frame(k1, branching), _frame(k2, branching),
                                         phi, anchor, make_val(anchor)).label
              for k1, k2 in itertools.product(KINDS, KINDS)}
    return json.dumps(labels, indent=2) + "\n"


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
