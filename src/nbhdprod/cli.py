"""Command line front end.

One logical command per invocation; every subcommand prints a single JSON
object (the default) or a flat text rendering of the same object. Reports
omit wall-clock times unless --timings is given, so identical commands give
byte-identical output. Exit codes: 0 all checks pass, 1 a property violated
or a budget exceeded (the object carries a "budget" key), 2 usage or format
errors. A closed stdout (a reader such as `head` that quit early) exits 1
with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Callable, Mapping, Sequence

from .countermodel import (Bounds, check_chr_certificate, check_com_certificate)
from .formula import ParseError, atoms, modal_depth, parse, unparse
from .kripke import (FiniteKripkeFrame, FrameKind, SymbolicTreeFrame,
                     check_fractal, tree_pairs, tree_successors, word_layers)
from .nbhd import (FiniteNFrame, FiniteNModel, denotation, nof, product_n,
                   satisfies, structural_characteristics, valid_on_frame)
from .omega import (axiom_evidence, check_chain, lex_window_compares, pseudo,
                    verify_ff_morphism, verify_g_morphism, zero_seq)
from .report import BudgetExceeded, VerificationReport
from .sampling import (finite_com_sweep, fusion_soundness_sweep,
                       nf_agreement_sweep)

KINDS = tuple(k.value for k in FrameKind)


def _emit(data: Mapping[str, Any], args: argparse.Namespace) -> None:
    if getattr(args, "text", False):
        for key in sorted(data):
            value = data[key]
            rendered = value if isinstance(value, str) else json.dumps(
                value, sort_keys=True)
            print(f"{key}: {rendered}")
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def _load(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _parse_bounds(text: str) -> Bounds:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"bounds must be m,k,d: {text!r}")
    try:
        m, k, d = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bounds must be three integers: {text!r}") from None
    return Bounds(m, k, d)


def _word_id(letters: tuple[int, ...]) -> str:
    return ".".join(map(str, letters)) or "e"


def _cmd_parse(args: argparse.Namespace) -> int:
    phi = parse(args.formula)
    _emit({"formula": unparse(phi), "depth": modal_depth(phi),
           "atoms": sorted(atoms(phi))}, args)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    model = FiniteNModel.from_dict(_load(args.model))
    phi = parse(args.formula)
    if args.world is not None:
        value = satisfies(model, args.world, phi)
        _emit({"formula": unparse(phi), "world": args.world, "value": value},
              args)
        return 0 if value else 1
    holds = denotation(model, phi)
    values = {w: w in holds for w in model.frame.worlds}
    _emit({"formula": unparse(phi), "values": values}, args)
    return 0 if all(values.values()) else 1


def _cmd_valid(args: argparse.Namespace) -> int:
    frame = FiniteNFrame.from_dict(_load(args.frame))
    phi = parse(args.formula)
    witness = valid_on_frame(frame, phi)
    if witness is None:
        _emit({"formula": unparse(phi), "valid": True}, args)
        return 0
    _emit({"formula": unparse(phi), "valid": False,
           "counterexample": witness.to_dict()}, args)
    return 1


def _cmd_char(args: argparse.Namespace) -> int:
    frame = FiniteNFrame.from_dict(_load(args.frame))
    _emit(structural_characteristics(frame, args.modality).to_dict(), args)
    return 0


def _cmd_nof(args: argparse.Namespace) -> int:
    frame = FiniteKripkeFrame.from_dict(_load(args.frame))
    _emit(nof(frame).to_dict(), args)
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    frame1 = FiniteNFrame.from_dict(_load(args.frame))
    frame2 = FiniteNFrame.from_dict(_load(args.frame2))
    _emit(product_n(frame1, frame2).to_dict(), args)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    if args.depth < 0:
        raise ValueError(f"--depth must be >= 0, got {args.depth}")
    frame = SymbolicTreeFrame(FrameKind(args.kind), args.branching)
    tree_pairs(frame.kind, args.branching, args.depth)  # refuses an oversize window
    layers = word_layers(args.branching, args.depth)
    ids = {u: _word_id(u) for layer in layers for u in layer}
    pairs = frozenset((ids[u], ids[v]) for u in ids
                      for v in tree_successors(frame.kind, u, layers))
    window = FiniteKripkeFrame(tuple(ids.values()), {1: pairs})
    _emit(nof(window).to_dict() if args.nof else window.to_dict(), args)
    return 0


def _lex_suite(frame: SymbolicTreeFrame, depth: int,
               bounds: Bounds) -> VerificationReport:
    """Order-window runs for a fixed small family of centers, all on one
    shared window; part-(a) depths beyond d - 1 only see the center itself
    on the window, so they are skipped rather than reported as trivially
    green."""
    branching = frame.branching
    alphas = [zero_seq(branching, signed=True),
              pseudo((1,), branching, signed=True),
              pseudo((-1,), branching, signed=True)]
    ks = list(range(1, min(bounds.k_max, depth - 1) + 1))
    with VerificationReport(
            lemma="lex",
            params={"kind": frame.kind.value, "branching": branching, "d": depth,
                    "k_values": ks,
                    "alphas": [list(a.stored) for a in alphas]}) as report:
        centers = [(alpha, k) for alpha in alphas for k in ks]
        for (alpha, k), sub in zip(centers, lex_window_compares(frame, centers, depth)):
            report.checked += sub.checked
            if not sub.passed:
                return report.fail({"alpha": list(alpha.stored), "k": k,
                                    "inner": sub.counterexample})
    return report


def _tree(kind: str | None, args: argparse.Namespace) -> SymbolicTreeFrame:
    """The tree frame of a kind option; --kind1 and --kind2 default to --kind."""
    return SymbolicTreeFrame(FrameKind(kind or args.kind), args.branching)


# lemma -> (smallest --depth, runner). Below it fractal sees only the empty
# word, chain, ff-morphism and axiom-evidence only the zero sequence, and
# g-morphism and lex no admissible base-set index; the seeded sweeps take no
# --depth. Runners look checks up in this module when called, so wrapping
# a module attribute such as check_chain wraps what verify runs.
LEMMAS: dict[str, tuple[int | None,
                        Callable[[argparse.Namespace, Bounds], VerificationReport]]] = {
    "fractal": (1, lambda a, b: check_fractal(_tree(a.kind, a), a.depth)),
    "chain": (1, lambda a, b: check_chain(_tree(a.kind, a), a.depth, b.k_max)),
    "ff-morphism": (1, lambda a, b: verify_ff_morphism(_tree(a.kind, a), a.depth)),
    "g-morphism": (2, lambda a, b: verify_g_morphism(
        _tree(a.kind1, a), _tree(a.kind2, a), a.depth)),
    "nf-agreement": (None, lambda a, b: nf_agreement_sweep(a.seed)),
    "fusion-axioms": (None, lambda a, b: fusion_soundness_sweep(a.seed)),
    "axiom-evidence": (1, lambda a, b: axiom_evidence(_tree(a.kind, a), a.depth)),
    "finite-com": (None, lambda a, b: finite_com_sweep(a.seed)),
    "lex": (2, lambda a, b: _lex_suite(_tree(a.kind, a), a.depth, b)),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    bounds = _parse_bounds(args.bounds)
    floor, run = LEMMAS[args.lemma]
    if floor is not None and args.depth < floor:
        raise ValueError(f"--lemma {args.lemma} needs --depth >= {floor}, "
                         f"got {args.depth}")
    report = run(args, bounds)
    report.params.setdefault("bounds", bounds.to_dict())
    _emit(report.to_dict(include_millis=args.timings), args)
    return 0 if report.passed else 1


def _cmd_countermodel(args: argparse.Namespace) -> int:
    bounds = _parse_bounds(args.bounds)
    frame1 = SymbolicTreeFrame(FrameKind(args.kind1), args.branching)
    frame2 = SymbolicTreeFrame(FrameKind(args.kind2), args.branching)
    check = check_com_certificate if args.axiom == "com" else check_chr_certificate
    certificate = check(frame1, frame2, bounds)
    _emit(certificate.to_dict(), args)
    return 0 if certificate.accepted else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared by
    later ones: parsing reads it without changing it, and building it costs
    more than a short command does."""
    parser = argparse.ArgumentParser(
        prog="nbhdprod",
        description="Neighborhood products of tree frames: model checking, "
                    "window verification, and countermodel certificates.")
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="JSON output (the default)")
    fmt.add_argument("--text", action="store_true",
                     help="flat text rendering of the same object")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common],
                       help="parse a formula and print its core rendering")
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("mc", parents=[common],
                       help="check a formula on a neighborhood model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--formula", required=True)
    p.add_argument("--world", help="check at this world only")
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("valid", parents=[common],
                       help="frame validity by exhaustive valuation sweep")
    p.add_argument("--frame", required=True, help="frame JSON file")
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_valid)

    p = sub.add_parser("char", parents=[common],
                       help="structural characteristics of a frame modality")
    p.add_argument("--frame", required=True)
    p.add_argument("--modality", type=int, default=1)
    p.set_defaults(handler=_cmd_char)

    p = sub.add_parser("nof", parents=[common],
                       help="neighborhood frame of a relational frame")
    p.add_argument("--frame", required=True, help="relational frame JSON file")
    p.set_defaults(handler=_cmd_nof)

    p = sub.add_parser("product", parents=[common],
                       help="product of two unimodal neighborhood frames")
    p.add_argument("--frame", required=True)
    p.add_argument("--frame2", required=True)
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("tree", parents=[common],
                       help="export an enumerated window of a tree frame")
    p.add_argument("--kind", choices=KINDS, default="rt")
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--nof", action="store_true",
                   help="export the neighborhood frame of the window")
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("verify", parents=[common],
                       help="run a window verification")
    p.add_argument("--lemma", choices=tuple(LEMMAS), required=True)
    p.add_argument("--kind", choices=KINDS, default="rt")
    p.add_argument("--kind1", choices=KINDS)
    p.add_argument("--kind2", choices=KINDS)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--bounds", default="8,8,4", help="m,k,d")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized sweeps")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock millis in the report")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("countermodel", parents=[common],
                       help="certificate that an interaction axiom fails")
    p.add_argument("--axiom", choices=("com", "chr"), required=True)
    p.add_argument("--kind1", choices=KINDS, required=True)
    p.add_argument("--kind2", choices=KINDS, required=True)
    p.add_argument("--branching", type=int, default=1)
    p.add_argument("--bounds", default="8,8,4", help="m,k,d")
    p.set_defaults(handler=_cmd_countermodel)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            code = args.handler(args)
        except BudgetExceeded as exc:
            _emit({"budget": str(exc)}, args)
            code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone, so the answer cannot be delivered.
        # Pointing stdout at devnull keeps the flush at exit from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
