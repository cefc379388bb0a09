"""Bimodal formulas: core syntax, input sugar, parser, printer, axiom schemes.

The core connective basis is {bottom, ->, [1], [2]}. Derived connectives
(true, ~, &, |, <1>, <2>) are accepted by the constructors and the parser but
normalize to the core immediately, so structural equality of ASTs is equality
up to the standard abbreviations. The printer emits the core basis only, with
minimal parentheses, and parse(unparse(f)) == f for every formula f whose
height is at most MAX_NESTING.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Sequence

from .report import BudgetExceeded

MODALITIES = (1, 2)


class Formula:
    """Base class; instances are core nodes only (Atom, Bottom, Implies, Box)."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    index: int
    body: Formula

    def __post_init__(self) -> None:
        if self.index not in MODALITIES:
            raise ValueError(f"modality index {self.index} out of range {MODALITIES}")


BOT = Bottom()
TOP = Implies(BOT, BOT)


def atom(name: str) -> Atom:
    return Atom(name)


def implies(a: Formula, b: Formula) -> Implies:
    return Implies(a, b)


def box(i: int, phi: Formula) -> Box:
    return Box(i, phi)


def top() -> Formula:
    return TOP


def not_(phi: Formula) -> Formula:
    return Implies(phi, BOT)


def and_(a: Formula, b: Formula) -> Formula:
    return not_(Implies(a, not_(b)))


def or_(a: Formula, b: Formula) -> Formula:
    return Implies(not_(a), b)


def diamond(i: int, phi: Formula) -> Formula:
    return not_(Box(i, not_(phi)))


# Nodes of compile_formulas: (OP_BOTTOM, None, None), (OP_ATOM, name, None),
# (OP_IMPLIES, left, right) and (OP_BOX, modality, body), where left, right
# and body are positions of earlier nodes.
OP_BOTTOM, OP_ATOM, OP_IMPLIES, OP_BOX = "false", "atom", "->", "box"
Node = tuple[str, Any, Any]


def compile_formulas(phis: Iterable[Formula]) -> tuple[list[Node], list[int]]:
    """The distinct subformulas of all phis in post-order, each once, and the
    position of each phi's own node.

    This is the one walk over the formula tree; evaluators and the folds
    below read the node list instead of dispatching on the classes. A family
    that shares subformulas is compiled into one DAG, so an evaluator visits
    each shared subformula once for the whole family.
    """
    position: dict[Node, int] = {}  # insertion order is post-order
    # id -> position: a subformula object shared by several parents is walked
    # once, so the walk is linear in the DAG of each phi, not in its tree
    visited: dict[int, int] = {}

    def visit(f: Formula) -> int:
        key = id(f)
        index = visited.get(key)
        if index is None:
            if isinstance(f, Implies):
                node: Node = (OP_IMPLIES, visit(f.left), visit(f.right))
            elif isinstance(f, Box):
                node = (OP_BOX, f.index, visit(f.body))
            elif isinstance(f, Atom):
                node = (OP_ATOM, f.name, None)
            elif isinstance(f, Bottom):
                node = (OP_BOTTOM, None, None)
            else:
                raise TypeError(f"not a formula: {f!r}")
            index = visited[key] = position.setdefault(node, len(position))
        return index

    roots: list[int] = []
    for phi in phis:
        roots.append(visit(phi))
        # an id is only stable while its object lives, and phis may be a
        # generator that drops each phi once it is compiled
        visited.clear()
    return list(position), roots


def compile_formula(phi: Formula) -> list[Node]:
    """The distinct subformulas of phi in post-order, each once, root last."""
    return compile_formulas((phi,))[0]


def modal_depth(phi: Formula) -> int:
    depth: list[int] = []
    for op, x, y in compile_formula(phi):
        if op == OP_IMPLIES:
            depth.append(max(depth[x], depth[y]))
        else:
            depth.append(depth[y] + 1 if op == OP_BOX else 0)
    return depth[-1]


def atoms(phi: Formula) -> frozenset[str]:
    return frozenset(x for op, x, _ in compile_formula(phi) if op == OP_ATOM)


def modalities_of(phi: Formula) -> frozenset[int]:
    return frozenset(x for op, x, _ in compile_formula(phi) if op == OP_BOX)


# --- parsing ---------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_KEYWORDS = {"false", "true"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<amp>&)
  | (?P<pipe>\|)
  | (?P<tilde>~)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<box>\[\s*(?P<boxidx>[0-9]+)?\s*\])
  | (?P<dia><\s*(?P<diaidx>[0-9]+)?\s*>)
  | (?P<ident>[a-z][a-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup  # the alternative's group: it closes after its index group
        if kind == "ws":
            pos = m.end()
            continue
        if kind in ("box", "dia"):
            idx_text = m.group("boxidx" if kind == "box" else "diaidx")
            # bare [] / <> is unimodal shorthand for modality 1
            idx = 1 if idx_text is None else int(idx_text)
            if idx not in MODALITIES:
                raise ParseError(f"modality index {idx} out of range", pos)
            tokens.append((kind, idx, pos))
        elif kind == "ident":
            word = m.group("ident")
            if word in _KEYWORDS:
                tokens.append((word, word, pos))
            else:
                tokens.append(("ident", word, pos))
        else:
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


MAX_NESTING = 64  # the tallest core AST parse builds


class _Parser:
    """Recursive descent over: -> (right assoc, loosest), |, &, unary, atoms.

    Rules return the formula with its height (edges on the longest root-leaf
    path), which bounds every recursive walker over it. Parentheses, prefix
    operators and right sides of -> open at once bound this parser's own
    recursion; the printer opens at most 1.5 of them per level of height.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def enter(self, pos: int) -> None:
        self.open += 1
        if self.open > 2 * MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)

    def node(self, phi: Formula, height: int, pos: int) -> tuple[Formula, int]:
        if height > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)
        return phi, height

    def formula(self) -> tuple[Formula, int]:
        left, hl = self.disjunction()
        kind, _, pos = self.peek()
        if kind == "arrow":
            self.take()
            self.enter(pos)
            right, hr = self.formula()
            self.open -= 1
            return self.node(Implies(left, right), max(hl, hr) + 1, pos)
        return left, hl

    def disjunction(self) -> tuple[Formula, int]:
        out, h = self.conjunction()
        while self.peek()[0] == "pipe":
            pos = self.take()[2]
            right, hr = self.conjunction()
            out, h = self.node(or_(out, right), max(h + 1, hr) + 1, pos)
        return out, h

    def conjunction(self) -> tuple[Formula, int]:
        out, h = self.unary()
        while self.peek()[0] == "amp":
            pos = self.take()[2]
            right, hr = self.unary()
            out, h = self.node(and_(out, right), max(h, hr + 1) + 2, pos)
        return out, h

    def unary(self) -> tuple[Formula, int]:
        kind, value, pos = self.peek()
        if kind not in ("tilde", "box", "dia"):
            return self.atomic()
        self.take()
        self.enter(pos)
        body, h = self.unary()
        self.open -= 1
        if kind == "tilde":
            return self.node(not_(body), h + 1, pos)
        if kind == "box":
            return self.node(Box(int(value), body), h + 1, pos)
        return self.node(diamond(int(value), body), h + 3, pos)

    def atomic(self) -> tuple[Formula, int]:
        kind, value, pos = self.take()
        if kind == "ident":
            return Atom(str(value)), 0
        if kind == "false":
            return BOT, 0
        if kind == "true":
            return TOP, 1
        if kind == "lpar":
            self.enter(pos)
            inner = self.formula()
            self.expect("rpar")
            self.open -= 1
            return inner
        raise ParseError(f"expected a formula, found {value!r}", pos)


def parse(text: str) -> Formula:
    """Parse formula text; a ParseError names the position of the fault."""
    parser = _Parser(text)
    out, _ = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", pos)
    return out


# --- printing ---------------------------------------------------------------

_LEVEL_IMPLIES = 1
_LEVEL_UNARY = 2


def _render(phi: Formula, min_level: int) -> str:
    if isinstance(phi, Bottom):
        return "false"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Box):
        text = f"[{phi.index}] {_render(phi.body, _LEVEL_UNARY)}"
        level = _LEVEL_UNARY
    else:
        if not isinstance(phi, Implies):
            raise TypeError(f"not a formula: {phi!r}")
        text = (f"{_render(phi.left, _LEVEL_IMPLIES + 1)} -> "
                f"{_render(phi.right, _LEVEL_IMPLIES)}")
        level = _LEVEL_IMPLIES
    if level < min_level:
        return f"({text})"
    return text


def unparse(phi: Formula) -> str:
    """Core-basis text with minimal parentheses; parse(unparse(f)) == f
    whenever f is at most MAX_NESTING high."""
    return _render(phi, _LEVEL_IMPLIES)


# --- axiom schemes ----------------------------------------------------------

class AxiomScheme(Enum):
    K = "K"
    D = "D"
    T = "T"
    FOUR = "Four"
    COM = "Com"
    CHR = "Chr"


_P = Atom("p")
_Q = Atom("q")


def axiom_instance(scheme: AxiomScheme, i: int = 1) -> Formula:
    """Instance of a scheme at modality i (Com and Chr ignore i)."""
    if i not in MODALITIES:
        raise ValueError(f"modality index {i} out of range {MODALITIES}")
    if scheme is AxiomScheme.K:
        return Implies(Box(i, Implies(_P, _Q)), Implies(Box(i, _P), Box(i, _Q)))
    if scheme is AxiomScheme.D:
        return Implies(Box(i, _P), diamond(i, _P))
    if scheme is AxiomScheme.T:
        return Implies(Box(i, _P), _P)
    if scheme is AxiomScheme.FOUR:
        return Implies(Box(i, _P), Box(i, Box(i, _P)))
    if scheme is AxiomScheme.COM:
        return Implies(Box(1, Box(2, _P)), Box(2, Box(1, _P)))
    if scheme is AxiomScheme.CHR:
        return Implies(diamond(1, Box(2, _P)), Box(2, diamond(1, _P)))
    raise ValueError(f"unknown scheme {scheme!r}")


# Defining axioms on top of K for the logics the fusion operations accept.
LOGICS: dict[str, tuple[AxiomScheme, ...]] = {
    "D": (AxiomScheme.D,),
    "T": (AxiomScheme.T,),
    "D4": (AxiomScheme.D, AxiomScheme.FOUR),
    "S4": (AxiomScheme.T, AxiomScheme.FOUR),
}


def fusion_axioms(logic1: str, logic2: str) -> list[Formula]:
    """Axioms of the fusion: K for both modalities, then each logic's defining
    axioms relativized to its own modality. Never contains Com or Chr."""
    for name in (logic1, logic2):
        if name not in LOGICS:
            raise ValueError(f"unknown logic {name!r}; expected one of {sorted(LOGICS)}")
    out = [axiom_instance(AxiomScheme.K, 1), axiom_instance(AxiomScheme.K, 2)]
    out += [axiom_instance(s, 1) for s in LOGICS[logic1]]
    out += [axiom_instance(s, 2) for s in LOGICS[logic2]]
    return out


# --- exhaustive enumeration ---------------------------------------------------

_MAX_GEN_DEPTH = 3
_MAX_GEN_ATOMS = 2


def generate_formulas(depth: int, atom_names: Sequence[str]) -> Iterator[Formula]:
    """All core-basis ASTs with at most depth + 5 nodes and modal depth
    <= depth, in (size, structure) order, without duplicates.

    The node budget makes the family finite; depth + 5 is the least budget
    whose window contains a diamond over one atom (6 core nodes) at depth 1.
    """
    if depth > _MAX_GEN_DEPTH or len(atom_names) > _MAX_GEN_ATOMS:
        raise BudgetExceeded(
            f"generate_formulas guard: depth <= {_MAX_GEN_DEPTH} and "
            f"at most {_MAX_GEN_ATOMS} atoms")
    max_nodes = depth + 5
    # (formula, modal depth) pairs by node count; a box goes only over bodies
    # shallower than depth, so only a negative depth leaves candidates too deep
    leaves: list[tuple[Formula, int]] = [(BOT, 0)] + [(Atom(a), 0) for a in atom_names]
    by_size: dict[int, list[tuple[Formula, int]]] = {1: leaves}
    for n in range(2, max_nodes + 1):
        layer: list[tuple[Formula, int]] = []
        for i in MODALITIES:
            layer.extend((Box(i, b), md + 1) for b, md in by_size[n - 1] if md < depth)
        for left_n in range(1, n - 1):
            for left, lmd in by_size[left_n]:
                layer.extend((Implies(left, right), max(lmd, rmd))
                             for right, rmd in by_size[n - 1 - left_n])
        by_size[n] = layer
    seen: set[Formula] = set()
    for n in range(1, max_nodes + 1):
        for phi, md in by_size[n]:
            if md <= depth and phi not in seen:
                seen.add(phi)
                yield phi
