"""Formula core: parsing, printing, schemes, generation."""

import time

import pytest
from hypothesis import given, strategies as st

from nbhdprod.formula import (OP_ATOM, OP_BOTTOM, OP_BOX, OP_IMPLIES, Atom,
                              AxiomScheme, BOT, Bottom, Box, Implies, LOGICS,
                              MAX_NESTING, ParseError, and_, atom, atoms,
                              axiom_instance, box, compile_formula,
                              compile_formulas, diamond,
                              fusion_axioms, generate_formulas, implies,
                              modal_depth, not_, or_, parse, top, unparse, _tokenize)
from nbhdprod.report import BudgetExceeded


def test_parse_box_diamond_implication():
    phi = parse("[1] p -> <2> p")
    assert phi == implies(box(1, atom("p")), diamond(2, atom("p")))


def test_parse_false_and_nested_boxes():
    assert parse("false") == BOT
    assert parse("[1][2] p") == box(1, box(2, atom("p")))


def test_parse_modality_out_of_range():
    with pytest.raises(ParseError):
        parse("[3] p")


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse("p -> (")
    assert "position" in str(err.value)


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse("p q")


def test_parse_keywords_and_idents():
    assert parse("true") == top()
    assert parse("p_1") == atom("p_1")
    with pytest.raises(ParseError):
        parse("Pascal")  # uppercase start not an IDENT


def test_precedence_and_associativity():
    # -> binds loosest and associates right; & tighter than |
    assert parse("p -> q -> r") == implies(atom("p"),
                                           implies(atom("q"), atom("r")))
    assert parse("p & q | r") == or_(and_(atom("p"), atom("q")), atom("r"))
    assert parse("~p & q") == and_(not_(atom("p")), atom("q"))


def test_tokens_of_every_kind():
    """Every token kind, boxes and diamonds with and without an index."""
    assert [(kind, value) for kind, value, _ in _tokenize(
        "[2]<>p1 -> ~(q & r) | [ ] <1> false")] == [
        ("box", 2), ("dia", 1), ("ident", "p1"), ("arrow", "->"), ("tilde", "~"),
        ("lpar", "("), ("ident", "q"), ("amp", "&"), ("ident", "r"), ("rpar", ")"),
        ("pipe", "|"), ("box", 1), ("dia", 1), ("false", "false"), ("eof", "")]


def test_unimodal_sugar_is_modality_one():
    assert parse("[] p") == box(1, atom("p"))
    assert parse("<> p") == diamond(1, atom("p"))


def test_print_box():
    assert unparse(box(1, atom("p"))) == "[1] p"


def test_print_bottom_implication():
    assert unparse(implies(BOT, BOT)) == "false -> false"


def test_print_round_trip_of_sugar():
    phi = and_(atom("p"), atom("q"))
    assert parse(unparse(phi)) == phi


def test_print_rejects_non_formula():
    with pytest.raises(TypeError, match="not a formula"):
        unparse("p")


def test_compile_formula_lists_each_subformula_once_root_last():
    assert compile_formula(parse("[1] p -> [1] p -> false")) == [
        (OP_ATOM, "p", None), (OP_BOX, 1, 0), (OP_BOTTOM, None, None),
        (OP_IMPLIES, 1, 2), (OP_IMPLIES, 1, 3)]
    for phi in generate_formulas(2, ("p", "q")):
        nodes = compile_formula(phi)
        assert len(set(nodes)) == len(nodes)
        for k, (op, x, y) in enumerate(nodes):
            children = {OP_IMPLIES: (x, y), OP_BOX: (y,)}.get(op, ())
            assert all(c < k for c in children)
    with pytest.raises(TypeError, match="not a formula: 'q'"):
        compile_formula(implies(atom("p"), "q"))


def _tree_walk_compile(phis):
    """compile_formulas as a walk over the formula tree, which visits a
    shared subformula object once per occurrence."""
    position = {}

    def visit(f):
        if isinstance(f, Implies):
            node = (OP_IMPLIES, visit(f.left), visit(f.right))
        elif isinstance(f, Box):
            node = (OP_BOX, f.index, visit(f.body))
        elif isinstance(f, Atom):
            node = (OP_ATOM, f.name, None)
        else:
            node = (OP_BOTTOM, None, None)
        return position.setdefault(node, len(position))

    roots = [visit(phi) for phi in phis]
    return list(position), roots


def test_compile_matches_tree_walk():
    """The same nodes and roots as the tree walk: each formula of the
    depth-2 family alone, the family at once, and a generator of fresh
    objects that are freed as soon as they are compiled, so that their ids
    are reused."""
    family = list(generate_formulas(2, ("p",)))
    assert len(family) == 1514
    for phi in family:
        assert compile_formula(phi) == _tree_walk_compile([phi])[0], phi
    want = _tree_walk_compile(family)
    assert compile_formulas(family) == want
    assert compile_formulas(parse(unparse(phi)) for phi in family) == want


def test_compile_shared_chain_is_linear():
    """A chain of implies(f, f) 20 levels deep has 21 distinct nodes and
    about a million tree occurrences; the walk visits each object once."""
    phi = atom("p")
    for _ in range(20):
        phi = Implies(phi, phi)
    start = time.perf_counter()
    nodes = compile_formula(phi)
    elapsed = time.perf_counter() - start
    assert len(nodes) == 21
    assert elapsed < 0.05, elapsed


def test_modal_depth():
    assert modal_depth(atom("p")) == 0
    assert modal_depth(box(1, box(2, atom("p")))) == 2
    assert modal_depth(implies(box(1, atom("p")), atom("p"))) == 1


def test_atoms():
    assert atoms(parse("[1] p -> q & p")) == frozenset({"p", "q"})
    assert atoms(BOT) == frozenset()


def test_axiom_instances():
    p = atom("p")
    assert axiom_instance(AxiomScheme.T, 1) == parse("[1] p -> p")
    assert axiom_instance(AxiomScheme.FOUR, 2) == parse("[2] p -> [2][2] p")
    assert axiom_instance(AxiomScheme.COM) == parse("[1][2] p -> [2][1] p")
    assert axiom_instance(AxiomScheme.CHR) == parse("<1>[2] p -> [2]<1> p")
    assert axiom_instance(AxiomScheme.D, 1) == implies(box(1, p), diamond(1, p))
    assert axiom_instance(AxiomScheme.K, 2) == parse("[2](p -> q) -> ([2] p -> [2] q)")


def test_axiom_depths():
    assert modal_depth(axiom_instance(AxiomScheme.FOUR, 1)) == 2
    assert modal_depth(axiom_instance(AxiomScheme.COM)) == 2


def test_fusion_axioms_d_t():
    got = fusion_axioms("D", "T")
    expected = [axiom_instance(AxiomScheme.K, 1), axiom_instance(AxiomScheme.K, 2),
                axiom_instance(AxiomScheme.D, 1), axiom_instance(AxiomScheme.T, 2)]
    assert got == expected


def test_fusion_axioms_s4_s4():
    got = fusion_axioms("S4", "S4")
    expected = [axiom_instance(AxiomScheme.K, 1), axiom_instance(AxiomScheme.K, 2),
                axiom_instance(AxiomScheme.T, 1), axiom_instance(AxiomScheme.FOUR, 1),
                axiom_instance(AxiomScheme.T, 2), axiom_instance(AxiomScheme.FOUR, 2)]
    assert got == expected


def test_fusion_axioms_d4_d():
    got = fusion_axioms("D4", "D")
    expected = [axiom_instance(AxiomScheme.K, 1), axiom_instance(AxiomScheme.K, 2),
                axiom_instance(AxiomScheme.D, 1), axiom_instance(AxiomScheme.FOUR, 1),
                axiom_instance(AxiomScheme.D, 2)]
    assert got == expected


def test_fusion_axioms_unknown_logic():
    with pytest.raises(ValueError):
        fusion_axioms("S5", "T")


def test_fusion_never_contains_interaction_axioms():
    # structural assertion: no member mixes both modalities
    def modalities_of(phi):
        if isinstance(phi, Box):
            return {phi.index} | modalities_of(phi.body)
        if isinstance(phi, Implies):
            return modalities_of(phi.left) | modalities_of(phi.right)
        return set()

    com = axiom_instance(AxiomScheme.COM)
    chr_ = axiom_instance(AxiomScheme.CHR)
    for logic1 in LOGICS:
        for logic2 in LOGICS:
            for phi in fusion_axioms(logic1, logic2):
                assert phi != com and phi != chr_
                assert len(modalities_of(phi)) <= 1


def test_generate_formulas_depth0():
    got = list(generate_formulas(0, ("p",)))
    assert atom("p") in got
    assert BOT in got
    assert implies(atom("p"), atom("p")) in got
    assert all(modal_depth(phi) == 0 for phi in got)


def test_generate_formulas_depth1_includes_modalities():
    got = list(generate_formulas(1, ("p",)))
    assert box(1, atom("p")) in got
    assert diamond(2, atom("p")) in got


def test_generate_formulas_monotone_and_deduplicated():
    small = list(generate_formulas(0, ("p",)))
    large = list(generate_formulas(1, ("p",)))
    assert len(small) < len(large)
    assert len(set(large)) == len(large)
    assert set(small) <= set(large)


def test_generate_formulas_guards():
    with pytest.raises(BudgetExceeded):
        list(generate_formulas(4, ("p",)))
    with pytest.raises(BudgetExceeded):
        list(generate_formulas(1, ("p", "q", "r")))


def test_round_trip_on_generated():
    for phi in generate_formulas(1, ("p", "q")):
        assert parse(unparse(phi)) == phi


# random ASTs over the core basis; the grammar printer must invert on all
formula_strategy = st.deferred(lambda: st.one_of(
    st.sampled_from([atom("p"), atom("q"), BOT]),
    st.builds(implies, formula_strategy, formula_strategy),
    st.builds(box, st.sampled_from([1, 2]), formula_strategy),
))


@given(formula_strategy)
def test_round_trip_property(phi):
    assert parse(unparse(phi)) == phi


@given(formula_strategy)
def test_depth_zero_means_no_box(phi):
    has_box = "[" in unparse(phi)
    assert (modal_depth(phi) == 0) == (not has_box)


def test_nesting_bound():
    assert modal_depth(parse("[1]" * MAX_NESTING + "p")) == MAX_NESTING
    for text in ("[1]" * (MAX_NESTING + 1) + "p",
                 "(" * (2 * MAX_NESTING + 1) + "p" + ")" * (2 * MAX_NESTING + 1),
                 " & ".join(["p"] * MAX_NESTING)):
        with pytest.raises(ParseError, match="nests deeper"):
            parse(text)


def test_round_trip_at_the_nesting_bound():
    # [1] (q -> ...) opens the most parentheses per level of the printed text
    phi = atom("p")
    for _ in range(MAX_NESTING // 2):
        phi = box(1, implies(atom("q"), phi))
    assert parse(unparse(phi)) == phi
    deepest_not = parse("~" * MAX_NESTING + "p")
    assert parse(unparse(deepest_not)) == deepest_not
