"""Modal logic of neighborhood products of tree frames.

The package checks, on finite enumeration windows and with exact constructed
witnesses, the frame-theoretic facts behind the product-of-tree-frames
analysis: fusion axioms are sound on products, the commutation and
Church-Rosser interaction axioms fail on the pseudo-infinite construction,
and the lexicographic order supplies the dense endpoint-free evidence used
for the rational-line corollaries.
"""

from .countermodel import (Bounds, Certificate, DEFAULT_BOUNDS,
                           check_chr_certificate, check_com_certificate,
                           const_true_valuation, eval_bounded,
                           st_chr_valuation, st_com_valuation)
from .formula import (Atom, AxiomScheme, BOT, Bottom, Box, Formula, Implies,
                      LOGICS, ParseError, TOP, and_, atom, atoms,
                      axiom_instance, box, diamond, fusion_axioms,
                      generate_formulas, implies, modal_depth, modalities_of,
                      not_, or_, parse, top, unparse)
from .kripke import (FiniteKripkeFrame, FrameKind, SymbolicTreeFrame,
                     TaggedWord, Word, check_fractal, enumerate_tagged_words,
                     enumerate_words, fusion_word_rel,
                     tagged_word, word, word_rel)
from .nbhd import (Characteristics, Counterexample, FiniteNFrame,
                   FiniteNModel, check_bounded_morphism,
                   check_truth_preservation, denotation, nof, product_n,
                   satisfies, structural_characteristics, valid_on_frame,
                   validate_frame)
from .omega import (ProductPoint, PseudoSeq, axiom_evidence, check_chain,
                    enumerate_pseudo, forget_zeros, g_map, g_preimage,
                    lex_between, lex_compare, lex_window_compare,
                    lex_window_compares, lift, prefix, product_u_contains, pseudo,
                    strict_bounds_witnesses, u_contains,
                    verify_ff_morphism, verify_g_morphism, zero_seq)
from .report import BudgetExceeded, VerificationReport

__version__ = "0.1.0"
