"""Unit tests for LTL syntax, NNF conversion and the parser."""

import pytest

from repro.ltl.parser import MAX_FORMULA_DEPTH, LTLParseError, parse_ltl
from repro.ltl.syntax import (
    And,
    Finally,
    Globally,
    Implies,
    LFalse,
    LTrue,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
    F,
    G,
    U,
    X,
)


class TestSyntax:
    def test_propositions_collects_names(self):
        formula = G(Prop("p") >> F(Prop("q")))
        assert formula.propositions() == {"p", "q"}

    def test_operator_overloads(self):
        formula = (Prop("p") & Prop("q")) | ~Prop("r")
        assert isinstance(formula, Or)
        assert formula.propositions() == {"p", "q", "r"}

    def test_nnf_globally(self):
        assert G(Prop("p")).nnf() == Release(LFalse(), Prop("p"))

    def test_nnf_finally(self):
        assert F(Prop("p")).nnf() == Until(LTrue(), Prop("p"))

    def test_nnf_negated_until_is_release(self):
        assert Not(U(Prop("p"), Prop("q"))).nnf() == Release(Not(Prop("p")), Not(Prop("q")))

    def test_nnf_negated_next(self):
        assert Not(X(Prop("p"))).nnf() == Next(Not(Prop("p")))

    def test_nnf_implication(self):
        assert Implies(Prop("p"), Prop("q")).nnf() == Or(Not(Prop("p")), Prop("q"))

    def test_negated_is_nnf_of_negation(self):
        formula = G(Prop("p"))
        assert formula.negated() == Until(LTrue(), Not(Prop("p")))

    def test_double_negation_eliminated(self):
        assert Not(Not(Prop("p"))).nnf() == Prop("p")

    def test_subformulas_deduplicated(self):
        formula = And(Prop("p"), Prop("p"))
        assert len(formula.subformulas()) == 2  # the conjunction and one proposition

    def test_str_round_trip_through_parser(self):
        formula = G(Implies(Prop("p"), F(Prop("q"))))
        assert parse_ltl(str(formula)) == formula


class TestParser:
    def test_simple_proposition(self):
        assert parse_ltl("p") == Prop("p")

    def test_constants(self):
        assert parse_ltl("true") == LTrue()
        assert parse_ltl("false") == LFalse()

    def test_unary_operators(self):
        assert parse_ltl("G p") == Globally(Prop("p"))
        assert parse_ltl("F p") == Finally(Prop("p"))
        assert parse_ltl("X p") == Next(Prop("p"))
        assert parse_ltl("! p") == Not(Prop("p"))

    def test_precedence_and_over_or(self):
        assert parse_ltl("p & q | r") == Or(And(Prop("p"), Prop("q")), Prop("r"))

    def test_until_binds_looser_than_or(self):
        assert parse_ltl("p | q U r") == Until(Or(Prop("p"), Prop("q")), Prop("r"))

    def test_until_right_associative(self):
        assert parse_ltl("p U q U r") == Until(Prop("p"), Until(Prop("q"), Prop("r")))

    def test_release(self):
        assert parse_ltl("p R q") == Release(Prop("p"), Prop("q"))

    def test_implication(self):
        assert parse_ltl("p -> q") == Implies(Prop("p"), Prop("q"))

    def test_biconditional_expands(self):
        formula = parse_ltl("p <-> q")
        assert formula == And(Implies(Prop("p"), Prop("q")), Implies(Prop("q"), Prop("p")))

    def test_parentheses(self):
        assert parse_ltl("G (p -> F q)") == Globally(Implies(Prop("p"), Finally(Prop("q"))))

    def test_identifiers_with_underscores_and_dots(self):
        assert parse_ltl("open_ShipItem & x.status") == And(
            Prop("open_ShipItem"), Prop("x.status")
        )

    def test_nested_temporal(self):
        formula = parse_ltl("G (phi -> (psi | X psi | X X psi))")
        assert formula.propositions() == {"phi", "psi"}

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(LTLParseError):
            parse_ltl("(p & q")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(LTLParseError):
            parse_ltl("p q")

    def test_empty_input_rejected(self):
        with pytest.raises(LTLParseError):
            parse_ltl("")

    def test_invalid_character_rejected(self):
        with pytest.raises(LTLParseError):
            parse_ltl("p # q")


class TestNestingDepth:
    def test_formula_at_the_limit_parses(self):
        formula = parse_ltl("X " * MAX_FORMULA_DEPTH + "p")
        for _ in range(MAX_FORMULA_DEPTH):
            assert isinstance(formula, Next)
            formula = formula.operand
        assert formula == Prop("p")

    @pytest.mark.parametrize("depth", [MAX_FORMULA_DEPTH + 1, 2000, 100000])
    def test_deeper_formula_is_rejected_with_the_limit_named(self, depth):
        with pytest.raises(LTLParseError, match=f"deeper than {MAX_FORMULA_DEPTH}"):
            parse_ltl("X " * depth + "p")

    def test_left_associative_chain_counts_every_operator(self):
        assert parse_ltl(" & ".join(["p"] * (MAX_FORMULA_DEPTH + 1)))
        with pytest.raises(LTLParseError, match=f"deeper than {MAX_FORMULA_DEPTH}"):
            parse_ltl(" & ".join(["p"] * (MAX_FORMULA_DEPTH + 2)))

    def test_right_associative_until_chain(self):
        with pytest.raises(LTLParseError, match=f"deeper than {MAX_FORMULA_DEPTH}"):
            parse_ltl(" U ".join(["p"] * (MAX_FORMULA_DEPTH + 2)))

    def test_biconditional_counts_its_expansion(self):
        text = "X " * (MAX_FORMULA_DEPTH - 2) + "(p <-> q)"
        assert parse_ltl(text)
        with pytest.raises(LTLParseError, match=f"deeper than {MAX_FORMULA_DEPTH}"):
            parse_ltl("X " + text)

    def test_parentheses_do_not_count_and_do_not_recurse(self):
        assert parse_ltl("(" * 5000 + "p" + ")" * 5000) == Prop("p")
        with pytest.raises(LTLParseError):
            parse_ltl("(" * 5000 + "p" + ")" * 4999)

    def test_rendering_of_a_formula_at_the_limit_parses_back(self):
        # str() parenthesises every operand; the text a spec file or a job
        # row stores must parse back at the same depth.
        half = MAX_FORMULA_DEPTH // 2
        formula = parse_ltl("G (" * half + "p" + " & q)" * half)
        assert parse_ltl(str(formula)) == formula
