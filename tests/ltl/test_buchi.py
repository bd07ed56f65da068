"""Tests of the LTL -> Büchi translation.

The key correctness test is differential: for random small formulas and random
lasso words, automaton acceptance must coincide with direct LTL evaluation on
the ultimately periodic word.
"""

import json
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark.properties import LTL_TEMPLATES
from repro.ltl.buchi import (
    BuchiAutomaton,
    ConstructionStopped,
    TransitionLabel,
    ltl_to_buchi,
)
from repro.ltl.evaluate import evaluate_finite_trace, evaluate_lasso
from repro.ltl.parser import parse_ltl
from repro.ltl.syntax import (
    And,
    Finally,
    Formula,
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
)

PROPS = ["p", "q"]
#: The placeholders of the Table 4 templates.
TEMPLATE_PROPS = ["phi", "psi"]


def _assignments(names):
    return [set(combo) for combo in _powerset(names)]


def _powerset(names):
    result = [[]]
    for name in names:
        result += [subset + [name] for subset in result]
    return result


class TestTransitionLabel:
    def test_satisfaction(self):
        label = TransitionLabel(frozenset({"p"}), frozenset({"q"}))
        assert label.satisfied_by({"p"})
        assert not label.satisfied_by({"p", "q"})
        assert not label.satisfied_by(set())

    def test_consistency(self):
        assert TransitionLabel(frozenset({"p"}), frozenset({"q"})).is_consistent()
        assert not TransitionLabel(frozenset({"p"}), frozenset({"p"})).is_consistent()

    def test_str(self):
        assert str(TransitionLabel()) == "true"
        assert "!q" in str(TransitionLabel(frozenset({"p"}), frozenset({"q"})))


class TestBasicAutomata:
    def test_globally_p_accepts_constant_p(self):
        automaton = ltl_to_buchi(parse_ltl("G p"))
        assert automaton.accepts_lasso([], [{"p"}])

    def test_globally_p_rejects_missing_p(self):
        automaton = ltl_to_buchi(parse_ltl("G p"))
        assert not automaton.accepts_lasso([{"p"}], [set()])

    def test_finally_p(self):
        automaton = ltl_to_buchi(parse_ltl("F p"))
        assert automaton.accepts_lasso([set(), {"p"}], [set()])
        assert not automaton.accepts_lasso([set()], [set()])

    def test_until(self):
        automaton = ltl_to_buchi(parse_ltl("p U q"))
        assert automaton.accepts_lasso([{"p"}, {"p"}, {"q"}], [set()])
        assert not automaton.accepts_lasso([{"p"}], [{"p"}])

    def test_next(self):
        automaton = ltl_to_buchi(parse_ltl("X p"))
        assert automaton.accepts_lasso([set(), {"p"}], [set()])
        assert not automaton.accepts_lasso([{"p"}, set()], [set()])

    def test_false_accepts_nothing(self):
        automaton = ltl_to_buchi(LFalse())
        assert not automaton.accepts_lasso([], [set()])
        assert not automaton.accepts_lasso([], [{"p"}])

    def test_true_accepts_everything(self):
        automaton = ltl_to_buchi(LTrue())
        assert automaton.accepts_lasso([], [set()])

    def test_response_property(self):
        automaton = ltl_to_buchi(parse_ltl("G (p -> F q)"))
        assert automaton.accepts_lasso([], [{"p"}, {"q"}])
        assert not automaton.accepts_lasso([], [{"p"}])

    def test_extra_propositions_recorded(self):
        automaton = ltl_to_buchi(parse_ltl("G p"), extra_propositions=["svc"])
        assert "svc" in automaton.propositions

    def test_lasso_needs_nonempty_cycle(self):
        automaton = ltl_to_buchi(parse_ltl("G p"))
        with pytest.raises(ValueError):
            automaton.accepts_lasso([{"p"}], [])

    def test_should_stop_ends_the_construction(self):
        polls = []

        def stop_on_third_poll():
            polls.append(None)
            return len(polls) >= 3

        with pytest.raises(ConstructionStopped):
            ltl_to_buchi(parse_ltl("G (p -> F q)"), should_stop=stop_on_third_poll)
        assert len(polls) == 3


def _random_formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0:
        choice = rng.random()
        if choice < 0.4:
            return Prop(rng.choice(PROPS))
        if choice < 0.5:
            return LTrue()
        if choice < 0.6:
            return LFalse()
        return Not(Prop(rng.choice(PROPS)))
    operator = rng.choice(["and", "or", "not", "next", "until", "release", "globally", "finally", "implies"])
    if operator in ("and", "or", "until", "release", "implies"):
        left = _random_formula(rng, depth - 1)
        right = _random_formula(rng, depth - 1)
        return {"and": And, "or": Or, "until": Until, "release": Release, "implies": Implies}[operator](left, right)
    operand = _random_formula(rng, depth - 1)
    return {"not": Not, "next": Next, "globally": Globally, "finally": Finally}[operator](operand)


def _random_word(rng: random.Random, props=PROPS):
    prefix = [set(p for p in props if rng.random() < 0.5) for _ in range(rng.randrange(0, 4))]
    cycle = [set(p for p in props if rng.random() < 0.5) for _ in range(rng.randrange(1, 4))]
    return prefix, cycle


class TestDifferentialAgainstSemantics:
    @pytest.mark.parametrize("seed", range(60))
    def test_buchi_acceptance_matches_direct_evaluation(self, seed):
        rng = random.Random(seed)
        formula = _random_formula(rng, rng.randrange(1, 4))
        automaton = ltl_to_buchi(formula)
        for word_seed in range(5):
            word_rng = random.Random(1000 * seed + word_seed)
            prefix, cycle = _random_word(word_rng)
            expected = evaluate_lasso(formula, prefix, cycle)
            actual = automaton.accepts_lasso(prefix, cycle)
            assert actual == expected, (
                f"formula {formula} on prefix={prefix} cycle={cycle}: "
                f"automaton={actual}, semantics={expected}"
            )

    @pytest.mark.parametrize("template", LTL_TEMPLATES, ids=lambda t: t.name)
    def test_table4_templates_on_sample_words(self, template):
        # The verifier builds the automaton of the negated property.
        formula = template.formula().negated()
        automaton = ltl_to_buchi(formula)
        rng = random.Random(zlib.crc32(template.name.encode()))
        for _ in range(40):
            prefix, cycle = _random_word(rng, TEMPLATE_PROPS)
            assert automaton.accepts_lasso(prefix, cycle) == evaluate_lasso(formula, prefix, cycle)


#: States of the reduced automaton of each negated Table 4 template.
REDUCED_STATES = {
    "false": 2,
    "always": 2,
    "until": 3,
    "until-repeated": 4,
    "respond-within-two": 4,
    "once-then-never": 5,
    "response": 2,
    "eventually": 2,
    "fair-response": 5,
    "recurrence": 2,
    "stability": 5,
    "compassion": 7,
}

_DIGEST_SCRIPT = """
import hashlib, json
from repro.benchmark.properties import LTL_TEMPLATES
from repro.ltl.buchi import ltl_to_buchi
digests = {}
for template in LTL_TEMPLATES:
    a = ltl_to_buchi(template.formula().negated())
    text = repr((
        a.states,
        sorted(a.initial_states),
        [(t.source, str(t.label), t.target) for t in a.transitions],
        sorted(a.accepting_states),
    ))
    digests[template.name] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps(digests))
"""


class TestReducedTable4Automata:
    @pytest.mark.parametrize("template", LTL_TEMPLATES, ids=lambda t: t.name)
    def test_state_count_is_pinned(self, template):
        automaton = ltl_to_buchi(template.formula().negated())
        assert len(automaton.states) == REDUCED_STATES[template.name]
        assert automaton.states == tuple(range(len(automaton.states)))
        assert automaton.initial_states == {0}

    def test_total_state_count(self):
        assert set(REDUCED_STATES) == {t.name for t in LTL_TEMPLATES}
        assert sum(REDUCED_STATES.values()) <= 43

    def test_quotient_keeps_one_transition_per_block_label_block(self):
        for template in LTL_TEMPLATES:
            automaton = ltl_to_buchi(template.formula().negated())
            triples = [(t.source, t.label, t.target) for t in automaton.transitions]
            assert len(triples) == len(set(triples)), template.name

    def test_automata_do_not_depend_on_the_hash_seed(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = []
        for seed in ("0", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            completed = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            digests.append(json.loads(completed.stdout))
        differing = sorted(name for name in digests[0] if digests[0][name] != digests[1][name])
        assert differing == []
        assert len(digests[0]) == len(LTL_TEMPLATES)


class TestLargeTableau:
    def test_tableau_size_is_not_bound_by_the_recursion_limit(self):
        # 200 reduced states.  Expanded recursively in the same formula
        # order, this tableau raises RecursionError.
        text = "(G F (!q U true)) R ((F (true U !p)) U ((p | !q) R (!q R !q)))"
        formula = parse_ltl(text)
        automaton = ltl_to_buchi(formula)
        rng = random.Random(zlib.crc32(text.encode()))
        for _ in range(20):
            prefix, cycle = _random_word(rng)
            assert automaton.accepts_lasso(prefix, cycle) == evaluate_lasso(formula, prefix, cycle)


class TestEvaluators:
    def test_finite_trace_stutter_semantics(self):
        formula = parse_ltl("F p")
        assert evaluate_finite_trace(formula, [set(), {"p"}])
        assert not evaluate_finite_trace(formula, [set(), set()])

    def test_finite_trace_globally(self):
        formula = parse_ltl("G p")
        assert evaluate_finite_trace(formula, [{"p"}, {"p"}])
        assert not evaluate_finite_trace(formula, [{"p"}, set()])

    def test_finite_trace_next_stutters_at_end(self):
        formula = parse_ltl("X p")
        assert evaluate_finite_trace(formula, [{"p"}])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            evaluate_finite_trace(parse_ltl("G p"), [])

    def test_lasso_requires_cycle(self):
        with pytest.raises(ValueError):
            evaluate_lasso(parse_ltl("G p"), [{"p"}], [])

    @given(st.lists(st.sets(st.sampled_from(PROPS)), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_globally_equals_all_positions(self, trace):
        formula = parse_ltl("G p")
        assert evaluate_finite_trace(formula, trace) == all("p" in letter for letter in trace)

    @given(st.lists(st.sets(st.sampled_from(PROPS)), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_finally_equals_some_position(self, trace):
        formula = parse_ltl("F p")
        assert evaluate_finite_trace(formula, trace) == any("p" in letter for letter in trace)
