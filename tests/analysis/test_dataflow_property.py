"""Property-based soundness audit of the dataflow summary.

Seeded ``random`` (no wall clock, no hypothesis dependency): generate small
random specifications, run a *bounded* symbolic search collecting
which services actually fire, and assert the dataflow summary is a sound
over-approximation:

* no service that fires is reported dead, and no child that opens is
  reported dead-opening;
* every constant-environment binding is entailed by every reachable
  partial isomorphism type (extending the type with ``var != const``
  contradicts it).

Failures print the seed, so a counterexample reproduces exactly.
"""

from __future__ import annotations

import random
from typing import List, Set

import pytest

from repro.analysis.dataflow import compute_dataflow_facts
from repro.core.isotypes import NEQ
from repro.core.transitions import SymbolicTransitionSystem
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import And, Condition, Const, Eq, Neq, Or, Var
from repro.has.schema import DatabaseSchema

_CONSTANTS = ("alpha", "beta", "gamma", None)
_VARIABLES = ("x", "y", "z")
_STATE_BOUND = 160


def _random_literal(rng: random.Random, variables) -> Condition:
    left = Var(rng.choice(variables))
    if rng.random() < 0.7:
        right = Const(rng.choice(_CONSTANTS))
    else:
        right = Var(rng.choice(variables))
    return Eq(left, right) if rng.random() < 0.8 else Neq(left, right)

def _random_condition(rng: random.Random, variables=_VARIABLES, depth: int = 2) -> Condition:
    if depth == 0 or rng.random() < 0.4:
        return _random_literal(rng, variables)
    combiner = And if rng.random() < 0.6 else Or
    return combiner(
        _random_condition(rng, variables, depth - 1),
        _random_condition(rng, variables, depth - 1),
    )

def _random_system(rng: random.Random):
    schema = DatabaseSchema.from_dict({"R": {"a": None}})
    builder = ArtifactSystemBuilder(f"random-{rng.randrange(10**6)}", schema)
    root = builder.task("Main")
    for name in _VARIABLES:
        root.variable(name)
    for index in range(rng.randrange(2, 5)):
        propagated = [v for v in _VARIABLES if rng.random() < 0.4]
        root.internal_service(
            f"s{index}",
            pre=_random_condition(rng),
            post=_random_condition(rng),
            propagated=propagated,
        )
    if rng.random() < 0.6:
        child = builder.task("Child", parent="Main")
        child.variable("c")
        child.internal_service(
            "cstep",
            pre=_random_condition(rng, ("c",)),
            post=_random_condition(rng, ("c",)),
        )
        child.opening(pre=_random_condition(rng))
    return builder.build()


def _bounded_search(system, task_name: str):
    """Breadth-first bounded search of one task's local runs.

    Returns ``(fired service names, visited taus)``.
    """
    transitions = SymbolicTransitionSystem(system, task_name)
    fired: Set[str] = set()
    taus = []
    seen: Set[object] = set()
    queue: List[object] = [move.psi for move in transitions.initial_moves()]
    while queue and len(seen) < _STATE_BOUND:
        psi = queue.pop(0)
        if psi in seen:  # PSI is a frozen dataclass; hash dedups revisits
            continue
        seen.add(psi)
        taus.append(psi.tau)
        for move in transitions.successors(psi):
            if move.psi is psi:  # the terminal stutter step
                continue
            fired.add(move.service)
            queue.append(move.psi)
    return fired, taus


@pytest.mark.parametrize("seed", range(25))
def test_dataflow_summary_over_approximates_bounded_search(seed):
    rng = random.Random(seed)
    system = _random_system(rng)
    facts = compute_dataflow_facts(system)
    for task_name in system.task_names:
        task_facts = facts.for_task(task_name)
        fired, taus = _bounded_search(system, task_name)

        # 1. Dead services must not fire.
        dead_fired = fired & set(task_facts.dead_services)
        assert not dead_fired, f"seed={seed} task={task_name}: dead fired {dead_fired}"

        # 2. Dead child openings must not open.
        for child in task_facts.dead_child_openings:
            opening = system.opening_service(child).name
            assert opening not in fired, (
                f"seed={seed} task={task_name}: dead child {child!r} opened"
            )

        # 3. The constant environment is entailed by every reachable type:
        #    adding var != const must contradict it.
        transitions = SymbolicTransitionSystem(system, task_name)
        universe = transitions.universe
        for name in sorted(task_facts.constant_env):
            value = task_facts.constant_env[name]
            disagreement = [(universe.variable(name), universe.add_constant(value), NEQ)]
            for tau in taus:
                assert tau.extend(disagreement) is None, (
                    f"seed={seed} task={task_name}: env binding {name}={value!r} "
                    "not entailed by a reachable state"
                )
