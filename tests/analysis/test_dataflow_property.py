"""Property-based soundness audit of the dataflow enablement summary.

Seeded ``random`` (no wall clock, no hypothesis dependency): generate small
random specifications, run a *bounded* symbolic search collecting
which services actually fire, and assert the dataflow summary is a sound
over-approximation:

* no service that fires is reported dead, and no child that opens is
  reported dead-opening;
* every constant-environment binding is entailed by every reachable
  partial isomorphism type (extending the type with ``var != const``
  contradicts it);
* no at-most-once service fires twice on any explored path.

Failures print the seed, so a counterexample reproduces exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

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

    Returns ``(fired service names, visited taus, per-path service counts)``.
    The per-path counts record, for each explored path, how often each
    internal service fired along it (for the at-most-once audit); paths are
    cut at the state bound, which can only *under*-count firings -- the
    sound direction for auditing an over-approximation.
    """
    transitions = SymbolicTransitionSystem(system, task_name)
    fired: Set[str] = set()
    taus = []
    seen: Set[object] = set()
    max_fires: Dict[str, int] = {}
    queue: List[Tuple[object, Dict[str, int]]] = []
    for move in transitions.initial_moves():
        queue.append((move.psi, {}))
    while queue and len(seen) < _STATE_BOUND:
        psi, counts = queue.pop(0)
        if psi in seen:  # PSI is a frozen dataclass; hash dedups revisits
            continue
        seen.add(psi)
        taus.append(psi.tau)
        for move in transitions.successors(psi):
            if move.psi is psi:  # the terminal stutter step
                continue
            fired.add(move.service)
            next_counts = dict(counts)
            next_counts[move.service] = next_counts.get(move.service, 0) + 1
            if next_counts[move.service] > max_fires.get(move.service, 0):
                max_fires[move.service] = next_counts[move.service]
            queue.append((move.psi, next_counts))
    return fired, taus, max_fires


@pytest.mark.parametrize("seed", range(25))
def test_dataflow_summary_over_approximates_bounded_search(seed):
    rng = random.Random(seed)
    system = _random_system(rng)
    facts = compute_dataflow_facts(system)
    for task_name in system.task_names:
        task_facts = facts.for_task(task_name)
        fired, taus, max_fires = _bounded_search(system, task_name)

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

        # 4. At-most-once services never fire twice on one explored path.
        for service in task_facts.at_most_once_services:
            assert max_fires.get(service, 0) <= 1, (
                f"seed={seed} task={task_name}: at-most-once service "
                f"{service!r} fired {max_fires[service]} times on one path"
            )
