"""Expression ids, and so the search, depend only on the spec and the property.

Partial isomorphism types work on the int ids of their expression universe,
and the order of stored-tuple counters follows those ids.  Every constant of
the spec and the property is registered up front, in a fixed order and in
every universe, so neither exploration history nor the string hash seed can
change an id.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.benchmark.properties import LTL_TEMPLATES, generate_properties
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES
from repro.core.expressions import ConstExpr
from repro.core.transitions import SymbolicTransitionSystem

SRC = Path(__file__).resolve().parents[2] / "src"


def _property(system, template, draw):
    names = [t.name for t in LTL_TEMPLATES]
    return generate_properties(system, seed=draw)[names.index(template)]


def _expand(transitions, pop_index, limit=60):
    """Expand up to *limit* PSIs, taking the worklist's entry at *pop_index* each time."""
    seen = set()
    worklist = [move.psi for move in transitions.initial_moves()]
    while worklist and len(seen) < limit:
        psi = worklist.pop(pop_index)
        if psi in seen:
            continue
        seen.add(psi)
        worklist.extend(move.psi for move in transitions.successors(psi))
    return seen


def _universes(transitions):
    return [transitions.universe, *transitions._relation_universes.values()]


def test_ids_do_not_depend_on_exploration_order():
    system = REAL_WORKFLOW_FACTORIES["order-fulfillment"]()
    ltl_property = _property(system, "until", 0)
    depth_first = SymbolicTransitionSystem(system, system.root, ltl_property)
    breadth_first = SymbolicTransitionSystem(system, system.root, ltl_property)
    first = _expand(depth_first, -1)
    second = _expand(breadth_first, 0)
    assert any(psi.counters for psi in first | second), "the search must store tuples"
    assert len(_universes(depth_first)) > 1
    for left, right in zip(_universes(depth_first), _universes(breadth_first)):
        assert left.ids == right.ids
        # Constants follow null in sorted (type name, repr) order.
        constants = [c.value for c in left.constants if not c.is_null]
        assert constants == sorted(constants, key=lambda v: (type(v).__name__, repr(v)))
        assert left.constants[0] == ConstExpr(None)


_VERIFY_ONE = """
import json
from repro import Verifier, VerifierOptions
from repro.benchmark.properties import LTL_TEMPLATES, generate_properties
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES

system = REAL_WORKFLOW_FACTORIES["expense-reimbursement"]()
names = [t.name for t in LTL_TEMPLATES]
ltl_property = generate_properties(system, seed=2)[names.index("once-then-never")]
options = VerifierOptions(max_states=80, max_repeated_states=80, timeout_seconds=60)
result = Verifier(system, options).verify(ltl_property)
print(json.dumps([result.outcome.value, result.stats.states_explored,
                  result.stats.repeated_phase_states]))
"""


def _verify_under_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _VERIFY_ONE],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_exploration_does_not_depend_on_the_hash_seed():
    # This pair's exploration follows the order of stored-tuple counters:
    # ordered by the string of a frozenset key, it explored 81 states under
    # one of these hash seeds and 82 under the other.
    assert _verify_under_hash_seed(1) == _verify_under_hash_seed(7)
