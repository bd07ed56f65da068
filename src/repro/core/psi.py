"""Partial symbolic instances (Definitions 19 and 30).

A partial symbolic instance (PSI) of a task bundles

* ``tau``       -- the partial isomorphism type of the current artifact tuple,
* ``counters``  -- for every artifact relation of the task and every stored
  tuple type, how many stored tuples share that type (values in ℕ ∪ {ω}),
* ``children``  -- the active/inactive status of each child task (the r̄
  component of Definition 30).

PSIs are immutable and hashable; the search layer wraps them together with a
Büchi automaton state into product states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.core.isotypes import PartialIsoType


class _Omega:
    """The ordinal ω: larger than every natural number, absorbing under ±."""

    _instance: Optional["_Omega"] = None

    def __new__(cls) -> "_Omega":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ω"


#: Singleton ω value of accelerated counters; every check is ``is OMEGA``.
OMEGA = _Omega()

CounterValue = Union[int, object]  # int or OMEGA
CounterKey = Tuple[str, PartialIsoType]  # (artifact relation name, stored tuple type)


def counter_leq(left: CounterValue, right: CounterValue) -> bool:
    """``left <= right`` over ℕ ∪ {ω}."""
    if right is OMEGA:
        return True
    if left is OMEGA:
        return False
    return left <= right


def counter_add(value: CounterValue, delta: int) -> CounterValue:
    """Addition over ℕ ∪ {ω} (ω is absorbing)."""
    if value is OMEGA:
        return OMEGA
    return value + delta


@dataclass(frozen=True)
class PSI:
    """An immutable partial symbolic instance."""

    tau: PartialIsoType
    counters: Tuple[Tuple[CounterKey, CounterValue], ...] = ()
    children: Tuple[Tuple[str, bool], ...] = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def make(
        tau: PartialIsoType,
        counters: Optional[Mapping[CounterKey, CounterValue]] = None,
        children: Optional[Mapping[str, bool]] = None,
    ) -> "PSI":
        """Normalised constructor: zero counters dropped, deterministic ordering."""
        counter_items: Tuple[Tuple[CounterKey, CounterValue], ...] = ()
        if counters:
            kept = {k: v for k, v in counters.items() if v is OMEGA or v > 0}
            counter_items = tuple(
                sorted(kept.items(), key=lambda item: (item[0][0], item[0][1].sorted_key()))
            )
        child_items: Tuple[Tuple[str, bool], ...] = ()
        if children:
            child_items = tuple(sorted(children.items()))
        return PSI(tau, counter_items, child_items)

    # -- counters --------------------------------------------------------------

    def counter_map(self) -> Dict[CounterKey, CounterValue]:
        return dict(self.counters)

    def count(self, key: CounterKey) -> CounterValue:
        for existing, value in self.counters:
            if existing == key:
                return value
        return 0

    def total_stored(self) -> CounterValue:
        """Total number of stored tuples (ω when any counter is ω)."""
        total = 0
        for _key, value in self.counters:
            if value is OMEGA:
                return OMEGA
            total += value
        return total

    def has_omega(self) -> bool:
        return any(value is OMEGA for _key, value in self.counters)

    def with_counter_delta(self, key: CounterKey, delta: int) -> Optional["PSI"]:
        """A new PSI with ``counters[key] += delta``; ``None`` if it would go negative."""
        counters = self.counter_map()
        current = counters.get(key, 0)
        updated = counter_add(current, delta)
        if updated is not OMEGA and updated < 0:
            return None
        counters[key] = updated
        return PSI.make(self.tau, counters, self.child_map())

    def with_tau(self, tau: PartialIsoType) -> "PSI":
        # The counters and children are already normalised: reuse them.
        return PSI(tau, self.counters, self.children)

    def with_counters(self, counters: Mapping[CounterKey, CounterValue]) -> "PSI":
        return PSI.make(self.tau, counters, self.child_map())

    # -- children ----------------------------------------------------------------

    def child_map(self) -> Dict[str, bool]:
        return dict(self.children)

    def child_active(self, child: str) -> bool:
        return dict(self.children).get(child, False)

    def any_child_active(self) -> bool:
        return any(active for _child, active in self.children)

    def with_child(self, child: str, active: bool) -> "PSI":
        children = self.child_map()
        children[child] = active
        return PSI(self.tau, self.counters, tuple(sorted(children.items())))

    # -- misc ---------------------------------------------------------------------

    def describe(self) -> str:
        """A human-readable summary (used by counterexample printing)."""
        parts = [repr(self.tau)]
        for (relation, stored_type), value in self.counters:
            count = "ω" if value is OMEGA else str(value)
            parts.append(f"{relation}[{count} × {stored_type!r}]")
        active = [child for child, is_active in self.children if is_active]
        if active:
            parts.append(f"active children: {', '.join(active)}")
        return "; ".join(parts)
