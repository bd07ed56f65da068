"""Per-layer timing for the in-process workloads, from outside the program.

The traced run wraps the public entry points of each ``repro`` layer with
a timing shim.  A shim records calls, inclusive time and *self* time (its
time minus the time of the wrapped calls made inside it), so the per-layer
milliseconds add up instead of double counting.  Nothing in ``src/`` is
changed: the shims are installed on the classes and modules at run time and
removed again by :meth:`LayerTracer.uninstall`.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# Shim names; the metric names in BENCHMARK.json derive from them.
VERIFY = "verifier.verify"
FACTS = "analysis.facts"
BUCHI = "ltl.buchi"
SUCCESSORS = "core.transitions.successors"
SYNC = "core.product.sync"
QUERY = "core.indexes.query"
COVERAGE = "core.coverage"
SEARCH = "core.karp_miller.search"
ACCELERATE = "core.karp_miller.accelerate"
REPEATED = "core.repeated"


class LayerTracer:
    """Installs timing shims and accumulates per-layer totals."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds and calls keyed by (shim, enclosing shim or None).
        self.inclusive_under: Dict[Tuple[str, Optional[str]], float] = defaultdict(float)
        self.calls_under: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._psis: set = set()

    # ------------------------------------------------------------------ shims

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_enter: Optional[Callable[[], None]] = None,
        on_exit: Optional[Callable[[Optional[str], tuple, Any], None]] = None,
    ) -> None:
        original = getattr(owner, attr)
        stack = self._stack

        @functools.wraps(original)
        def shim(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if on_enter is not None:
                on_enter()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.inclusive_under[(name, parent)] += elapsed
                self.calls_under[(name, parent)] += 1
            if on_exit is not None:
                on_exit(parent, args, result)
            return result

        setattr(owner, attr, shim)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer's entry points (call before building verifiers:
        ``KarpMillerSearch`` binds its coverage function at construction)."""
        import repro.analysis as analysis
        import repro.core.karp_miller as karp_miller
        import repro.core.repeated as repeated
        import repro.core.verifier as verifier
        from repro.core.indexes import ActiveStateIndex
        from repro.core.product import ProductSystem
        from repro.core.transitions import SymbolicTransitionSystem

        def new_verify() -> None:
            self.counts["distinct_psis"] += len(self._psis)
            self._psis.clear()

        def on_buchi(_parent: Optional[str], _args: tuple, automaton: Any) -> None:
            self.counts["buchi_states"] += len(automaton.states)

        def on_successors(_parent: Optional[str], args: tuple, _result: Any) -> None:
            self._psis.add(args[1])

        def on_query(_parent: Optional[str], _args: tuple, candidates: Any) -> None:
            self.counts["candidates"] += len(candidates)

        def on_cover(parent: Optional[str], _args: tuple, covered: bool) -> None:
            # Checks made straight from the search loop are the exact tests
            # run on index candidates (acceleration has its own shim).
            if parent == SEARCH:
                self.counts["candidate_checks"] += 1
                self.counts["candidate_hits"] += bool(covered)

        self.wrap(verifier.Verifier, "verify", VERIFY, on_enter=new_verify)
        self.wrap(analysis, "compute_static_facts", FACTS)
        self.wrap(analysis, "compute_dataflow_facts", FACTS)
        self.wrap(verifier, "ltl_to_buchi", BUCHI, on_exit=on_buchi)
        self.wrap(SymbolicTransitionSystem, "successors", SUCCESSORS, on_exit=on_successors)
        self.wrap(ProductSystem, "successors", SYNC)
        self.wrap(ActiveStateIndex, "candidates_covering", QUERY, on_exit=on_query)
        self.wrap(ActiveStateIndex, "candidates_covered_by", QUERY, on_exit=on_query)
        self.wrap(karp_miller, "covers_preceq", COVERAGE, on_exit=on_cover)
        self.wrap(karp_miller, "covers_leq", COVERAGE, on_exit=on_cover)
        self.wrap(repeated, "covers_leq", COVERAGE)
        self.wrap(karp_miller.KarpMillerSearch, "run", SEARCH)
        self.wrap(karp_miller.KarpMillerSearch, "_accelerate", ACCELERATE)
        self.wrap(repeated.RepeatedReachabilityAnalyzer, "analyse", REPEATED)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- metrics

    def metrics(self, verdicts: int) -> Dict[str, float]:
        """Per-verdict layer metrics (milliseconds and counts per verify)."""
        self.counts["distinct_psis"] += len(self._psis)
        self._psis.clear()
        per = 1.0 / max(1, verdicts)

        def ms(seconds: float) -> float:
            return 1000.0 * seconds * per

        main_search = self.inclusive_under[(SEARCH, VERIFY)]
        successor_calls = self.calls[SUCCESSORS]
        candidates = self.counts["candidates"]
        return {
            "verifier.setup_ms": ms(
                self.inclusive[VERIFY] - main_search - self.inclusive[REPEATED]
            ),
            "analysis.facts_ms": ms(self.inclusive[FACTS]),
            "ltl.buchi_ms": ms(self.self_time[BUCHI]),
            "ltl.buchi_states": self.counts["buchi_states"] * per,
            "core.transitions.successors_calls": successor_calls * per,
            "core.transitions.successors_ms": ms(self.self_time[SUCCESSORS]),
            "core.transitions.distinct_psi_share": (
                self.counts["distinct_psis"] / successor_calls if successor_calls else 0.0
            ),
            "core.product.sync_ms": ms(self.self_time[SYNC]),
            "core.indexes.query_ms": ms(self.self_time[QUERY]),
            "core.indexes.candidates_per_query": (
                candidates / self.calls[QUERY] if self.calls[QUERY] else 0.0
            ),
            "core.indexes.candidate_hit_share": (
                self.counts["candidate_hits"] / candidates if candidates else 0.0
            ),
            "core.coverage.checks": self.calls[COVERAGE] * per,
            "core.coverage.ms": ms(self.self_time[COVERAGE]),
            "core.karp_miller.search_self_ms": ms(self.self_time[SEARCH]),
            "core.karp_miller.accelerate_ms": ms(self.self_time[ACCELERATE]),
            "core.repeated.ms": ms(self.inclusive[REPEATED]),
            "core.repeated.classic_searches": self.calls_under[(SEARCH, REPEATED)] * per,
        }
