#!/usr/bin/env python3
"""AST lint for the repo's cross-cutting code invariants (CI gate).

Each scanned tree declares which rules apply to it (``SCANNED_TREES``).

**RT001 -- no bare ``time.time()`` in lease/heartbeat/TTL code**
(``src/repro/server``, ``src/repro/tenancy``).  The job store runs on a
monotonic-anchored clock (``JobStore._now``) so an NTP step can neither
mass-expire TTL'd jobs nor immortalise stale leases.  A bare
``time.time()`` in these trees reintroduces wall-clock arithmetic; new
call sites must justify themselves (display-only stamps, the anchors
themselves) by being added to the baseline file in a reviewed commit.

**TX001 -- no store mutation outside a ``BEGIN IMMEDIATE`` helper**
(``src/repro/server``, ``src/repro/tenancy``).  Every
INSERT/UPDATE/DELETE against the store must run inside
``with self._write(...)`` / ``with store.write_transaction(...)`` (one
atomic transaction per mutating method) or in a helper that receives the
open transaction's connection as a ``conn``/``connection`` parameter.
A naked ``cursor.execute("UPDATE ...")`` autocommits per-statement and
silently breaks crash atomicity and the multi-process claim protocol.

**RT002 -- no bare ``time.time()`` in the core search**
(``src/repro/core``).  Search budgets run on ``time.monotonic`` deadlines
and verification results are content-addressed: wall-clock reads in the
hot path make runs irreproducible and deadline math NTP-sensitive.
Display-only stamps (the progress-event ``emit`` hook) are grandfathered.

**DF001 -- no iteration-order-dependent loops in the dataflow pass**
(``src/repro/analysis/dataflow.py``).  The dataflow facts order the
VA302/VA504 lint diagnostics, whose determinism is asserted by the lint
goldens and relied on by the submit-path gate; iterating a dict/set (``for x in {...}``, ``.items()``,
``set(...)``) without ``sorted(...)`` makes the emitted tuples depend on
hash order.  Wrap the iterable in ``sorted(...)`` instead.

**IO001 -- the client protocol core stays sans-IO**
(``src/repro/client/core.py``).  Both clients share one protocol core that
builds requests, reads responses and runs the polling algorithms without
touching the network or the clock's sleep; the transports do the I/O.  An
import of ``socket``, ``ssl``, ``asyncio``, ``urllib.request`` or
``http.client`` there, or a ``time.sleep`` call, pulls I/O back into the
core and forks the two transports' behaviour again.

**RC001 -- no ``sys.setrecursionlimit`` anywhere in the package**
(``src/repro``).  The recursion limit is global to the process, so raising
it inside a library call is a side effect on every thread of a server; and
on Python 3.9/3.10 deep Python recursion also runs on the C stack, which a
raised limit lets overflow.  Graph searches keep an explicit stack instead.
A call, a reference (``sys.setrecursionlimit`` passed around) and
``from sys import setrecursionlimit`` all count; the rule has no baseline
entries.

**AB001 -- no ablation switches on the public surfaces**
(``src/repro/{server,service,client,api,spec}``, ``src/repro/cli.py``).
``repro.core.options.Ablation`` turns off optimisations for the paper's
Section 4 experiments, and two of its switches change the question the
verifier answers.  The API, the CLI, the service and the spec layer accept
the three budgets of ``VerifierOptions`` only; importing ``Ablation`` (or
reaching it as an attribute) there would let a client ask for an unsound
answer again.  The rule has no baseline entries.

Violations are identified as ``<relpath>::<rule>::<enclosing function>``
and checked against ``tools/lint_invariants_baseline.txt``: existing,
reviewed call sites are grandfathered; anything new fails the build.
Run with ``--update-baseline`` to regenerate the file after a reviewed
change, and commit the diff.

Exit codes: 0 clean (stale baseline entries are reported but pass),
1 new violations, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: (tree or single file, rules enforced there)
SCANNED_TREES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (os.path.join("src", "repro", "server"), ("RT001", "TX001")),
    (os.path.join("src", "repro", "tenancy"), ("RT001", "TX001")),
    (os.path.join("src", "repro", "core"), ("RT002",)),
    (os.path.join("src", "repro", "analysis", "dataflow.py"), ("DF001",)),
    (os.path.join("src", "repro", "client", "core.py"), ("IO001",)),
    (os.path.join("src", "repro"), ("RC001",)),
    (os.path.join("src", "repro", "server"), ("AB001",)),
    (os.path.join("src", "repro", "service"), ("AB001",)),
    (os.path.join("src", "repro", "client"), ("AB001",)),
    (os.path.join("src", "repro", "api"), ("AB001",)),
    (os.path.join("src", "repro", "spec"), ("AB001",)),
    (os.path.join("src", "repro", "cli.py"), ("AB001",)),
)
BASELINE_PATH = os.path.join(REPO_ROOT, "tools", "lint_invariants_baseline.txt")

MUTATING_PREFIXES = ("INSERT", "UPDATE", "DELETE", "REPLACE")
WRITE_HELPER_NAMES = ("_write", "write_transaction")
#: Modules (and their submodules) the sans-IO client core must not import;
#: ``time.sleep`` catches ``from time import sleep``.
IO_MODULES = ("socket", "ssl", "asyncio", "urllib.request", "http.client", "time.sleep")
CONNECTION_PARAMS = ("conn", "connection")
#: The harness-only configuration AB001 keeps off the public surfaces.
ABLATION_NAME = "Ablation"


class Violation:
    def __init__(self, path: str, rule: str, function: str, lineno: int, message: str):
        self.path = path
        self.rule = rule
        self.function = function
        self.lineno = lineno
        self.message = message

    @property
    def key(self) -> str:
        """Stable identity for the baseline: line numbers churn, the
        (file, rule, enclosing function) triple survives refactors."""
        return f"{self.path}::{self.rule}::{self.function}"

    def render(self) -> str:
        return f"{self.path}:{self.lineno}: {self.rule} [{self.function}] {self.message}"


def _first_sql_literal(node: ast.AST) -> Optional[str]:
    """The leading string content of an .execute() SQL argument, looking
    through f-strings and implicit/explicit concatenation."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        return _first_sql_literal(node.values[0])
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _first_sql_literal(node.left)
    return None


def _is_write_helper_call(node: ast.AST) -> bool:
    """``self._write(...)``, ``store.write_transaction(...)`` etc."""
    if not isinstance(node, ast.Call):
        return False
    callee = node.func
    name = callee.attr if isinstance(callee, ast.Attribute) else (
        callee.id if isinstance(callee, ast.Name) else None
    )
    return name in WRITE_HELPER_NAMES


_UNORDERED_BUILTINS = ("set", "dict", "frozenset")
_UNORDERED_METHODS = ("keys", "values", "items")


def _is_unordered_iterable(node: ast.AST) -> Optional[str]:
    """A human-readable label when *node* is a syntactically-unordered
    iterable (dict/set display or comprehension, ``set(...)``-style call,
    ``.keys()/.values()/.items()``); ``None`` otherwise."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, ast.Call):
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id in _UNORDERED_BUILTINS:
            return f"{callee.id}(...)"
        if isinstance(callee, ast.Attribute) and callee.attr in _UNORDERED_METHODS:
            return f".{callee.attr}()"
    return None


class _InvariantVisitor(ast.NodeVisitor):
    def __init__(self, relpath: str, rules: FrozenSet[str]):
        self.relpath = relpath
        self.rules = rules
        self.violations: List[Violation] = []
        self._function_stack: List[str] = ["<module>"]
        self._write_depth = 0
        self._connection_params: List[Set[str]] = [set()]

    # ------------------------------------------------------------- scoping

    def _visit_function(self, node) -> None:
        params = {
            a.arg
            for a in list(node.args.args)
            + list(node.args.posonlyargs)
            + list(node.args.kwonlyargs)
        }
        self._function_stack.append(node.name)
        self._connection_params.append(
            {p for p in params if p in CONNECTION_PARAMS}
        )
        self.generic_visit(node)
        self._connection_params.pop()
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node: ast.With) -> None:
        is_write = any(_is_write_helper_call(item.context_expr) for item in node.items)
        if is_write:
            self._write_depth += 1
        self.generic_visit(node)
        if is_write:
            self._write_depth -= 1

    # --------------------------------------------------------------- rules

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_io_import([alias.name], node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            self._check_io_import([node.module] + names, node.lineno)
            if "sys.setrecursionlimit" in names:
                self._record_recursion_limit(node.lineno)
        if any(alias.name == ABLATION_NAME for alias in node.names):
            self._record_ablation(node.lineno)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr == "setrecursionlimit"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ):
            self._record_recursion_limit(node.lineno)
        if node.attr == ABLATION_NAME:
            self._record_ablation(node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_time_time(node)
        self._check_sleep(node)
        if "TX001" in self.rules:
            self._check_mutation(node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_node(self, node) -> None:
        if "DF001" in self.rules:
            for generator in node.generators:
                self._check_unordered_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_node
    visit_SetComp = _visit_comprehension_node
    visit_DictComp = _visit_comprehension_node
    visit_GeneratorExp = _visit_comprehension_node

    def _check_time_time(self, node: ast.Call) -> None:
        callee = node.func
        if not (
            isinstance(callee, ast.Attribute)
            and callee.attr == "time"
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "time"
        ):
            return
        if "RT001" in self.rules:
            self._record(
                "RT001",
                node.lineno,
                "bare time.time(): lease/heartbeat/TTL math must use the "
                "monotonic-anchored store clock (JobStore._now/_shared_now)",
            )
        elif "RT002" in self.rules:
            self._record(
                "RT002",
                node.lineno,
                "bare time.time() in the core search: budgets/deadlines must "
                "use time.monotonic and results must not embed wall time",
            )

    def _check_io_import(self, modules: List[str], lineno: int) -> None:
        """Record one IO001 for the first of *modules* that is banned."""
        if "IO001" not in self.rules:
            return
        for module in modules:
            if any(module == banned or module.startswith(banned + ".") for banned in IO_MODULES):
                self._record(
                    "IO001",
                    lineno,
                    f"import of {module}: the client protocol core does no I/O "
                    "-- sending and sleeping belong to the transports",
                )
                return

    def _check_sleep(self, node: ast.Call) -> None:
        callee = node.func
        if "IO001" in self.rules and (
            isinstance(callee, ast.Attribute)
            and callee.attr == "sleep"
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "time"
        ):
            self._record(
                "IO001",
                node.lineno,
                "time.sleep() in the client protocol core: yield a Sleep step "
                "and let the transport sleep",
            )

    def _record_recursion_limit(self, lineno: int) -> None:
        if "RC001" in self.rules:
            self._record(
                "RC001",
                lineno,
                "sys.setrecursionlimit changes a process-wide limit: keep an "
                "explicit stack instead of recursing",
            )

    def _record_ablation(self, lineno: int) -> None:
        if "AB001" in self.rules:
            self._record(
                "AB001",
                lineno,
                "Ablation on a public surface: the API, CLI, service and spec "
                "layers take the VerifierOptions budgets only",
            )

    def _check_unordered_iteration(self, iterable: ast.AST) -> None:
        if "DF001" not in self.rules:
            return
        label = _is_unordered_iterable(iterable)
        if label is not None:
            self._record(
                "DF001",
                iterable.lineno,
                f"iteration over unordered {label}: dataflow facts must be "
                "hash-order independent -- wrap the iterable in sorted(...)",
            )

    def _check_mutation(self, node: ast.Call) -> None:
        callee = node.func
        if not (isinstance(callee, ast.Attribute) and callee.attr in ("execute", "executemany")):
            return
        if not node.args:
            return
        sql = _first_sql_literal(node.args[0])
        if sql is None or not sql.lstrip().upper().startswith(MUTATING_PREFIXES):
            return
        if self._write_depth > 0:
            return
        receiver = callee.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in self._connection_params[-1]
        ):
            return  # helper running on a caller-owned open transaction
        self._record(
            "TX001",
            node.lineno,
            f"store mutation ({sql.split(None, 1)[0].upper()}) outside a "
            "BEGIN IMMEDIATE helper: wrap in `with ..._write()` / "
            "`write_transaction()` or take the open `conn` as a parameter",
        )

    def _record(self, rule: str, lineno: int, message: str) -> None:
        self.violations.append(
            Violation(self.relpath, rule, self._function_stack[-1], lineno, message)
        )


# ------------------------------------------------------------------ driver


def _python_files() -> Iterator[Tuple[str, FrozenSet[str]]]:
    """Each scanned file once, with the rules of every tree that holds it."""
    rules_of: Dict[str, Set[str]] = {}
    for tree, rules in SCANNED_TREES:
        root = os.path.join(REPO_ROOT, tree)
        if os.path.isfile(root):
            rules_of.setdefault(root, set()).update(rules)
            continue
        for dirpath, _dirnames, filenames in sorted(os.walk(root)):
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    rules_of.setdefault(os.path.join(dirpath, filename), set()).update(rules)
    for path in sorted(rules_of):
        yield path, frozenset(rules_of[path])


def collect_violations() -> List[Violation]:
    violations: List[Violation] = []
    for path, rules in _python_files():
        relpath = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError as error:
            print(f"error: cannot parse {relpath}: {error}", file=sys.stderr)
            raise SystemExit(2)
        visitor = _InvariantVisitor(relpath, rules)
        visitor.visit(tree)
        violations.extend(visitor.violations)
    return violations


def _load_baseline() -> List[str]:
    if not os.path.exists(BASELINE_PATH):
        return []
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return [
            line.strip()
            for line in handle
            if line.strip() and not line.startswith("#")
        ]


def _write_baseline(violations: List[Violation]) -> None:
    lines = [
        "# Grandfathered invariant-lint call sites (tools/lint_invariants.py).",
        "# Each line is <relpath>::<rule>::<enclosing function>.  Adding a line",
        "# requires review: it asserts the call site is deliberately exempt",
        "# (display-only wall stamps, the clock anchors themselves, ...).",
    ]
    lines.extend(sorted({v.key for v in violations}))
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current violations and exit 0",
    )
    args = parser.parse_args(argv)

    violations = collect_violations()
    if args.update_baseline:
        _write_baseline(violations)
        print(f"baseline updated: {len({v.key for v in violations})} entr(ies)")
        return 0

    baseline = set(_load_baseline())
    found_keys = {v.key for v in violations}
    fresh = [v for v in violations if v.key not in baseline]
    stale = sorted(baseline - found_keys)

    for entry in stale:
        print(f"note: stale baseline entry (violation gone -- prune it): {entry}")
    if fresh:
        print(f"{len(fresh)} new invariant violation(s):", file=sys.stderr)
        for violation in sorted(fresh, key=lambda v: (v.path, v.lineno)):
            print(f"  {violation.render()}", file=sys.stderr)
        print(
            "\nEither fix the call site or -- with review -- run "
            "`python tools/lint_invariants.py --update-baseline` and commit.",
            file=sys.stderr,
        )
        return 1
    grandfathered = len(found_keys & baseline)
    print(
        f"invariant lint clean: {grandfathered} grandfathered call site(s), "
        f"0 new, {len(stale)} stale baseline entr(ies)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
