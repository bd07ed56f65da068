"""Rules of tools/lint_invariants.py: RC001 (no sys.setrecursionlimit in
src/repro), AB001 (no ablation switches on the public surfaces), WK001
(only the worker pipeline builds verifiers in the server), OR001 (the
symbolic search and the explicit-state checkers do not import each other),
HC001 (no urllib.request transport in src/repro), SM001 (the server
parses and lints submitted systems only through the checked-system memo),
RN001 (only the worker agent's close stops a runner), LC001 (the job
store's terminal flip and interruption rule live in one helper each) and
SQ001 (only the job store's connection factory opens a SQLite
connection)."""

import ast
import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "lint_invariants.py")


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_invariants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rules_hit(lint, source, rules=("RC001",), relpath="src/repro/example.py"):
    visitor = lint._InvariantVisitor(relpath, frozenset(rules))
    visitor.visit(ast.parse(source))
    return [(v.rule, v.function) for v in visitor.violations]


@pytest.mark.parametrize(
    "source",
    [
        "import sys\ndef dfs():\n    sys.setrecursionlimit(10_000)\n",
        "import sys\ndef dfs():\n    raise_limit = sys.setrecursionlimit\n",
        "from sys import setrecursionlimit\ndef dfs():\n    pass\n",
    ],
)
def test_setrecursionlimit_is_flagged(lint, source):
    assert [rule for rule, _ in _rules_hit(lint, source)] == ["RC001"]


def test_reading_the_limit_is_allowed(lint):
    assert _rules_hit(lint, "import sys\nlimit = sys.getrecursionlimit()\n") == []


def test_rule_is_scoped_to_its_trees(lint):
    source = "import sys\nsys.setrecursionlimit(10_000)\n"
    assert _rules_hit(lint, source, rules=("RT002",)) == []


def test_every_package_file_is_checked_once_with_all_its_rules(lint):
    files = dict(lint._python_files())
    assert len(files) == len(list(lint._python_files()))
    core = [rules for path, rules in files.items() if os.sep + "core" + os.sep in path]
    assert core and all(rules >= {"RC001", "RT002"} for rules in core)
    assert all("RC001" in rules for path, rules in files.items() if "src" in path)


def test_package_has_no_violation_and_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "RC001"] == []
    assert not [entry for entry in lint._load_baseline() if "::RC001::" in entry]


@pytest.mark.parametrize(
    "source",
    [
        "from repro.core.options import Ablation\n",
        "from repro.core.options import VerifierOptions, Ablation as Switches\n",
        "from ..core.options import Ablation\n",
        "import repro.core.options\ndef submit():\n    return repro.core.options.Ablation()\n",
    ],
)
def test_ablation_on_a_public_surface_is_flagged(lint, source):
    assert [rule for rule, _ in _rules_hit(lint, source, rules=("AB001",))] == ["AB001"]


def test_budgets_are_allowed_on_a_public_surface(lint):
    source = "from repro.core.options import VerifierOptions\n"
    assert _rules_hit(lint, source, rules=("AB001",)) == []


def test_ablation_rule_covers_exactly_the_public_surfaces(lint):
    files = dict(lint._python_files())
    guarded = {
        os.path.relpath(path, lint.REPO_ROOT).replace(os.sep, "/")
        for path, rules in files.items()
        if "AB001" in rules
    }
    assert "src/repro/cli.py" in guarded
    for package in ("server", "service", "client", "spec"):
        assert any(path.startswith(f"src/repro/{package}/") for path in guarded), package
    assert not any(
        path.startswith(("src/repro/core/", "src/repro/benchmark/")) for path in guarded
    )


def test_public_surfaces_have_no_ablation_and_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "AB001"] == []
    assert not [entry for entry in lint._load_baseline() if "::AB001::" in entry]


@pytest.mark.parametrize(
    "source",
    [
        "from repro.core.verifier import Verifier\ndef run(s, o):\n    return Verifier(s, o)\n",
        "from repro.core import verifier\ndef run(s, o):\n    return verifier.Verifier(s, o)\n",
        "from repro.core.control import SearchControl\ndef run():\n    return SearchControl()\n",
        "from repro.core.control import CancellationToken\ntoken = CancellationToken()\n",
        "from repro.core.control import CancellationToken\nCancellationToken.with_timeout(1)\n",
    ],
)
def test_execution_primitive_outside_the_worker_pipeline_is_flagged(lint, source):
    hits = _rules_hit(lint, source, rules=("WK001",), relpath="src/repro/server/app.py")
    assert [rule for rule, _ in hits] == ["WK001"]


def test_worker_pipeline_may_build_execution_primitives(lint):
    source = "from repro.core.verifier import Verifier\nVerifier(1, 2)\n"
    assert _rules_hit(lint, source, rules=("WK001",), relpath=lint.WORKER_PIPELINE) == []


def test_execution_primitive_references_are_allowed(lint):
    source = (
        "from repro.core.verifier import VerificationResult, Verifier\n"
        "def land(result: VerificationResult, token: 'CancellationToken'):\n"
        "    return VerificationResult.from_dict(result)\n"
    )
    assert _rules_hit(lint, source, rules=("WK001",), relpath="src/repro/server/app.py") == []


def test_worker_rule_covers_exactly_the_server(lint):
    guarded = {
        os.path.relpath(path, lint.REPO_ROOT).replace(os.sep, "/")
        for path, rules in lint._python_files()
        if "WK001" in rules
    }
    assert lint.WORKER_PIPELINE in guarded and "src/repro/server/app.py" in guarded
    assert all(path.startswith("src/repro/server/") for path in guarded)


def test_server_has_one_execution_path_and_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "WK001"] == []
    assert not [entry for entry in lint._load_baseline() if "::WK001::" in entry]


@pytest.mark.parametrize(
    "source",
    [
        # The import core/transitions.py carried before TERMINATED_SERVICE moved.
        "from repro.has.runs import TERMINATED_SERVICE\n",
        "from repro.has import instance\n",
        "import repro.has.instance\n",
        "from repro.baseline.spinlike import SpinLikeVerifier\n",
        "from ..has.runs import ConcreteOracle\n",
        "from .. import baseline\n",
    ],
)
def test_core_importing_the_concrete_reference_is_flagged(lint, source):
    hits = _rules_hit(lint, source, rules=("OR001",), relpath="src/repro/core/transitions.py")
    assert hits == [("OR001", "<module>")]


@pytest.mark.parametrize("relpath", ["src/repro/has/runs.py", "src/repro/has/instance.py"])
@pytest.mark.parametrize(
    "source",
    ["from repro.core.psi import OMEGA\n", "import repro.core\n", "from ..core import psi\n"],
)
def test_concrete_reference_importing_core_is_flagged(lint, relpath, source):
    assert [rule for rule, _ in _rules_hit(lint, source, rules=("OR001",), relpath=relpath)] == [
        "OR001"
    ]


@pytest.mark.parametrize(
    "relpath", ["src/repro/baseline/spinlike.py", "src/repro/baseline/explicit.py"]
)
@pytest.mark.parametrize(
    "source",
    [
        # The import spinlike.py carried before the lasso search moved to explicit.py.
        "from repro.core.repeated import states_on_cycles\n",
        "import repro.core.psi\n",
        "from ..core import repeated\n",
    ],
)
def test_baseline_importing_core_is_flagged(lint, relpath, source):
    assert _rules_hit(lint, source, rules=("OR001",), relpath=relpath) == [("OR001", "<module>")]


def test_the_old_spinlike_import_is_flagged_at_its_line(lint):
    # spinlike.py imported states_on_cycles on line 31 until the lasso search moved.
    source = "import itertools\n" * 30 + "from repro.core.repeated import states_on_cycles\n"
    visitor = lint._InvariantVisitor("src/repro/baseline/spinlike.py", frozenset({"OR001"}))
    visitor.visit(ast.parse(source))
    assert [(v.rule, v.lineno) for v in visitor.violations] == [("OR001", 31)]


@pytest.mark.parametrize(
    "relpath,source",
    [
        ("src/repro/core/transitions.py", "from repro.has.services import TERMINATED_SERVICE\n"),
        ("src/repro/core/verifier.py", "from repro.has.artifact_system import ArtifactSystem\n"),
        ("src/repro/has/runs.py", "from repro.has.instance import TransitionEngine\n"),
        ("src/repro/has/instance.py", "from .services import Insert\n"),
        ("src/repro/has/runs.py", "from repro.baseline.explicit import search_product\n"),
        ("src/repro/baseline/spinlike.py", "from .explicit import search_product\n"),
        ("src/repro/baseline/explicit.py", "from repro.ltl.buchi import ltl_to_buchi\n"),
    ],
)
def test_imports_within_each_side_are_allowed(lint, relpath, source):
    assert _rules_hit(lint, source, rules=("OR001",), relpath=relpath) == []


def test_boundary_rule_covers_core_and_the_explicit_checkers(lint):
    guarded = {
        os.path.relpath(path, lint.REPO_ROOT).replace(os.sep, "/")
        for path, rules in lint._python_files()
        if "OR001" in rules
    }
    assert {"src/repro/has/runs.py", "src/repro/has/instance.py"} < guarded
    assert {"src/repro/baseline/spinlike.py", "src/repro/baseline/explicit.py"} < guarded
    assert "src/repro/core/transitions.py" in guarded
    assert {path for path in guarded if path.startswith("src/repro/has/")} == {
        "src/repro/has/runs.py",
        "src/repro/has/instance.py",
    }
    assert all(
        path.startswith(("src/repro/core/", "src/repro/has/", "src/repro/baseline/"))
        for path in guarded
    )


def test_search_and_reference_are_apart_with_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "OR001"] == []
    assert not [entry for entry in lint._load_baseline() if "::OR001::" in entry]


@pytest.mark.parametrize(
    "source",
    [
        "import urllib.request\n",
        "import urllib.request as fetch\n",
        "from urllib import request\n",
        "from urllib.request import Request, urlopen\n",
        "import urllib.parse\ndef get(url):\n    return urllib.request.urlopen(url)\n",
    ],
)
def test_urllib_request_transport_is_flagged(lint, source):
    assert [rule for rule, _ in _rules_hit(lint, source, rules=("HC001",))] == ["HC001"]


@pytest.mark.parametrize(
    "source",
    [
        "from urllib.parse import quote, urlsplit\n",
        "import urllib.parse\nquery = urllib.parse.urlencode({})\n",
        "from urllib import parse\n",
        "from http.client import HTTPConnection\n",
    ],
)
def test_url_parsing_and_http_client_are_allowed(lint, source):
    assert _rules_hit(lint, source, rules=("HC001",)) == []


def test_transport_rule_covers_the_whole_package(lint):
    guarded = {
        os.path.relpath(path, lint.REPO_ROOT).replace(os.sep, "/")
        for path, rules in lint._python_files()
        if "HC001" in rules
    }
    assert "src/repro/client/http.py" in guarded and "src/repro/cli.py" in guarded
    assert all(path.startswith("src/repro/") for path in guarded)


def test_package_has_one_transport_and_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "HC001"] == []
    assert not [entry for entry in lint._load_baseline() if "::HC001::" in entry]


@pytest.mark.parametrize(
    "source, function",
    [
        ("from repro.spec.codec import load_system\n", "<module>"),
        ("from repro.analysis import analyze_system as lint\n", "<module>"),
        ("def submit(data):\n    return load_system(data)\n", "submit"),
        ("def submit(data):\n    return codec.load_system(data)\n", "submit"),
        ("def gate(system):\n    diagnostics, _ = analyze_system(system)\n", "gate"),
        ("def gate():\n    return analysis.analyze_system\n", "gate"),
    ],
)
def test_system_gate_outside_the_memo_is_flagged(lint, source, function):
    hits = _rules_hit(lint, source, rules=("SM001",), relpath="src/repro/server/app.py")
    assert hits == [("SM001", function)]


def test_system_gate_is_allowed_in_the_memo_and_other_calls_pass(lint):
    gate = (
        "from repro.spec.codec import load_system\n"
        "from repro.analysis import analyze_system\n"
        "def check(data):\n    return analyze_system(load_system(data))\n"
    )
    memo = "src/repro/server/spec_memo.py"
    assert _rules_hit(lint, gate, rules=("SM001",), relpath=memo) == []
    others = (
        "from repro.spec.codec import load_property, dump_system\n"
        "def submit(system, p):\n    return analyze_property(system, load_property(p))\n"
    )
    assert _rules_hit(lint, others, rules=("SM001",), relpath="src/repro/server/app.py") == []


def test_system_gate_rule_covers_the_server_only(lint):
    guarded = {
        os.path.relpath(path, lint.REPO_ROOT).replace(os.sep, "/")
        for path, rules in lint._python_files()
        if "SM001" in rules
    }
    assert {"src/repro/server/app.py", "src/repro/server/spec_memo.py"} <= guarded
    assert all(path.startswith("src/repro/server/") for path in guarded)


def test_server_has_one_system_gate_and_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "SM001"] == []
    assert not [entry for entry in lint._load_baseline() if "::SM001::" in entry]


@pytest.mark.parametrize(
    "source,function",
    [
        # The deleted recycle branch: stop a live runner before a job.
        (
            "class WorkerAgent:\n    def _ensure_runner(self):\n"
            "        if self.jobs > 32:\n            self._stop_runner()\n",
            "_ensure_runner",
        ),
        # A close() of another class is not the agent's shutdown.
        ("class Pool:\n    def close(self):\n        self.agent._stop_runner()\n", "close"),
    ],
)
def test_runner_stop_outside_close_is_flagged(lint, source, function):
    hits = _rules_hit(lint, source, rules=("RN001",), relpath=lint.WORKER_PIPELINE)
    assert hits == [("RN001", function)]


def test_runner_stop_is_allowed_in_the_agent_close(lint):
    source = (
        "class WorkerAgent:\n"
        "    def _stop_runner(self):\n        self.runner.join()\n"
        "    def close(self):\n        self._stop_runner()\n"
    )
    assert _rules_hit(lint, source, rules=("RN001",), relpath=lint.WORKER_PIPELINE) == []


def test_server_never_recycles_a_runner_and_has_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "RN001"] == []
    assert not [entry for entry in lint._load_baseline() if "::RN001::" in entry]


STORE = "src/repro/server/store.py"
TTL_FLIP = (
    '"UPDATE jobs SET status = ?, finished_at = ?, expires_at = CASE WHEN'
    ' ttl_seconds IS NOT NULL THEN ? + ttl_seconds ELSE NULL END WHERE id = ?"'
)
REQUEUE = "\"UPDATE jobs SET status = 'queued', claimed_by = NULL WHERE id = ?\""


@pytest.mark.parametrize(
    "source,function",
    [
        # A finaliser writing its own TTL stamp instead of calling _finish_txn.
        (f"class JobStore:\n    def mark_error(self, conn):\n        conn.execute({TTL_FLIP})\n",
         "mark_error"),
        # A release writing its own requeue instead of calling _interrupt_txn.
        (f"class JobStore:\n    def release(self, conn):\n        conn.execute({REQUEUE})\n",
         "release"),
        # The assignment later in the SET clause, in an f-string piece.
        ("class JobStore:\n    def requeue_stale(self, conn, scope):\n"
         "        conn.execute(f\"UPDATE jobs SET started_at = NULL, status = 'queued'"
         " WHERE {scope}\")\n",
         "requeue_stale"),
        # A helper of the same name outside JobStore is not the store's.
        (f"class Other:\n    def _finish_txn(self, conn):\n        conn.execute({TTL_FLIP})\n",
         "_finish_txn"),
    ],
)
def test_lifecycle_sql_outside_the_helpers_is_flagged(lint, source, function):
    assert _rules_hit(lint, source, rules=("LC001",), relpath=STORE) == [("LC001", function)]


def test_lifecycle_sql_is_allowed_in_the_helpers_and_as_a_predicate(lint):
    helpers = (
        "class JobStore:\n"
        f"    def _finish_txn(self, conn):\n        conn.execute({TTL_FLIP})\n"
        f"    def _interrupt_txn(self, conn):\n        conn.execute({REQUEUE})\n"
    )
    assert _rules_hit(lint, helpers, rules=("LC001",), relpath=STORE) == []
    reads = (
        "class JobStore:\n    def claim_next(self, conn):\n"
        "        conn.execute(\"SELECT id FROM jobs WHERE status = 'queued'\")\n"
        "        conn.execute(\"UPDATE jobs SET status = 'running' WHERE status = 'queued'\")\n"
        "        conn.execute(\"SELECT ttl_seconds FROM jobs\")\n"
    )
    assert _rules_hit(lint, reads, rules=("LC001",), relpath=STORE) == []


def test_store_has_one_lifecycle_and_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "LC001"] == []
    assert not [entry for entry in lint._load_baseline() if "::LC001::" in entry]


@pytest.mark.parametrize(
    "source,relpath,function",
    [
        # A second, shared connection beside the per-thread ones.
        ("import sqlite3\nclass JobStore:\n    def __init__(self, path):\n"
         "        self._shared = sqlite3.connect(path)\n", STORE, "__init__"),
        # A sibling subsystem opening the store file on its own.
        ("import sqlite3\ndef open_memo(path):\n    return sqlite3.connect(path)\n",
         "src/repro/server/spec_memo.py", "open_memo"),
        # A reference passed around, and the from-import.
        ("import sqlite3\ndef factory():\n    return sqlite3.connect\n",
         "src/repro/server/app.py", "factory"),
        ("from sqlite3 import connect\n", "src/repro/cli.py", "<module>"),
        # A method of the same name outside JobStore is not the store's.
        ("import sqlite3\nclass Other:\n    def _new_connection(self):\n"
         "        return sqlite3.connect(':memory:')\n", STORE, "_new_connection"),
    ],
)
def test_sqlite_connect_outside_the_store_factory_is_flagged(lint, source, relpath, function):
    assert _rules_hit(lint, source, rules=("SQ001",), relpath=relpath) == [("SQ001", function)]


def test_sqlite_connect_is_allowed_in_the_store_factory(lint):
    source = (
        "import sqlite3\nclass JobStore:\n    def _new_connection(self):\n"
        "        return sqlite3.connect(self.path, isolation_level=None)\n"
        "    def _read(self):\n        return sqlite3.Row\n"
    )
    assert _rules_hit(lint, source, rules=("SQ001",), relpath=STORE) == []
    # Scoped to its rule: another rule's tree never reports it.
    assert _rules_hit(lint, source.replace("_new_connection", "other"), rules=("LC001",),
                      relpath=STORE) == []


def test_package_has_one_connection_model_and_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "SQ001"] == []
    assert not [entry for entry in lint._load_baseline() if "::SQ001::" in entry]
