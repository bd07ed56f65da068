"""Rules of tools/lint_invariants.py: RC001 (no sys.setrecursionlimit in
src/repro) and AB001 (no ablation switches on the public surfaces)."""

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


def _rules_hit(lint, source, rules=("RC001",)):
    visitor = lint._InvariantVisitor("src/repro/example.py", frozenset(rules))
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
    for package in ("server", "service", "client", "api", "spec"):
        assert any(path.startswith(f"src/repro/{package}/") for path in guarded), package
    assert not any(
        path.startswith(("src/repro/core/", "src/repro/benchmark/")) for path in guarded
    )


def test_public_surfaces_have_no_ablation_and_no_baseline_entry(lint):
    assert [v.render() for v in lint.collect_violations() if v.rule == "AB001"] == []
    assert not [entry for entry in lint._load_baseline() if "::AB001::" in entry]
