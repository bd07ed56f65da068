"""``python -m repro lint``: exit codes, text rendering, and ``--json``."""

from __future__ import annotations

import json

from repro import cli
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import Const, Eq, NULL, Var
from repro.has.schema import DatabaseSchema
from repro.ltl import LTLFOProperty, parse_ltl
from repro.spec import SpecBundle


def _clean_bundle():
    schema = DatabaseSchema.from_dict({"ITEMS": {"price": None}})
    builder = ArtifactSystemBuilder("lintable", schema)
    root = builder.task("Main")
    root.id_variable("item", "ITEMS")
    root.variable("status")
    root.variable("other")
    root.internal_service(
        "go", pre=Eq(Var("status"), NULL), post=Eq(Var("status"), Var("other"))
    )
    system = builder.build()
    ltl_property = LTLFOProperty(
        "Main",
        parse_ltl("G(phi)"),
        {"phi": Eq(Var("status"), Const("done"))},
        name="p",
    )
    return SpecBundle(system, [ltl_property])


def _write_spec(tmp_path, name="spec.json", mutate=None):
    data = _clean_bundle().to_dict()
    if mutate is not None:
        mutate(data)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_lint_clean_spec_exits_zero(tmp_path, capsys):
    path = _write_spec(tmp_path)
    assert cli.main(["lint", path]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_lint_warnings_only_exits_zero(tmp_path, capsys):
    def add_trivial_property(data):
        data["properties"].append(
            {"name": "triv", "task": "Main", "formula": "true", "conditions": {}}
        )

    path = _write_spec(tmp_path, mutate=add_trivial_property)
    assert cli.main(["lint", path]) == 0
    out = capsys.readouterr().out
    assert "VA402" in out
    assert "1 warning(s)" in out


def test_lint_errors_exit_one(tmp_path, capsys):
    def break_task_reference(data):
        data["properties"][0]["task"] = "Nope"

    path = _write_spec(tmp_path, mutate=break_task_reference)
    assert cli.main(["lint", path]) == 1
    out = capsys.readouterr().out
    assert "VA102" in out
    assert "error" in out


def test_lint_json_output_is_machine_readable(tmp_path, capsys):
    def break_task_reference(data):
        data["properties"][0]["task"] = "Nope"

    path = _write_spec(tmp_path, mutate=break_task_reference)
    assert cli.main(["lint", path, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"version", "diagnostics", "facts", "summary"}
    assert data["version"] == 1
    assert data["summary"]["errors"] == 1
    [diagnostic] = data["diagnostics"]
    assert diagnostic["code"] == "VA102"
    assert diagnostic["severity"] == "error"
    assert diagnostic["name"] == "unknown-task"


def test_lint_missing_file_exits_two(tmp_path, capsys):
    assert cli.main(["lint", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_lint_unparseable_spec_exits_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["lint", str(path)]) == 2
    assert "error" in capsys.readouterr().err
