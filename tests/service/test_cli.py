"""Tests of the ``python -m repro`` command line."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.spec import load_spec, save_spec


@pytest.fixture
def spec_path(tiny_system, tmp_path):
    properties = [
        LTLFOProperty("Main", parse_ltl("G ns"),
                      {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped"),
        LTLFOProperty("Main", parse_ltl("G (p -> F s)"),
                      {"p": Eq(Var("status"), Const("picked")),
                       "s": Eq(Var("status"), Const("shipped"))}, name="response"),
    ]
    path = tmp_path / "tiny.spec.json"
    save_spec(tiny_system, path, properties=properties)
    return path


class TestVerifyCommand:
    def test_verify_all_properties(self, spec_path, capsys):
        exit_code = main(["verify", str(spec_path), "--timeout", "30"])
        out = capsys.readouterr().out
        assert exit_code == 1  # one property is violated
        assert "never-shipped" in out and "violated" in out
        assert "response" in out and "satisfied" in out

    def test_verify_selected_property_json(self, spec_path, capsys):
        exit_code = main(
            ["verify", str(spec_path), "--property", "response", "--json", "--timeout", "30"]
        )
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 1
        assert data["results"][0]["property"] == "response"
        assert data["results"][0]["outcome"] == "satisfied"

    def test_verify_empty_spec_fails(self, tiny_system, tmp_path, capsys):
        path = tmp_path / "empty.spec.json"
        save_spec(tiny_system, path)
        assert main(["verify", str(path)]) == 2
        assert "no properties" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["verify", "/nonexistent/x.spec.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestBatchCommand:
    def test_batch_reports_cache_hits_for_duplicate_specs(self, spec_path, capsys):
        exit_code = main(
            ["batch", str(spec_path), str(spec_path), "--workers", "2", "--json",
             "--timeout", "30"]
        )
        assert exit_code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 4
        assert data["cache_hits"] == 2  # second copy of the spec is all duplicates


class TestExitCodeContract:
    """Pin the documented contract: 0 satisfied / 1 violated / 2 error."""

    @pytest.fixture
    def satisfied_spec(self, tiny_system, tmp_path):
        path = tmp_path / "satisfied.spec.json"
        save_spec(tiny_system, path, properties=[
            LTLFOProperty("Main", parse_ltl("G (p -> F s)"),
                          {"p": Eq(Var("status"), Const("picked")),
                           "s": Eq(Var("status"), Const("shipped"))}, name="response"),
        ])
        return path

    def test_exit_0_when_every_property_is_satisfied(self, satisfied_spec):
        assert main(["verify", str(satisfied_spec), "--timeout", "30"]) == 0

    def test_exit_1_when_any_property_is_violated(self, spec_path):
        assert main(["verify", str(spec_path), "--timeout", "30"]) == 1

    def test_exit_2_on_usage_errors(self, spec_path, tmp_path, capsys):
        assert main(["verify", "/nonexistent/x.spec.json"]) == 2
        assert main(["verify", str(spec_path), "--property", "no-such-property"]) == 2
        assert main(["batch", str(tmp_path / "missing.spec.json")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["verify", "batch", "serve"])
    def test_ablation_flags_are_argparse_errors(self, spec_path, command, capsys):
        """The CLI takes the three budgets only: the reachability-only
        ablation flag is gone, so argparse rejects it."""
        from repro.cli import build_parser

        spec = [] if command == "serve" else [str(spec_path)]
        with pytest.raises(SystemExit) as error:
            build_parser().parse_args([command, *spec, "--no-repeated-reachability"])
        assert error.value.code == 2
        assert "--no-repeated-reachability" in capsys.readouterr().err

    def test_exit_2_on_malformed_spec(self, tmp_path, capsys):
        path = tmp_path / "broken.spec.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_2_when_outcome_is_unknown(self, satisfied_spec, capsys):
        # A state budget of 1 exhausts immediately: UNKNOWN must not exit 0.
        assert main(["verify", str(satisfied_spec), "--max-states", "1"]) == 2
        capsys.readouterr()

    def test_exit_2_on_invalid_has_system(self, spec_path, capsys):
        import json as json_module

        data = json_module.loads(spec_path.read_text())
        data["system"]["hierarchy"]["Main"] = "Main"  # self-parent: no root task
        bad = spec_path.parent / "invalid-system.spec.json"
        bad.write_text(json_module.dumps(data))
        assert main(["verify", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_batch_contract_matches_verify(self, satisfied_spec, spec_path, capsys):
        assert main(["batch", str(satisfied_spec), "--timeout", "30"]) == 0
        assert main(["batch", str(satisfied_spec), str(spec_path), "--timeout", "30"]) == 1
        capsys.readouterr()


class TestJsonOutput:
    """--json dumps BatchReport.as_dict() verbatim on stdout."""

    def test_verify_json_is_machine_readable(self, spec_path, capsys):
        exit_code = main(["verify", str(spec_path), "--json", "--timeout", "30"])
        assert exit_code == 1
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"total", "cache_hits", "outcomes", "results"}
        assert data["total"] == 2
        assert data["outcomes"] == {"violated": 1, "satisfied": 1}
        by_name = {entry["property"]: entry for entry in data["results"]}
        assert by_name["never-shipped"]["outcome"] == "violated"
        assert by_name["never-shipped"]["counterexample"] is not None
        assert by_name["response"]["counterexample"] is None
        assert all(len(entry["fingerprint"]) == 64 for entry in data["results"])

    def test_batch_json_round_trips_through_json(self, spec_path, capsys):
        main(["batch", str(spec_path), "--json", "--timeout", "30"])
        out = capsys.readouterr().out
        assert json.loads(out)["total"] == 2


class TestServeCommand:
    def test_serve_parser_wiring(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3", "--store", "x.db", "--quiet"]
        )
        assert args.command == "serve"
        assert args.port == 0 and args.workers == 3 and args.store == "x.db"
        assert args.quiet is True
        assert callable(args.handler)

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8080
        assert args.workers == 2 and args.store == "repro-jobs.db"
        # Process workers are the default: CPU-bound searches parallelise,
        # and sandboxes degrade to threads automatically at start().
        assert args.worker_model == "process"
        assert args.max_jobs_per_worker == 32

    def test_serve_worker_model_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--worker-model", "thread", "--max-jobs-per-worker", "5"]
        )
        assert args.worker_model == "thread"
        assert args.max_jobs_per_worker == 5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--worker-model", "fibers"])

    def test_serve_with_unusable_store_path_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "missing-dir" / "jobs.db"
        assert main(["serve", "--port", "0", "--store", str(bad)]) == 2
        assert "cannot open job store" in capsys.readouterr().err

    def test_serve_on_occupied_port_exits_2(self, tmp_path, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            exit_code = main(
                ["serve", "--port", str(port), "--store", str(tmp_path / "jobs.db")]
            )
        finally:
            blocker.close()
        assert exit_code == 2
        assert "cannot listen" in capsys.readouterr().err


class TestExportSpecCommand:
    def test_export_and_reload(self, tmp_path, capsys):
        out = tmp_path / "loan.spec.json"
        exit_code = main(
            ["export-spec", "loan-origination", "-o", str(out), "--with-properties", "2"]
        )
        assert exit_code == 0
        bundle = load_spec(out)
        assert bundle.system.name == "loan-origination"
        assert len(bundle.properties) == 2

    def test_unknown_workflow_fails(self, tmp_path, capsys):
        exit_code = main(["export-spec", "nope", "-o", str(tmp_path / "x.json")])
        assert exit_code == 2
        assert "unknown workflow" in capsys.readouterr().err


class TestTenantCommand:
    def test_create_prints_key_once_and_list_redacts(self, tmp_path, capsys):
        store = str(tmp_path / "jobs.db")
        assert main(["tenant", "create", "acme", "--store", store,
                     "--weight", "2", "--rate-limit", "5",
                     "--max-pending", "10"]) == 0
        out = capsys.readouterr().out
        assert "api key: vk_" in out and "shown once" in out
        api_key = next(
            line.split("api key:")[1].strip()
            for line in out.splitlines() if "api key:" in line
        )
        assert main(["tenant", "list", "--store", store]) == 0
        listing = capsys.readouterr().out
        assert "acme" in listing and "weight 2" in listing
        assert api_key not in listing  # only the key_id handle appears
        # The key actually resolves against the same store.
        from repro.server import JobStore
        from repro.tenancy import TenantRegistry

        job_store = JobStore(store)
        try:
            resolved = TenantRegistry(job_store).resolve(api_key)
            assert resolved is not None and resolved.name == "acme"
            assert resolved.rate_limit == 5.0 and resolved.max_pending == 10
        finally:
            job_store.close()

    def test_create_json_includes_key_and_policy(self, tmp_path, capsys):
        store = str(tmp_path / "jobs.db")
        assert main(["tenant", "create", "acme", "--store", store,
                     "--burst", "3", "--rate-limit", "1.5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["api_key"].startswith("vk_")
        assert data["rate_limit"] == 1.5 and data["burst"] == 3.0

    def test_duplicate_name_exits_2(self, tmp_path, capsys):
        store = str(tmp_path / "jobs.db")
        assert main(["tenant", "create", "acme", "--store", store]) == 0
        capsys.readouterr()
        assert main(["tenant", "create", "acme", "--store", store]) == 2
        assert "already in use" in capsys.readouterr().err

    def test_revoke_then_list_marks_revoked(self, tmp_path, capsys):
        store = str(tmp_path / "jobs.db")
        main(["tenant", "create", "acme", "--store", store])
        capsys.readouterr()
        assert main(["tenant", "revoke", "acme", "--store", store]) == 0
        main(["tenant", "list", "--store", store])
        assert "REVOKED" in capsys.readouterr().out

    def test_revoke_unknown_exits_2(self, tmp_path, capsys):
        store = str(tmp_path / "jobs.db")
        assert main(["tenant", "revoke", "ghost", "--store", store]) == 2
        assert "no tenant" in capsys.readouterr().err

    def test_empty_list(self, tmp_path, capsys):
        assert main(["tenant", "list", "--store", str(tmp_path / "jobs.db")]) == 0
        assert "no tenants" in capsys.readouterr().out

    def test_serve_auth_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--auth"])
        assert args.auth is True
        args = build_parser().parse_args(["serve"])
        assert args.auth is False
