"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

# Allow running the tests from a source checkout without installing the package.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import And, Const, Eq, Neq, NULL, Var
from repro.has.schema import DatabaseSchema


@pytest.fixture(scope="session")
def worker_model() -> str:
    """Worker model for the server e2e suites (thread by default).

    ``REPRO_TEST_WORKER_MODEL=process`` re-runs them on the multi-process
    pool -- CI does this on one matrix version -- proving the two models are
    observationally equivalent through the HTTP API.
    """
    model = os.environ.get("REPRO_TEST_WORKER_MODEL", "thread")
    if model not in ("thread", "process"):
        raise ValueError(f"REPRO_TEST_WORKER_MODEL must be thread|process, not {model!r}")
    return model


@pytest.fixture
def items_schema() -> DatabaseSchema:
    """A one-relation schema used by many unit tests."""
    return DatabaseSchema.from_dict({"ITEMS": {"price": None, "category": None}})


@pytest.fixture
def navigation_schema() -> DatabaseSchema:
    """A two-relation schema with a foreign key, for navigation-expression tests."""
    return DatabaseSchema.from_dict(
        {
            "CUSTOMERS": {"name": None, "record": "CREDIT_RECORD"},
            "CREDIT_RECORD": {"status": None},
        }
    )


@pytest.fixture
def tiny_system(items_schema: DatabaseSchema):
    """A single-task system with an infinite pick/ship/reset loop."""
    builder = ArtifactSystemBuilder("tiny", items_schema)
    task = builder.task("Main")
    task.id_variable("item", "ITEMS")
    task.variable("status")
    task.internal_service(
        "pick",
        pre=Eq(Var("status"), NULL),
        post=And(Neq(Var("item"), NULL), Eq(Var("status"), Const("picked"))),
    )
    task.internal_service(
        "ship",
        pre=Eq(Var("status"), Const("picked")),
        post=Eq(Var("status"), Const("shipped")),
    )
    task.internal_service(
        "reset",
        pre=Eq(Var("status"), Const("shipped")),
        post=And(Eq(Var("status"), NULL), Eq(Var("item"), NULL)),
    )
    return builder.build()


def build_exploding_system(variables: int = 12, constants: int = 6):
    """A single-task system whose symbolic state space takes many seconds to
    exhaust (used by cancellation / deadline tests: big enough that a search
    is reliably still running when a cancel or deadline lands, yet each loop
    iteration — the cancellation granularity — stays in the milliseconds)."""
    schema = DatabaseSchema.from_dict({"ITEMS": {"price": None}})
    builder = ArtifactSystemBuilder("exploding", schema)
    task = builder.task("Main")
    task.id_variable("item", "ITEMS")
    for index in range(variables):
        task.variable(f"v{index}")
        for j in range(constants):
            constant = f"c{j}"
            task.internal_service(
                f"set_{index}_{constant}",
                pre=Neq(Var(f"v{index}"), Const(constant)),
                post=Eq(Var(f"v{index}"), Const(constant)),
            )
    return builder.build()


@pytest.fixture
def exploding_system():
    return build_exploding_system()


@pytest.fixture
def small_exploding_system():
    """A smaller exploding variant whose search *exhausts* in a few seconds
    (CPU-bound throughout): sized for timed speedup comparisons."""
    return build_exploding_system(variables=8, constants=5)


@pytest.fixture
def relation_system(items_schema: DatabaseSchema):
    """A single-task system exercising artifact-relation insert / retrieve."""
    builder = ArtifactSystemBuilder("with-relation", items_schema)
    task = builder.task("Main")
    task.id_variable("item", "ITEMS")
    task.variable("status")
    task.artifact_relation("POOL", ["item", "status"])
    task.internal_service(
        "create",
        pre=Eq(Var("item"), NULL),
        post=And(Neq(Var("item"), NULL), Eq(Var("status"), Const("new"))),
    )
    task.internal_service(
        "stash",
        pre=Neq(Var("item"), NULL),
        post=Eq(Var("item"), NULL),
        insert=("POOL", ["item", "status"]),
    )
    task.internal_service(
        "grab",
        pre=Eq(Var("item"), NULL),
        retrieve=("POOL", ["item", "status"]),
    )
    task.internal_service(
        "finish",
        pre=Eq(Var("status"), Const("new")),
        post=Eq(Var("status"), Const("done")),
        propagated=["item"],
    )
    return builder.build()


class _HtmlHandler(BaseHTTPRequestHandler):
    """Answers every GET 200 with an HTML body (a misconfigured proxy)."""

    def do_GET(self) -> None:  # noqa: N802 (http.server naming convention)
        body = b"<html>not the API</html>"
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


@pytest.fixture
def html_server():
    """URL of a local HTTP server whose success bodies are not JSON."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _HtmlHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
