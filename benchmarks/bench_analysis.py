"""Static-analysis benchmark: analyzer latency and submit cost.

Not a pytest file (no ``test_`` prefix): run it directly to (re)generate
``BENCH_analysis.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_analysis.py

Measures, on the current machine:

* ``analyzer_latency`` -- full ``analyze(system, properties)`` wall time
  over the real-workflow benchmark corpus (p50/p95 per spec) and over
  synthetic systems of growing size: the cost a ``lint`` run or a submit
  pays per spec;
* ``submit_overhead``  -- p50/p95 ``POST /v1/jobs`` latency against a live
  in-process server (the analysis gate is on that path) next to the
  analysis-only time for the same payload: how much of a submit the
  analyzer accounts for.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import analyze  # noqa: E402
from repro.benchmark.properties import LTL_TEMPLATES, generate_properties  # noqa: E402
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES  # noqa: E402
from repro.benchmark.synthetic import SyntheticConfig, generate_synthetic_workflow  # noqa: E402
from repro.client import VerifasClient  # noqa: E402
from repro.server import VerificationServer  # noqa: E402
from repro.spec import dump_property, dump_system  # noqa: E402


def _percentiles(samples_ms):
    ordered = sorted(samples_ms)
    return {
        "p50_ms": round(statistics.median(ordered), 4),
        "p95_ms": round(ordered[int(len(ordered) * 0.95) - 1], 4),
    }


# ------------------------------------------------------------------ corpora


def _corpus():
    for name, factory in sorted(REAL_WORKFLOW_FACTORIES.items()):
        system = factory()
        properties = list(generate_properties(system, templates=LTL_TEMPLATES))
        yield name, system, properties


# ---------------------------------------------------------------- sections


def bench_analyzer_latency():
    corpus_ms = []
    per_spec = {}
    for name, system, properties in _corpus():
        samples = []
        for _ in range(20):
            start = time.perf_counter()
            analyze(system, properties)
            samples.append((time.perf_counter() - start) * 1000)
        per_spec[name] = _percentiles(samples)
        corpus_ms.extend(samples)

    synthetic = {}
    for label, tasks, services in (("small", 2, 3), ("medium", 4, 6), ("large", 8, 10)):
        config = SyntheticConfig(
            relations=3, tasks=tasks, variables_per_task=6,
            services_per_task=services, seed=7,
        )
        system = generate_synthetic_workflow(config)
        properties = list(generate_properties(system, seed=7))
        samples = []
        for _ in range(20):
            start = time.perf_counter()
            analyze(system, properties)
            samples.append((time.perf_counter() - start) * 1000)
        synthetic[label] = {
            "tasks": len(system.task_names),
            "properties": len(properties),
            **_percentiles(samples),
        }
    return {
        "corpus_specs": len(per_spec),
        "corpus": _percentiles(corpus_ms),
        "per_spec_p50_ms": {k: v["p50_ms"] for k, v in sorted(per_spec.items())},
        "synthetic": synthetic,
    }


def bench_submit_overhead(requests: int = 150):
    factory = REAL_WORKFLOW_FACTORIES[sorted(REAL_WORKFLOW_FACTORIES)[0]]
    system = factory()
    properties = list(generate_properties(system, templates=LTL_TEMPLATES))[:3]
    system_dict = dump_system(system)
    property_dicts = [dump_property(p) for p in properties]

    analysis_ms = []
    for _ in range(requests):
        start = time.perf_counter()
        analyze(system, properties)
        analysis_ms.append((time.perf_counter() - start) * 1000)

    with tempfile.TemporaryDirectory() as tmp:
        server = VerificationServer(
            store_path=Path(tmp) / "jobs.db", port=0, workers=0
        )
        server.start()
        try:
            client = VerifasClient(server.url)
            submit_ms = []
            for _ in range(requests):
                start = time.perf_counter()
                client.submit(system_dict, property_dicts)
                submit_ms.append((time.perf_counter() - start) * 1000)
        finally:
            server.stop()
    return {
        "requests": requests,
        "properties_per_submit": len(property_dicts),
        "submit": _percentiles(submit_ms),
        "analysis_only": _percentiles(analysis_ms),
    }


def main() -> None:
    report = {
        "generated": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": sys.version.split()[0],
        "analyzer_latency": bench_analyzer_latency(),
        "submit_overhead": bench_submit_overhead(),
    }
    output = REPO_ROOT / "BENCH_analysis.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
