"""Small helpers shared by the workloads: percentiles, memory, environment."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Optional, Sequence


def percentile(values: Sequence[float], p: int) -> float:
    """The *p*-th percentile (linear interpolation between samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list:
    """Direct children of a process (Linux ``/proc`` only)."""
    children = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                children.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return children


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():  # an exported checkout: do not search its parents
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment(root: Path, workload: str, seed: int, hash_seed: str, trace: bool) -> Dict:
    """The run header: where, when and on what the numbers were taken."""
    return {
        "workload": workload,
        "seed": seed,
        "hash_seed": hash_seed,
        "trace": trace,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
