"""Shared pieces of the workload runners: results, statistics, provenance."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: The repository root (the directory holding ``src/`` and ``fnasbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their results files and temporary stores.
OUTPUT_DIR = ROOT / ".fnasbench"

#: Setup probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Nominal duration of :func:`reference_kernel`, seconds.  Timings are
#: reported as they would read on a host that runs the kernel in
#: exactly this time (see :class:`HostSpeed`).
REFERENCE_SECONDS = 0.020

#: Units of the timings :class:`HostSpeed` corrects: durations scale
#: with the host's slowness, rates inversely.
DURATION_UNITS = ("ms", "s")
RATE_UNITS = ("1/s",)


def reference_kernel() -> int:
    """Fixed work that uses no code of the program.

    Like the program, it is interpreter-bound and allocates many small
    objects, so it slows down with the host in the same way: when the
    host's cores or caches are shared with a busy neighbour.
    """
    keys = [(i, i * 7 % 1013) for i in range(20000)]
    table = {key: [key[0], key[1], str(key[0])] for key in keys}
    total = 0
    for key in reversed(keys):
        total += len(table[key][2])
    records = [{"a": i, "b": float(i), "c": (i, i)} for i in range(10000)]
    total += sum(record["a"] for record in records[::3])
    values = np.arange(50000, dtype=float)
    for _ in range(20):
        values = np.sqrt(values * 1.0001 + 1.0)
    return total


class HostSpeed:
    """Times :func:`reference_kernel` between the units of a run.

    The hosts this runs on change speed by tens of percent over
    seconds to minutes, which swamps any code change worth measuring.
    The program's timings move with the host and the kernel's do too,
    so the kernel's median time over the nominal one -- the *factor* --
    divides that swing out: a duration divided by the factor of the
    samples taken around it reads as it would at nominal speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Time the kernel ``repeats`` times.

        The garbage collector is paused meanwhile: a collection would
        walk the program's heap and make the kernel's time depend on it.
        """
        gc.disable()
        try:
            for _ in range(repeats):
                begin = time.perf_counter()
                reference_kernel()
                self.samples.append(time.perf_counter() - begin)
        finally:
            gc.enable()

    def mark(self) -> int:
        """A position to take :meth:`factor` from, later."""
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Median kernel time of the samples from ``since`` on, over nominal."""
        return statistics.median(self.samples[since:]) / REFERENCE_SECONDS

    def correct(self, value: float, unit: str, since: int = 0) -> float:
        """``value`` as it would read at nominal host speed."""
        if unit in DURATION_UNITS:
            return value / self.factor(since)
        if unit in RATE_UNITS:
            return value * self.factor(since)
        return value


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps a name to ``(value, unit, raw)``: timings are
    reported at nominal host speed (see :class:`HostSpeed`), with the
    value as measured kept as ``raw``.
    """

    workload: str
    seed: int
    traced: bool = False
    metrics: dict[str, tuple[float, str, float]] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    requests: int = 0
    failed_requests: int = 0
    spans: list[dict[str, Any]] | None = None
    speed: HostSpeed = field(default_factory=HostSpeed)

    def metric(self, name: str, value: float, unit: str,
               raw: float | None = None) -> None:
        """Record one metric by name, with its unit."""
        self.metrics[name] = (float(value), unit, float(value if raw is None else raw))

    def e2e(self, name: str) -> str:
        """The name an end-to-end metric has in this run (``traced.`` when traced)."""
        return f"traced.{name}" if self.traced else name

    def timing(self, name: str, raw: float, unit: str) -> None:
        """Record a timing, corrected by the factor of the whole run so far."""
        self.metric(name, self.speed.correct(raw, unit), unit, raw)

    def check(self, name: str, passed: bool) -> None:
        """Record one output check."""
        self.checks[name] = bool(passed)

    @property
    def attempted(self) -> int:
        """Requests plus output checks."""
        return self.requests + len(self.checks)

    @property
    def failed(self) -> int:
        """Failed requests plus failed output checks."""
        return self.failed_requests + sum(not ok for ok in self.checks.values())


def quantile(samples: list[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``samples`` (linear interpolation)."""
    return float(np.quantile(np.asarray(samples, dtype=float), fraction))


def tail_summary(samples: list[float]) -> dict[str, Any]:
    """p50 and, when at least ten samples lie beyond it, p90."""
    summary: dict[str, Any] = {"samples": len(samples)}
    if samples:
        summary["p50"] = quantile(samples, 0.5)
    if len(samples) >= 100:
        summary["p90"] = quantile(samples, 0.9)
    return summary


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident memory of this process plus ``children`` workers.

    Each worker is charged the largest peak among this process's
    reaped children, so call this after the workers have exited and
    before any other child process is started.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def measure_setup(outcome: Outcome, workload: str, *args: str,
                  probes: int = SETUP_PROBES) -> None:
    """Record ``setup_s``: the median over fresh interpreters of the time
    from start to ready, each corrected by kernel samples around it."""
    script = Path(__file__).resolve().parent / "setup_probe.py"
    times, raw = [], []
    speed = outcome.speed
    for _ in range(probes):
        mark = speed.mark()
        speed.sample()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(script), workload, *args],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"{workload} setup probe failed (exit {code})")
        speed.sample()
        raw.append(ready - start)
        times.append(speed.correct(raw[-1], "s", since=mark))
    outcome.metric(outcome.e2e("setup_s"), median(times), "s", median(raw))
    outcome.extra["setup_s_samples"] = times


def digest(blobs: list[bytes]) -> str:
    """SHA-256 over a sequence of byte strings, order-sensitive."""
    hasher = hashlib.sha256()
    for blob in blobs:
        hasher.update(hashlib.sha256(blob).digest())
    return hasher.hexdigest()


def provenance(seed: int) -> dict[str, Any]:
    """Where and on what the run was measured."""
    revision, dirty = None, None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=30)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, timeout=30).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "git_dirty": dirty,
        "seed": seed,
    }


def write_results(outcome: Outcome, trace: bool) -> Path:
    """Write the run's full record under :data:`OUTPUT_DIR`."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{outcome.workload}-seed{outcome.seed}-trace{int(trace)}.json"
    record = {
        "workload": outcome.workload,
        "provenance": provenance(outcome.seed),
        "host_speed_factor": outcome.speed.factor(),
        "reference_kernel_s": outcome.speed.samples,
        "metrics": {name: {"value": value, "unit": unit, "raw": raw}
                    for name, (value, unit, raw) in outcome.metrics.items()},
        "extra": outcome.extra,
        "checks": outcome.checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    if outcome.spans is not None:
        record["spans"] = outcome.spans
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    return path


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    return float(statistics.median(values))
