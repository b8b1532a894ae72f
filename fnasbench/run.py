"""Run one workload of the FNAS benchmark, check it, print its metrics.

Usage, from the repository root::

    python3 fnasbench/run.py --workload search --seed 0 --seconds 10 --trace 0
    python3 fnasbench/run.py --workload all          # every workload

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the program's layers and reports the per-layer
metrics instead.  Each metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record of the run (provenance, checks, spans) is written under
``.fnasbench/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("search", "estimate", "service")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace, spec: dict) -> dict:
    """Run one workload in this interpreter; returns the result line."""
    from importlib import import_module

    from fnasbench import common

    module = import_module(f"fnasbench.bench_{args.workload}")
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = {}, []
    for entry in wanted:
        name = entry["name"]
        if name in outcome.metrics:
            value = outcome.metrics[name][0]
        elif args.trace:
            value = 0.0  # the layer does no work on this workload
            absent.append(name)
        else:
            outcome.check(f"metric_reported/{name}", False)
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
    outcome.extra["layers_not_exercised"] = absent
    path = common.write_results(outcome, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"provenance={json.dumps(common.provenance(args.seed), sort_keys=True)}")
    for name, value in sorted(outcome.extra.items()):
        if name not in ("layers", "setup_s_samples"):
            print(f"# {name}: {json.dumps(value, sort_keys=True)}")
    failed_checks = [name for name, ok in outcome.checks.items() if not ok]
    print(f"# checks: {len(outcome.checks) - len(failed_checks)}/"
          f"{len(outcome.checks)} passed {failed_checks or ''}")
    print(f"# failed_frac {outcome.failed / max(outcome.attempted, 1)} ratio")
    print(f"# host_speed_factor {outcome.speed.factor()!r} (timings below are "
          "at nominal host speed; raw values are in the full record)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"# full record: {path.relative_to(ROOT)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> dict:
    """Run every workload, each in a fresh interpreter; merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=900)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            raise SystemExit(f"workload {workload} exited {completed.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv: list[str]) -> int:
    """Entry point; returns the process exit code."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"fnasbench: {ROOT} holds no repro sources or BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = _parse(argv)
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    result = run_all(args) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result, sort_keys=True))
    return 0 if args.workload != "all" or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
