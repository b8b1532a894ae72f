"""Set one workload up in a fresh interpreter, print ``ready``, tear down.

``python3 fnasbench/setup_probe.py <workload> [store_dir]``.  The
parent times this process from start to the ``ready`` line, which is
the workload's set-up time: imports, construction and, on ``service``,
journal replay and gateway bind.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(workload: str, *args: str) -> None:
    """Import and set up ``workload``, report ready, then tear it down."""
    from importlib import import_module

    module = import_module(f"fnasbench.bench_{workload}")
    state = module.setup(*args)
    print("ready", flush=True)
    module.teardown(state)


if __name__ == "__main__":
    main(*sys.argv[1:])
