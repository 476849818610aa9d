"""One iteration of one workload, in its own process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/iteration.py WORKLOAD SEED MODE

MODE is ``full`` (build and run, untraced), ``traced`` (build and run
with every instrument of ``tracing.py``) or ``sanitize`` (build and run
with the program's sanitizer on, untimed).
The last line of standard output is the iteration's result as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

MODES = ("full", "traced", "sanitize")


def run(workload: str, seed: int, mode: str) -> dict:
    import workloads

    if workload == workloads.LIVE_WORKLOAD:
        if mode == "traced":
            import tracing

            return tracing.traced_live(seed)
        return workloads.live_iteration(seed, sanitize=mode == "sanitize")
    if mode == "traced":
        import tracing

        return tracing.traced_sim(workload, seed)
    result = workloads.sim_iteration(workload, seed, sanitize=mode == "sanitize")
    if mode == "sanitize":
        # Reaching here means the sanitizer raised no InvariantViolation.
        result["checks"]["sanitizer_clean"] = True
    return result


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; expected one of {MODES}")
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from repro.sanity import InvariantViolation

    try:
        result = run(workload, seed, mode)
    except InvariantViolation as exc:
        result = {"checks": {"sanitizer_clean": False}, "error": exc.report()}
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
