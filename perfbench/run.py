"""The repository's benchmark: one workload, timed from outside every layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper160 --seed 0 --seconds 20 --trace 0

Each iteration (build one world, run it once) runs in a fresh process.
With ``--trace 0`` the run repeats untraced iterations for ``--seconds``
and reports the end-to-end metrics of BENCHMARK.json as medians. With
``--trace 1`` it also runs one traced iteration, the program's sanitizer
over the same world, and reports the per-layer metrics instead; spans go
to ``perfbench/traces/``. Every run checks the program's outputs; the
last line of standard output is the result as JSON. See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from harness import median, valid_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
TRACES = HERE / "traces"

#: Untraced iterations a run takes at least, however long they are.
MIN_RUNS = 2

#: Wall-clock limit of the whole run; a child still going by then has failed.
RUN_LIMIT_S = 170.0

#: The one workload on the live substrate; the others are simulated.
LIVE = "live-ring"


def load_manifest() -> Dict[str, Any]:
    manifest = json.loads(MANIFEST.read_text())
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    bad = [name for name in names if not valid_name(name)]
    if bad or len(set(names)) != len(names):
        raise SystemExit(f"BENCHMARK.json: invalid or repeated names {bad or names}")
    return manifest


class Runner:
    """Starts iteration processes and keeps the run inside its limit."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, mode: str) -> Dict[str, Any]:
        command = [
            sys.executable,
            str(HERE / "iteration.py"),
            self.workload,
            str(self.seed),
            mode,
        ]
        try:
            proc = subprocess.run(
                command,
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return {"checks": {f"{mode}_iteration_finished": False}}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            return {"checks": {f"{mode}_iteration_exited_0": False}}
        return json.loads(lines[-1])


def passed(result: Dict[str, Any]) -> bool:
    return all(result.get("checks", {}).values()) and "error" not in result


def measure(runner: Runner, seconds: float, min_runs: int) -> List[Dict[str, Any]]:
    """Untraced iterations: at least *min_runs*, then more while one fits."""
    iterations: List[Dict[str, Any]] = []
    costs: List[float] = []
    while True:
        start = runner.elapsed()
        iterations.append(runner.child("full"))
        costs.append(runner.elapsed() - start)
        if not passed(iterations[-1]):
            break
        if len(iterations) >= min_runs and runner.elapsed() + median(costs) > seconds:
            break
    return iterations


def consistency_checks(iterations: List[Dict[str, Any]]) -> Dict[str, bool]:
    """Every run of one seed must produce the same outputs."""
    runs = [it for it in iterations if "run_s" in it]
    prints = {it.get("fingerprint") for it in runs}
    return {
        "some_iteration_ran": bool(runs),
        "every_iteration_passed": all(passed(it) for it in iterations),
        "same_fingerprint_every_run": len(prints) == 1,
    }


def end_to_end(iterations: List[Dict[str, Any]]) -> Dict[str, float]:
    runs = [it for it in iterations if "run_s" in it]
    first = runs[0]
    values = {
        "setup_s": median([it["setup_s"] for it in runs]),
        "run_s": median([it["run_s"] for it in runs]),
        "cpu_s": median([it["cpu_s"] for it in runs]),
        "peak_rss_mb": median([it["peak_rss_mb"] for it in runs]),
        "delay_p50_s": median([it["delay_p50_s"] for it in runs]),
        "delay_p99_s": median([it["delay_p99_s"] for it in runs]),
    }
    for name in ("delivery_ratio", "qos_delivery_ratio", "packets_per_subscriber"):
        values[name] = first[name]
    return values


def per_layer(
    workload: str,
    iterations: List[Dict[str, Any]],
    traced: Dict[str, Any],
    names: List[str],
) -> Dict[str, float]:
    """The traced iteration's layer metrics; a layer not exercised reads 0."""
    runs = [it for it in iterations if "run_s" in it]
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - median([it["wall_s"] for it in runs])
    if workload == LIVE:
        layers["live.overhead_p50_s"] = (
            median([it["delay_p50_s"] for it in runs]) - traced["twin_p50_s"]
        )
    return {name: layers.get(name, 0.0) for name in names}


def traced_checks(workload: str, iterations, traced, sanitized) -> Dict[str, bool]:
    fingerprint = next(it["fingerprint"] for it in iterations if "run_s" in it)
    checks = {
        "traced_iteration_passed": passed(traced),
        "sanitized_iteration_passed": passed(sanitized),
        "sanitizer_ran_clean": sanitized.get("checks", {}).get("sanitizer_clean", False),
    }
    if workload != LIVE:
        untraced = next(it for it in iterations if "run_s" in it)
        checks["traced_run_same_outputs"] = traced.get("fingerprint") == fingerprint
        checks["sanitized_run_same_outputs"] = sanitized.get("fingerprint") == fingerprint
        checks["traced_run_same_events"] = (
            traced.get("layers", {}).get("sim.events")
            == untraced["perf"]["sim.events_processed"]
        )
    else:
        checks["sanitized_run_same_delivered_set"] = sanitized.get("fingerprint") == fingerprint
    return checks


def write_spans(workload: str, seed: int, traced: Dict[str, Any]) -> Path:
    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"{workload}-seed{seed}.jsonl"
    with path.open("w") as handle:
        for span in traced.get("spans", ()):
            handle.write(json.dumps(span) + "\n")
    return path


def show(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<34} {value:>18.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program source under {ROOT / 'src'}; nothing to measure\n")
        return 2
    manifest = load_manifest()
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads}")

    runner = Runner(args.workload, args.seed)
    # The traced run needs only a baseline for trace.overhead_s.
    iterations = measure(runner, args.seconds, min_runs=1 if args.trace else MIN_RUNS)
    checks = consistency_checks(iterations)
    if not checks["some_iteration_ran"]:
        sys.stderr.write("no iteration finished; no result\n")
        return 1
    runs = [it for it in iterations if "run_s" in it]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for index, it in enumerate(runs):
        times = "  ".join(f"{key}={it[key]:.4f}" for key in ("setup_s", "run_s", "cpu_s"))
        print(f"  iteration {index}: {times}")
    first = runs[0]
    print(
        f"  fingerprint {first.get('fingerprint')}  delay samples {first['delay_count']}"
        f"  ({first['delay_p99_beyond']} beyond p99; tail rule allows"
        f" p{first['delay_tail_pct']:g} = {first['delay_tail_s']:.6g} s)"
    )

    if args.trace:
        traced = runner.child("traced")
        sanitized = runner.child("sanitize")
        checks.update(traced_checks(args.workload, iterations, traced, sanitized))
        names = [m["name"] for m in manifest["per_layer"]]
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        metrics = (
            per_layer(args.workload, iterations, traced, names)
            if passed(traced)
            else dict.fromkeys(names, 0.0)
        )
        show("per-layer metrics (traced iteration)", [(n, metrics[n], units[n]) for n in names])
        print(f"  spans written to {write_spans(args.workload, args.seed, traced)}")
    else:
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        metrics = end_to_end(iterations)
        show("end-to-end metrics (medians of untraced iterations)", [(n, metrics[n], u) for n, u in units.items()])

    correct = all(checks.values())
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    attempted = int(first["expected"])
    failed = attempted - int(first["delivered"]) if correct else attempted
    print(f"  attempted {attempted} expected deliveries, failed {failed}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
