"""The repository benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload search_open --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

A single run measures one workload in this (fresh) interpreter, checks
every output, prints each metric by name with its unit, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1`` (spans are then also written under ``perfbench/out/``).
It exits non-zero when a correctness check fails.

``--all`` runs every workload untraced and traced, each in its own
interpreter, prints the end-to-end table, the ledger beside the metric
each layer should move, and the tracing overhead, and writes the record
to ``perfbench/out/results.json`` (or ``--out``).

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search_open", "vod_failover", "sim_sweep")
#: the end-to-end metrics every run reports (BENCHMARK.json declares them)
END_TO_END = {
    "setup_s": "s",
    "reply_ms_p50": "ms",
    "reply_ms_p99": "ms",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}
#: end-to-end figures that exist on some workloads only: printed and
#: recorded per run, not declared
FIGURES = {
    "capacity_qps": "1/s",
    "takeover_ms_p50": "ms",
    "frame_gap_ms_p99": "ms",
    "failed_share": "ratio",
    "sim_s_per_wall_s": "s/s",
}


def _load() -> tuple:
    """Import the program (from the checkout's ``src``) and the harness."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ledger
    import livecluster
    import workloads

    return ledger, livecluster, workloads


def _environment(seed: int, seconds: float, profile: str) -> dict:
    return {
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gcs_profile": profile,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        ledger_mod, livecluster, workloads = _load()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    ledger = ledger_mod.Ledger(live=workload != "sim_sweep") if trace else None
    if workload == "search_open":
        outcome = asyncio.run(workloads.run_search_open(seed, seconds, ledger))
    elif workload == "vod_failover":
        outcome = asyncio.run(workloads.run_vod_failover(seed, seconds, ledger))
    else:
        outcome = workloads.run_sim_sweep(seed, seconds, ledger)
    if ledger is not None:
        ledger.uninstall()
    metrics = {
        "setup_s": import_s + statistics.median(outcome.setups),
        "peak_rss_mb": workloads.peak_rss_mb(),
        **outcome.metrics,
    }
    profile = "sim-lan" if workload == "sim_sweep" else livecluster.PROFILE
    details = {
        "workload": workload,
        **_environment(seed, seconds, profile),
        "import_s": import_s,
        "setups_s": outcome.setups,
        "sim_s_per_wall_s": metrics["sim_s_per_wall_s"],
        **outcome.details,
    }
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{workload} (seed {seed}, {seconds:g}s, trace {int(trace)})")
    if trace:
        layers = outcome.layers
        for layer, names, moves in ledger_mod.LAYERS:
            print(f"  [{layer}] moves: {moves}")
            for name, unit in names:
                print(f"    {name:34s} {layers.get(name, 0.0):14.4f} {unit}")
        spans = HERE / "out" / f"spans-{workload}-{seed}.jsonl"
        ledger.tracer.write(spans)
        details["spans_file"] = str(spans.relative_to(ROOT))
        details["spans_recorded"] = len(ledger.tracer.spans)
        reported = {
            name: {"value": float(layers.get(name, 0.0)), "unit": ledger_mod.UNITS[name]}
            for name in ledger_mod.DECLARED
        }
        details["layers"] = layers
    else:
        for name, unit in END_TO_END.items():
            print(f"  {name:20s} {metrics[name]:12.4f} {unit}")
        for name, unit in FIGURES.items():
            value = details.get(name)
            if value is not None:
                print(f"  {name:20s} {value:12.4f} {unit}")
        reported = {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        details["end_to_end"] = metrics
    print("details " + json.dumps(details, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": int(max(outcome.attempted, 1)),
                "failed": int(outcome.failed),
                "metrics": reported,
            }
        )
    )
    return 0 if outcome.correct else 1


def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run in a fresh interpreter; returns its result and details."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed nothing: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = {}
    for line in lines:
        if line.startswith("details "):
            details = json.loads(line[len("details "):])
        elif line.startswith("CHECK FAILED"):
            print(f"  {workload}: {line}")
    return result, details


def run_all(seed: int, seconds: float, out: Path) -> int:
    ledger_mod, livecluster, _ = _load()
    record: dict = {
        "environment": _environment(seed, seconds, f"{livecluster.PROFILE} (live), sim-lan (sweep)"),
        "workloads": {},
    }
    correct = True
    for workload in WORKLOADS:
        plain, plain_details = _child(workload, seed, seconds, 0)
        traced, traced_details = _child(workload, seed, seconds, 1)
        correct = correct and plain["correct"] and traced["correct"]
        e2e = {k: v["value"] for k, v in plain["metrics"].items()}
        layers = traced_details.get("layers", {})
        overhead = {
            "cpu_ms_per_req": layers.get("trace.cpu_ms_per_req", 0.0) / e2e["cpu_ms_per_req"] - 1.0,
            "sim_s_per_wall_s": 1.0
            - layers.get("trace.sim_s_per_wall_s", 0.0) / plain_details["sim_s_per_wall_s"],
        }
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": e2e,
            "figures": {k: plain_details.get(k) for k in FIGURES if k in plain_details},
            "samples": {
                k: plain_details.get(k)
                for k in (
                    "reply_samples",
                    "reply_ms_p99_percentile",
                    "takeover_samples",
                    "frame_gap_samples",
                    "frame_gap_ms_p99_percentile",
                    "iterations",
                    "pacer_lag_ms_p99",
                )
                if k in plain_details
            },
            "details": plain_details,
            "layers": layers,
            "trace_overhead": overhead,
            "traced_details": {
                k: v for k, v in traced_details.items() if k not in ("layers", "runs")
            },
        }
        print(f"\n== {workload}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for name, value in e2e.items():
            print(f"  {name:20s} {value:12.4f} {END_TO_END[name]}")
        for name, value in record["workloads"][workload]["figures"].items():
            if value is not None:
                print(f"  {name:20s} {value:12.4f} {FIGURES[name]}")
        print(f"  tracing overhead: cpu_ms_per_req +{overhead['cpu_ms_per_req']:.1%}, "
              f"sim_s_per_wall_s -{overhead['sim_s_per_wall_s']:.1%}")
    print("\n== per-layer ledger (traced runs), beside what each layer should move")
    for layer, names, moves in ledger_mod.LAYERS:
        print(f"[{layer}] moves: {moves}")
        for name, unit in names:
            row = "  ".join(
                f"{record['workloads'][w]['layers'].get(name, 0.0):12.4f}" for w in WORKLOADS
            )
            print(f"  {name:34s} {row}  {unit}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    print(f"\nwrote {out}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
