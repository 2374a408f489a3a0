"""tagcraft benchmark: one workload per run, end-to-end metrics untraced,
per-layer metrics from a traced run.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. The metric names and units come from
BENCHMARK.json. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a correctness check fails.

With ``--trace 1`` traced and untraced operations alternate, so
``trace.overhead_frac`` compares the two within one run.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# setup_s is the median over batches of repeat set-ups on throwaway
# instances. A batch sets up again and again for at least SETUP_BATCH_S and
# counts the mean: a shared host's speed can change from one second to the
# next, and a mean over a batch smooths that where one short set-up would
# not. Batches follow the operations until they have taken SETUP_SHARE of the
# measured time, so they see the machine conditions the operations see; a run
# makes at least MIN_SETUP_BATCHES.
SETUP_BATCH_S = 1.0
SETUP_SHARE = 0.25
MIN_SETUP_BATCHES = 5
MIN_OPS = 3  # untraced operations in a plain run
MIN_TRACED_OPS = 2  # of each kind in a traced run


def timed_setup(workload_type, seed: int):
    workload = workload_type()
    started = perf_counter()
    workload.setup(seed, OUT_DIR)
    return workload, perf_counter() - started


def run_one(args, spec: dict) -> int:
    from layers import traced_run
    from workloads import WORKLOADS

    workload_type = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workload, _ = timed_setup(workload_type, args.seed)
    setup_times: list[float] = []
    batches_s = 0.0

    def setup_batch() -> None:
        nonlocal batches_s
        started = perf_counter()
        times = []
        while perf_counter() - started < SETUP_BATCH_S:
            extra, seconds = timed_setup(workload_type, args.seed)
            extra.close()
            times.append(seconds)
        setup_times.append(statistics.fmean(times))
        batches_s += perf_counter() - started

    plain, traced = [], []
    last_tracer = None
    try:
        warmup = [workload.run() for _ in range(workload.warmup_runs)]
        measured = 0.0
        while True:
            started = perf_counter()
            if args.trace and len(traced) < len(plain):
                outcome, last_tracer, layer = traced_run(workload)
                traced.append((outcome, layer))
            else:
                plain.append(workload.run())
            measured += perf_counter() - started
            while batches_s < SETUP_SHARE * measured:
                setup_batch()
            done = len(plain) + len(traced)
            enough = len(plain) >= MIN_TRACED_OPS and len(traced) >= MIN_TRACED_OPS if args.trace else len(plain) >= MIN_OPS
            if enough and measured + measured / done > args.seconds:
                break
        while len(setup_times) < MIN_SETUP_BATCHES:
            setup_batch()
        if args.trace and hasattr(workload, "agreement"):
            agreement = workload.agreement()
            for _, layer in traced:
                layer["http.align.agreement"] = agreement
    finally:
        workload.close()

    outcomes = warmup + plain + [outcome for outcome, _ in traced]
    problems = [problem for outcome in outcomes for problem in outcome.problems]
    signatures = {
        (o.fingerprint, len(o.records), sum(r.prompt_chars for r in o.records)) for o in outcomes
    }
    if len(signatures) != 1:
        problems.append(f"repeat runs disagree: {len(signatures)} distinct outputs or costs over {len(outcomes)} runs")

    first = plain[0]
    walls = [o.wall_s for o in plain]
    rates = [o.docs / o.wall_s for o in plain]
    results: dict[str, tuple[float, list[float] | None]] = {
        "setup_s": (statistics.median(setup_times), setup_times),
        "wall_s": (statistics.median(walls), walls),
        "docs_per_s": (statistics.median(rates), rates),
        "backend_calls": (len(first.records), None),
        "prompt_chars": (sum(r.prompt_chars for r in first.records), None),
        "accuracy": (first.correct / first.total, None),
        "accuracy_seen": (first.seen_correct / first.seen_total, None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None),
        "error_rate": (sum(o.failed for o in outcomes) / sum(o.attempted for o in outcomes), None),
    }
    if traced:
        for name in traced[0][1]:
            values = [layer[name] for _, layer in traced]
            results[name] = (statistics.median(values), values if len(set(values)) > 1 else None)
        traced_walls = [o.wall_s for o, _ in traced]
        results["trace.overhead_frac"] = (statistics.median(traced_walls) / statistics.median(walls) - 1, None)
        last_tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in results]
    if missing:
        problems.append(f"metrics not computed: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"runs={len(plain)} untraced + {len(traced)} traced, set-up batches={len(setup_times)}")
    for name, (value, samples) in results.items():
        line = f"{name:<40} {value:>16.6g} {units.get(name, '')}"
        if samples is not None and len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
            line += f"   (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})"
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    report = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            m["name"]: {"value": results[m["name"]][0], "unit": m["unit"]} for m in wanted if m["name"] in results
        },
    }
    print(json.dumps(report))
    return 0 if not problems else 1


def run_all(args, spec: dict) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(completed.stdout, end="")
        lines = completed.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            report = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or completed.returncode
        combined["correct"] = combined["correct"] and report["correct"] and completed.returncode == 0
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        for metric, value in report["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    combined["attempted"] = max(1, combined["attempted"])
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tagcraft" / "__init__.py").is_file():
        print(f"bench: no tagcraft sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    logging.basicConfig(level=logging.ERROR)
    # Turn SIGTERM into SystemExit so that clean-up in finally blocks runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run_one(args, spec)
    except Exception:
        traceback.print_exc()
        print("bench: the workload raised; see the traceback above", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
