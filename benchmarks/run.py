"""Benchmark entry point: run one workload (or all three) and print its metrics.

    python3 benchmarks/run.py --workload pretrain_long --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the package from ./src. With
--trace 0 it sets up several times and reports the median set-up time, then
runs short rounds of the workload (at least one, and another only while it
should end within --seconds) and reports the end-to-end metrics from each
step's best time over the rounds. With --trace 1 it sets up once, runs
untraced and traced rounds in turn, and reports the per-layer metrics.
Results, and the spans of a traced run, are written under .bench_runs/. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # pinned so that runs compare; at most nproc
SETUP_REPEATS = 5          # set-up runs at least this often, and more while it is cheap
SETUP_BUDGET_S = 3.0
SETUP_MAX_REPEATS = 9
WORKLOAD_NAMES = ("pretrain_long", "finetune_wide", "library_search")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "ok_share": "share",
    "fit_per_s": "1/s", "use_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def until(seconds: float):
    """Yields once, then again while another pass as long as the last one
    should still end within `seconds` of the first."""
    started = last = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if 2 * now - last - started > seconds:
            return
        last = now
        yield


def _git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None  # the checkout need not be a git repository
    return proc.stdout.strip() or None


def run_header(root: Path, args, corpus_facts: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": corpus_facts,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "taxossm" / "cli.py").is_file():
        print("error: run from the root of a taxossm checkout; src/taxossm is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(root / "src"))

    import taxossm
    import tracing
    import workloads

    if Path(taxossm.__file__).resolve().parent != (root / "src" / "taxossm").resolve():
        print(f"error: imported taxossm from {taxossm.__file__}, not ./src", file=sys.stderr)
        return 2

    out_dir = root / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    work = out_dir / "work"
    tally = workloads.Tally()
    wl = workloads.WORKLOADS[args.workload](args.seed, tally)
    rounds, facts = [], {}
    try:
        if args.trace:
            corpus_facts = wl.setup(work / "setup0")
            tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
            traced_rounds = []
            for _ in until(args.seconds):
                times, facts = wl.run_round(work / f"round{len(rounds)}")
                rounds.append(times)
                with tracing.instrument(tracer):
                    times, _ = wl.run_round(work / f"traced{len(traced_rounds)}", tracer)
                traced_rounds.append(times)
            metrics = tracing.layer_metrics(tracer.spans, wl.epochs * len(traced_rounds))
            untraced, traced = (wl.wall(workloads.best_times(r)) for r in (rounds, traced_rounds))
            metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
            units = {name: tracing.metric_unit(name) for name in tracing.PER_LAYER_METRICS}
            with open(out_dir / "trace.json", "w", encoding="ascii") as fh:
                json.dump(tracer.to_json(), fh)
        else:
            setup_times = []
            while len(setup_times) < SETUP_REPEATS or (
                    len(setup_times) < SETUP_MAX_REPEATS and sum(setup_times) < SETUP_BUDGET_S):
                t0 = time.perf_counter()
                corpus_facts = wl.setup(work / f"setup{len(setup_times)}")
                setup_times.append(time.perf_counter() - t0)
            # round directories stay until the run ends: deleting files
            # between rounds slows the next round's writes on this disk
            for _ in until(args.seconds):
                times, facts = wl.run_round(work / f"round{len(rounds)}")
                rounds.append(times)
            best = workloads.best_times(rounds)
            metrics = wl.metrics(best, facts)
            facts = facts | wl.extra_rates(best, facts)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["ok_share"] = tally.ok_share
            units = END_TO_END_UNITS
    except workloads.StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1

    for name in metrics:
        tracing.check_name(name)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(units)},
    }
    header = run_header(root, args, corpus_facts | {"tokens_per_seq": facts.get("tokens_per_seq")})
    # with --trace 1 the rounds are the untraced ones
    record = {"header": header, "facts": facts, "rounds": rounds,
              "failed_share": tally.failed_share, "failures": tally.failures[:20],
              "result": result}
    with open(out_dir / "result.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"blas_threads={BLAS_THREADS} nproc={header['nproc']} commit={header['git_commit']}")
    print(f"# corpus {json.dumps(header['corpus'])}")
    aliases = workloads.ALIASES[args.workload]
    for name, entry in result["metrics"].items():
        alias = f" ({aliases[name]})" if name in aliases and not args.trace else ""
        print(f"{name}{alias} = {entry['value']:.6g} {entry['unit']}")
    for name, value in facts.items():
        unit = " 1/s" if name.endswith("_per_s") else " nats" if name.endswith("_loss") else ""
        print(f"# {name} = {value:.6g}{unit}")
    for step in rounds[0]:
        mid, tail, n = tracing.per_call_summary([r[step] for r in rounds])
        print(f"# step {step}: best {min(r[step] for r in rounds):.6g} s, median {mid:.6g} s, "
              f"tail {tail:.6g} s over {n} rounds")
    print(f"# failed_share = {tally.failed_share:.6g} ({tally.failed}/{tally.attempted})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
