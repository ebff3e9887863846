"""The repository's benchmark: one workload, measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper|faults|service \\
        --seed N --seconds S --trace 0|1

Each run makes an empty directory under ``.perfbench-runs/``, generates
its inputs from ``--seed``, runs the workload in fresh interpreters
whose working and temporary directory is that run directory, checks the
program's outputs, removes the directory (``--keep`` keeps it) and
prints one JSON object as its last line::

    {"correct": true, "attempted": 18, "failed": 1, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced once more as the baseline, then traced, and reports
the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("paper", "faults", "service")

#: End-to-end metrics (untraced runs), with units; every workload
#: reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics (traced runs), with units; every workload reports
#: all of them, 0 where the workload does not exercise the layer.
PER_LAYER = {
    "startup.import_repro_s": "s",
    "startup.import_client_s": "s",
    "startup.modules": "count",
    "pdn.build_s": "s",
    "pdn.builds": "count",
    "grid.assemble_s": "s",
    "grid.factorize_s": "s",
    "grid.factorizations": "count",
    "grid.factor_nnz": "count",
    "grid.solve_s": "s",
    "grid.solve_calls": "count",
    "grid.rungs_escalated": "count",
    "runtime.sweep_s": "s",
    "runtime.groups": "count",
    "runtime.groups_reused": "count",
    "runtime.post_s": "s",
    "em.mttf_s": "s",
    "contracts.check_s": "s",
    "contracts.violations": "count",
    "service.hits": "count",
    "service.misses": "count",
    "service.solves": "count",
    "service.coalesced": "count",
    "service.cache_stage_p50_ms": "ms",
    "service.queue_stage_p50_ms": "ms",
    "service.solve_stage_p50_ms": "ms",
    "service.hit_p50_ms": "ms",
    "service.hit_p99_ms": "ms",
    "service.hit_samples": "count",
    "service.server_hit_p50_ms": "ms",
    "service.warm_miss_p50_ms": "ms",
    "service.cold_miss_p50_s": "s",
    "service.query_cli_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.program_span_coverage": "ratio",
    "obs.program_build_s": "s",
    "obs.program_factorize_s": "s",
}

#: Workload sizes: "full" is the benchmark; "smoke" only proves the
#: plumbing (the benchmark's own tests).  ``reports``: identical paper
#: reports per run, whose median is ``wall_s`` (one report is a single
#: sample of a machine whose speed drifts by tens of percent);
#: ``sweeps``: contingency sweeps per faults run; ``warm_per_spec``: warm
#: misses per service spec.
SIZES = {
    "full": {"grid": 20, "setup_starts": 3, "reports": 3, "sweeps": 4, "launches": 3,
             "warm_per_spec": 10, "cli_calls": 3, "warmup_s": 1.0},
    "smoke": {"grid": 6, "setup_starts": 1, "reports": 1, "sweeps": 2, "launches": 1,
              "warm_per_spec": 2, "cli_calls": 1, "warmup_s": 0.1},
}
#: Fresh imports timed for the startup layer in a traced run.
STARTUP_PROBES = 3
WORKER_TIMEOUT_S = 170


def child_env(root: pathlib.Path, run_dir: pathlib.Path, **extra: str) -> Dict[str, str]:
    """The program's environment: source on the path, no inherited knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(run_dir)
    env.update(extra)
    return env


def probe(target: str, env: dict, run_dir: pathlib.Path) -> Tuple[float, dict]:
    """A fresh interpreter importing ``target``: (launch-to-exit s, its report)."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), target],
        cwd=run_dir, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return time.perf_counter() - t0, json.loads(done.stdout.splitlines()[-1])


def run_worker(job: dict, root: pathlib.Path) -> dict:
    """Run ``worker.py`` on ``job`` in a directory and process group of
    its own; returns the worker's result.

    A traced paper or faults worker also records the program's own
    trace into ``program-trace/`` there.
    """
    name = f"{job['workload']}-{'traced' if job['trace'] else 'untraced'}"
    work = pathlib.Path(job["run_dir"]) / name
    work.mkdir()
    job = dict(job, run_dir=str(work), output=str(work / "result.json"))
    (work / "job.json").write_text(json.dumps(job))
    extra = {}
    if job["trace"] and job["workload"] != "service":
        extra["REPRO_TRACE"] = str(work / "program-trace")
    with open(work / "worker.log", "w") as log:
        launched = time.time()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
            cwd=work, env=child_env(root, work, **extra),
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = process.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            # Reap the worker and anything it left behind (a server).
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    if code != 0:
        tail = (work / "worker.log").read_text()[-3000:]
        raise RuntimeError(f"{name} worker exited {code}:\n{tail}")
    result = json.loads((work / "result.json").read_text())
    result["launched"] = launched
    result["work"] = str(work)
    return result


def make_job(args, size: dict, run_dir: pathlib.Path) -> dict:
    """The workload's inputs, generated from the seed."""
    rng = random.Random(args.seed)
    job = {"workload": args.workload, "seconds": args.seconds, "grid": size["grid"],
           "run_dir": str(run_dir), "trace": False}
    if args.workload == "paper":
        job.update(fig7_seed=rng.randrange(2**31), sample_seed=rng.randrange(2**31),
                   reports=size["reports"])
    elif args.workload == "faults":
        job.update(contingency_seeds=[rng.randrange(2**31) for _ in range(size["sweeps"])])
    else:
        job.update(
            service_seed=rng.randrange(2**31),
            **{k: size[k] for k in ("launches", "warm_per_spec", "cli_calls", "warmup_s")},
        )
    return job


def program_trace(trace_dir: pathlib.Path, start: float, end: float) -> dict:
    """Coverage and stage totals of the program's own trace files.

    Coverage is the share of [start, end] (process launch to the end of
    the timed phase, wall clock) inside at least one program span.
    """
    intervals, totals = [], {"build": 0.0, "factorize": 0.0}
    for path in sorted(trace_dir.glob("trace-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") != "span":
                continue
            intervals.append((record["start_s"], record["start_s"] + record["dur_s"]))
            if record["name"] in totals:
                totals[record["name"]] += record["dur_s"]
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return {
        "obs.program_span_coverage": covered / (end - start),
        "obs.program_build_s": totals["build"],
        "obs.program_factorize_s": totals["factorize"],
    }


def measure(args, root: pathlib.Path, run_dir: pathlib.Path) -> dict:
    size = SIZES["smoke" if args.smoke else "full"]
    env = child_env(root, run_dir)
    job = make_job(args, size, run_dir)
    # Users run with a warm bytecode and file cache: fill both, untimed.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        cwd=run_dir, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    probe("repro", env, run_dir)

    if not args.trace:
        if args.workload == "service":
            setup_samples: List[float] = []
        else:
            setup_samples = [
                probe("repro", env, run_dir)[0] for _ in range(size["setup_starts"])
            ]
        result = run_worker(job, root)
        values = {
            "setup_s": statistics.median(setup_samples or result["setup"]),
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["rss_mb"],
        }
        return finish(values, END_TO_END, result, result["problems"])

    # The untraced baseline gives the overhead ratio and the client-side
    # service numbers; one report or server start is enough for it.
    job.update({k: 1 for k in ("reports", "launches") if k in job})
    baseline = run_worker(job, root)
    traced = run_worker(dict(job, trace=True), root)
    problems = baseline["problems"] + traced["problems"]
    if baseline.get("output") != traced.get("output"):
        problems.append("tracing changed the workload's output")

    values = {name: 0.0 for name in PER_LAYER}
    values.update(traced["layers"])
    repro_probes = [probe("repro", env, run_dir)[1] for _ in range(STARTUP_PROBES)]
    client_probes = [
        probe("repro.service.client", env, run_dir)[1] for _ in range(STARTUP_PROBES)
    ]
    values["startup.import_repro_s"] = statistics.median(p["import_s"] for p in repro_probes)
    values["startup.modules"] = statistics.median(p["modules"] for p in repro_probes)
    values["startup.import_client_s"] = statistics.median(
        p["import_s"] for p in client_probes
    )
    values["obs.trace_overhead"] = traced["wall_s"] / baseline["wall_s"]
    if args.workload == "service":
        values.update(baseline["service"])
    else:
        values.update(program_trace(
            pathlib.Path(traced["work"]) / "program-trace",
            traced["launched"], traced["end_wall"],
        ))
    # A stage the run never entered has no quantile: report it as 0.
    values = {name: values[name] or 0.0 for name in PER_LAYER}
    return finish(values, PER_LAYER, baseline, problems)


def finish(values: dict, units: dict, counts: dict, problems: List[str]) -> dict:
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--keep", action="store_true",
                        help="keep the run directory (traces, logs, service cache)")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    runs = root / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        result = measure(args, root, run_dir)
    finally:
        if args.keep:
            print(f"perfbench: run directory kept at {run_dir}", file=sys.stderr)
        else:
            shutil.rmtree(run_dir, ignore_errors=True)
            try:
                runs.rmdir()
            except OSError:
                pass  # another run is using it, or --keep left one
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
