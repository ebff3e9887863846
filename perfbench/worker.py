"""Run one workload in a fresh interpreter; started by ``run.py``.

Usage: ``python worker.py <job.json>``.  The job file holds the inputs
``run.py`` generated from the seed; the worker writes its measurements,
outputs and correctness problems to the job's ``output`` path.  With
``trace`` set the layers are timed from outside (``layers.py``) and
the program's own tracer records into the run directory.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from layers import Recorder, install  # noqa: E402

N_LAYERS = 8
FRACTIONS = (0.0, 0.05, 0.10, 0.20)


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def timed(work):
    """``(seconds, result)`` of one call of ``work``."""
    t0 = time.perf_counter()
    result = work()
    return time.perf_counter() - t0, result


def solve_point(spec, activities):
    pdn = spec.build()
    return pdn, pdn.solve(layer_activities=activities).solution


# ----------------------------------------------------------------------
def run_paper(job: dict) -> dict:
    from repro.core.report import generate_report
    from repro.runtime import PDNSpec

    grid = job["grid"]
    walls, reports = [], []
    for _ in range(job["reports"]):
        wall, report = timed(lambda: generate_report(grid_nodes=grid, rng=job["fig7_seed"]))
        walls.append(wall)
        reports.append(report.rsplit("*Generated in", 1)[0])
        if len(reports) == 1:
            # Peak memory and traces of one report, before the repeats.
            result = end_of_timed_phase(job)
    result.update(wall_s=statistics.median(walls), attempted=len(reports), failed=0)
    problems = [] if len(set(reports)) == 1 else ["the same inputs gave different reports"]
    report = reports[0]
    problems += checks.check_report(report)

    # Recompute sampled points from the netlist and match the printed cells.
    cells, lines = checks.fig6_table(report)
    rng = random.Random(job["sample_seed"])
    printed = sorted(key for key, value in cells.items() if value is not None)
    for k, imbalance in rng.sample(printed, 2):
        spec = PDNSpec.stacked(N_LAYERS, converters_per_core=k, topology="Few",
                               grid_nodes=grid)
        label = f"Fig. 6 V-S {k} conv/core at {imbalance}%"
        pdn, solution = solve_point(
            spec, checks.interleaved_activities(N_LAYERS, imbalance / 100)
        )
        problems += checks.check_circuit_laws(pdn.circuit, solution, label)
        problems += checks.check_printed_droop(
            checks.max_droop_fraction(pdn, solution), cells[(k, imbalance)], 3, label
        )
    topology = rng.choice(sorted(lines))
    label = f"Fig. 6 regular {topology}"
    pdn, solution = solve_point(
        PDNSpec.regular(N_LAYERS, topology=topology, grid_nodes=grid), None
    )
    problems += checks.check_circuit_laws(pdn.circuit, solution, label)
    problems += checks.check_printed_droop(
        checks.max_droop_fraction(pdn, solution), lines[topology], 2, label
    )
    result["problems"] = problems
    result["output"] = report
    return result


# ----------------------------------------------------------------------
def contingency_rows(job: dict) -> list:
    from repro.core.experiments.contingency import run_contingency

    rows = []
    for i, seed in enumerate(job["contingency_seeds"]):
        sweep = run_contingency(
            n_layers=N_LAYERS, grid_nodes=job["grid"], fractions=FRACTIONS,
            seed=seed, severed_layer=(i == 0),
        )
        rows += [dataclasses.asdict(p) for p in sweep.points]
    return rows


def run_faults(job: dict) -> dict:
    from repro.runtime import PDNSpec

    wall, rows = timed(lambda: contingency_rows(job))
    result = {"wall_s": wall}
    result.update(end_of_timed_phase(job))

    grid = job["grid"]
    problems = []
    pristine, population = {}, {}
    for arrangement, spec in (
        ("regular", PDNSpec.regular(N_LAYERS, grid_nodes=grid)),
        ("voltage-stacked", PDNSpec.stacked(N_LAYERS, converters_per_core=8,
                                            grid_nodes=grid)),
    ):
        pdn, solution = solve_point(spec, None)
        problems += checks.check_circuit_laws(pdn.circuit, solution, arrangement)
        pristine[arrangement] = (
            checks.max_droop_fraction(pdn, solution),
            checks.efficiency(pdn.circuit, solution),
        )
        conductors = sum(
            int(group.multiplicity.sum())
            for tag, group in pdn.conductor_groups.items()
            if tag.startswith(("tsv", "tvia"))
        )
        converters = pdn.total_converters if spec.is_stacked else 0
        population[arrangement] = (conductors, converters)

    found, known = checks.check_contingency(rows, pristine, population, grid)
    result.update(
        attempted=len(rows), failed=known, problems=problems + found, output=rows
    )
    return result


# ----------------------------------------------------------------------
RECORDER = Recorder()


def end_of_timed_phase(job: dict) -> dict:
    """Measurements taken before the checks add work of their own."""
    out = {"rss_mb": peak_rss_mb(), "end_wall": time.time()}
    if job["trace"]:
        from repro.obs.export import flush_spans
        from repro.obs.trace import get_tracer

        # Spans recorded outside any engine run are still buffered.
        flush_spans(get_tracer().drain(), "perfbench-tail")
        out["layers"] = RECORDER.summary()
        RECORDER.write_jsonl(pathlib.Path(job["run_dir"]) / "spans.jsonl")
    return out


def main() -> int:
    job = json.loads(pathlib.Path(sys.argv[1]).read_text())
    if job["workload"] == "service":
        # The server, not this client, is the traced process here.
        import service_load

        result = service_load.run(job)
    else:
        if job["trace"]:
            install(RECORDER)
        result = {"paper": run_paper, "faults": run_faults}[job["workload"]](job)
    pathlib.Path(job["output"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
