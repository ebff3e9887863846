"""The benchmark's own tests: a tiny smoke of each workload, and every
correctness check shown to fail on a planted wrong value.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run_dirs() -> set:
    runs = ROOT / ".perfbench-runs"
    return set(runs.iterdir()) if runs.exists() else set()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_leaves_nothing(workload):
    before = run_dirs()
    result = result_of(
        bench("--workload", workload, "--seed", "5", "--seconds", "0.5", "--smoke")
    )
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "faults":
        # Exactly the severed voltage-stacked row fails, in every run.
        assert (result["attempted"], result["failed"]) == (18, 1)
    else:
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert run_dirs() == before


def test_traced_run_reports_every_per_layer_metric():
    result = result_of(
        bench("--workload", "faults", "--seed", "5", "--seconds", "0.5", "--smoke",
              "--trace", "1")
    )
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["grid.factorizations"] > 0 and metrics["pdn.builds"] > 0
    assert 0 < metrics["obs.program_span_coverage"] <= 1
    assert metrics["runtime.groups_reused"] == 0  # faulted topologies never reuse


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "paper", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_program_trace_coverage_merges_nested_spans(tmp_path):
    spans = [
        {"kind": "span", "name": "sweep", "start_s": 10.0, "dur_s": 4.0},
        {"kind": "span", "name": "build", "start_s": 11.0, "dur_s": 1.0},
        {"kind": "span", "name": "factorize", "start_s": 13.0, "dur_s": 3.0},
    ]
    (tmp_path / "trace-x.jsonl").write_text(
        "\n".join(json.dumps(s) for s in [{"kind": "header"}] + spans)
    )
    out = run.program_trace(tmp_path, start=8.0, end=18.0)
    assert out["obs.program_span_coverage"] == pytest.approx(6.0 / 10.0)
    assert out["obs.program_build_s"] == 1.0
    assert out["obs.program_factorize_s"] == 3.0


# ----------------------------------------------------------------------
# checks fail on planted wrong values
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved():
    from repro.runtime import PDNSpec

    pdn = PDNSpec.stacked(4, converters_per_core=4, grid_nodes=5).build()
    return pdn, pdn.solve(layer_activities=(1.0, 0.5, 1.0, 0.5)).solution


def test_circuit_laws_hold_and_catch_a_perturbed_voltage(solved):
    pdn, solution = solved
    assert checks.check_circuit_laws(pdn.circuit, solution, "pdn") == []
    node = pdn.circuit.node(("vdd", 1, 2, 2))
    saved = solution.node_voltage[node]
    solution.node_voltage[node] = saved + 1e-4
    try:
        assert checks.check_circuit_laws(pdn.circuit, solution, "pdn")
    finally:
        solution.node_voltage[node] = saved


def test_recomputed_ir_drop_matches_only_the_right_cell(solved):
    pdn, solution = solved
    droop = checks.max_droop_fraction(pdn, solution)
    assert droop == pytest.approx(
        pdn.solve(layer_activities=(1.0, 0.5, 1.0, 0.5)).max_ir_drop_fraction(), rel=1e-12
    )
    printed = round(droop * 100, 3)
    assert checks.check_printed_droop(droop, printed, 3, "cell") == []
    assert checks.check_printed_droop(droop, printed + 0.002, 3, "cell")


@pytest.fixture(scope="module")
def report():
    from repro.core.report import generate_report

    return generate_report(grid_nodes=6, rng=1)


def test_report_properties_hold(report):
    assert checks.check_report(report) == []


def plant(report: str, heading: str, old: str, new: str) -> str:
    block = checks.report_block(report, heading)
    assert old in block, (heading, old)
    return report.replace(block, block.replace(old, new, 1))


def test_fig6_check_catches_a_noise_drop_and_misordered_lines(report):
    cells, lines = checks.fig6_table(report)
    value = cells[(8, 50)]
    rising = plant(report, "Fig. 6", f"{value:.3f}", f"{value / 10:.3f}")
    assert checks.check_fig6(rising)
    dense = f"Dense TSV (worst case, any imbalance): {lines['Dense']:.2f}"
    swapped = plant(report, "Fig. 6", dense,
                    f"Dense TSV (worst case, any imbalance): {lines['Few'] + 1:.2f}")
    assert checks.check_fig6(swapped)


def test_fig8_and_fig5_checks_catch_planted_values(report):
    headers, rows = checks.parse_table(checks.report_block(report, "Fig. 8"))
    assert checks.check_fig8(plant(report, "Fig. 8", rows[0][-1], "101.000"))
    headers, rows = checks.parse_table(checks.report_block(report, "Fig. 5a"))
    regular = next(r for r in rows if r[0].startswith("Reg."))
    assert checks.check_fig5(plant(report, "Fig. 5a", regular[-1], "999.999"))


def test_headline_check_catches_a_reversed_claim(report):
    block = checks.report_block(report, "Headline claims")
    line = next(l for l in block.splitlines() if "V-S PDN TSV lifetime loss" in l)
    assert checks.check_headline(report.replace(line, line.rsplit(":", 1)[0] + ": 99%"))


def contingency_rows():
    base = {"error": None, "n_islands": 0, "n_dropped_nodes": 0, "shed_loads": 0,
            "n_failed_converters": 0}
    return [
        dict(base, arrangement="regular", label="0%", fraction=0.0,
             n_failed_conductors=0, max_droop_fraction=0.06, efficiency=0.94),
        dict(base, arrangement="regular", label="10%", fraction=0.1,
             n_failed_conductors=100, max_droop_fraction=0.07, efficiency=0.93),
        dict(base, arrangement="voltage-stacked", label="severed", fraction=None,
             n_failed_conductors=50, max_droop_fraction=8.3, efficiency=0.0,
             n_islands=2, n_dropped_nodes=2 * 16, shed_loads=16),
    ]


def test_contingency_check_counts_the_known_fault_apart():
    pristine = {"regular": (0.06, 0.94), "voltage-stacked": (0.01, 0.87)}
    population = {"regular": (1000, 0), "voltage-stacked": (1000, 100)}
    rows = contingency_rows()
    assert checks.check_contingency(rows, pristine, population, grid=4) == ([], 1)

    drifted = contingency_rows()
    drifted[0]["max_droop_fraction"] += 1e-9
    assert checks.check_contingency(drifted, pristine, population, 4)[0]
    miscounted = contingency_rows()
    miscounted[1]["n_failed_conductors"] = 400
    assert checks.check_contingency(miscounted, pristine, population, 4)[0]
    out_of_bounds = contingency_rows()
    out_of_bounds[1]["max_droop_fraction"] = 1.5
    assert checks.check_contingency(out_of_bounds, pristine, population, 4)[0]
    powered = contingency_rows()
    powered[2]["shed_loads"] = 0
    assert checks.check_contingency(powered, pristine, population, 4)[0]


def test_service_checks_catch_a_wrong_payload_and_cli_answer():
    direct = {"max_ir_drop_v": 0.02, "max_ir_drop_fraction": 0.02, "efficiency": 0.85,
              "load_power_w": 48.0, "source_power_w": 57.0}
    assert checks.check_answer(dict(direct, degraded_solve=False), direct, "q") == []
    wrong = dict(direct, efficiency=0.85 + 1e-9, degraded_solve=False)
    assert checks.check_answer(wrong, direct, "q")

    response = {"fingerprint": "abc123", "result": direct}
    line = ("query abc123 [cached]: max IR drop 0.02 V (2% of rail), "
            "efficiency 85%")
    assert checks.check_cli_answer(line, response, "cli") == []
    assert checks.check_cli_answer(line.replace("abc123", "def456"), response, "cli")
    assert checks.check_cli_answer(line.replace("85%", "86%"), response, "cli")
