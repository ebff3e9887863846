"""Correctness checks made apart from the program.

Nothing here compares against a stored copy of earlier output.  Solved
points are checked against circuit laws recomputed from the netlist's
element columns; printed tables are checked against physical properties
the paper's model must have; service answers are checked against a
direct in-process solve.  Every check returns a list of problems (empty
when the check holds).
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: KCL residual allowed at any node, relative to the total load current.
KCL_TOLERANCE = 1e-9
#: |supplied - absorbed| power allowed, relative to the supplied power.
#: Looser than KCL: in a voltage stack each converter's power terms are
#: large and cancel, so a correct solve leaves ~5e-9 here at grid 20.
POWER_TOLERANCE = 1e-7
#: Agreement demanded between two solves of one operating point.
SAME_POINT_TOLERANCE = 1e-12
#: Standard deviations a binomial failure count may stray from its mean.
BINOMIAL_SIGMAS = 6.0


# ----------------------------------------------------------------------
# circuit laws from the netlist columns
# ----------------------------------------------------------------------

def node_injections(circuit, solution) -> Tuple[np.ndarray, float, float]:
    """Net current leaving every node through its elements.

    Returns ``(injection per node, supplied power, absorbed power)``,
    each computed from the element columns and the solved node voltages
    and branch currents.  A correct operating point has zero net
    injection at every non-ground node and supplied == absorbed.
    """
    v = solution.node_voltage
    out = np.zeros(circuit.node_count)

    res = circuit.store("resistor")
    n1, n2 = res.column("n1"), res.column("n2")
    current = np.where(res.active, (v[n1] - v[n2]) / res.column("resistance"), 0.0)
    np.add.at(out, n1, current)
    np.add.at(out, n2, -current)
    absorbed = float(np.sum(current * (v[n1] - v[n2])))

    loads = circuit.store("isource")
    src, dst = loads.column("src"), loads.column("dst")
    load = solution.isource_values()
    np.add.at(out, src, load)
    np.add.at(out, dst, -load)
    absorbed += float(np.sum(load * (v[src] - v[dst])))

    supplies = circuit.store("vsource")
    pos, neg = supplies.column("pos"), supplies.column("neg")
    supply = solution.vsource_currents()  # out of the + terminal
    np.add.at(out, pos, -supply)
    np.add.at(out, neg, supply)
    supplied = float(np.sum(supply * (v[pos] - v[neg])))

    conv = circuit.store("converter")
    if len(conv):
        top, bottom, mid = conv.column("top"), conv.column("bottom"), conv.column("mid")
        j = solution.converter_output_currents()
        np.add.at(out, top, j / 2)
        np.add.at(out, bottom, j / 2)
        np.add.at(out, mid, -j)
        absorbed += float(np.sum(j * ((v[top] + v[bottom]) / 2 - v[mid])))
    return out, supplied, absorbed


def check_circuit_laws(circuit, solution, label: str) -> List[str]:
    """KCL at every node and the power balance of one solved point."""
    out, supplied, absorbed = node_injections(circuit, solution)
    out[circuit.ground] = 0.0  # the reference node closes the loop
    scale = float(np.sum(np.abs(solution.isource_values())))
    problems = []
    kcl = float(np.max(np.abs(out))) / scale
    if not kcl <= KCL_TOLERANCE:
        problems.append(f"{label}: KCL residual {kcl:.3e} of load current")
    balance = abs(supplied - absorbed) / abs(supplied)
    if not balance <= POWER_TOLERANCE:
        problems.append(f"{label}: power balance off by {balance:.3e}")
    return problems


def _layer_node_ids(circuit, net: str, layer: int, grid: int) -> np.ndarray:
    keys = [(net, layer, j, i) for j in range(grid) for i in range(grid)]
    if not all(circuit.has_node(k) for k in keys):
        raise KeyError(f"no {net} grid for layer {layer}")
    return circuit.nodes(keys)


def max_droop_fraction(pdn, solution) -> float:
    """Worst IR drop over every layer's cells, as a fraction of Vdd,
    recomputed from the node voltages of each layer's Vdd and GND grids."""
    circuit = pdn.circuit
    vdd = pdn.stack.processor.vdd
    grid = pdn.geometry.grid_nodes
    v = solution.node_voltage
    worst = -math.inf
    for layer in range(pdn.stack.n_layers):
        hi = _layer_node_ids(circuit, "vdd", layer, grid)
        lo = _layer_node_ids(circuit, "gnd", layer, grid)
        worst = max(worst, float(np.max(vdd - (v[hi] - v[lo]))))
    return worst / vdd


def efficiency(circuit, solution) -> float:
    """Load power over supplied power, from the element columns."""
    v = solution.node_voltage
    loads = circuit.store("isource")
    load = float(np.sum(
        solution.isource_values() * (v[loads.column("src")] - v[loads.column("dst")])
    ))
    supplies = circuit.store("vsource")
    supplied = float(np.sum(
        solution.vsource_currents()
        * (v[supplies.column("pos")] - v[supplies.column("neg")])
    ))
    return load / supplied


def interleaved_activities(n_layers: int, imbalance: float) -> Tuple[float, ...]:
    """The paper's X% imbalance: every second layer runs at 1 - X."""
    return tuple(1.0 if l % 2 == 0 else 1.0 - imbalance for l in range(n_layers))


# ----------------------------------------------------------------------
# report tables
# ----------------------------------------------------------------------

def report_block(report: str, heading: str) -> str:
    """The fenced body under ``## <heading>`` in the report text."""
    match = re.search(
        r"^## " + re.escape(heading) + r"[^\n]*\n\n```\n(.*?)\n```",
        report, re.S | re.M,
    )
    if match is None:
        raise ValueError(f"report has no section {heading!r}")
    return match.group(1)


def parse_table(block: str) -> Tuple[List[str], List[List[str]]]:
    """Header cells and body rows of the first ``a | b`` table in ``block``."""
    lines = block.splitlines()
    for i, line in enumerate(lines):
        if re.fullmatch(r"[-+]+", line.strip() or "x"):
            headers = [c.strip() for c in lines[i - 1].split("|")]
            rows = []
            for row in lines[i + 1:]:
                if "|" not in row:
                    break
                rows.append([c.strip() for c in row.split("|")])
            return headers, rows
    raise ValueError("no table in block")


def _number(cell: str) -> Optional[float]:
    return None if cell == "-" else float(cell)


def fig6_table(report: str):
    """``({(converters, imbalance %): % Vdd or None}, {topology: % Vdd})``."""
    block = report_block(report, "Fig. 6")
    headers, rows = parse_table(block)
    converters = [int(re.search(r"V-S (\d+) conv", h).group(1)) for h in headers[1:]]
    cells = {}
    for row in rows:
        imbalance = int(row[0].rstrip("%"))
        for k, cell in zip(converters, row[1:]):
            cells[(k, imbalance)] = _number(cell)
    lines = dict(
        (m.group(1), float(m.group(2)))
        for m in re.finditer(r"Reg\. PDN (\w+) TSV \(worst case[^:]*: ([\d.]+)% Vdd", block)
    )
    return cells, lines


def check_fig6(report: str) -> List[str]:
    cells, lines = fig6_table(report)
    problems = []
    converters = sorted({k for k, _ in cells})
    imbalances = sorted({i for _, i in cells})
    for k in converters:
        series = [(i, cells[(k, i)]) for i in imbalances if cells[(k, i)] is not None]
        for (i0, a), (i1, b) in zip(series, series[1:]):
            if b < a:
                problems.append(f"Fig. 6: {k} conv/core noise falls from {i0}% to {i1}%")
    for i in imbalances:
        if i == 0:
            continue  # converter loss dominates at 0%: a slight rise is physical
        column = [(k, cells[(k, i)]) for k in converters if cells[(k, i)] is not None]
        for (k0, a), (k1, b) in zip(column, column[1:]):
            if not b < a:
                problems.append(
                    f"Fig. 6: at {i}% noise does not fall from {k0} to {k1} conv/core"
                )
    if not lines.get("Dense", math.inf) < lines.get("Sparse", -math.inf) < lines.get(
        "Few", -math.inf
    ):
        problems.append(f"Fig. 6: regular lines not ordered Dense < Sparse < Few: {lines}")
    return problems


def check_fig8(report: str) -> List[str]:
    headers, rows = parse_table(report_block(report, "Fig. 8"))
    problems = []
    for col, name in enumerate(headers[1:], start=1):
        values = [_number(row[col]) for row in rows]
        present = [v for v in values if v is not None]
        if not present or not all(0.0 < v <= 100.0 for v in present):
            problems.append(f"Fig. 8: {name} efficiency outside (0, 100]%")
        for a, b in zip(present, present[1:]):
            if b > a:
                problems.append(f"Fig. 8: {name} efficiency rises with imbalance")
    return problems


def check_fig5(report: str) -> List[str]:
    problems = []
    for heading in ("Fig. 5a", "Fig. 5b"):
        headers, rows = parse_table(report_block(report, heading))
        for row in rows:
            if not row[0].startswith("Reg."):
                continue
            values = [float(c) for c in row[1:]]
            if any(b > a for a, b in zip(values, values[1:])):
                problems.append(f"{heading}: {row[0]} MTTF rises with layer count")
    return problems


def check_headline(report: str) -> List[str]:
    block = report_block(report, "Headline claims")

    def value(label: str) -> float:
        match = re.search(re.escape(label) + r"[^:]*: ([+-]?[\d.]+)", block)
        if match is None:
            raise ValueError(f"headline has no claim {label!r}")
        return float(match.group(1))

    problems = []
    if not value("C4 EM lifetime gain") > 1.0:
        problems.append("headline: V-S does not extend C4 lifetime")
    if not value("TSV EM lifetime gain") > 1.0:
        problems.append("headline: V-S does not extend TSV lifetime")
    if not value("V-S PDN TSV lifetime loss") < value("Regular-PDN TSV lifetime loss"):
        problems.append("headline: V-S loses as much TSV lifetime as the regular PDN")
    if not 0.0 < value("Suite-average max imbalance") < 100.0:
        problems.append("headline: suite-average imbalance outside (0, 100)%")
    if not value("V-S IR drop above Reg/Dense") > 0.0:
        problems.append("headline: V-S noise not above Reg/Dense at the suite imbalance")
    if not 0.0 < value("V-S/regular noise crossover") <= 100.0:
        problems.append("headline: noise crossover outside (0, 100]%")
    return problems


def check_report(report: str) -> List[str]:
    return check_fig5(report) + check_fig6(report) + check_fig8(report) + check_headline(
        report
    )


def check_printed_droop(
    computed_fraction: float, printed_percent: float, decimals: int, label: str
) -> List[str]:
    """The recomputed IR drop must round to the report's printed cell."""
    if abs(computed_fraction * 100 - printed_percent) <= 0.5 * 10 ** -decimals + 1e-9:
        return []
    return [
        f"{label}: recomputed IR drop {computed_fraction * 100:.6f}% Vdd, "
        f"report prints {printed_percent}"
    ]


# ----------------------------------------------------------------------
# contingency sweep
# ----------------------------------------------------------------------

def binomial_window(n: int, p: float) -> Tuple[float, float]:
    mean = n * p
    spread = BINOMIAL_SIGMAS * math.sqrt(n * p * (1 - p))
    return mean - spread, mean + spread


def check_contingency(
    rows: Sequence[dict],
    pristine: Dict[str, Tuple[float, float]],
    population: Dict[str, Tuple[int, int]],
    grid: int,
) -> Tuple[List[str], int]:
    """Check every row; returns ``(problems, known failures)``.

    ``pristine`` maps arrangement -> (droop, efficiency) of an undamaged
    solve; ``population`` maps arrangement -> (TSV conductors, converter
    cells) of the undamaged PDN.  The one known fault, a severed
    voltage-stacked row that prints a droop beyond the rail with status
    ok, is counted apart rather than reported as a problem.
    """
    problems: List[str] = []
    known = 0
    for row in rows:
        label = f"{row['arrangement']} / {row['label']}"
        if row["error"] is not None:
            problems.append(f"{label}: solve failed: {row['error']}")
            continue
        droop, eff = row["max_droop_fraction"], row["efficiency"]
        fraction = row["fraction"]
        if fraction == 0.0:
            ref_droop, ref_eff = pristine[row["arrangement"]]
            if abs(droop - ref_droop) > SAME_POINT_TOLERANCE or abs(
                eff - ref_eff
            ) > SAME_POINT_TOLERANCE:
                problems.append(
                    f"{label}: ({droop!r}, {eff!r}) differs from a pristine "
                    f"solve ({ref_droop!r}, {ref_eff!r})"
                )
        conductors, converters = population[row["arrangement"]]
        if fraction is not None:
            lo, hi = binomial_window(conductors, fraction)
            if not lo <= row["n_failed_conductors"] <= hi:
                problems.append(
                    f"{label}: {row['n_failed_conductors']} failed conductors, "
                    f"expected {fraction:.0%} of {conductors}"
                )
            lo, hi = binomial_window(converters, fraction)
            if not lo <= row["n_failed_converters"] <= hi:
                problems.append(
                    f"{label}: {row['n_failed_converters']} failed converters, "
                    f"expected {fraction:.0%} of {converters}"
                )
        else:
            # Severed top layer: its Vdd and GND grids must be reported
            # unpowered (dropped with their island, their loads shed).
            if not (
                row["n_islands"] >= 1
                and row["n_dropped_nodes"] == 2 * grid * grid
                and row["shed_loads"] == grid * grid
            ):
                problems.append(
                    f"{label}: severed layer not reported unpowered "
                    f"(islands {row['n_islands']}, dropped {row['n_dropped_nodes']}, "
                    f"shed {row['shed_loads']})"
                )
        in_bounds = -1e-12 <= droop <= 1.0 + 1e-9 and 0.0 < eff <= 1.0
        if not in_bounds:
            if fraction is None and row["arrangement"] == "voltage-stacked":
                known += 1
            else:
                problems.append(
                    f"{label}: droop {droop:.4f} of the rail / efficiency {eff:.4f} "
                    "outside [0, 1] / (0, 1]"
                )
    return problems, known


# ----------------------------------------------------------------------
# service answers
# ----------------------------------------------------------------------

RESULT_FIELDS = (
    "max_ir_drop_v", "max_ir_drop_fraction", "efficiency",
    "load_power_w", "source_power_w",
)


def check_answer(answer: dict, direct: dict, label: str) -> List[str]:
    """A service answer against a direct solve of the same point."""
    problems = []
    for name in RESULT_FIELDS:
        a, b = answer.get(name), direct[name]
        if a is None or abs(a - b) > SAME_POINT_TOLERANCE * max(1.0, abs(b)):
            problems.append(f"{label}: {name} {a!r} != direct solve {b!r}")
    if answer.get("degraded_solve"):
        problems.append(f"{label}: answer flagged degraded")
    return problems


def parse_query_cli(text: str) -> dict:
    """Fingerprint, flags and numbers from one ``repro query`` line."""
    match = re.search(
        r"query (\w+) \[([^\]]*)\]: max IR drop ([\d.eE+-]+) V \(([\d.eE+-]+)% of "
        r"rail\), efficiency ([\d.eE+-]+)%",
        text,
    )
    if match is None:
        raise ValueError(f"unparsable repro query output: {text!r}")
    return {
        "fingerprint": match.group(1),
        "flags": match.group(2).split(),
        "max_ir_drop_v": float(match.group(3)),
        "max_ir_drop_fraction": float(match.group(4)) / 100,
        "efficiency": float(match.group(5)) / 100,
    }


def check_cli_answer(text: str, response: dict, label: str) -> List[str]:
    """The CLI must print the answer the API returns (to its printed digits)."""
    printed = parse_query_cli(text)
    problems = []
    if printed["fingerprint"] != response["fingerprint"]:
        problems.append(f"{label}: CLI fingerprint {printed['fingerprint']}")
    if "cached" not in printed["flags"]:
        problems.append(f"{label}: CLI answer not served from the cache")
    for name, digits in (
        ("max_ir_drop_v", 6), ("max_ir_drop_fraction", 3), ("efficiency", 4),
    ):
        want = response["result"][name]
        if abs(printed[name] - want) > abs(want) * 10 ** (1 - digits):
            problems.append(f"{label}: CLI {name} {printed[name]!r} != API {want!r}")
    return problems
