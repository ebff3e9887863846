"""The ``service`` workload: one client process against ``repro serve``.

Phases, all seeded from the job:

1. set-up: ``launches`` fresh servers, each timed from launch to its
   first ``health`` answer; the last one serves the load;
2. cold misses: every spec of the working set is queried for the first
   time, the same query on both connections at once (one solve, one
   single-flight follower);
3. warm misses: known specs with new layer activities (the engine's
   structure cache hits, only the solve runs);
4. hits: a Zipf-skewed closed-loop stream over every answered point,
   until ``seconds`` have passed since phase 2 began; hit latency counts
   after the first ``warmup_s`` of the stream;
5. ``repro query`` CLI calls on cached points.

``wall_s`` is the wall time of phases 2 and 3, the fixed work.

Then the server's counters and histograms are read, the server is
stopped, and every answer is checked against a direct in-process
``SweepEngine`` solve.
"""

from __future__ import annotations

import json
import pathlib
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import checks
from worker import N_LAYERS, peak_rss_mb

HERE = pathlib.Path(__file__).resolve().parent
ZIPF_EXPONENT = 1.1


def working_set(grid: int) -> List[dict]:
    """8-layer design points of both arrangements (service "spec" objects)."""
    regular = [
        {"arrangement": "regular", "n_layers": N_LAYERS, "topology": topology,
         "power_pad_fraction": pads, "grid_nodes": grid}
        for topology in ("Dense", "Sparse", "Few")
        for pads in (0.25, 0.5)
    ]
    stacked = [
        {"arrangement": "voltage-stacked", "n_layers": N_LAYERS, "topology": "Few",
         "power_pad_fraction": pads, "grid_nodes": grid, "converters_per_core": k}
        for k in (2, 4, 6, 8)
        for pads in (0.25, 0.5)
    ]
    return regular + stacked


def random_activities(rng: random.Random) -> Tuple[float, ...]:
    # Three decimals, so the CLI's comma-separated form is the same float.
    return tuple(round(rng.uniform(0.3, 1.0), 3) for _ in range(N_LAYERS))


class Server:
    """One ``repro serve`` subprocess with its own cache directory."""

    def __init__(self, job: dict, cache_dir: pathlib.Path, traced: bool):
        self.job = job
        self.cache_dir = cache_dir
        self.traced = traced
        self.process = None
        self.address = None

    def start(self) -> float:
        """Launch; returns seconds from launch to the first health answer."""
        from repro.service.client import ServiceClient

        run_dir = pathlib.Path(self.job["run_dir"])
        serve = ["serve", "--bind", "127.0.0.1:0", "--cache-dir", str(self.cache_dir)]
        if self.traced:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(run_dir)]
        else:
            command = [sys.executable, "-m", "repro"]
        log = open(run_dir / f"{self.cache_dir.name}.log", "w")
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            command + serve, cwd=run_dir, stdout=log, stderr=subprocess.STDOUT
        )
        log.close()
        discovery = self.cache_dir / "service.json"
        while time.perf_counter() - t0 < 60:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            try:
                self.address = json.loads(discovery.read_text())["address"]
                with ServiceClient(self.address, timeout_s=10) as client:
                    if client.health().get("status") == "ok":
                        return time.perf_counter() - t0
            except (OSError, ValueError, KeyError):
                pass  # not published yet, or published but not listening
            time.sleep(0.002)
        raise RuntimeError("repro serve did not answer health within 60 s")

    def stop(self) -> None:
        """Drain-stop the server; kill it if it does not go."""
        if self.process is None or self.process.poll() is not None:
            return
        from repro.service.client import ServiceClient

        try:
            with ServiceClient(self.address, timeout_s=10) as client:
                client.shutdown(drain=True)
            self.process.wait(timeout=30)
        except Exception:  # whatever went wrong, the server is reaped
            self.process.kill()
            self.process.wait(timeout=30)


class Tally:
    """Client-side counts of what the server answered."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.hits = self.misses = self.coalesced = 0

    def add(self, response: dict) -> bool:
        ok = response.get("status") == "ok"
        self.attempted += 1
        self.failed += not ok
        self.hits += bool(response.get("cached"))
        self.misses += ok and not response.get("cached")
        self.coalesced += bool(response.get("coalesced"))
        return ok


def run(job: dict) -> dict:
    run_dir = pathlib.Path(job["run_dir"])
    setup = []
    last = job["launches"] - 1
    server = None
    try:
        for i in range(job["launches"]):
            server = Server(job, run_dir / f"cache-{i}", traced=job["trace"] and i == last)
            setup.append(server.start())
            if i < last:
                server.stop()
        out = drive(job, server, setup)
    finally:
        if server is not None:
            server.stop()  # a no-op once the server has exited
    out["problems"] += check_answers(job, out.pop("answers"))
    if job["trace"]:
        out["layers"] = json.loads((run_dir / "server-layers.json").read_text())
    return out


def drive(job: dict, server: Server, setup: List[float]) -> dict:
    from repro.obs.metrics import MetricsRegistry
    from repro.service.client import ServiceClient

    rng = random.Random(job["service_seed"])
    specs = working_set(job["grid"])
    tally = Tally()
    problems: List[str] = []
    answers: Dict[Tuple[int, tuple], dict] = {}
    responses: Dict[Tuple[int, tuple], dict] = {}

    def record(key, response) -> None:
        if not tally.add(response):
            problems.append(f"query {key} answered {response.get('status')}")
        elif key in answers:
            if response["result"] != answers[key]:
                problems.append(f"query {key}: repeat answer differs from the first")
        else:
            answers[key] = response["result"]
            responses[key] = response

    clients = [ServiceClient(server.address, timeout_s=120) for _ in range(2)]
    try:
        # Cold misses: the same new query on both connections at once.
        cold, warm, hit = [], [], []
        t_start = time.perf_counter()
        order = list(range(len(specs)))
        rng.shuffle(order)
        for index in order:
            key = (index, random_activities(rng))
            pair: list = [None, None]

            def ask(slot: int) -> None:
                t0 = time.perf_counter()
                response = clients[slot].query(specs[index], activities=list(key[1]))
                pair[slot] = (time.perf_counter() - t0, response)

            threads = [threading.Thread(target=ask, args=(s,)) for s in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            for latency, response in pair:
                record(key, response)
                if not response.get("cached") and not response.get("coalesced"):
                    cold.append(latency)

        # Warm misses: known specs, new activities.
        warm_keys = [
            (index, random_activities(rng))
            for index in range(len(specs))
            for _ in range(job["warm_per_spec"])
        ]
        rng.shuffle(warm_keys)
        for key in warm_keys:
            t0 = time.perf_counter()
            response = clients[0].query(specs[key[0]], activities=list(key[1]))
            warm.append(time.perf_counter() - t0)
            record(key, response)
            if response.get("cached"):
                problems.append(f"warm miss {key} was served from the cache")

        wall_s = time.perf_counter() - t_start

        # Hits: Zipf-skewed repeats over every answered point.
        keys = sorted(answers)
        rng.shuffle(keys)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(keys))]
        measure_from = time.perf_counter() + job["warmup_s"]
        stop_at = max(t_start + job["seconds"], measure_from + job["warmup_s"])
        while time.perf_counter() < stop_at:
            for key in rng.choices(keys, weights=weights, k=100):
                q0 = time.perf_counter()
                response = clients[0].query(specs[key[0]], activities=list(key[1]))
                now = time.perf_counter()
                record(key, response)
                if not response.get("cached"):
                    problems.append(f"hit {key} was not served from the cache")
                if q0 >= measure_from:
                    hit.append(now - q0)
    finally:
        for client in clients:
            client.close()

    # repro query CLI calls on cached points.
    cli = []
    for key in rng.sample(sorted(answers), job["cli_calls"]):
        spec = specs[key[0]]
        command = [
            sys.executable, "-m", "repro", "query", "--cache-dir", str(server.cache_dir),
            "--arrangement", spec["arrangement"], "--layers", str(N_LAYERS),
            "--grid", str(spec["grid_nodes"]), "--topology", spec["topology"],
            "--pad-fraction", repr(spec["power_pad_fraction"]),
            "--activities", ",".join(repr(a) for a in key[1]),
        ]
        if "converters_per_core" in spec:
            command += ["--converters", str(spec["converters_per_core"])]
        t0 = time.perf_counter()
        shown = subprocess.run(
            command, cwd=job["run_dir"], capture_output=True, text=True, timeout=60
        )
        cli.append(time.perf_counter() - t0)
        label = f"repro query {key}"
        if shown.returncode != 0:
            tally.add({"status": "cli-error"})
            problems.append(f"{label} exited {shown.returncode}: {shown.stderr.strip()}")
            continue
        tally.add({"status": "ok", "cached": "[cached" in shown.stdout})
        problems += checks.check_cli_answer(shown.stdout, responses[key], label)

    with ServiceClient(server.address, timeout_s=30) as client:
        metrics = client.metrics()
    rss_mb = peak_rss_mb(server.process.pid)
    counters = metrics["counters"]
    for name, client_count, server_count in (
        ("hits", tally.hits, counters["cache"]["hits"]),
        ("misses", tally.misses, counters["cache"]["misses"]),
        ("coalesced", tally.coalesced, counters["coalesced"]),
    ):
        if client_count != server_count:
            problems.append(
                f"client counted {client_count} {name}, server {server_count}"
            )

    registry = MetricsRegistry.from_wire(metrics["series"])
    stages = registry.get("service_stage_latency")
    by_outcome = registry.get("service_query_latency")
    hit_ms = sorted(1e3 * h for h in hit)
    p99 = statistics.quantiles(hit_ms, n=100)[98] if len(hit_ms) >= 1000 else None

    def ms(value):
        return None if value is None else 1e3 * value

    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": problems,
        "answers": [[specs[i], list(a), answers[(i, a)]] for i, a in sorted(answers)],
        "setup": setup,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "service": {
            "service.hit_p50_ms": statistics.median(hit_ms),
            "service.hit_p99_ms": p99,
            "service.hit_samples": len(hit_ms),
            "service.server_hit_p50_ms": ms(by_outcome.quantile(0.5, outcome="hit")),
            "service.warm_miss_p50_ms": 1e3 * statistics.median(warm),
            "service.cold_miss_p50_s": statistics.median(cold),
            "service.query_cli_s": statistics.median(cli),
            "service.hits": counters["cache"]["hits"],
            "service.misses": counters["cache"]["misses"],
            "service.solves": sum(counters["solves"].values()),
            "service.coalesced": counters["coalesced"],
            "service.cache_stage_p50_ms": ms(stages.quantile(0.5, stage="cache")),
            "service.queue_stage_p50_ms": ms(stages.quantile(0.5, stage="queue")),
            "service.solve_stage_p50_ms": ms(stages.quantile(0.5, stage="solve")),
        },
    }


def check_answers(job: dict, answered: list) -> List[str]:
    """Every distinct answer against a direct in-process engine solve.

    Each point is solved on its own, as the service solves it; one
    engine per spec keeps one factorisation alive at a time.
    """
    from repro.runtime import PDNSpec, SweepEngine, SweepPoint

    problems = []
    engine, engine_spec = None, None
    for spec_dict, activities, answer in sorted(answered, key=lambda e: str(e[0])):
        spec = PDNSpec(**spec_dict)
        if spec != engine_spec:
            engine, engine_spec = SweepEngine(), spec
        point = SweepPoint(spec=spec, layer_activities=tuple(activities))
        result = engine.run([point]).values[0].unwrap()
        direct = {
            "max_ir_drop_v": result.max_ir_drop(),
            "max_ir_drop_fraction": result.max_ir_drop_fraction(),
            "efficiency": result.efficiency(),
            "load_power_w": result.load_power(),
            "source_power_w": result.source_power(),
        }
        problems += checks.check_answer(answer, direct, f"{spec.label()} {activities}")
    return problems
