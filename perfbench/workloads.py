"""The benchmark's three closed-loop workloads.

Each workload turns the benchmark seed into an endless, deterministic
sequence of units of work and drives the program through its public API
only.  A unit is generated (untimed), executed (timed) and checked
(untimed); ``execute`` is the only part a latency sample covers.

* ``fig14-cold``: cold Figure 14 cells on seeded topologies, serial, no
  cache; the simulation layers do almost all the work.
* ``controller-decide``: controller decisions replayed on seeded inputs
  without simulating; core and scipy do almost all the work.
* ``sweep-broker``: seed sweeps of tiny cells through ``BatchRunner`` and
  ``BrokerBackend`` with half of each sweep already cached; dispatch,
  cache and planner do most of the submitter's work.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np
from scipy.optimize import minimize

from repro import (
    BatchRunner,
    BrokerBackend,
    ControllerSpec,
    Experiment,
    ExperimentSpec,
    FlowSpec,
    ProbingSpec,
    ResultCache,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    seed_sweep,
)
from repro.core import (
    AlphaFairUtility,
    CapacityModel,
    ConflictGraph,
    LinkEstimate,
    OnlineOptimizer,
    PairwiseInterferenceMap,
    combine_data_ack_losses,
    connectivity_from_loss_rates,
)
from repro.experiment import ChurnSpec, MobilitySpec, registry
from repro.experiment.backends import run_spec_payload
from repro.mac import ACK_FRAME_BYTES
from repro.net import DEFAULT_DATA_PROBE_BYTES
from repro.sim import TcpFlowHandle


@dataclass
class Unit:
    """One generated unit of work, ready to execute."""

    id: str
    input: Any
    state: dict[str, Any] = field(default_factory=dict)
    #: A run only stops after a unit that closes a round, so every run
    #: executes the same mix of cell or decision kinds.
    closes_round: bool = True


@dataclass
class Outcome:
    """What checking one executed unit found.

    ``completed`` counts the cells or decisions the unit returned and
    ``failed`` those that were wrong.  ``latencies`` holds one sample per
    cell or decision, or one per sweep: every cell of a sweep is returned
    by the same ``BatchRunner.run`` call, so the sweep's wall is each
    cell's submit-to-collect time and the sweeps are the independent
    samples.  ``counters`` are simulated or deterministic quantities only,
    so the same seed always gives the same values.
    """

    completed: int
    latencies: list[float]
    failed: int
    sim: Any
    counters: dict[str, float] = field(default_factory=dict)
    host: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _strip_runtime(payload: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in payload.items() if key != "runtime"}


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(_strip_runtime(payload), sort_keys=True, separators=(",", ":"))


# ============================================================ fig14-cold
#: The Figure 14 variants: no rate control, TCP-Max, TCP-Prop.
FIG14_VARIANTS = {
    "noRC": ControllerSpec(enabled=False),
    "Max": ControllerSpec(alpha=0.0, probing_window=80, payload_bytes=1460),
    "Prop": ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
}
#: The Figure 14 grid's topologies: (scenario seed, rate mode).
FIG14_TOPOLOGIES = ((7, "11"), (3, "mixed"))
FIG14_WARMUP_S = 45.0
FIG14_MEASURE_S = 12.0


class Fig14Cold:
    """Cold Figure 14 grid cells, plus one mobile cell per run.

    The first unit is a generated 3x3 grid under waypoint mobility and
    one churn event, with ``pdr``/``throughput`` monitors.  Then every
    round runs the Figure 14 grid's two ``random_multiflow`` topologies
    (TCP, 3 flows; scenario seed 7 at 11 Mb/s and seed 3 at mixed rates),
    each with a fresh run seed under each variant.  Fixed topologies keep
    the cost of a round steady across benchmark seeds; the seed draws the
    traffic.
    """

    name = "fig14-cold"
    #: Units whose counters make the deterministic count window: the
    #: mobile cell and the first round of TCP cells.
    window = 1 + len(FIG14_TOPOLOGIES) * len(FIG14_VARIANTS)
    #: Cells (or decisions) one unit completes.
    cells = 1
    #: Worker processes beside the submitter.
    workers = 0
    #: How the workload's timings scale with the host's speed
    #: (:class:`harness.HostSpeed`).
    speed_elasticity = 0.7

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed

    def specs(self) -> Iterator[tuple[str, ExperimentSpec, bool]]:
        rng = random.Random(f"fig14-cold:{self.seed}")
        yield "mobile", ExperimentSpec(
            scenario=ScenarioSpec(
                scenario="generated",
                seed=rng.randrange(1000),
                run_seed=1000 + rng.randrange(1000),
                rate_mode="11",
                topology=TopologySpec(kind="grid", rows=3, cols=3, spacing_m=60.0),
                workload=WorkloadSpec(generator="saturated_udp", num_flows=3, max_hops=3),
                mobility=MobilitySpec(model="waypoint", epoch_s=1.0, speed_mps=2.0),
                churn=ChurnSpec(num_events=1, start_s=50.0, end_s=55.0, down_s=5.0),
            ),
            probing=ProbingSpec(warmup_s=FIG14_WARMUP_S),
            controller=FIG14_VARIANTS["Prop"],
            cycles=1,
            cycle_measure_s=FIG14_MEASURE_S,
            settle_s=2.0,
            monitors=("pdr", "throughput"),
        ), True
        for round_index in range(10**9):
            for seed, rate_mode in FIG14_TOPOLOGIES:
                scenario = ScenarioSpec(
                    scenario="random_multiflow",
                    transport="tcp",
                    seed=seed,
                    run_seed=1000 + rng.randrange(10**6),
                    num_flows=3,
                    rate_mode=rate_mode,
                )
                for variant, controller in FIG14_VARIANTS.items():
                    unit_id = f"r{round_index}-t{seed}-{variant}"
                    closes = variant == "Prop" and (seed, rate_mode) == FIG14_TOPOLOGIES[-1]
                    yield unit_id, ExperimentSpec(
                        scenario=scenario,
                        probing=ProbingSpec(warmup_s=FIG14_WARMUP_S),
                        controller=controller,
                        cycles=1,
                        cycle_measure_s=FIG14_MEASURE_S,
                        settle_s=2.0,
                    ), closes

    def units(self) -> Iterator[Unit]:
        for unit_id, spec, closes in self.specs():
            yield Unit(unit_id, spec, closes_round=closes)

    def ready(self) -> None:
        """Set-up endpoint: the first cell's scenario is built."""
        registry.build_scenario(next(self.specs())[1].scenario)

    def execute(self, unit: Unit) -> Any:
        experiment = Experiment(unit.input, keep_decisions=False)
        scenario = experiment.build()
        return scenario, experiment.run(scenario=scenario)

    def check(self, unit: Unit, output: Any, wall: float) -> Outcome:
        scenario, result = output
        spec: ExperimentSpec = unit.input
        errors = []
        throughputs = list(result.flow_throughputs_bps.values())
        if not throughputs or not all(math.isfinite(x) and x >= 0 for x in throughputs):
            errors.append(f"{unit.id}: throughput not finite and non-negative: {throughputs}")
        elif not 0.0 < result.jain_index <= 1.0:
            errors.append(f"{unit.id}: Jain index {result.jain_index} outside (0, 1]")
        horizon = (spec.probing.warmup_s if spec.controller.enabled else 0.0) + (
            spec.cycles * spec.cycle_measure_s
        )
        if abs(result.sim_time_s - horizon) > 1e-9:
            errors.append(f"{unit.id}: sim_time_s {result.sim_time_s} != horizon {horizon}")
        if set(result.monitors) != set(spec.monitors):
            errors.append(f"{unit.id}: monitors {sorted(result.monitors)} != {spec.monitors}")
        network = scenario.network
        macs = [network.nodes[node].mac.stats for node in network.node_ids]
        tcp = [flow.flow.source.stats for flow in scenario.flows if isinstance(flow, TcpFlowHandle)]
        probes = 0
        if network.probing is not None:
            probes = sum(
                network.probing.probes_sent(node, kind)
                for node in network.node_ids
                for kind in ("data", "ack")
            )
        return Outcome(
            completed=1,
            latencies=[wall],
            failed=1 if errors else 0,
            sim=[unit.id, result.to_dict(include_runtime=False)],
            counters={
                "engine.events": result.events_processed,
                "mac.attempts": sum(s.attempts for s in macs),
                "mac.retransmissions": sum(s.retransmissions for s in macs),
                "net.probes_sent": probes,
                "transport.tcp_segments": sum(s.segments_sent for s in tcp),
                "transport.tcp_retransmissions": sum(s.retransmissions for s in tcp),
            },
            errors=errors,
        )


# ===================================================== controller-decide
#: Networks the decisions are made for: (name, topology, gravity flows).
#: Built once from scenario seed 0, they use 11, 21 and 27 links.
DECIDE_SHAPES = (
    ("testbed", TopologySpec(kind="testbed"), 8),
    ("grid4", TopologySpec(kind="grid", rows=4, cols=4, spacing_m=60.0), 11),
    ("grid5", TopologySpec(kind="grid", rows=5, cols=5, spacing_m=60.0), 14),
)
DECIDE_ALPHAS = (0.0, 1.0)
#: Probes per direction the controller's estimates look back over.
DECIDE_WINDOW = 80
#: Rates may fall below zero, and link loads exceed the region, by this
#: share of the region's largest capacity: the order of the solvers'
#: own feasibility tolerances, far below any physical rate.
REGION_RTOL = 1e-6
#: SLSQP in ``RateOptimizer`` asks for ``ftol=1e-10`` and on about one in
#: five 27-link alpha=1 decisions stops with "Positive directional
#: derivative for linesearch" (``success=False``) at a point it cannot
#: improve at that precision.  Such a decision counts as correct only if
#: an independent SLSQP run, started from the returned point with this
#: looser tolerance, converges and raises the log-utility by no more
#: than ``CERTIFY_UTILITY_TOL``.  The solver's own flag is still counted
#: (``core.solver_success_ratio``, ``solver_unconverged``).
CERTIFY_FTOL = 1e-8
CERTIFY_UTILITY_TOL = 1e-6


class ControllerDecide:
    """Controller decisions on seeded estimates, with no simulation.

    One network of each shape carries a gravity workload.  A unit is one
    round: for each network it draws the probe losses the controller
    would have measured and asks ``OnlineOptimizer.optimize`` for a
    decision under each alpha.  Only the ``optimize`` calls are timed.
    Half of the decisions are linear programs and half SLSQP solves,
    several times slower, so the median decision sits between the two
    groups and jumps between them from run to run; the round, whose time
    both groups share, is the latency sample, and per-decision times are
    reported beside it.  The networks are fixed so that the cost of a
    round stays steady across benchmark seeds; the seed draws the
    measurements the controller decides on.
    """

    name = "controller-decide"
    window = 1
    cells = len(DECIDE_SHAPES) * len(DECIDE_ALPHAS)
    workers = 0
    speed_elasticity = 0.85

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed

    def units(self) -> Iterator[Unit]:
        rng = np.random.default_rng(random.Random(f"controller-decide:{self.seed}").randrange(2**32))
        networks = [
            registry.build_scenario(
                ScenarioSpec(
                    scenario="generated",
                    seed=0,
                    rate_mode="11",
                    topology=topology,
                    workload=WorkloadSpec(generator="gravity", num_flows=flows, max_hops=4),
                )
            )
            for _, topology, flows in DECIDE_SHAPES
        ]
        for round_index in range(10**9):
            decisions = []
            for (shape, _, _), scenario in zip(DECIDE_SHAPES, networks):
                estimates, conflicts = self._inputs(scenario, rng)
                for alpha in DECIDE_ALPHAS:
                    optimizer = OnlineOptimizer(
                        scenario.network,
                        scenario.flows,
                        utility=AlphaFairUtility(alpha=alpha),
                        probing_window=DECIDE_WINDOW,
                        payload_bytes=1460,
                        auto_probing=False,
                    )
                    decisions.append((f"{shape}-a{alpha:g}", optimizer, estimates, conflicts))
            yield Unit(f"r{round_index}", decisions)

    @staticmethod
    def _inputs(scenario: Any, draws: np.random.Generator) -> tuple[dict, ConflictGraph]:
        """What the controller measures on ``scenario`` over one probing
        window, drawn from the program's own radio model.

        Each probe gets through with the interference-free delivery
        probability of its link (received power against the rate's
        sensitivity, then the medium's error model at that SNR); the
        seed draws how many of the window's probes were lost.  DATA
        probes at the link's rate and ACK probes at the basic rate give
        the link estimates, and ACK probes between every node pair give
        the connectivity map, as in ``OnlineOptimizer``'s own cycle.
        """
        network = scenario.network
        medium = network.medium
        basic = medium.radio.basic_rate

        def observed_loss(tx: int, rx: int, rate: Any, size: int) -> float:
            delivery = 0.0
            if medium.in_range(tx, rx, rate.rx_sensitivity_dbm):
                snr = medium.rx_power_dbm(tx, rx) - medium.capture.noise_floor_dbm
                delivery = 1.0 - medium.error_model.packet_error_probability(snr, rate, size)
            return float(draws.binomial(DECIDE_WINDOW, 1.0 - delivery)) / DECIDE_WINDOW

        estimates = {}
        for link in scenario.links:
            tx, rx = link
            rate = network.link_rate(link)
            data_loss = observed_loss(tx, rx, rate, DEFAULT_DATA_PROBE_BYTES)
            ack_loss = observed_loss(rx, tx, basic, ACK_FRAME_BYTES)
            channel_loss = combine_data_ack_losses(data_loss, ack_loss)
            model = CapacityModel(payload_bytes=1460, rate=rate, mac=network.mac_config)
            estimates[link] = LinkEstimate(
                link=link,
                data_loss=data_loss,
                ack_loss=ack_loss,
                channel_loss=channel_loss,
                capacity_bps=model.max_udp_throughput_bps(min(channel_loss, 0.999999)),
                estimator_case=1,
            )
        probe_loss = {
            (tx, rx): observed_loss(tx, rx, basic, ACK_FRAME_BYTES)
            for tx in network.node_ids
            for rx in network.node_ids
            if tx != rx
        }
        neighbours = connectivity_from_loss_rates(probe_loss, 0.5)
        interference = PairwiseInterferenceMap.from_two_hop(scenario.links, neighbours)
        return estimates, ConflictGraph.from_interference_map(interference)

    def ready(self) -> None:
        """Set-up endpoint: the first round's decision inputs are built."""
        next(self.units())

    def execute(self, unit: Unit) -> Any:
        """The round's decisions, each with its own wall time."""
        out = []
        for _, optimizer, estimates, conflicts in unit.input:
            began = time.perf_counter()
            decision = optimizer.optimize(estimates, conflicts)
            out.append((decision, time.perf_counter() - began))
        return out

    def check(self, unit: Unit, output: Any, wall: float) -> Outcome:
        errors, rates, unconverged = [], [], 0
        for (kind, optimizer, _, _), (decision, _) in zip(unit.input, output):
            decision_id = f"{unit.id}-{kind}"
            result = decision.optimization
            region = decision.region
            tolerance = REGION_RTOL * float(region.extreme_points.max())
            rates.append([float(x) for x in result.flow_rates])
            if not np.all(np.isfinite(result.flow_rates)) or np.any(result.flow_rates < -tolerance):
                errors.append(f"{decision_id}: flow rates not finite and non-negative")
            elif not region.contains(result.link_rates, tolerance=tolerance):
                errors.append(f"{decision_id}: link loads outside the feasibility region")
            elif not result.success:
                unconverged += 1
                problem = certify_optimum(optimizer.flows, optimizer.utility.alpha, region, result)
                if problem is not None:
                    errors.append(f"{decision_id}: solver failed ({result.message}) and {problem}")
        return Outcome(
            completed=len(output),
            latencies=[wall],
            failed=len(errors),
            sim=[unit.id, rates],
            counters={"core.solver_unconverged": unconverged},
            host={"decision_latencies": [seconds for _, seconds in output]},
            errors=errors,
        )

def certify_optimum(flows: list, alpha: float, region: Any, result: Any) -> str | None:
    """Re-solve an unconverged proportional-fair decision from its own
    point with plain scipy; ``None`` if the point holds up, else why not."""
    if alpha != 1.0:
        return "only alpha=1 decisions can be certified"
    points = region.extreme_points
    scale = float(points.max())
    routing = np.array(
        [[1.0 if link in flow.links else 0.0 for flow in flows] for link in region.links]
    )
    num_flows, num_points = routing.shape[1], points.shape[0]
    slack = np.hstack([-routing, points.T / scale])
    weights = np.concatenate([np.zeros(num_flows), np.ones(num_points)])
    start = np.concatenate([np.maximum(result.flow_rates / scale, 1.0 / scale), result.alpha])

    def gradient(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[:num_flows] = -1.0 / x[:num_flows]
        return out

    check = minimize(
        lambda x: -float(np.sum(np.log(x[:num_flows]))),
        start,
        jac=gradient,
        method="SLSQP",
        bounds=[(1.0 / scale, None)] * num_flows + [(0.0, 1.0)] * num_points,
        constraints=[
            {"type": "ineq", "fun": lambda x: slack @ x, "jac": lambda x: slack},
            {"type": "eq", "fun": lambda x: weights @ x - 1.0, "jac": lambda x: weights},
        ],
        options={"maxiter": 500, "ftol": CERTIFY_FTOL},
    )
    if not check.success:
        return f"the re-solve did not converge either ({check.message})"
    better = -check.fun + num_flows * math.log(scale) - result.objective
    if better > CERTIFY_UTILITY_TOL:
        return f"the re-solve found {better:.3g} more log-utility"
    return None


# ========================================================== sweep-broker
SWEEP_CELLS = 12
SWEEP_CACHED = SWEEP_CELLS // 2
SWEEP_WORKERS = 2
#: Run seeds a run's sweeps draw their cells from.  A spec's in-process
#: reference is computed once per run, so after the first sweeps the
#: loop's time goes to timed sweeps, not to the benchmark's own checks.
SWEEP_POOL = 3 * SWEEP_CELLS
#: A tiny chain/UDP cell: short probing warm-up, one short cycle.
SWEEP_BASE = ExperimentSpec(
    scenario=ScenarioSpec(
        scenario="chain",
        flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("udp", (1, 2))),
    ),
    probing=ProbingSpec(warmup_s=3.0),
    cycles=1,
    cycle_measure_s=1.5,
    settle_s=0.5,
)


class SweepBroker:
    """Seed sweeps through ``BatchRunner`` + ``BrokerBackend``.

    Every sweep gets its own ``ResultCache`` that already holds half of
    its cells, computed in-process during the untimed generation step,
    so the timed ``run()`` plans, reads hits, dispatches the misses to
    two freshly spawned workers over HTTP and writes their results back.
    A sweep's cells are drawn from a pool of :data:`SWEEP_POOL` run
    seeds; the in-process result of each is computed once per run.
    """

    name = "sweep-broker"
    window = 1
    cells = SWEEP_CELLS
    workers = SWEEP_WORKERS
    speed_elasticity = 0.5

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        #: In-process payload of each spec run so far, by canonical spec.
        self.references: dict[str, dict[str, Any]] = {}

    def reference(self, spec: ExperimentSpec) -> dict[str, Any]:
        """``run_spec_payload`` of ``spec``, run in this process once."""
        key = json.dumps(spec.to_dict(), sort_keys=True)
        if key not in self.references:
            self.references[key] = run_spec_payload(spec.to_dict())
        return self.references[key]

    def units(self) -> Iterator[Unit]:
        rng = random.Random(f"sweep-broker:{self.seed}")
        pool = rng.sample(range(10**6), SWEEP_POOL)
        for sweep in range(10**9):
            specs = seed_sweep(SWEEP_BASE, rng.sample(pool, SWEEP_CELLS))
            cached = sorted(rng.sample(range(SWEEP_CELLS), SWEEP_CACHED))
            cache_dir = self.tmp / f"cache-{sweep}"
            shutil.rmtree(cache_dir, ignore_errors=True)
            cache = ResultCache(cache_dir)
            cache.put_payloads(
                (specs[i].to_dict(), self.reference(specs[i]), specs[i].label) for i in cached
            )
            yield Unit(f"s{sweep}", specs, {"cache": cache, "dir": cache_dir, "cached": cached})

    def ready(self) -> None:
        """Set-up endpoint: the cache is open and a broker is listening."""
        from repro.experiment.broker import start_broker

        ResultCache(self.tmp / "cache-ready")
        server = start_broker()
        server.shutdown()
        server.server_close()

    def execute(self, unit: Unit) -> Any:
        backend = BrokerBackend(workers=SWEEP_WORKERS)
        return BatchRunner(unit.input, cache=unit.state["cache"], backend=backend).run()

    def check(self, unit: Unit, batch: Any, wall: float) -> Outcome:
        specs = unit.input
        errors = []
        sim_wall = events = 0.0
        payloads = batch.to_dicts()
        for index, (spec, payload) in enumerate(zip(specs, payloads)):
            if index not in unit.state["cached"]:
                sim_wall += payload["runtime"]["wall_time_s"]
                events += payload["runtime"]["events_processed"]
            if _canonical(payload) != _canonical(self.reference(spec)):
                errors.append(f"{unit.id}/{index}: payload differs from the in-process run")
        if len(payloads) != len(specs):
            errors.append(f"{unit.id}: {len(payloads)} results for {len(specs)} cells")
        shutil.rmtree(unit.state["dir"], ignore_errors=True)
        executed = batch.planner.executed
        queue = batch.queue
        return Outcome(
            completed=len(payloads),
            latencies=[wall],
            failed=len(errors),
            sim=[unit.id, [_strip_runtime(self.reference(spec)) for spec in specs]],
            counters={
                "engine.events": events,
                "cache.hits": batch.cache_hits,
                "cache.misses": batch.cache_misses,
                "planner.total": batch.planner.total,
                "planner.unique": batch.planner.unique,
            },
            host={
                "executed": executed,
                "sim_wall_s": sim_wall,
                "queue.spawned": queue.spawned if queue else 0,
                "queue.requeued": queue.requeued if queue else 0,
            },
            errors=errors,
        )


WORKLOADS = {cls.name: cls for cls in (Fig14Cold, ControllerDecide, SweepBroker)}
