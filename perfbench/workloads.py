"""The benchmark's three workloads, driven through the simulator's public API.

Every workload is closed-loop: one process, serial execution, no sweep
workers and no sweep cache.  A workload is built from its seed, and the
same seed gives the same inputs and — because the simulator is
deterministic — the same outputs.  :func:`run_cells` and
:func:`run_scales` execute one measured pass and return a :class:`Pass`
holding the wall times, the correctness findings and a digest of the
deterministic outputs.

* ``paper-figs`` — the figure suite's cells at n = 100 through
  :class:`~repro.experiments.runner.ScenarioRunner`, for several scenario
  seeds: ``manetconf``/``buddy``/``ctree`` moving at 20 m/s and
  ``quorum`` stationary, as in Fig. 4.
* ``scale-protocol`` — the ``BENCH_scale.json`` protocol script's
  bootstrap -> settle -> storm, on ten n = 1000 layouts, re-implemented
  on public calls.
* ``churn-exhaust`` — stationary ``quorum`` scenarios with 60 %
  departures, half of them abrupt, and an 8-bit address space.

Known protocol defects decide what the workloads leave out, so that no
run of the benchmark fails on them:

* a ``quorum`` network now and then ends with two live nodes of one
  network on one address when it moves (``paper_default`` n = 100,
  seed 42), or when abrupt departures meet message loss (seed 6 of the
  churn scenario with 5 % loss); the ``xfail`` tests in
  ``test_perfbench.py`` replay both;
* on some layouts the partition half of the scale script runs away:
  after the moat cut the recover window takes 20-30 times its usual
  time (n = 1000, layout 3014), and the heal never converges or leaves
  part of the cut corner unconfigured (n = 2000, layout 3; at n = 4000
  layouts 3, 5 and 7).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from clock import StepClock
from repro.core.config import ProtocolConfig
from repro.core.configuration import reset_attempt_ids
from repro.core.protocol import QuorumProtocolAgent
from repro.experiments.bootstrap import bulk_configure, space_bits_for
from repro.experiments.metrics import RunResult
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenario import Scenario
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.context import NetworkContext
from repro.net.node import Node
from repro.perf import scale as script
from repro.sim.engine import Simulator
from repro.sim.rng import generator_from_seed

WORKLOADS = ("paper-figs", "scale-protocol", "churn-exhaust")

PAPER_PROTOCOLS = ("quorum", "manetconf", "buddy", "ctree")
PAPER_NODES = 100
#: Scenario seeds per paper-figs pass.  A pass sums their cells so
#: that its work moves little between run seeds.
PAPER_SCENARIOS = 6
#: Protocols that run stationary in paper-figs (see the module notes).
STATIONARY = ("quorum",)
SCALE_NODES = 1000
#: Layouts per scale-protocol pass; a pass sums several so that its
#: work moves little between run seeds.
SCALE_LAYOUTS = 10
CHURN_NODES = 100
#: Scenarios per churn-exhaust pass.  One scenario's work moves by a
#: factor of four between seeds; a pass sums many.
CHURN_SCENARIOS = 28

#: Protocols whose cells fail the run on a duplicate (network, address)
#: pair.  manetconf is reported only: its partition splits are never
#: re-merged (see benchmarks/test_comparison_matrix.py), so every cell
#: carries duplicates by design.
SAFETY_CHECKED = ("quorum",)

#: The scale script's measured phases, in order.
SCALE_PHASES = ("settle", "storm")

#: Simulated seconds per slice of a simulation run.  Between slices a
#: pass samples the reference loop (see clock.py) and a scale pass looks
#: at its wall deadline.  Slicing changes neither event order nor the
#: clock, and Simulator.run stays the loop that fires every event.
SLICE_S = 0.05


@dataclasses.dataclass
class Pass:
    """What one measured pass of a workload produced."""

    wall_s: float
    #: Wall seconds per measured step (a cell, or a layout's script
    #: step), by label; every pass of a run has the same labels.
    steps: Dict[str, float]
    #: Seconds at nominal machine speed per step (see clock.py), by
    #: the same labels.
    nominal: Dict[str, float]
    #: Wall seconds per named phase (``scale-protocol`` only).
    phases: Dict[str, float]
    #: Nodes that entered and tried to configure.
    entering: int
    #: Entering nodes whose configuration never completed.
    alloc_failed: int
    #: Simulation cells (``ScenarioRunner`` runs or scale phases) run.
    operations: int
    #: Correctness findings; empty when every check passed.
    problems: List[str]
    #: Duplicate (network, address) pairs per cell, checked or not.
    duplicates: Dict[str, int]
    #: Deterministic outputs; :attr:`digest` hashes them.
    outputs: Dict[str, Any]
    #: Deterministic per-layer counts (perf counters, event tallies,
    #: message stats, attempts) summed over the pass.
    counts: Dict[str, float]

    @property
    def digest(self) -> str:
        blob = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def duplicate_pairs(pairs: List[Tuple[Any, Any]]) -> int:
    """How many (network, address) pairs repeat an earlier one."""
    return len(pairs) - len(set(pairs))


def _add_counts(total: Dict[str, float], ctx: NetworkContext) -> None:
    """Fold one context's deterministic tallies into ``total``."""
    for source in (ctx.perf.counters_snapshot(), ctx.events.snapshot()):
        for key, value in source.items():
            total[key] = total.get(key, 0) + value
    for hops, messages in ctx.stats.snapshot().values():
        total["msgs"] = total.get("msgs", 0) + messages
        total["hops"] = total.get("hops", 0) + hops
    total["drops"] = total.get("drops", 0) + sum(
        ctx.stats.drops_snapshot().values())
    total["heap_compactions"] = (
        total.get("heap_compactions", 0) + ctx.sim.compactions)


def _add_attempts(total: Dict[str, float], attempts: int,
                  configured: bool) -> None:
    total["quorum_attempts"] = total.get("quorum_attempts", 0) + attempts
    total["quorum_configured"] = (
        total.get("quorum_configured", 0) + int(configured))


# ----------------------------------------------------------------------
# ScenarioRunner workloads: paper-figs and churn-exhaust
# ----------------------------------------------------------------------
def _scenario_seeds(seed: int, count: int) -> List[int]:
    """``count`` scenario seeds; distinct run seeds never share one."""
    return [seed * count + k for k in range(count)]


def paper_cells(seed: int, n: int = PAPER_NODES,
                scenarios: int = PAPER_SCENARIOS
                ) -> List[Tuple[str, Scenario, Optional[Any]]]:
    return [(protocol,
             Scenario.paper_default(
                 num_nodes=n, seed=scenario_seed,
                 **({"speed_mps": 0.0} if protocol in STATIONARY else {})),
             None)
            for scenario_seed in _scenario_seeds(seed, scenarios)
            for protocol in PAPER_PROTOCOLS]


def churn_cells(seed: int, n: int = CHURN_NODES,
                scenarios: int = CHURN_SCENARIOS
                ) -> List[Tuple[str, Scenario, Optional[Any]]]:
    return [("quorum",
             Scenario.paper_default(
                 num_nodes=n, seed=scenario_seed, speed_mps=0.0,
                 depart_fraction=0.6, abrupt_probability=0.5),
             ProtocolConfig(address_space_bits=8))
            for scenario_seed in _scenario_seeds(seed, scenarios)]


def _result_outputs(result: RunResult) -> Dict[str, Any]:
    return {
        "perf": result.perf_counters,
        "events": result.events,
        "msgs": result.stats_msgs,
        "hops": result.stats_hops,
        "drops": result.stats_drops,
        "outcomes": [dataclasses.astuple(o) for o in result.outcomes],
    }


@contextlib.contextmanager
def _sliced_runs(clock: StepClock) -> Iterator[None]:
    """While open, :meth:`Simulator.run` advances in :data:`SLICE_S`
    slices and ticks ``clock`` between them.

    ``ScenarioRunner`` makes one ``run(until=...)`` call; slicing it
    changes neither the events fired nor their order (a test checks
    that a sliced cell's outputs equal an unsliced one's).
    """
    original = Simulator.__dict__["run"]

    def run(sim: Simulator, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        if until is None or max_events is not None:
            return original(sim, until, max_events)
        fired = original(sim, min(until, sim.now + SLICE_S))
        clock.tick()
        while sim.now < until:
            fired += original(sim, min(until, sim.now + SLICE_S))
            clock.tick()
        return fired

    Simulator.run = run  # type: ignore[method-assign]
    try:
        yield
    finally:
        Simulator.run = original  # type: ignore[method-assign]


def run_cells(cells: List[Tuple[str, Scenario, Optional[Any]]]) -> Pass:
    """Run ``ScenarioRunner`` cells back to back; one measured pass."""
    outputs: Dict[str, Any] = {}
    counts: Dict[str, float] = {}
    problems: List[str] = []
    duplicates: Dict[str, int] = {}
    entering = failed = 0
    clock = StepClock()
    for protocol, scenario, config in cells:
        runner = ScenarioRunner(scenario, protocol, config)
        label = f"{protocol}/n={scenario.num_nodes}/seed={scenario.seed}"
        with _sliced_runs(clock):
            result = clock.time(label, runner.run)
        assert runner.ctx is not None
        _add_counts(counts, runner.ctx)
        outputs[label] = _result_outputs(result)
        entering += len(result.outcomes)
        failed += sum(1 for o in result.outcomes if o.latency_time is None)
        dups = duplicates[label] = duplicate_pairs(
            [(o.network_id, o.ip) for o in result.outcomes
             if o.alive and o.configured])
        if protocol == "quorum":
            for o in result.outcomes:
                _add_attempts(counts, o.attempts, o.latency_time is not None)
        if dups and protocol in SAFETY_CHECKED:
            problems.append(f"{label}: {dups} duplicate (network, address) "
                            f"pairs among live configured nodes")
    return Pass(wall_s=sum(clock.walls.values()), steps=clock.walls,
                nominal=clock.nominal, phases={},
                entering=entering,
                alloc_failed=failed, operations=len(cells),
                problems=problems, duplicates=duplicates, outputs=outputs,
                counts=counts)


# ----------------------------------------------------------------------
# scale-protocol: the BENCH_scale.json protocol script on public calls
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ScaleSetup:
    """A bootstrapped, label-activated network ready to settle."""

    n: int
    seed: int
    ctx: NetworkContext
    cfg: ProtocolConfig
    agents: List[QuorumProtocolAgent]
    heads: List[int]
    #: The layout stream, left where the population ended: storm
    #: entrants draw their positions from it.
    layout_rng: Any
    bootstrap_s: float


def scale_setup(seed: int, n: int = SCALE_NODES) -> ScaleSetup:
    """Build, bulk-configure and label-activate an ``n``-node network.

    As in the committed script, one stream seeded by ``seed`` places the
    population and then the storm entrants.
    """
    reset_attempt_ids()
    ctx = NetworkContext.build(seed=seed,
                               transmission_range=script.TRANSMISSION_RANGE)
    # Stationary population: the upon-leave location scheme drops the
    # per-common periodic location timer, as the committed script does.
    cfg = ProtocolConfig(address_space_bits=space_bits_for(n),
                         location_update_mode="upon_leave")
    side = math.sqrt(n / script.DENSITY)
    layout_rng = generator_from_seed(seed)
    nodes = [Node(i, Stationary(Point(layout_rng.uniform(0, side),
                                      layout_rng.uniform(0, side))))
             for i in range(n)]
    start = time.perf_counter()
    setup = bulk_configure(ctx, cfg, nodes)
    bootstrap_s = time.perf_counter() - start
    # Activate the connectivity labels so every later rebuild rides the
    # delta path and every partition query is a label hit.
    ctx.topology.component_count()
    return ScaleSetup(n=n, seed=seed, ctx=ctx, cfg=cfg,
                      agents=list(setup.agents), heads=list(setup.heads),
                      layout_rng=layout_rng, bootstrap_s=bootstrap_s)


def scale_setups(seed: int, n: int = SCALE_NODES,
                 layouts: int = SCALE_LAYOUTS) -> List[ScaleSetup]:
    return [scale_setup(layout_seed, n)
            for layout_seed in _scenario_seeds(seed, layouts)]


def _counters_union(ctx: NetworkContext) -> Dict[str, int]:
    merged = dict(ctx.perf.counters_snapshot())
    merged.update(ctx.events.snapshot())
    return merged


class _Overrun(Exception):
    """A scale phase ran past the pass's wall deadline."""


def run_scale(s: ScaleSetup, deadline: float = math.inf) -> Pass:
    """Settle, then storm one bootstrapped network.

    ``outputs["phases"]`` holds the storm's counter deltas under the
    committed script's phase name, which the fidelity check compares
    with ``BENCH_scale.json``.  The script's moat cut, recover and heal
    are left out: on some layouts they run away (see the module notes).

    A pass still running at ``deadline`` (a :func:`time.perf_counter`
    value) stops there and reports the unfinished phase as a
    correctness finding, so that a phase that runs away cannot hold a
    run past its time limit.
    """
    started = time.perf_counter()
    ctx, sim, topo = s.ctx, s.ctx.sim, s.ctx.topology
    deltas: Dict[str, Dict[str, int]] = {}
    clock = StepClock()
    walls = clock.walls

    def advance(until: float) -> None:
        while sim.now < until:
            sim.run(until=min(until, sim.now + SLICE_S))
            clock.tick()
            if time.perf_counter() > deadline:
                raise _Overrun

    def phase(name: str, fn: Callable[[], None]) -> None:
        before = _counters_union(ctx)
        try:
            clock.time(name, fn)
        except _Overrun:
            raise _Overrun(name) from None
        after = _counters_union(ctx)
        deltas[name] = {key: after[key] - before.get(key, 0)
                        for key in sorted(after)
                        if after[key] != before.get(key, 0)}

    entrants: List[QuorumProtocolAgent] = []

    def storm() -> None:
        for k in range(script.STORM_ENTRANTS):
            # Entrants camp next to cluster heads spread round-robin over
            # the network, as in the committed script.
            anchor_id = s.heads[(k * 7) % len(s.heads)]
            anchor = topo.get(anchor_id).position(sim.now)
            pos = Point(anchor.x + s.layout_rng.uniform(-100.0, 100.0),
                        anchor.y + s.layout_rng.uniform(-100.0, 100.0))
            node = Node(s.n + k, Stationary(pos))
            topo.add_node(node)
            agent = QuorumProtocolAgent(ctx, node, s.cfg)
            entrants.append(agent)
            sim.schedule(script.STORM_SPACING_S * (k + 1), agent.on_enter)
        advance(sim.now + script.STORM_SPACING_S * script.STORM_ENTRANTS
                + script.STORM_DRAIN_S)

    problems: List[str] = []
    try:
        phase("settle", lambda: advance(script.SETTLE_S))
        phase("storm", storm)
    except _Overrun as stop:
        problems.append(f"the {stop} phase was still running at sim time "
                        f"{sim.now:.2f} s when the pass hit its wall-time "
                        f"limit")
        return Pass(wall_s=time.perf_counter() - started, steps={},
                    nominal={}, phases={},
                    entering=len(entrants),
                    alloc_failed=sum(not a.is_configured() for a in entrants),
                    operations=len(deltas) + 1, problems=problems,
                    duplicates={}, outputs={"overrun": sorted(deltas)},
                    counts={})

    unconfigured = [a.node_id for a in entrants if not a.is_configured()]
    if unconfigured:
        problems.append(f"storm entrants never configured: {unconfigured}")
    alive = [a for a in s.agents + entrants
             if a.node.alive and a.is_configured()]
    pairs = [(a.network_id, a.ip) for a in alive]
    dups = duplicate_pairs(pairs)
    if dups:
        problems.append(f"{dups} duplicate (network, address) pairs among "
                        f"live configured nodes at the end state")
    counts: Dict[str, float] = {}
    _add_counts(counts, ctx)
    for agent in entrants:
        _add_attempts(counts, agent.attempts, agent.is_configured())
    outputs = {
        "phases": {"storm": deltas["storm"]},
        "settle": deltas["settle"],
        "entrants": [(a.node_id, a.is_configured(), a.attempts, a.network_id,
                      a.ip) for a in entrants],
        "final": {"configured": len(alive),
                  "networks": len({net for net, _ in pairs}),
                  "components": topo.component_count()},
        "counts": counts,
    }
    return Pass(wall_s=sum(walls.values()), steps=walls,
                nominal=clock.nominal,
                phases=dict(walls), entering=len(entrants),
                alloc_failed=len(unconfigured), operations=len(walls),
                problems=problems, duplicates={"end state": dups},
                outputs=outputs, counts=counts)


def run_scales(setups: List[ScaleSetup], deadline: float = math.inf
               ) -> Pass:
    """:func:`run_scale` on each layout in turn; one measured pass.

    Stops after the first layout with a correctness finding.  Each
    layout is dropped from ``setups`` once run, so that a finished
    network does not stay in memory.
    """
    total = Pass(wall_s=0.0, steps={}, nominal={}, phases={}, entering=0,
                 alloc_failed=0,
                 operations=0, problems=[], duplicates={}, outputs={},
                 counts={})
    while setups:
        s = setups.pop(0)
        done = run_scale(s, deadline)
        label = f"n={s.n}/seed={s.seed}"
        total.wall_s += done.wall_s
        total.steps.update({f"{label}/{step}": wall
                            for step, wall in done.steps.items()})
        total.nominal.update({f"{label}/{step}": nominal
                              for step, nominal in done.nominal.items()})
        for name, wall in done.phases.items():
            total.phases[name] = total.phases.get(name, 0.0) + wall
        total.entering += done.entering
        total.alloc_failed += done.alloc_failed
        total.operations += done.operations
        total.problems += [f"{label}: {problem}" for problem in done.problems]
        total.duplicates.update({f"{label} {key}": value
                                 for key, value in done.duplicates.items()})
        total.outputs[label] = done.outputs
        for key, value in done.counts.items():
            total.counts[key] = total.counts.get(key, 0) + value
        if done.problems:
            break
    return total
