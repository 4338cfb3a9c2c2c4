"""Tests of the benchmark itself: tiny workloads, the span fold, the
scale script's fidelity and the declared metric lists.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clock import REFERENCE_S, StepClock  # noqa: E402
from tracer import SpanLog, Tracer, event_func, event_name, fold  # noqa: E402

from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.timers import PeriodicTimer, Timer  # noqa: E402


def _traced(fn, *args):
    with Tracer() as tracer:
        done = fn(*args)
    return done, tracer


# ----------------------------------------------------------------------
# The fold and the trampoline
# ----------------------------------------------------------------------
def test_fold_subtracts_children_from_their_parent():
    log = SpanLog()
    outer, inner = log.name_id("outer"), log.name_id("inner")
    for name, parent, start, end in ((outer, -1, 0.0, 10.0),
                                     (inner, 0, 1.0, 4.0),
                                     (inner, 0, 5.0, 6.0),
                                     (outer, 2, 5.2, 5.7)):
        log.name.append(name)
        log.parent.append(parent)
        log.start.append(start)
        log.end.append(end)
    folded = fold(log)
    # outer: 10 - 3 - 1 = 6 at the root, plus 0.5 nested in an inner.
    assert folded["outer"][0] == 2
    assert folded["outer"][1] == pytest.approx(6.5)
    # inner: 3 + (1 - 0.5).
    assert folded["inner"] == (2, pytest.approx(3.5))


class _Agent:
    def __init__(self):
        self.fired = []

    def _audit(self):
        self.fired.append("audit")

    def _on_vote_timeout(self, token):
        self.fired.append(token)


def test_trampolines_are_named_after_the_real_callback():
    sim = Simulator(seed=1)
    agent = _Agent()
    periodic = PeriodicTimer(sim, 1.0, agent._audit)
    one_shot = Timer(sim, agent._on_vote_timeout)
    periodic.start(first_delay=0.5)
    one_shot.start(0.7, "tok")
    tracer = Tracer()
    sim.set_profile_hook(tracer.hook)
    sim.run(until=2.0)
    assert agent.fired == ["audit", "tok", "audit"]
    names = {tracer.log.names[i] for i in tracer.log.name}
    assert names == {f"{__name__}:_Agent._audit",
                     f"{__name__}:_Agent._on_vote_timeout"}
    assert event_name(event_func(periodic._fire)) == (
        f"{__name__}:_Agent._audit")
    assert layers.event_group(f"repro.core.adjustment:AdjustmentMixin._audit"
                              ) == "core.audit"
    assert layers.event_group("repro.core.protocol:QuorumProtocolAgent."
                              "_on_vote_timeout") == "core.timeout"


def test_tracer_restores_every_patched_attribute():
    from repro.net.context import NetworkContext
    from repro.net.topology import Topology

    before = (NetworkContext.__dict__["build"], Topology.__dict__["hops"])
    with Tracer():
        assert Topology.__dict__["hops"] is not before[1]
    assert (NetworkContext.__dict__["build"],
            Topology.__dict__["hops"]) == before


# ----------------------------------------------------------------------
# Tiny workloads: correct, deterministic, unperturbed by tracing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cells", [
    lambda: workloads.paper_cells(3, n=20, scenarios=1),
    lambda: workloads.churn_cells(3, n=30, scenarios=2),
], ids=["paper-figs", "churn-exhaust"])
def test_runner_workloads_tiny(cells):
    first = workloads.run_cells(cells())
    traced, tracer = _traced(workloads.run_cells, cells())
    assert first.problems == []
    assert first.entering > 0 and first.wall_s > 0
    assert traced.digest == first.digest
    folded = fold(tracer.log)
    assert folded["experiments.run"][0] == first.operations
    assert any(":" in name for name in folded)


def test_scale_workload_tiny():
    first = workloads.run_scales(workloads.scale_setups(5, n=300, layouts=2))
    traced, tracer = _traced(lambda: workloads.run_scales(
        workloads.scale_setups(5, n=300, layouts=2)))
    assert first.problems == traced.problems == []
    assert len(first.outputs) == 2
    assert set(first.phases) == set(workloads.SCALE_PHASES)
    assert traced.digest == first.digest
    metrics = layers.per_layer(
        fold(tracer.log), traced.counts, tracer.sends,
        tracer.sends_delivered, {"wall_s": first.wall_s,
                                 "traced_wall_s": traced.wall_s})
    assert set(metrics) == set(layers.UNITS)
    assert metrics["core.merge_scan.events"] > 0
    assert metrics["core.orphan_check.events"] > 0
    assert metrics["net.context.is_head.calls"] > 0


def test_scale_pass_stops_at_its_deadline():
    done = workloads.run_scale(workloads.scale_setup(5, n=300),
                               deadline=time.perf_counter())
    assert done.problems == [f"the settle phase was still running at sim "
                             f"time {workloads.SLICE_S:.2f} s when the pass "
                             f"hit its wall-time limit"]
    assert done.operations == 1


def test_run_seeds_map_to_disjoint_scenario_seeds():
    seeds = [sc.seed for _, sc, _ in workloads.churn_cells(4)]
    assert seeds == list(range(4 * workloads.CHURN_SCENARIOS,
                               5 * workloads.CHURN_SCENARIOS))
    paper = workloads.paper_cells(4)
    assert len(paper) == (workloads.PAPER_SCENARIOS
                          * len(workloads.PAPER_PROTOCOLS))
    assert {sc.speed_mps for p, sc, _ in paper if p == "quorum"} == {0.0}
    assert {sc.speed_mps for p, sc, _ in paper if p != "quorum"} == {20.0}


# The two known safety defects the workloads leave out.  Each replays a
# smallest known scenario; strict, so a protocol fix turns them red
# until they are removed and the workloads widened again.
@pytest.mark.xfail(strict=True, reason="a moving quorum network ends "
                   "with a duplicate (network, address) pair")
def test_known_defect_moving_quorum_duplicate():
    from repro.experiments.scenario import Scenario

    done = workloads.run_cells(
        [("quorum", Scenario.paper_default(num_nodes=100, seed=42), None)])
    assert done.problems == []


@pytest.mark.xfail(strict=True, reason="abrupt departures under loss in "
                   "an 8-bit space end with a duplicate pair")
def test_known_defect_lossy_abrupt_churn_duplicate():
    from repro.core.config import ProtocolConfig
    from repro.experiments.scenario import Scenario
    from repro.faults.spec import FaultSpec

    done = workloads.run_cells([("quorum", Scenario.paper_default(
        num_nodes=100, seed=6, speed_mps=0.0, depart_fraction=0.6,
        abrupt_probability=0.5, faults=FaultSpec(loss_rate=0.05)),
        ProtocolConfig(address_space_bits=8))])
    assert done.problems == []


def test_step_clock_divides_each_chunk_by_the_loops_around_it(monkeypatch):
    import clock

    samples = iter([1.0, 2.0, 4.0])
    now = iter([0.0, 3.0, 3.0, 9.0, 9.0])
    monkeypatch.setattr(StepClock, "_sample", lambda self: next(samples))
    monkeypatch.setattr(clock, "time",
                        SimpleNamespace(perf_counter=lambda: next(now)))
    steps = StepClock()
    assert steps.time("work", lambda: steps.tick() or "done") == "done"
    # Chunks of 3 s and 6 s, between loops of 1 and 2 s, then 2 and 4 s.
    assert steps.walls == {"work": 9.0}
    assert steps.nominal["work"] == pytest.approx(
        (3.0 / 1.5 + 6.0 / 3.0) * REFERENCE_S)


def test_sliced_simulator_runs_change_no_output():
    from repro.experiments.runner import ScenarioRunner

    cells = workloads.paper_cells(3, n=20, scenarios=1)
    sliced = workloads.run_cells(cells)
    for protocol, scenario, config in cells:
        whole = ScenarioRunner(scenario, protocol, config).run()
        label = f"{protocol}/n={scenario.num_nodes}/seed={scenario.seed}"
        assert sliced.outputs[label] == workloads._result_outputs(whole)


def test_duplicate_pairs_fail_the_check():
    assert workloads.duplicate_pairs([(1, 5), (1, 6), (2, 5)]) == 0
    assert workloads.duplicate_pairs([(1, 5), (1, 5), (1, 5)]) == 2


# ----------------------------------------------------------------------
# Fidelity of the re-implemented scale script
# ----------------------------------------------------------------------
def test_scale_phase_deltas_match_committed_bench():
    committed = json.loads((ROOT / "BENCH_scale.json").read_text())
    phases = committed["protocol"]["1000"]["phases"]
    done = workloads.run_scale(workloads.scale_setup(11, n=1000))
    assert done.problems == []
    assert done.outputs["phases"]["storm"] == phases["storm"]["counters_delta"]


# ----------------------------------------------------------------------
# The declared metric lists and the command's failure mode
# ----------------------------------------------------------------------
def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
            ] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-figs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
