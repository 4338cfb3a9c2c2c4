"""The per-component head tables never go stale during a real run.

``NetworkContext`` caches its component tables on
``(graph_version, role_epoch)``.  That is only correct if every input
the tables read — topology, registration, address binding, role, head
state and network id — bumps one half of the key.  These runs check,
after every simulator event, that the cached answers equal a table
built from scratch off the agent objects.
"""

import pytest

from repro.experiments.builder import paper_scenario
from repro.experiments.runner import ScenarioRunner
from repro.faults.spec import FaultSpec
from repro.net.context import NetworkContext


def _fresh_tables(ctx):
    """node id -> (heads, head networks, networks), built from scratch."""
    topology = ctx.topology
    by_comp = {}
    for nid, agent in ctx.agents.items():
        comp = topology.component_id(nid)
        if comp is None or not ctx.is_configured(nid):
            continue
        heads, head_nets, nets = by_comp.setdefault(comp, ([], set(), set()))
        nets.add(agent.network_id)
        if ctx.is_head(nid):
            heads.append(nid)
            head_nets.add(agent.network_id)
    empty = ((), frozenset(), frozenset())
    tables = {}
    for nid in ctx.agents:
        entry = by_comp.get(topology.component_id(nid))
        tables[nid] = empty if entry is None else (
            tuple(sorted(entry[0])), frozenset(entry[1]), frozenset(entry[2]))
    return tables


def _cached_tables(ctx):
    return {nid: (ctx.component_heads(nid),
                  ctx.component_head_networks(nid),
                  ctx.component_networks(nid))
            for nid in ctx.agents}


def _run_checked(monkeypatch, scenario):
    """Run ``scenario`` comparing cached and fresh tables after every
    event; returns the number of events checked."""
    checked = []
    build = NetworkContext.build.__func__

    def build_checked(cls, *args, **kwargs):
        ctx = build(cls, *args, **kwargs)

        def hook(callback, args):
            callback(*args)
            cached = _cached_tables(ctx)
            fresh = _fresh_tables(ctx)
            assert cached == fresh, (ctx.sim.now, callback)
            checked.append(ctx.sim.now)

        ctx.sim.set_profile_hook(hook)
        return ctx

    monkeypatch.setattr(NetworkContext, "build", classmethod(build_checked))
    ScenarioRunner(scenario).run()
    return len(checked)


@pytest.mark.parametrize("seed", [2, 5])
def test_tables_match_a_fresh_build_under_churn_loss_and_partition(
        monkeypatch, seed):
    scenario = paper_scenario(
        num_nodes=30, seed=seed, settle_time=30.0, speed_mps=0.0,
        depart_fraction=0.5, abrupt_probability=0.5,
        faults=FaultSpec.parse("loss=0.05,crash=4@12-25,cut=1+2+3@15-35"))
    assert _run_checked(monkeypatch, scenario) > 1000


def test_tables_match_a_fresh_build_while_nodes_move(monkeypatch):
    scenario = paper_scenario(
        num_nodes=25, seed=3, settle_time=20.0,
        depart_fraction=0.3, abrupt_probability=0.5)
    assert _run_checked(monkeypatch, scenario) > 1000
