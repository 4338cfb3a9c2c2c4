"""Unit tests for the shared network context."""

import pytest

from repro.addrspace.block import Block
from repro.cluster.roles import Role
from repro.core.protocol import QuorumProtocolAgent
from repro.core.state import CommonState, HeadState
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Node
from repro.net.context import NetworkContext


class FakeAgent:
    def __init__(self, ctx, node, allocator=False, configured=False,
                 network_id=None):
        self.node = node
        self._allocator = allocator
        self._configured = configured
        self.network_id = network_id
        node.agent = self
        ctx.register(self)

    def is_allocator(self):
        return self._allocator

    def is_configured(self):
        return self._configured


def make_ctx():
    return NetworkContext.build(seed=1, transmission_range=150.0)


def add(ctx, node_id, allocator=False, configured=False, network_id=None,
        x=None):
    node = Node(node_id, Stationary(
        Point(node_id * 50.0 if x is None else x, 0)))
    ctx.topology.add_node(node)
    return FakeAgent(ctx, node, allocator, configured, network_id)


def test_register_and_lookup():
    ctx = make_ctx()
    agent = add(ctx, 1)
    assert ctx.agent_of(1) is agent
    assert ctx.node_of(1) is agent.node
    ctx.unregister(1)
    assert ctx.agent_of(1) is None


def test_ip_registry():
    ctx = make_ctx()
    add(ctx, 1)
    ctx.bind_ip(42, 1)
    assert ctx.resolve_ip(42) == 1
    ctx.unbind_ip(42)
    assert ctx.resolve_ip(42) is None


def test_is_head_requires_alive_allocator():
    ctx = make_ctx()
    agent = add(ctx, 1, allocator=True)
    assert ctx.is_head(1)
    agent.node.kill()
    assert not ctx.is_head(1)
    assert not ctx.is_head(99)


def test_is_configured():
    ctx = make_ctx()
    add(ctx, 1, configured=True)
    add(ctx, 2, configured=False)
    assert ctx.is_configured(1)
    assert not ctx.is_configured(2)


def test_build_wires_components():
    ctx = make_ctx()
    assert ctx.transport.topology is ctx.topology
    assert ctx.transport.stats is ctx.stats
    assert ctx.hello.topology is ctx.topology


def test_component_heads_sorted_and_configured_only():
    ctx = make_ctx()
    add(ctx, 3, allocator=True, configured=True, network_id=7)
    add(ctx, 1, allocator=True, configured=True, network_id=7)
    add(ctx, 2, configured=True, network_id=7)
    add(ctx, 4, configured=False)  # unconfigured: invisible to the table
    assert ctx.component_heads(2) == (1, 3)
    assert ctx.component_head_networks(2) == frozenset({7})
    assert ctx.component_networks(2) == frozenset({7})


def test_component_networks_include_commons_not_just_heads():
    ctx = make_ctx()
    add(ctx, 1, allocator=True, configured=True, network_id=7)
    # A configured common carrying a foreign network id (mid-merge).
    add(ctx, 2, configured=True, network_id=9)
    assert ctx.component_head_networks(1) == frozenset({7})
    assert ctx.component_networks(1) == frozenset({7, 9})


def test_component_tables_are_per_component():
    ctx = make_ctx()
    # Two clusters separated by far more than the 150 m range.
    add(ctx, 1, allocator=True, configured=True, network_id=7, x=0.0)
    add(ctx, 2, configured=True, network_id=7, x=100.0)
    add(ctx, 11, allocator=True, configured=True, network_id=8, x=5000.0)
    add(ctx, 12, configured=True, network_id=8, x=5100.0)
    assert ctx.component_heads(2) == (1,)
    assert ctx.component_heads(12) == (11,)
    assert ctx.component_networks(2) == frozenset({7})
    assert ctx.component_networks(12) == frozenset({8})
    # Unknown node: conservative empty answers.
    assert ctx.component_heads(99) == ()
    assert ctx.component_head_networks(99) == frozenset()
    assert ctx.component_networks(99) == frozenset()


def test_registry_is_a_plain_dict_in_registration_order():
    ctx = make_ctx()
    first = add(ctx, 3)
    second = add(ctx, 1)
    assert type(ctx.agents) is dict
    assert list(ctx.agents.items()) == [(3, first), (1, second)]
    ctx.unregister(3)
    ctx.unregister(3)  # unknown ids are a no-op
    assert list(ctx.agents) == [1]


def test_reregistering_replaces_in_place():
    ctx = make_ctx()
    first = add(ctx, 3)
    second = add(ctx, 1)
    epoch = ctx.role_epoch
    replacement = FakeAgent(ctx, first.node)
    assert list(ctx.agents.items()) == [(3, replacement), (1, second)]
    assert ctx.role_epoch == epoch + 1


def test_component_tables_refresh_on_roles_changed():
    ctx = make_ctx()
    head = add(ctx, 1, allocator=True, configured=True, network_id=7)
    add(ctx, 2, configured=True, network_id=7)
    assert ctx.component_heads(2) == (1,)
    # Demote the head and report it: the epoch bump must invalidate
    # the cached table without any clock advance.
    head._allocator = False
    ctx.roles_changed()
    assert ctx.component_heads(2) == ()
    assert ctx.component_head_networks(2) == frozenset()
    # A network-id change is reported the same way.
    head.network_id = 9
    ctx.roles_changed()
    assert ctx.component_networks(2) == frozenset({7, 9})


def quorum_agent(ctx, node_id, network_id):
    """A real quorum agent, configured as a common node of
    ``network_id`` without running the protocol."""
    node = Node(node_id, Stationary(Point(node_id * 50.0, 0)))
    ctx.topology.add_node(node)
    agent = QuorumProtocolAgent(ctx, node)
    agent.common = CommonState(ip=100 + node_id, configurer_id=node_id,
                               configurer_ip=100 + node_id)
    agent.role = Role.COMMON
    agent.network_id = network_id
    return agent


def make_head(agent):
    block = Block(16 * agent.node_id, 16)
    return HeadState(ip=block.start, blocks=[block], configurer_id=None,
                     configurer_ip=None)


def test_component_tables_refresh_on_role_transition():
    ctx = make_ctx()
    agent = quorum_agent(ctx, 1, network_id=7)
    quorum_agent(ctx, 2, network_id=7)
    agent.head = make_head(agent)
    assert ctx.component_heads(2) == ()
    agent.role = Role.HEAD
    assert ctx.component_heads(2) == (1,)
    agent.role = Role.COMMON
    assert ctx.component_heads(2) == ()


def test_component_tables_refresh_on_network_transition():
    ctx = make_ctx()
    agent = quorum_agent(ctx, 1, network_id=7)
    quorum_agent(ctx, 2, network_id=7)
    agent.head = make_head(agent)
    agent.role = Role.HEAD
    assert ctx.component_head_networks(2) == frozenset({7})
    agent.network_id = 9
    assert ctx.component_head_networks(2) == frozenset({9})
    assert ctx.component_networks(2) == frozenset({7, 9})


def test_component_tables_refresh_on_topology_split():
    ctx = make_ctx()
    # A 1 -- 2 -- 3 chain where 2 bridges the ends.
    add(ctx, 1, allocator=True, configured=True, network_id=7, x=0.0)
    bridge = add(ctx, 2, configured=True, network_id=7, x=100.0)
    add(ctx, 3, configured=True, network_id=7, x=200.0)
    assert ctx.component_heads(3) == (1,)
    bridge.node.kill()
    ctx.topology.invalidate_nodes([2])
    # 3 is now cut off from the head; 1 still sees itself.
    assert ctx.component_heads(3) == ()
    assert ctx.component_heads(1) == (1,)


def test_component_tables_refresh_on_head_state_transition():
    ctx = make_ctx()
    agent = quorum_agent(ctx, 1, network_id=7)
    quorum_agent(ctx, 2, network_id=7)
    agent.role = Role.HEAD
    assert ctx.component_heads(2) == ()
    # Adopting and dropping head state under an unchanged HEAD role
    # goes through the head setter, which versions the tables.
    agent.head = make_head(agent)
    assert ctx.component_heads(2) == (1,)
    agent.head = None
    assert ctx.component_heads(2) == ()
    # Still configured (as a common), so still counted by network.
    assert ctx.component_networks(2) == frozenset({7})


def test_component_tables_refresh_when_address_bound_ness_flips():
    ctx = make_ctx()
    add(ctx, 1, allocator=True, configured=True, network_id=7)
    agent = add(ctx, 2, configured=False, network_id=None)
    assert ctx.component_networks(1) == frozenset({7})
    # Binding an IP versions the table.
    agent._configured = True
    agent.network_id = 9
    ctx.bind_ip(42, 2)
    assert ctx.component_networks(1) == frozenset({7, 9})
    # Unbinding does too.
    agent._configured = False
    ctx.unbind_ip(42)
    assert ctx.component_networks(1) == frozenset({7})


@pytest.mark.xfail(strict=True, reason=(
    "ip_registry is flat (ip -> node id) although addresses are only "
    "unique per network: unbinding one network's address drops another "
    "network's binding of it (ROADMAP item 5, safety checker)"))
def test_unbinding_one_networks_address_keeps_another_networks_binding():
    ctx = make_ctx()
    add(ctx, 1, configured=True, network_id=7)
    add(ctx, 2, configured=True, network_id=8)
    ctx.bind_ip(5, 1)
    ctx.bind_ip(5, 2)
    ctx.unbind_ip(5)  # node 1 departs
    assert ctx.resolve_ip(5) == 2
