"""Unit tests for hello-derived neighborhood knowledge."""

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Category, HelloService, MessageStats, Node, Topology
from repro.sim import Simulator


def make(positions, tr=150.0, count_cost=False, interval=1.0):
    sim = Simulator(seed=1)
    stats = MessageStats()
    topo = Topology(sim, transmission_range=tr)
    for i, (x, y) in enumerate(positions):
        topo.add_node(Node(i, Stationary(Point(x, y))))
    hello = HelloService(sim, topo, stats, interval=interval,
                         count_cost=count_cost)
    return sim, topo, hello, stats


def test_heads_within_filters_and_sorts():
    _, _, hello, _ = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    heads = {1, 3}
    result = hello.heads_within(0, 3, lambda n: n in heads)
    assert result == [(1, 1), (3, 3)]


def test_heads_within_confirms_only_members_among_the_candidates():
    _, _, hello, _ = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    asked = []

    def is_head(n):
        asked.append(n)
        return n != 2  # a stale candidate: no longer a head

    assert hello.heads_within(0, 3, is_head, among={2, 3, 7}) == [(3, 3)]
    assert sorted(asked) == [2, 3]


def test_heads_within_respects_k():
    _, _, hello, _ = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    result = hello.heads_within(0, 2, lambda n: True)
    assert result == [(1, 1), (2, 2)]


def test_nearest_head_unbounded():
    _, _, hello, _ = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    assert hello.nearest_head(0, lambda n: n == 3) == (3, 3)


def test_nearest_head_bounded():
    _, _, hello, _ = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    assert hello.nearest_head(0, lambda n: n == 3, max_hops=2) is None


def test_nearest_head_tie_breaks_by_id():
    _, _, hello, _ = make([(120, 0), (0, 0), (240, 0)])
    assert hello.nearest_head(0, lambda n: True) == (1, 1)


def test_nearest_head_none_when_no_heads():
    _, _, hello, _ = make([(0, 0), (120, 0)])
    assert hello.nearest_head(0, lambda n: False) is None


def test_beacon_cost_accounting():
    sim, _, hello, stats = make([(0, 0), (120, 0), (240, 0)],
                                count_cost=True)
    hello.start()
    sim.run(until=3.5)
    # 3 rounds x 3 alive nodes, one transmission each.
    assert stats.hops[Category.HELLO] == 9
    hello.stop()
    sim.run(until=10.0)
    assert stats.hops[Category.HELLO] == 9


def test_beacon_cost_disabled_by_default():
    sim, _, hello, stats = make([(0, 0)])
    hello.start()
    sim.run(until=5.0)
    assert stats.hops[Category.HELLO] == 0
