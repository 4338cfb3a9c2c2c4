"""The per-run network context shared by all protocol agents.

Bundles the simulator, topology, transport, hello service and message
accounting, plus two idealized registries every autoconfiguration
protocol needs from its routing substrate:

* ``ip_registry`` — IP -> node id resolution (the ARP/routing analogue);
* the agent table — node id -> protocol agent, used by the substrate to
  deliver messages and by hello queries to ask "is this node a cluster
  head?".
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, List,
                    Optional, Set, Tuple)

from repro.net.hello import HelloService
from repro.net.node import Node
from repro.net.stats import MessageStats
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.obs.bus import EventBus
from repro.perf import Counters, PerfRecorder
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.model import FaultModel
    from repro.faults.spec import FaultSpec


class NetworkContext:
    """Everything a protocol agent needs to talk to the world."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        transport: Transport,
        hello: HelloService,
        stats: MessageStats,
        faults: Optional["FaultModel"] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.transport = transport
        self.hello = hello
        self.stats = stats
        self.faults = faults
        # One perf recorder per run: topology/transport counters and
        # timers accumulate here (defaults to the topology's recorder).
        self.perf: PerfRecorder = (
            perf if perf is not None else topology.perf)
        # Protocol/fault event tallies (quorum shrinks, probes,
        # reclamations, crashes, ...) — the observability companion to
        # the per-category hop counters in ``stats``.
        self.events: Counters = (
            faults.events if faults is not None else Counters())
        # The run's event bus, shared with the transport: protocol
        # layers emit structured events here (falsy while nobody
        # subscribes — emission sites gate on that; see repro.obs).
        self.obs: EventBus = transport.obs
        self.agents: Dict[int, Any] = {}  # node_id -> agent
        self.ip_registry: Dict[int, int] = {}  # ip -> node_id
        #: Bumped on membership, address binding and every role,
        #: head-state or network-id transition (:meth:`roles_changed`)
        #: — the agent half of the component-table cache key.
        self.role_epoch = 0
        # Derived view: component id -> (sorted head ids, head network
        # ids, all configured network ids), shared by every agent that
        # asks "does my partition still have allocators" (orphan
        # rescue, isolation re-founding) or "is there anything foreign
        # left to merge with" (merge scan).  One O(n) pass builds it;
        # without the cache each asker walked its own neighborhood or
        # component per scan — O(n^2) per scan round.  Keyed on
        # (graph_version, role_epoch): topology rebuilds bump the
        # former; registration, address binding and role, network-id
        # and head-state transitions bump the latter, so every input
        # the table reads is covered and no TTL backstop is needed.
        self._comp_heads_key: Tuple[int, int] = (-1, -1)
        self._comp_heads: Dict[int, Tuple[Tuple[int, ...],
                                          FrozenSet[Optional[int]],
                                          FrozenSet[Optional[int]]]] = {}

    # ------------------------------------------------------------------
    # Agent registry
    # ------------------------------------------------------------------
    def register(self, agent: Any) -> None:
        self.agents[agent.node.node_id] = agent
        self.role_epoch += 1

    def unregister(self, node_id: int) -> None:
        self.agents.pop(node_id, None)
        self.role_epoch += 1

    def roles_changed(self) -> None:
        """Invalidate the component tables after an agent's role,
        head state or network id changed."""
        self.role_epoch += 1

    def agent_of(self, node_id: int) -> Optional[Any]:
        return self.agents.get(node_id)

    def node_of(self, node_id: int) -> Optional[Node]:
        return self.topology.get(node_id)

    # ------------------------------------------------------------------
    # IP resolution
    # ------------------------------------------------------------------
    def bind_ip(self, ip: int, node_id: int) -> None:
        self.ip_registry[ip] = node_id
        self.role_epoch += 1

    def unbind_ip(self, ip: int) -> None:
        if self.ip_registry.pop(ip, None) is not None:
            self.role_epoch += 1

    def resolve_ip(self, ip: int) -> Optional[int]:
        return self.ip_registry.get(ip)

    # ------------------------------------------------------------------
    # Role queries (used by hello-derived knowledge)
    # ------------------------------------------------------------------
    def is_head(self, node_id: int) -> bool:
        agent = self.agents.get(node_id)
        node = self.topology.get(node_id)
        if agent is None or node is None or not node.alive:
            return False
        return bool(agent.is_allocator())

    def is_configured(self, node_id: int) -> bool:
        agent = self.agents.get(node_id)
        node = self.topology.get(node_id)
        if agent is None or node is None or not node.alive:
            return False
        return bool(agent.is_configured())

    # ------------------------------------------------------------------
    # Component-level role queries (connectivity labels + agent state)
    # ------------------------------------------------------------------
    _NO_HEADS: Tuple[Tuple[int, ...], FrozenSet[Optional[int]],
                     FrozenSet[Optional[int]]] = ((), frozenset(), frozenset())

    def _component_heads_entry(
        self, node_id: int
    ) -> Tuple[Tuple[int, ...], FrozenSet[Optional[int]],
               FrozenSet[Optional[int]]]:
        topology = self.topology
        # Query the labels first: this forces any pending rebuild, so
        # graph_version below reflects the graph being answered about.
        component = topology.component_id(node_id)
        if component is None:
            return self._NO_HEADS
        key = (topology.graph_version, self.role_epoch)
        if key != self._comp_heads_key:
            table: Dict[int, Tuple[List[int], Set[Optional[int]],
                                   Set[Optional[int]]]] = {}
            for nid, agent in self.agents.items():
                if not self.is_configured(nid):
                    continue
                comp = topology.component_id(nid)
                if comp is None:
                    continue
                entry = table.get(comp)
                if entry is None:
                    entry = table[comp] = ([], set(), set())
                # ``None`` network ids (configured agents mid-rejoin)
                # stay in the sets on purpose: they make a component
                # look heterogeneous, which keeps the merge scan alive.
                network: Optional[int] = getattr(agent, "network_id", None)
                entry[2].add(network)
                if self.is_head(nid):
                    entry[0].append(nid)
                    entry[1].add(network)
            self._comp_heads = {
                comp: (tuple(sorted(ids)), frozenset(hnets),
                       frozenset(nets))
                for comp, (ids, hnets, nets) in table.items()}
            self._comp_heads_key = key
        return self._comp_heads.get(component, self._NO_HEADS)

    def component_heads(self, node_id: int) -> Tuple[int, ...]:
        """Allocator node ids in ``node_id``'s component, ascending.

        O(1) amortized: one O(n) table build per topology rebuild /
        role transition serves every caller in the interval.  The
        pre-label protocol answered this with an unbounded BFS flood
        per asker; the label layer's ``component_members`` walk was
        bounded but still O(component) per asker per scan."""
        return self._component_heads_entry(node_id)[0]

    def component_head_networks(
            self, node_id: int) -> FrozenSet[Optional[int]]:
        """Network ids that still have an allocator in ``node_id``'s
        component (empty when the component has no heads at all)."""
        return self._component_heads_entry(node_id)[1]

    def component_networks(self, node_id: int) -> FrozenSet[Optional[int]]:
        """Network ids of every configured node in ``node_id``'s
        component — heads and commons (``None`` for agents that are
        configured but between networks).  A singleton set equal to the
        asker's own network means its partition is homogeneous: no
        bounded neighborhood scan can find a foreign network id."""
        return self._component_heads_entry(node_id)[2]

    @classmethod
    def build(
        cls,
        seed: int = 0,
        transmission_range: float = 150.0,
        hello_interval: float = 1.0,
        per_hop_delay: float = 0.01,
        count_hello_cost: bool = False,
        faults: Optional["FaultSpec"] = None,
    ) -> "NetworkContext":
        """Construct a fully wired context with fresh components.

        ``faults`` (a :class:`~repro.faults.spec.FaultSpec`) attaches a
        fault model to the transport and schedules its crash/partition
        events; ``None`` keeps the transport perfectly reliable.
        """
        sim = Simulator(seed=seed)
        stats = MessageStats()
        perf = PerfRecorder()
        topology = Topology(sim, transmission_range, perf=perf)
        fault_model = None
        if faults is not None:
            from repro.faults.model import FaultModel

            fault_model = FaultModel(faults, sim, topology)
            fault_model.install()
        transport = Transport(sim, topology, stats, per_hop_delay,
                              faults=fault_model, perf=perf)
        hello = HelloService(
            sim, topology, stats, interval=hello_interval,
            count_cost=count_hello_cost,
        )
        return cls(sim, topology, transport, hello, stats,
                   faults=fault_model, perf=perf)
