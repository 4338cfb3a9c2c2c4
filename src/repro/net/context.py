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

from bisect import bisect_left, insort
from typing import (TYPE_CHECKING, AbstractSet, Any, Dict, FrozenSet, List,
                    Optional, Set, Tuple)

from repro.net.hello import HelloService
from repro.net.node import Node
from repro.net.stats import MessageStats
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.obs.bus import EventBus
from repro.perf import Counters, PerfRecorder
from repro.perf import counters as cnt
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.model import FaultModel
    from repro.faults.spec import FaultSpec


_Entry = Tuple[Tuple[int, ...], FrozenSet[Optional[int]],
               FrozenSet[Optional[int]]]
_NO_HEADS: _Entry = ((), frozenset(), frozenset())


class _Component:
    """One component's configured nodes, as counts: its heads (sorted)
    and, per network id, how many heads and how many configured nodes
    carry it.  :meth:`entry` freezes them once per change."""

    __slots__ = ("heads", "head_nets", "nets", "_entry")

    def __init__(self) -> None:
        self.heads: List[int] = []
        self.head_nets: Dict[Optional[int], int] = {}
        self.nets: Dict[Optional[int], int] = {}
        self._entry: Optional[_Entry] = None

    def deposit(self, node_id: int, head: bool,
                network: Optional[int]) -> None:
        self._entry = None
        self.nets[network] = self.nets.get(network, 0) + 1
        if head:
            insort(self.heads, node_id)
            self.head_nets[network] = self.head_nets.get(network, 0) + 1

    def withdraw(self, node_id: int, head: bool,
                 network: Optional[int]) -> None:
        self._entry = None
        _decrement(self.nets, network)
        if head:
            del self.heads[bisect_left(self.heads, node_id)]
            _decrement(self.head_nets, network)

    def entry(self) -> _Entry:
        if self._entry is None:
            self._entry = (tuple(self.heads), frozenset(self.head_nets),
                           frozenset(self.nets))
        return self._entry


def _decrement(counts: Dict[Optional[int], int],
               network: Optional[int]) -> None:
    left = counts[network] - 1
    if left:
        counts[network] = left
    else:
        del counts[network]


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
        # Derived views, shared by every agent that asks "does my
        # partition still have allocators" (orphan rescue, isolation
        # re-founding), "is there anything foreign left to merge with"
        # (merge scan) or "which of my ring members are heads" (head
        # audits, role decisions).  Both are kept per node: registration,
        # address binding and every role, head-state or network-id
        # transition (:meth:`roles_changed`) mark the node dirty, and the
        # next query re-reads only the dirty nodes off their agents.  A
        # graph change (``graph_version`` moves: membership, liveness,
        # links, labels) rebuilds from scratch in one O(n) pass.
        #
        # Component id -> per-component counts, patched per dirty node.
        self._comps: Dict[int, _Component] = {}
        #: node id -> (component, is head, network id) of each configured
        #: node in the graph: what it currently adds to ``_comps``.
        self._contrib: Dict[int, Tuple[int, bool, Optional[int]]] = {}
        self._dirty: Set[int] = set()
        self._comps_version = -1  # graph_version of the last full build
        # Live head ids (``is_head`` holds), patched the same way but
        # kept apart: reading it must not force a connectivity relabel.
        self._head_ids: Set[int] = set()
        self._heads_dirty: Set[int] = set()
        self._heads_version = -1

    # ------------------------------------------------------------------
    # Agent registry
    # ------------------------------------------------------------------
    def register(self, agent: Any) -> None:
        self.agents[agent.node.node_id] = agent
        self.roles_changed(agent.node.node_id)

    def unregister(self, node_id: int) -> None:
        self.agents.pop(node_id, None)
        self.roles_changed(node_id)

    def roles_changed(self, node_id: int) -> None:
        """Mark ``node_id`` for re-reading after its agent's role, head
        state, network id or address changed."""
        self._dirty.add(node_id)
        self._heads_dirty.add(node_id)

    def agent_of(self, node_id: int) -> Optional[Any]:
        return self.agents.get(node_id)

    def node_of(self, node_id: int) -> Optional[Node]:
        return self.topology.get(node_id)

    # ------------------------------------------------------------------
    # IP resolution
    # ------------------------------------------------------------------
    def bind_ip(self, ip: int, node_id: int) -> None:
        self.ip_registry[ip] = node_id
        self.roles_changed(node_id)

    def unbind_ip(self, ip: int) -> None:
        node_id = self.ip_registry.pop(ip, None)
        if node_id is not None:
            self.roles_changed(node_id)

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

    def head_ids(self) -> AbstractSet[int]:
        """Ids of every node for which :meth:`is_head` holds (read-only).

        Brings the graph up to date with the clock (as any hop query
        does) but never forces a connectivity relabel.  O(dirty nodes)
        between graph changes; one O(n) pass per graph change."""
        version = self.topology.current_graph_version()
        if version != self._heads_version:
            self._head_ids = {nid for nid in self.agents if self.is_head(nid)}
            self._heads_version = version
            self._heads_dirty.clear()
        elif self._heads_dirty:
            head_ids = self._head_ids
            for nid in self._heads_dirty:
                if self.is_head(nid):
                    head_ids.add(nid)
                else:
                    head_ids.discard(nid)
            self._heads_dirty.clear()
        return self._head_ids

    # ------------------------------------------------------------------
    # Component-level role queries (connectivity labels + agent state)
    # ------------------------------------------------------------------
    def _contribution(
            self, node_id: int) -> Optional[Tuple[int, bool, Optional[int]]]:
        """What ``node_id`` adds to its component's tables right now."""
        if not self.is_configured(node_id):
            return None
        component = self.topology.component_id(node_id)
        if component is None:
            return None
        # ``None`` network ids (configured agents mid-rejoin) count on
        # purpose: they make a component look heterogeneous, which
        # keeps the merge scan alive.
        network: Optional[int] = getattr(
            self.agents[node_id], "network_id", None)
        return component, self.is_head(node_id), network

    def _patch(self, node_id: int) -> None:
        """Replace ``node_id``'s old contribution with its current one."""
        old = self._contrib.get(node_id)
        new = self._contribution(node_id)
        if new == old:
            return
        comps = self._comps
        if old is not None:
            del self._contrib[node_id]
            comp = comps[old[0]]
            comp.withdraw(node_id, old[1], old[2])
            if not comp.nets:
                del comps[old[0]]
        if new is not None:
            self._contrib[node_id] = new
            comp = comps.get(new[0])
            if comp is None:
                comp = comps[new[0]] = _Component()
            comp.deposit(node_id, new[1], new[2])

    def _component_heads_entry(self, node_id: int) -> _Entry:
        topology = self.topology
        # Query the labels first: this forces any pending rebuild, so
        # graph_version below reflects the graph being answered about.
        component = topology.component_id(node_id)
        if component is None:
            return _NO_HEADS
        if topology.graph_version != self._comps_version:
            self.perf.incr(cnt.COMP_TABLE_FULL_BUILDS)
            self._comps = {}
            self._contrib = {}
            for nid in self.agents:
                self._patch(nid)
            self._comps_version = topology.graph_version
            self._dirty.clear()
        elif self._dirty:
            self.perf.incr(cnt.COMP_TABLE_NODE_PATCHES, len(self._dirty))
            for nid in self._dirty:
                self._patch(nid)
            self._dirty.clear()
        comp = self._comps.get(component)
        return _NO_HEADS if comp is None else comp.entry()

    def component_heads(self, node_id: int) -> Tuple[int, ...]:
        """Allocator node ids in ``node_id``'s component, ascending.

        O(1) amortized: one O(n) table build per graph change, and per
        node whose role, network or address changed a patch costing a
        bisect into one component's head list, serve every caller.  The pre-label protocol answered
        this with an unbounded BFS flood per asker; the label layer's
        ``component_members`` walk was bounded but still O(component)
        per asker per scan."""
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
