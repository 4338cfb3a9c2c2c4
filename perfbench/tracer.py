"""Span tracing of the simulator from outside, for the traced run.

Two public seams give the spans, and no file of the program changes:

* every fired event, through :meth:`Simulator.set_profile_hook`.  The
  hook is installed on each run's simulator as the run is built (the
  tracer wraps :meth:`NetworkContext.build`).  An event span is named by
  its callback's ``module:qualname``, looking through the
  :class:`Timer`/:class:`PeriodicTimer` trampolines, so ``_audit``,
  ``_merge_scan`` and ``_orphan_check`` each get their own name;
* calls into each layer's public functions, wrapped at class level
  (:data:`WRAPPED`), so a call's span nests under the event that caused
  it.  One private method is wrapped too: ``_orphan_check`` runs inside
  every ``_merge_scan`` event and has no event of its own.

Spans stay in memory (parallel arrays: name, parent, start, end) until
the pass ends; :func:`fold` then turns them into self time per name: a
span's duration minus the durations of its children.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

from clock import StepClock
from repro.addrspace.pool import AddressPool
from repro.baselines.base import BaseAutoconfAgent
from repro.core.partition import PartitionMixin
from repro.core.protocol import QuorumProtocolAgent
from repro.experiments.runner import ScenarioRunner
from repro.net.context import NetworkContext
from repro.net.hello import HelloService
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.quorum.voting import VoteCollector
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer

#: (class, method names, span name).  The first dotted part of a span
#: name is its layer.
WRAPPED: Tuple[Tuple[type, Tuple[str, ...], str], ...] = (
    (Simulator, ("run",), "sim.run"),
    (Transport, ("send",), "net.send"),
    (Topology, ("hops", "within_hops", "neighbors", "reachable",
                "warm_bfs"), "net.topology.query"),
    (HelloService, ("heads_within",), "net.hello.heads_within"),
    (NetworkContext, ("is_head",), "net.context.is_head"),
    (NetworkContext, ("component_heads", "component_head_networks",
                      "component_networks"), "net.context.component_heads"),
    (QuorumProtocolAgent, ("on_message",), "core.msg"),
    # Called by every _merge_scan firing, not fired as an event itself.
    (PartitionMixin, ("_orphan_check",), "core.orphan_check"),
    (VoteCollector, ("decide",), "quorum.decide"),
    (AddressPool, ("allocate", "release", "absorb_free", "absorb_assigned",
                   "absorb_free_many", "absorb_block"), "addrspace.pool"),
    (BaseAutoconfAgent, ("on_message",), "baselines.msg"),
    (ScenarioRunner, ("run",), "experiments.run"),
    # The benchmark's own reference loop (clock.py), so that its time is
    # taken out of the span it runs in.
    (StepClock, ("_sample",), "bench.reference"),
)

LAYERS = ("sim", "net", "core", "quorum", "addrspace", "baselines",
          "experiments")

_TIMER_FIRE = Timer._fire
_PERIODIC_FIRE = PeriodicTimer._fire


class SpanLog:
    """Spans as parallel arrays; ``parent`` is -1 for a root span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def dump(self, path: str) -> None:
        """Write the spans out: a header line of names, then the arrays."""
        with open(path, "wb") as sink:
            sink.write(("\t".join(self.names) + "\n").encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(sink)


def event_func(callback: Callable[..., Any]) -> Any:
    """The function an event runs, seen through timer trampolines.

    A timer event fires :meth:`Timer._fire` or
    :meth:`PeriodicTimer._fire`, which calls the protocol's callback;
    the span is named after that callback.
    """
    func = getattr(callback, "__func__", callback)
    if func is _TIMER_FIRE or func is _PERIODIC_FIRE:
        inner = callback.__self__._callback
        func = getattr(inner, "__func__", inner)
    return func


def event_name(func: Any) -> str:
    """``module:qualname`` of an event's function."""
    module = getattr(func, "__module__", None) or "?"
    qualname = getattr(func, "__qualname__", type(func).__qualname__)
    return f"{module}:{qualname}"


def span_layer(name: str) -> str:
    """The layer a span's self time is charged to."""
    if ":" in name:  # an event, named module:qualname
        parts = name.split(":", 1)[0].split(".")
        layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
    else:
        layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "other"


def fold(log: SpanLog) -> Dict[str, Tuple[int, float]]:
    """Per span name: (span count, total self seconds)."""
    starts, ends, parents, names = log.start, log.end, log.parent, log.name
    own = array("d", (end - start for start, end in zip(starts, ends)))
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    totals: Dict[str, List[float]] = {}
    for name_id, self_s in zip(names, own):
        entry = totals.setdefault(log.names[name_id], [0, 0.0])
        entry[0] += 1
        entry[1] += self_s
    return {name: (int(count), self_s)
            for name, (count, self_s) in totals.items()}


class Tracer:
    """Installs the event hook and the class-level wrappers for one pass.

    Use as a context manager; every patched attribute is restored on
    exit.  ``contexts`` collects each run's :class:`NetworkContext`.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self.contexts: List[NetworkContext] = []
        self.sends = 0
        self.sends_delivered = 0
        self._event_ids: Dict[Any, int] = {}
        self._patches: List[Tuple[type, str, Any]] = []

    # -- the engine hook ------------------------------------------------
    def hook(self, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        func = event_func(callback)
        name_id = self._event_ids.get(func)
        if name_id is None:
            name_id = self._event_ids[func] = self.log.name_id(
                event_name(func))
        log = self.log
        index = log.open(name_id)
        try:
            callback(*args)
        finally:
            log.close(index)

    # -- class-level wrappers -------------------------------------------
    def _wrap(self, owner: type, attr: str, span: str) -> None:
        original = owner.__dict__[attr]
        log = self.log
        name_id = log.name_id(span)
        counts_sends = owner is Transport

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # A layer calling itself (AddressPool.absorb_block ->
            # absorb_free) stays inside the outer span.
            if log.stack[-1] >= 0 and log.name[log.stack[-1]] == name_id:
                return original(*args, **kwargs)
            index = log.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                log.close(index)
            if counts_sends:
                self.sends += 1
                self.sends_delivered += bool(result.delivered)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_build(self) -> None:
        original = NetworkContext.__dict__["build"]
        tracer = self

        def build(cls: type, *args: Any, **kwargs: Any) -> NetworkContext:
            ctx = original.__func__(cls, *args, **kwargs)
            ctx.sim.set_profile_hook(tracer.hook)
            tracer.contexts.append(ctx)
            return ctx

        self._patches.append((NetworkContext, "build", original))
        NetworkContext.build = classmethod(build)  # type: ignore[assignment]

    def __enter__(self) -> "Tracer":
        self._wrap_build()
        for owner, attrs, span in WRAPPED:
            for attr in attrs:
                self._wrap(owner, attr, span)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for ctx in self.contexts:
            ctx.sim.set_profile_hook(None)
