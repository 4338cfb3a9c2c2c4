"""Per-layer metrics of the traced run, computed from folded spans and counts.

:data:`PER_LAYER` is the list ``BENCHMARK.json`` declares, in order.
Each metric is one of:

* a count from the program's own deterministic tallies (perf counters,
  protocol event tallies, message stats) summed over the pass;
* a span count or self time from :func:`tracer.fold`;
* a number from the untraced pass of the same run (the scale phases and
  the failure share: tracing never measures end-to-end time).

A metric that does not apply to a workload (``baselines.*`` on the
quorum-only workloads, the scale phases elsewhere) reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tracer import LAYERS, span_layer

#: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.events", "count", "lower"),
    ("sim.dispatch_self_s", "s", "lower"),
    ("sim.heap_compactions", "count", "lower"),
    ("net.send.unicast", "count", "lower"),
    ("net.send.flood", "count", "lower"),
    ("net.send.neighbors", "count", "lower"),
    ("net.send.self_s", "s", "lower"),
    ("net.send.delivered_ratio", "ratio", "higher"),
    ("net.deliver.calls", "count", "lower"),
    ("net.deliver.self_s", "s", "lower"),
    ("net.msgs", "count", "lower"),
    ("net.drops", "count", "lower"),
    ("net.topology.query.calls", "count", "lower"),
    ("net.topology.query.self_s", "s", "lower"),
    ("net.topology.rebuilds", "count", "lower"),
    ("net.topology.full_rebuilds", "count", "lower"),
    ("net.topology.positions_recomputed", "count", "lower"),
    ("net.bfs.calls", "count", "lower"),
    ("net.bfs.nodes_expanded", "count", "lower"),
    ("net.bfs.cache_hit_ratio", "ratio", "higher"),
    ("net.bfs.unbounded", "count", "lower"),
    ("net.conn.full_relabels", "count", "lower"),
    ("net.conn.slots_relabeled", "count", "lower"),
    ("net.hello.heads_within.calls", "count", "lower"),
    ("net.hello.heads_within.self_s", "s", "lower"),
    ("net.context.is_head.calls", "count", "lower"),
    ("net.context.is_head.self_s", "s", "lower"),
    ("net.context.component_heads.calls", "count", "lower"),
    ("net.context.component_heads.self_s", "s", "lower"),
    ("core.audit.events", "count", "lower"),
    ("core.audit.self_s", "s", "lower"),
    ("core.merge_scan.events", "count", "lower"),
    ("core.merge_scan.self_s", "s", "lower"),
    ("core.orphan_check.events", "count", "lower"),
    ("core.orphan_check.self_s", "s", "lower"),
    ("core.msg.calls", "count", "lower"),
    ("core.msg.self_s", "s", "lower"),
    ("core.timeout.events", "count", "lower"),
    ("core.timeout.self_s", "s", "lower"),
    ("core.config.attempts_per_success", "ratio", "lower"),
    ("core.reclaim.initiated", "count", "lower"),
    ("core.quorum.shrinks", "count", "lower"),
    ("quorum.decide.calls", "count", "lower"),
    ("quorum.decide.self_s", "s", "lower"),
    ("addrspace.pool.calls", "count", "lower"),
    ("addrspace.pool.self_s", "s", "lower"),
    ("baselines.msg.calls", "count", "lower"),
    ("baselines.msg.self_s", "s", "lower"),
    ("baselines.timer.self_s", "s", "lower"),
    ("experiments.run.self_s", "s", "lower"),
    ("experiments.bootstrap_s", "s", "lower"),
] + [(f"layer.{layer}.self_s", "s", "lower")
     for layer in LAYERS + ("other",)] + [
    ("wall_raw_s", "s", "lower"),
    ("settle_s", "s", "lower"),
    ("storm_s", "s", "lower"),
    ("alloc_fail_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}

#: Counter-backed metrics: metric name -> the program's tally name.
COUNTED = {
    "sim.heap_compactions": "heap_compactions",
    "net.send.unicast": "send_unicast",
    "net.send.flood": "send_flood",
    "net.send.neighbors": "send_neighbors",
    "net.msgs": "msgs",
    "net.drops": "drops",
    "net.topology.rebuilds": "graph_rebuilds",
    "net.topology.full_rebuilds": "graph_full_rebuilds",
    "net.topology.positions_recomputed": "graph_positions_recomputed",
    "net.bfs.calls": "bfs_calls",
    "net.bfs.nodes_expanded": "bfs_nodes_expanded",
    "net.bfs.unbounded": "bfs_unbounded",
    "net.conn.full_relabels": "conn_full_relabels",
    "net.conn.slots_relabeled": "conn_slots_relabeled",
    "core.reclaim.initiated": "reclamation_initiated",
    "core.quorum.shrinks": "quorum_shrink",
}

def event_group(name: str) -> Optional[str]:
    """The per-layer event metric an event span (``module:qualname``)
    belongs to, or ``None``."""
    module, _, qualname = name.partition(":")
    method = qualname.rsplit(".", 1)[-1]
    if qualname == "Transport._deliver":
        return "net.deliver"
    if module.startswith("repro.core."):
        if method in ("_audit", "_merge_scan", "_orphan_check"):
            return "core." + method[1:]
        if "timeout" in method or "expire" in method:
            return "core.timeout"
    if module.startswith("repro.baselines."):
        return "baselines.timer"
    return None


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(folded: Dict[str, Tuple[int, float]], counts: Dict[str, float],
              sends: int, sends_delivered: int,
              untraced: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric.

    ``untraced`` carries what the untraced passes measured: ``wall_s``
    and ``traced_wall_s`` (both normalized, see clock.py),
    ``wall_raw_s``, ``bootstrap_s``, the two phase times and
    ``alloc_fail_frac``.
    """
    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, tally in COUNTED.items():
        out[metric] = counts.get(tally, 0)
    for name, (calls, self_s) in folded.items():
        if name == "bench.reference":
            continue
        out[f"layer.{span_layer(name)}.self_s"] += self_s
        if ":" in name:
            out["sim.events"] += calls
            group = event_group(name)
            if group is None:
                continue
            out[group + ".self_s"] += self_s
            if group + ".events" in out:
                out[group + ".events"] += calls
            elif group + ".calls" in out:
                out[group + ".calls"] += calls
        elif name + ".self_s" in out:
            count_key = name + (".calls" if name + ".calls" in out
                                else ".events")
            if count_key in out:
                out[count_key] += calls
            out[name + ".self_s"] += self_s
    out["sim.dispatch_self_s"] = folded.get("sim.run", (0, 0.0))[1]
    out["net.send.self_s"] = folded.get("net.send", (0, 0.0))[1]
    out["experiments.run.self_s"] = folded.get("experiments.run", (0, 0.0))[1]
    out["net.send.delivered_ratio"] = _ratio(sends_delivered, sends)
    hits = counts.get("bfs_cache_hits", 0)
    out["net.bfs.cache_hit_ratio"] = _ratio(
        hits, hits + counts.get("bfs_calls", 0))
    out["core.config.attempts_per_success"] = _ratio(
        counts.get("quorum_attempts", 0), counts.get("quorum_configured", 0))
    for key in ("experiments.bootstrap_s", "wall_raw_s", "settle_s",
                "storm_s", "alloc_fail_frac"):
        out[key] = untraced.get(key, 0.0)
    out["trace.overhead_frac"] = (
        untraced["traced_wall_s"] / untraced["wall_s"] - 1.0)
    return out
