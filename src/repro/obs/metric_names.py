"""The registry of run-level metric names (``repro.obs.metrics``).

Every gauge the :class:`~repro.obs.metrics.MetricsRecorder` samples is
named here, mirroring the perf-counter registry in
:mod:`repro.perf.counters`: emission sites reference these constants
(or the family helpers below), and the whole-program lint's
``metric-registry`` rule flags any ``metrics.record(...)`` call whose
literal name is not registered.  Keeping the vocabulary in one place is
what lets dashboards, the ``repro metrics`` renderer and the sweep
aggregation treat series names as a stable schema.

Three metric *families* are keyed by run-dependent vocabulary — role
names, message categories — and cannot be enumerated as constants.
They get helper functions (:func:`role_metric`, :func:`msg_metric`,
:func:`drop_metric`) with registered prefixes instead; the lint rule
only checks literal names, so family names must be built through the
helpers, never spelled inline.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

# --- agent aggregates (one walk over the registered agents) -----------
AGENTS_LIVE = "agents_live"                  # registered, dead ones too
AGENTS_CONFIGURED = "agents_configured"      # alive, with an address
QDSET_SIZE_TOTAL = "qdset_size_total"        # sum of |QDSet| over heads
VOTE_TIMERS = "vote_timers"                  # live allocator vote timers

# --- address space (repro.addrspace.pool over live heads) -------------
POOL_FREE = "pool_free"                      # unallocated addresses
POOL_ALLOCATED = "pool_allocated"            # addresses handed out

# --- topology (passive reads; never force a rebuild) ------------------
COMPONENT_COUNT = "component_count"          # as of the last relabel
GRAPH_VERSION = "graph_version"              # graph-content generation

# --- simulator internals ----------------------------------------------
HEAP_SIZE = "heap_size"                      # live events + tombstones
HEAP_COMPACTIONS = "heap_compactions"        # cumulative compactions
PENDING_EVENTS = "pending_events"            # live events queued

# --- metric families (dynamic vocabulary, registered by prefix) -------
ROLE_PREFIX = "role_"
MSGS_PREFIX = "msgs_"
DROPS_PREFIX = "drops_"


def role_metric(role: Optional[str]) -> str:
    """Gauge name for the population count of one role (``role_head``,
    ``role_common``, ...; the empty role maps to ``role_none``)."""
    return ROLE_PREFIX + (role or "none")


def msg_metric(category: str) -> str:
    """Per-sample message count for one transport category."""
    return MSGS_PREFIX + category


def drop_metric(category: str) -> str:
    """Per-sample fault-dropped message count for one category."""
    return DROPS_PREFIX + category


#: Every statically named metric.  Family names (``role_*`` / ``msgs_*``
#: / ``drops_*``) are built via the helpers above and are deliberately
#: not enumerated here.
ALL_METRICS: FrozenSet[str] = frozenset({
    AGENTS_LIVE,
    AGENTS_CONFIGURED,
    QDSET_SIZE_TOTAL,
    VOTE_TIMERS,
    POOL_FREE,
    POOL_ALLOCATED,
    COMPONENT_COUNT,
    GRAPH_VERSION,
    HEAP_SIZE,
    HEAP_COMPACTIONS,
    PENDING_EVENTS,
})
