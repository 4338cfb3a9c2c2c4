"""The scale bench: schema, determinism, and the regression gate.

The real matrix (1k/10k/50k) runs in CI and locally via ``repro bench
--scale``; tests shrink the size list so the whole file stays fast.
"""

import json

import pytest

from repro.perf import scale


@pytest.fixture
def tiny_matrix(monkeypatch):
    monkeypatch.setattr(scale, "SCALE_SIZES_FULL", (120, 250))
    monkeypatch.setattr(scale, "SCALE_SIZES_QUICK", (120,))
    monkeypatch.setattr(scale, "ROUNDS", 2)
    monkeypatch.setattr(scale, "CHURN_TIMERS", 200)
    # Keep the churned slice under the delta-rebuild dirty threshold
    # (25 %) at the shrunken population sizes.
    monkeypatch.setattr(scale, "CHURN_NODES", 16)
    # Protocol phase, shrunk the same way: one small population, short
    # phases, and a moat scaled to the smaller area — still wider than
    # the transmission range (so the cut genuinely partitions) and
    # still under the dirty threshold (so detection rides the deltas).
    monkeypatch.setattr(scale, "PROTOCOL_SIZES_FULL", (200,))
    monkeypatch.setattr(scale, "PROTOCOL_SIZES_QUICK", (200,))
    monkeypatch.setattr(scale, "SETTLE_S", 6.0)
    monkeypatch.setattr(scale, "STORM_ENTRANTS", 8)
    monkeypatch.setattr(scale, "STORM_DRAIN_S", 5.0)
    monkeypatch.setattr(scale, "RECOVER_S", 8.0)
    monkeypatch.setattr(scale, "HEAL_S", 4.0)
    monkeypatch.setattr(scale, "MOAT_INNER_M", 150.0)
    monkeypatch.setattr(scale, "MOAT_OUTER_M", 320.0)


def test_payload_schema_and_structure(tiny_matrix):
    payload = scale.run_scale()
    assert payload["schema"] == scale.SCALE_SCHEMA_VERSION
    assert set(payload["sizes"]) == {"120", "250"}
    for cell in payload["sizes"].values():
        assert set(cell) >= {"n", "area_side_m", "rounds", "wall",
                             "graph", "heap", "churn", "counters"}
        assert cell["wall"]["build_s"] > 0
        assert cell["graph"]["edges"] > 0
        assert cell["graph"]["shards"] >= 1
        assert cell["counters"]["graph_rebuilds"] >= 1
        churn = cell["churn"]
        assert churn["rounds"] == scale.CHURN_FAULT_ROUNDS
        assert churn["nodes_per_round"] >= 1
        assert churn["counters_delta"]["graph_node_invalidations"] > 0
        # Constant density: larger n means a larger area.
    assert (payload["sizes"]["250"]["area_side_m"]
            > payload["sizes"]["120"]["area_side_m"])
    assert set(payload["protocol"]) == {"200"}
    proto = payload["protocol"]["200"]
    assert set(proto) >= {"n", "heads", "spilled", "bootstrap", "phases",
                          "final", "heap", "counters"}
    assert set(proto["phases"]) == {"settle", "storm", "detect", "recover",
                                    "heal"}
    assert proto["bootstrap"]["wall_s"] > 0
    assert proto["heads"] >= 1


def test_deterministic_sections_are_reproducible(tiny_matrix):
    a = scale.run_scale()
    b = scale.run_scale()
    for size in a["sizes"]:
        for key in ("counters", "graph", "heap"):
            assert a["sizes"][size][key] == b["sizes"][size][key]
    for size in a["protocol"]:
        pa, pb = a["protocol"][size], b["protocol"][size]
        for key in ("counters", "final", "heads", "spilled", "heap"):
            assert pa[key] == pb[key]
        for phase in pa["phases"]:
            assert (pa["phases"][phase]["counters_delta"]
                    == pb["phases"][phase]["counters_delta"])


def test_quick_mode_is_a_comparable_prefix_of_full(tiny_matrix):
    """The CI smoke (quick) must gate cleanly against a full baseline."""
    full = scale.run_scale()
    quick = scale.run_scale(quick=True)
    assert list(quick["sizes"]) == ["120"]
    assert quick["sizes"]["120"]["rounds"] == full["sizes"]["120"]["rounds"]
    assert scale.check_scale_regression(quick, full) == []


def test_gate_flags_counter_regressions_and_structure_drift(tiny_matrix):
    baseline = scale.run_scale(quick=True)
    run = json.loads(json.dumps(baseline))  # deep copy
    assert scale.check_scale_regression(run, baseline) == []
    cell = run["sizes"]["120"]
    cell["counters"]["bfs_calls"] = int(
        baseline["sizes"]["120"]["counters"]["bfs_calls"] * 2)
    cell["graph"]["edges"] += 1
    failures = scale.check_scale_regression(run, baseline)
    assert any("bfs_calls regressed" in f for f in failures)
    assert any("graph edges changed" in f for f in failures)
    # Improvements (counters below baseline) never fail.
    cell["counters"]["bfs_calls"] = 1
    cell["graph"]["edges"] -= 1
    assert scale.check_scale_regression(run, baseline) == []


def test_gate_refuses_incomparable_round_counts(tiny_matrix):
    baseline = scale.run_scale(quick=True)
    run = json.loads(json.dumps(baseline))
    run["sizes"]["120"]["rounds"] = baseline["sizes"]["120"]["rounds"] + 1
    failures = scale.check_scale_regression(run, baseline)
    assert any("rounds differ" in f for f in failures)


def test_cli_writes_payload_and_checks(tiny_matrix, tmp_path):
    out = tmp_path / "BENCH_scale.json"
    assert scale.main(["--quick", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["quick"] is True
    # A second run gates green against the first.
    out2 = tmp_path / "BENCH_scale_2.json"
    rc = scale.main(["--quick", "--out", str(out2),
                     "--check", "--baseline", str(out)])
    assert rc == 0
    assert scale.main(["--check", "--quick", "--out", str(out2),
                       "--baseline", str(tmp_path / "missing.json")]) == 2


def test_mobile_fraction_keeps_delta_path_active(tiny_matrix):
    """The workload must exercise the regime it claims to measure:
    delta rebuilds with a small dirty set, static skip doing the bulk."""
    payload = scale.run_scale(quick=True)
    counters = payload["sizes"]["120"]["counters"]
    assert counters["graph_delta_rebuilds"] >= 1
    assert counters["graph_full_rebuilds"] >= 1  # the initial build
    # Static skip: recomputed positions per refresh ~= mobile count,
    # far below n * refreshes.
    n = 120
    refreshes = counters["graph_rebuilds"]
    assert counters["graph_positions_recomputed"] < n * refreshes / 2
    # Shard dirty tracking: delta refreshes touch fewer shards than a
    # full rebuild's total (full rebuilds count every occupied shard).
    assert counters["graph_shards_touched"] > 0


def test_fault_churn_rides_the_node_scoped_delta_path(tiny_matrix):
    """Crash/restart churn must be absorbed by delta rebuilds scoped to
    the churned slice — the invalidate_nodes contract."""
    payload = scale.run_scale(quick=True)
    cell = payload["sizes"]["120"]
    churn = cell["churn"]
    delta = churn["counters_delta"]
    # Two invalidation batches (crash, restart) per churn round, each
    # counting every churned node...
    expected = 2 * churn["rounds"] * churn["nodes_per_round"]
    assert delta["graph_node_invalidations"] == expected
    # ...each absorbed by a delta rebuild, never a full one.
    assert delta["graph_delta_rebuilds"] == 2 * churn["rounds"]
    assert delta.get("graph_full_rebuilds", 0) == 0
    # Dirty work is sized by the churned slice, not the population.
    assert delta["graph_delta_dirty_nodes"] == expected


def test_gate_flags_churn_delta_regressions(tiny_matrix):
    baseline = scale.run_scale(quick=True)
    run = json.loads(json.dumps(baseline))
    churn = run["sizes"]["120"]["churn"]
    churn["counters_delta"]["graph_delta_dirty_nodes"] *= 2
    failures = scale.check_scale_regression(run, baseline)
    assert any("churn graph_delta_dirty_nodes regressed" in f
               for f in failures)
    # Incomparable churn shapes refuse instead of comparing.
    churn["rounds"] += 1
    failures = scale.check_scale_regression(run, baseline)
    assert any("churn rounds differ" in f for f in failures)


def test_protocol_phase_rides_the_labels(tiny_matrix):
    """The partition/heal cycle must satisfy the run invariants the CI
    gate enforces: a detect window with zero unbounded BFS walks and
    zero full relabels, and a healed network with unique addresses."""
    payload = scale.run_scale(quick=True)
    assert scale._check_run_invariants(payload) == []
    proto = payload["protocol"]["200"]
    detect = proto["phases"]["detect"]
    assert detect["counters_delta"].get("bfs_unbounded", 0) == 0
    assert detect["counters_delta"].get("conn_full_relabels", 0) == 0
    # The cut genuinely partitioned the population...
    assert detect["moat_nodes"] > 0
    assert 0 < detect["corner_component"] <= detect["corner_nodes"]
    # ...and the detect-window relabel work was sized by the cut-off
    # corner, not the population.
    relabeled = detect["counters_delta"].get("conn_slots_relabeled", 0)
    assert relabeled <= detect["moat_nodes"] + detect["corner_nodes"]
    storm = proto["phases"]["storm"]
    assert storm["configured"] == storm["entrants"]
    assert proto["final"]["addresses_unique"] is True
    # The storm's role transitions patch the component tables node by
    # node; only graph changes rebuild them.
    assert storm["counters_delta"]["comp_table_node_patches"] > 0
    for name in ("settle", "storm"):
        delta = proto["phases"][name]["counters_delta"]
        assert (delta.get("comp_table_full_builds", 0)
                <= delta["graph_rebuilds"])


def test_gate_flags_role_triggered_table_builds(tiny_matrix):
    baseline = scale.run_scale(quick=True)
    run = json.loads(json.dumps(baseline))
    storm = run["protocol"]["200"]["phases"]["storm"]["counters_delta"]
    storm["comp_table_full_builds"] = storm["graph_rebuilds"] + 1
    failures = scale.check_scale_regression(run, baseline)
    assert any("storm window made" in f and "comp_table_full_builds" in f
               for f in failures)


def test_gate_flags_protocol_invariant_violations(tiny_matrix):
    baseline = scale.run_scale(quick=True)
    run = json.loads(json.dumps(baseline))
    detect = run["protocol"]["200"]["phases"]["detect"]
    detect["counters_delta"]["bfs_unbounded"] = 7
    failures = scale.check_scale_regression(run, baseline)
    assert any("detect window issued 7 bfs_unbounded" in f
               for f in failures)
    detect["counters_delta"].pop("bfs_unbounded")
    run["protocol"]["200"]["final"]["addresses_unique"] = False
    failures = scale.check_scale_regression(run, baseline)
    assert any("duplicate addresses" in f for f in failures)


def test_gate_compares_protocol_sections(tiny_matrix):
    baseline = scale.run_scale(quick=True)
    run = json.loads(json.dumps(baseline))
    proto = run["protocol"]["200"]
    proto["heads"] += 1
    storm = proto["phases"]["storm"]["counters_delta"]
    storm["send_unicast"] = int(storm.get("send_unicast", 10) * 3)
    failures = scale.check_scale_regression(run, baseline)
    assert any("heads changed" in f for f in failures)
    assert any("storm send_unicast regressed" in f for f in failures)


def test_committed_baseline_matches_schema():
    """BENCH_scale.json at the repo root stays loadable and current."""
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "BENCH_scale.json"
    assert path.exists(), "repo-root BENCH_scale.json baseline missing"
    payload = json.loads(path.read_text())
    assert payload["schema"] == scale.SCALE_SCHEMA_VERSION
    assert set(payload["sizes"]) == {"1000", "10000", "50000"}
    for cell in payload["sizes"].values():
        assert cell["graph"]["edges"] > 0
        assert cell["counters"]
    # The headline scaling fact: a localized restart storm touches a
    # constant handful of shards per rebuild (the cluster's footprint),
    # while the shard population keeps growing with n.
    big = payload["sizes"]["50000"]
    delta = big["churn"]["counters_delta"]
    touched_per_rebuild = (delta["graph_shards_touched"]
                           / delta["graph_delta_rebuilds"])
    assert touched_per_rebuild * 10 <= big["graph"]["shards"]
    # Schema v3: the full-protocol cells, and their headline fact —
    # detect-window relabel cost tracks the cut-off component (a
    # couple hundred slots), not the 10x larger population.
    assert set(payload["protocol"]) == {"1000", "10000"}
    assert scale._check_run_invariants(payload) == []
    for cell in payload["protocol"].values():
        storm = cell["phases"]["storm"]
        assert storm["configured"] == storm["entrants"]
        assert cell["final"]["networks"] == 1
    small = payload["protocol"]["1000"]["phases"]["detect"]["counters_delta"]
    large = payload["protocol"]["10000"]["phases"]["detect"]["counters_delta"]
    assert large["conn_slots_relabeled"] <= 2 * max(
        small["conn_slots_relabeled"], 1)
