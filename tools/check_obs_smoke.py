#!/usr/bin/env python3
"""Asserts the bench observability surface is well-formed.

Usage: check_obs_smoke.py BENCH_JSON OBS_JSONL [--expect-counters]

Checks that the micro_core trajectory JSON parses, that every timed row
carries an `obs` block whose decisions name the Auto-policy pick
(ReportMode, the baselines' scan cutoffs) together with the inputs that
decided it, and that
the --obs-trace JSONL parses line by line.  With --expect-counters (an
-DAGTRAM_OBS=ON binary) it additionally requires counter deltas on the rows
and per-round gauge lines in the trace.
"""
import json
import sys

MECHANISM_DECISIONS = [
    "report_mode_requested",
    "report_mode_resolved",
    "auto_size_biased_readers",
    "auto_effective_hot_objects",
    "auto_agent_count",
    "auto_incremental_fraction",
    "auto_min_effective_hot_objects",
    "auto_dirty_is_local",
    "auto_demand_is_dispersed",
    "parallel_agents",
    "parallel_min_agents",
    "pool_workers",
]
BASELINE_DECISIONS = [
    "parallel_scan",
    "scan_min_servers",
    "scan_servers",
    "pool_workers",
]
REGIONAL_DECISIONS = [
    "regions",
    "execution",
    "cooperative",
    "parallel_agents",
    "pool_workers",
]
ONLINE_DECISIONS = [
    "batches",
    "max_repair_rounds",
    "differential_oracle",
    "report_mode_requested",
    "parallel_agents",
    "pool_workers",
]
# Counters the online engine must have bumped across a timed stream when the
# binary is instrumented (-DAGTRAM_OBS=ON).
ONLINE_COUNTERS = ["online.batches", "online.events"]
SERVING_DECISIONS = [
    "batches",
    "policy",
    "volume_drift_threshold",
    "cost_regression_threshold",
    "min_window_requests",
    "eviction_limit",
    "latency_sample_every",
    "shards",
    "pool_workers",
]
# Counters the serving layer must have bumped across the instrumented OnDrift
# replay: routed traffic, batches, snapshot publications, and — the family's
# whole point — the drift trigger actually firing under the bench's drift
# schedule (the stream is deterministic per seed).
SERVING_COUNTERS = [
    "srv.requests",
    "srv.batches",
    "srv.reads_routed",
    "srv.snapshot_installs",
    "srv.drift_triggers",
]
STRATEGIC_DECISIONS = [
    "payment_rule",
    "report_mode_requested",
    "agents_to_probe",
    "inflate_factors",
    "deflate_factors",
    "collusion_size",
]
# The audit sweep runs one full mechanism per (agent, factor) trial with a
# DominanceAuditor installed, so the instrumented run must show trials,
# audited rounds, and per-round dominance checks.
STRATEGIC_COUNTERS = ["audit.trials", "audit.rounds", "audit.checks"]
GLAUBER_DECISIONS = [
    "sweeps",
    "initial_temperature_fraction",
    "cooling_rate",
    "bus_attached",
]
GLAUBER_COUNTERS = ["glauber.sweeps", "glauber.proposals", "glauber.accepted"]
TREE_DECISIONS = ["shape", "arity", "strategy"]


def fail(message):
    print(f"check_obs_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_decisions(row, keys, where):
    obs = row.get("obs")
    if not isinstance(obs, dict):
        fail(f"{where}: missing obs block")
    decisions = obs.get("decisions")
    if not isinstance(decisions, dict):
        fail(f"{where}: obs block has no decisions")
    for key in keys:
        if key not in decisions:
            fail(f"{where}: decisions missing '{key}'")
    return obs


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    expect_counters = "--expect-counters" in sys.argv[1:]
    if len(args) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_JSON OBS_JSONL [--expect-counters]")
    bench_path, trace_path = args

    with open(bench_path) as fh:
        rows = json.load(fh)["results"]

    mech = [r for r in rows if r.get("benchmark") == "mechanism_full_run"]
    auto = [r for r in rows if r.get("benchmark") == "mechanism_auto_mode"]
    base = [r for r in rows if r.get("benchmark") == "baseline_run"]
    regional = [
        r
        for r in rows
        if r.get("benchmark") in ("regional_engine_run", "regional_tiled_run")
    ]
    online = [r for r in rows if r.get("benchmark") == "online_event_run"]
    online_identity = [
        r for r in rows if r.get("benchmark") == "online_identity_check"
    ]
    online_speedup = [
        r for r in rows if r.get("benchmark") == "online_speedup"
    ]
    serving = [r for r in rows if r.get("benchmark") == "serving_replay_run"]
    serving_identity = [
        r for r in rows if r.get("benchmark") == "serving_identity_check"
    ]
    serving_speedup = [
        r for r in rows if r.get("benchmark") == "serving_speedup"
    ]
    strategic = [
        r for r in rows if r.get("benchmark") == "strategic_audit_run"
    ]
    strategic_checks = [
        r
        for r in rows
        if r.get("benchmark")
        in ("strategic_dominance_check", "strategic_damage_check")
    ]
    glauber = [r for r in rows if r.get("benchmark") == "glauber_run"]
    glauber_identity = [
        r for r in rows if r.get("benchmark") == "glauber_identity_check"
    ]
    tree = [r for r in rows if r.get("benchmark") == "tree_placement_run"]
    tree_checks = [
        r for r in rows if r.get("benchmark") == "tree_optimality_check"
    ]
    if not mech or not auto or not base or not regional or not online \
            or not serving or not strategic or not glauber or not tree:
        fail(
            f"{bench_path}: expected mechanism_full_run / mechanism_auto_mode"
            f" / baseline_run / regional / online / serving / strategic /"
            f" glauber / tree rows, got"
            f" {len(mech)}/{len(auto)}/{len(base)}/{len(regional)}"
            f"/{len(online)}/{len(serving)}/{len(strategic)}/{len(glauber)}"
            f"/{len(tree)}"
        )

    for row in mech + auto:
        obs = check_decisions(
            row, MECHANISM_DECISIONS, f"{row['benchmark']} row"
        )
        decisions = obs["decisions"]
        if decisions["report_mode_resolved"] not in ("naive", "incremental"):
            fail(
                "resolved mode must be concrete, got "
                f"'{decisions['report_mode_resolved']}'"
            )
        if expect_counters:
            if not obs.get("enabled"):
                fail(f"{row['benchmark']} row: obs.enabled is false")
            if not obs.get("counters"):
                fail(f"{row['benchmark']} row: no counter deltas")
    for row in auto:
        if row["obs"]["decisions"]["report_mode_requested"] != "auto":
            fail("mechanism_auto_mode row did not request auto")
    for row in base:
        obs = check_decisions(row, BASELINE_DECISIONS, "baseline_run row")
        if obs["decisions"]["parallel_scan"] != row["parallel_scan"]:
            fail(
                "baseline_run parallel_scan disagrees with the row's"
                " parallel_scan field"
            )
    for row in regional:
        obs = check_decisions(row, REGIONAL_DECISIONS, f"{row['benchmark']} row")
        decisions = obs["decisions"]
        if decisions["execution"] not in ("serial", "sharded"):
            fail(
                "regional execution must be serial or sharded, got "
                f"'{decisions['execution']}'"
            )
        if decisions["execution"] != row.get("execution"):
            fail("regional obs execution disagrees with the row's field")
        if expect_counters:
            if not obs.get("enabled"):
                fail(f"{row['benchmark']} row: obs.enabled is false")
            if not obs.get("counters"):
                fail(f"{row['benchmark']} row: no counter deltas")

    for row in online:
        obs = check_decisions(row, ONLINE_DECISIONS, "online_event_run row")
        if expect_counters:
            if not obs.get("enabled"):
                fail("online_event_run row: obs.enabled is false")
            counters = obs.get("counters") or {}
            for key in ONLINE_COUNTERS:
                if key not in counters:
                    fail(f"online_event_run row: counters missing '{key}'")
    for row in online_identity:
        if not row.get("oracle_checks"):
            fail("online_identity_check row ran no oracle re-solves")
        if not row.get("ok"):
            fail("online_identity_check row reports ok=false")
    for row in online_speedup:
        if row.get("gated") and not row.get("ok"):
            fail(
                "online_speedup row under its floor "
                f"({row.get('speedup_per_event')}x < {row.get('floor')}x)"
            )

    for row in serving:
        obs = check_decisions(row, SERVING_DECISIONS, "serving_replay_run row")
        if obs["decisions"]["policy"] != "ondrift":
            fail("serving_replay_run row must be the ondrift policy")
        if not row.get("requests"):
            fail("serving_replay_run row routed no requests")
        if expect_counters:
            if not obs.get("enabled"):
                fail("serving_replay_run row: obs.enabled is false")
            counters = obs.get("counters") or {}
            for key in SERVING_COUNTERS:
                if key not in counters:
                    fail(f"serving_replay_run row: counters missing '{key}'")
    for row in serving_identity:
        if not row.get("cells"):
            fail("serving_identity_check row scanned no cells")
        if not row.get("ok"):
            fail("serving_identity_check row reports ok=false")
    for row in serving_speedup:
        if row.get("gated") and not row.get("ok"):
            fail(
                "serving_speedup row under its floor "
                f"({row.get('speedup')}x < {row.get('floor')}x)"
            )

    for row in strategic:
        obs = check_decisions(
            row, STRATEGIC_DECISIONS, "strategic_audit_run row"
        )
        if not row.get("trials"):
            fail("strategic_audit_run row swept no trials")
        if row.get("round_violations"):
            fail("strategic_audit_run row saw per-round dominance violations")
        if expect_counters:
            if not obs.get("enabled"):
                fail("strategic_audit_run row: obs.enabled is false")
            counters = obs.get("counters") or {}
            for key in STRATEGIC_COUNTERS:
                if key not in counters:
                    fail(f"strategic_audit_run row: counters missing '{key}'")
    dominance = [
        r
        for r in strategic_checks
        if r.get("benchmark") == "strategic_dominance_check"
    ]
    damage = [
        r
        for r in strategic_checks
        if r.get("benchmark") == "strategic_damage_check"
    ]
    if not dominance or not damage:
        fail("missing strategic_dominance_check / strategic_damage_check rows")
    for row in strategic_checks:
        if not row.get("ok"):
            fail(f"{row['benchmark']} row reports ok=false")

    for row in glauber:
        obs = check_decisions(row, GLAUBER_DECISIONS, "glauber_run row")
        if not obs["decisions"]["bus_attached"]:
            fail("glauber_run row ran without a MessageBus")
        if not row.get("wire_proposal_bytes") or \
                not row.get("wire_decision_bytes"):
            fail("glauber_run row put no bytes on the wire")
        if expect_counters:
            if not obs.get("enabled"):
                fail("glauber_run row: obs.enabled is false")
            counters = obs.get("counters") or {}
            for key in GLAUBER_COUNTERS:
                if key not in counters:
                    fail(f"glauber_run row: counters missing '{key}'")
    if not glauber_identity:
        fail("missing glauber_identity_check row")
    for row in glauber_identity:
        if not row.get("ok"):
            fail("glauber_identity_check row reports ok=false")

    for row in tree:
        # The agt-ram context row reuses the mechanism; only the
        # Benoit-Rehn-Robert variants carry tree decisions.
        if row.get("variant") not in ("exact", "greedy"):
            continue
        obs = check_decisions(row, TREE_DECISIONS, "tree_placement_run row")
        if obs["decisions"]["strategy"] != row["variant"]:
            fail("tree_placement_run strategy disagrees with the row variant")
    if not tree_checks:
        fail("missing tree_optimality_check row")
    for row in tree_checks:
        if not row.get("ok"):
            fail("tree_optimality_check row reports ok=false")

    metas, rounds = 0, 0
    with open(trace_path) as fh:
        for n, line in enumerate(fh, 1):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as err:
                fail(f"{trace_path}:{n}: invalid JSON ({err})")
            kind = entry.get("kind")
            if kind == "meta":
                metas += 1
                if "decisions" not in entry.get("data", {}):
                    fail(f"{trace_path}:{n}: meta line without decisions")
            elif kind == "round":
                rounds += 1
                if "round" not in entry:
                    fail(f"{trace_path}:{n}: round line without round index")
                if len(entry) < 3:
                    fail(f"{trace_path}:{n}: round line carries no gauges")
            else:
                fail(f"{trace_path}:{n}: unknown kind '{kind}'")
    if metas == 0:
        fail(f"{trace_path}: no meta lines")
    if expect_counters and rounds == 0:
        fail(f"{trace_path}: instrumented run produced no round lines")

    print(
        f"check_obs_smoke: OK — {len(mech)} mechanism rows, {len(auto)} auto"
        f" rows, {len(base)} baseline rows, {len(regional)} regional rows,"
        f" {len(online)} online rows, {len(serving)} serving rows,"
        f" {len(strategic)} strategic rows, {len(glauber)} glauber rows,"
        f" {len(tree)} tree rows, {metas} traces, {rounds} round"
        f" lines{' (counters required)' if expect_counters else ''}"
    )


if __name__ == "__main__":
    main()
