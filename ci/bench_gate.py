#!/usr/bin/env python3
"""Perf-regression gate over the bench JSON artifacts.

Compares freshly-produced bench results (bench-results/bench_*.json,
written by the bench binaries during the CI Bench smoke step) against the
committed baselines (bench-results/BENCH_*.json). A scenario fails the
gate when a higher-is-better throughput metric lands below
baseline * (1 - tolerance), or when a deterministic count (completions,
peak partial matches) differs from the baseline at all.

Design choices for a shared-runner world:

  * The default tolerance is generous (25%): CI machines are noisy
    neighbours, and the gate's job is to catch the 2x cliff a refactor
    introduces, not a 10% wobble.
  * Scenarios are matched by their "scenario" key and compared only when
    present on both sides, so adding or retiring a scenario never breaks
    the gate; it reports (but does not fail on) baseline scenarios that
    disappeared from the fresh run.
  * Throughput-like metrics (events/edges per second) gate against a
    floor. Latency percentiles ride along in the JSON for humans but are
    far too machine-dependent to block a merge on.
  * Counts the engine determines (a query's completions, its peak partial
    matches, probes and join attempts, an adaptive engine's replans, a
    sharded group's retained edges and forwarded exchange items) gate on
    exact equality, whatever the tolerance: the same
    stream and queries must give the same answer on any machine, so a
    count off by one is a correctness change, not noise.
  * A missing fresh file is skipped with a note (the smoke step may run a
    subset); a missing *baseline* for a present fresh file is also only a
    note, so brand-new benches can land before their first baseline.
  * Only files the current build wrote are gated. A fresh file older than
    the library the benches link (--library, build/libstreamworks.a) was
    left by another build: it is reported stale and skipped, so it cannot
    pass for a regression (or a pass) of the tree under test.
  * --strict inverts the lenient-by-default posture for runs that are
    supposed to be complete (the nightly job): a committed baseline whose
    fresh counterpart is missing, lacks a scenario, or ran at a different
    workload size FAILS instead of skipping, and so does a stale fresh
    file. Without it, a bench that silently stopped producing a scenario
    would pass the gate forever.

The obs-overhead gate is different in kind: BENCH_obs.json carries its
own acceptance threshold (overhead.gate_pct, from the PR that measured
it), so the gate re-checks median_cpu_pct <= gate_pct on whichever file
is present (fresh if produced, else the committed baseline's
self-consistency). A cluster overhead block (median_ingest_pct) must
also prove its obs-on runs were scraped: min_scrapes, the fewest live
/metrics scrapes any of them served, must reach MIN_SCRAPES, or the
block measured an idle scraper and fails.

Usage:
  ci/bench_gate.py [--results DIR] [--baseline DIR] [--tolerance 0.25]
                   [--library FILE] [--strict]
  ci/bench_gate.py --self-test
"""

import argparse
import json
import os
import pathlib
import sys
import tempfile

# Fresh-file name -> committed baseline name. bench_micro's Google
# Benchmark JSON and the smoke wall-time roll-up are deliberately absent:
# neither carries scenario-keyed throughput rows.
PAIRS = [
    ("bench_net.json", "BENCH_net.json"),
    ("bench_net_fanout.json", "BENCH_net_fanout.json"),
    ("bench_recovery.json", "BENCH_recovery.json"),
    ("bench_cluster.json", "BENCH_cluster.json"),
    ("bench_fig2.json", "BENCH_fig2.json"),
    ("bench_fig3.json", "BENCH_fig3.json"),
    ("bench_fig5.json", "BENCH_fig5.json"),
    ("bench_fig6.json", "BENCH_fig6.json"),
    ("bench_fig7.json", "BENCH_fig7.json"),
    ("bench_ablation_selectivity.json", "BENCH_ablation_selectivity.json"),
    ("bench_ablation_triads.json", "BENCH_ablation_triads.json"),
    ("bench_ablation_adaptive.json", "BENCH_ablation_adaptive.json"),
    ("bench_baseline_comparison.json", "BENCH_baseline_comparison.json"),
    ("bench_sharding.json", "BENCH_sharding.json"),
]

# Higher-is-better metrics, in the order a bench is likely to define
# them. Every other numeric field (latency ms, byte counts, setup time)
# is informational only.
THROUGHPUT_KEYS = ("ingest_eps", "deliver_mps", "deliver_eps", "eps")

# Deterministic counts: equal to the baseline, or the scenario fails.
# max_retained / sum_retained / forwarded are bench_sharding's per-shard
# window sizes and exchange items (identical over 10 runs at 60000 edges).
# probes / join_attempts are a query's SJ-Tree work: every probe visits
# the live partial matches of one node store, so a store that keeps,
# skips or expires a different set moves them even when completions hold.
# replans is bench_ablation_adaptive's count of tree swaps.
EXACT_KEYS = ("completions", "peak_partials", "probes", "join_attempts",
              "replans", "max_retained", "sum_retained", "forwarded")

# Fewest live scrapes each obs-on run of a cluster overhead block must
# have served for its slowdown to count as measured.
MIN_SCRAPES = 2


def load(path):
    with open(path) as f:
        return json.load(f)


def index_rows(doc):
    """scenario -> row, for any bench doc with a rows[] of scenarios."""
    return {
        row["scenario"]: row
        for row in doc.get("rows", [])
        if "scenario" in row
    }


def workload_edges(doc, row):
    """A row's workload size: per-row edges, else the doc-wide count."""
    return row.get("edges", doc.get("edges"))


def gate_throughput(fresh, baseline, tolerance, label, report, strict=False):
    """Appends (ok, message) findings; returns the number of failures."""
    failures = 0
    fresh_rows = index_rows(fresh)
    base_rows = index_rows(baseline)
    for scenario, base_row in sorted(base_rows.items()):
        fresh_row = fresh_rows.get(scenario)
        if fresh_row is None:
            if strict:
                failures += 1
                report.append(
                    (False, f"{label}: '{scenario}' absent from fresh run "
                            "(strict)"))
            else:
                report.append(
                    (True, f"{label}: '{scenario}' absent from fresh run "
                           "(skipped)"))
            continue
        # Throughput at a downsized workload is dominated by fixed costs
        # (server start, file create), so only like-for-like sizes gate.
        fresh_edges = workload_edges(fresh, fresh_row)
        base_edges = workload_edges(baseline, base_row)
        if fresh_edges != base_edges:
            if strict:
                failures += 1
                report.append(
                    (False, f"{label}: '{scenario}' workload {fresh_edges} "
                            f"!= baseline {base_edges} edges (strict)"))
            else:
                report.append(
                    (True, f"{label}: '{scenario}' workload {fresh_edges} "
                           f"!= baseline {base_edges} edges (skipped)"))
            continue
        for key in THROUGHPUT_KEYS:
            base_value = base_row.get(key)
            fresh_value = fresh_row.get(key)
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            if not isinstance(fresh_value, (int, float)):
                failures += 1
                report.append(
                    (False, f"{label}: '{scenario}' lost metric {key}"))
                continue
            floor = base_value * (1.0 - tolerance)
            ratio = fresh_value / base_value
            if fresh_value < floor:
                failures += 1
                report.append(
                    (False,
                     f"{label}: '{scenario}' {key} {fresh_value:.0f} is "
                     f"{ratio:.2f}x baseline {base_value:.0f} "
                     f"(floor {floor:.0f})"))
            else:
                report.append(
                    (True,
                     f"{label}: '{scenario}' {key} {ratio:.2f}x baseline"))
        for key in EXACT_KEYS:
            base_value = base_row.get(key)
            if not isinstance(base_value, int):
                continue
            fresh_value = fresh_row.get(key)
            if fresh_value != base_value:
                failures += 1
                report.append(
                    (False, f"{label}: '{scenario}' {key} {fresh_value} != "
                            f"baseline {base_value} (counts gate exactly)"))
            else:
                report.append(
                    (True, f"{label}: '{scenario}' {key} {fresh_value} "
                           "equals baseline"))
    return failures


def gate_obs_overhead(doc, label, report):
    """Re-checks an observability overhead block against its recorded
    budget. BENCH_obs.json carries median_cpu_pct (stage hooks on a
    CPU-bound path); bench_cluster.json carries median_ingest_pct (wall
    slowdown of cluster ingest under live scraping) and min_scrapes."""
    overhead = doc.get("overhead", {})
    measured = overhead.get("median_ingest_pct",
                            overhead.get("median_cpu_pct"))
    budget = overhead.get("gate_pct")
    if not isinstance(measured, (int, float)) or not isinstance(
            budget, (int, float)):
        report.append(
            (False, f"{label}: overhead median pct / gate_pct missing"))
        return 1
    if "median_ingest_pct" in overhead:
        scrapes = overhead.get("min_scrapes")
        if not isinstance(scrapes, int):
            report.append((False, f"{label}: overhead min_scrapes missing"))
            return 1
        if scrapes < MIN_SCRAPES:
            report.append(
                (False, f"{label}: an obs-on run served {scrapes} scrapes, "
                        f"fewer than {MIN_SCRAPES}; its overhead measured "
                        "an idle scraper"))
            return 1
    if measured > budget:
        report.append(
            (False, f"{label}: observability overhead {measured:.2f}% "
                    f"exceeds its {budget:.2f}% budget"))
        return 1
    report.append(
        (True, f"{label}: observability overhead {measured:.2f}% within "
               f"{budget:.2f}% budget"))
    return 0


def is_stale(path, library):
    """True when `path` is older than the library the benches link: then
    another build wrote it. Without a library nothing can be stale."""
    return (library is not None and library.exists()
            and path.stat().st_mtime < library.stat().st_mtime)


def run_gate(results_dir, baseline_dir, tolerance, strict=False,
             library=None):
    report = []
    failures = 0
    if library is not None and not library.exists():
        report.append(
            (True, f"{library}: not found; every fresh file counts as "
                   "written by this build"))

    def written_by_this_build(path):
        """For an existing fresh file: reports a stale one, which fails
        under --strict and is skipped otherwise."""
        nonlocal failures
        if not is_stale(path, library):
            return True
        failures += int(strict)
        report.append(
            (not strict, f"{path.name}: stale, older than {library} "
                         f"({'strict' if strict else 'skipped'})"))
        return False

    for fresh_name, base_name in PAIRS:
        fresh_path = results_dir / fresh_name
        base_path = baseline_dir / base_name
        if not fresh_path.exists():
            if strict and base_path.exists():
                failures += 1
                report.append(
                    (False, f"{fresh_name}: committed baseline {base_name} "
                            "has no fresh results (strict)"))
            else:
                report.append(
                    (True, f"{fresh_name}: no fresh results (skipped)"))
            continue
        if not written_by_this_build(fresh_path):
            continue
        if not base_path.exists():
            report.append(
                (True, f"{fresh_name}: no committed baseline yet (skipped)"))
            continue
        failures += gate_throughput(load(fresh_path), load(base_path),
                                    tolerance, fresh_name, report, strict)
    obs_fresh = results_dir / "bench_obs.json"
    obs_base = baseline_dir / "BENCH_obs.json"
    if obs_fresh.exists() and written_by_this_build(obs_fresh):
        failures += gate_obs_overhead(load(obs_fresh), "bench_obs.json",
                                      report)
    elif obs_base.exists():
        failures += gate_obs_overhead(load(obs_base),
                                      "BENCH_obs.json (committed)", report)
    # Cluster observability rides the same budget discipline: the fresh
    # bench_cluster.json carries its own overhead block (interleaved
    # obs-off/obs-on ingest at 2 workers) with a recorded gate_pct.
    cluster_fresh = results_dir / "bench_cluster.json"
    cluster_base = baseline_dir / "BENCH_cluster.json"
    if (cluster_fresh.exists() and not is_stale(cluster_fresh, library)
            and "overhead" in load(cluster_fresh)):
        failures += gate_obs_overhead(load(cluster_fresh),
                                      "bench_cluster.json (obs overhead)",
                                      report)
    elif cluster_base.exists() and "overhead" in load(cluster_base):
        failures += gate_obs_overhead(
            load(cluster_base), "BENCH_cluster.json (committed obs overhead)",
            report)
    return failures, report


def self_test():
    """The gate gates itself: a clean fresh run must pass, a degraded one
    must fail, and noise inside the tolerance must not trip it."""
    baseline = {
        "bench": "net_fanout",
        "rows": [
            {"scenario": "loops1 c100", "deliver_eps": 100000.0,
             "p99_ms": 40.0},
            {"scenario": "loops4 c1000", "deliver_eps": 400000.0,
             "p99_ms": 90.0},
        ],
    }
    clean = {
        "bench": "net_fanout",
        "rows": [
            # -20% and +10%: both inside the default 25% tolerance.
            {"scenario": "loops1 c100", "deliver_eps": 80000.0,
             "p99_ms": 70.0},  # latency regressions never gate
            {"scenario": "loops4 c1000", "deliver_eps": 440000.0,
             "p99_ms": 95.0},
        ],
    }
    degraded = {
        "bench": "net_fanout",
        "rows": [
            {"scenario": "loops1 c100", "deliver_eps": 60000.0},  # -40%
            {"scenario": "loops4 c1000", "deliver_eps": 410000.0},
        ],
    }
    downsized = {
        "bench": "net_fanout",
        "edges": 100,  # smoke-sized workload: must skip, not fail
        "rows": [
            {"scenario": "loops1 c100", "deliver_eps": 1000.0},
            {"scenario": "loops4 c1000", "deliver_eps": 1000.0},
        ],
    }
    partial = {
        "bench": "net_fanout",
        "rows": [
            # One baseline scenario missing: lenient skips, strict fails.
            {"scenario": "loops1 c100", "deliver_eps": 100000.0},
        ],
    }
    report = []
    ok_failures = gate_throughput(clean, baseline, 0.25, "self-test", report)
    bad_failures = gate_throughput(degraded, baseline, 0.25, "self-test",
                                   report)
    downsized_failures = gate_throughput(downsized, baseline, 0.25,
                                         "self-test", report)
    partial_lenient = gate_throughput(partial, baseline, 0.25, "self-test",
                                      report)
    partial_strict = gate_throughput(partial, baseline, 0.25, "self-test",
                                     report, strict=True)
    downsized_strict = gate_throughput(downsized, baseline, 0.25,
                                       "self-test", report, strict=True)
    counts_base = {
        "bench": "fig5",
        "edges": 92359,
        "rows": [
            {"scenario": "news_event_politics_3", "completions": 3042,
             "peak_partials": 6654},
            {"scenario": "news_event_sports_3", "completions": 846,
             "peak_partials": 3823},
        ],
    }
    counts_same = json.loads(json.dumps(counts_base))
    counts_off_by_one = json.loads(json.dumps(counts_base))
    counts_off_by_one["rows"][1]["completions"] += 1
    counts_lost = json.loads(json.dumps(counts_base))
    del counts_lost["rows"][0]["peak_partials"]
    counts_ok = gate_throughput(counts_same, counts_base, 0.25, "self-test",
                                report)
    # Exact means exact: no tolerance, however generous, forgives a count.
    counts_bad = gate_throughput(counts_off_by_one, counts_base, 0.99,
                                 "self-test", report)
    counts_missing = gate_throughput(counts_lost, counts_base, 0.25,
                                     "self-test", report)
    sharding_base = {
        "bench": "sharding",
        "edges": 60014,
        "rows": [
            {"scenario": "broadcast 4", "completions": 17808,
             "max_retained": 14980, "sum_retained": 59920, "forwarded": 0},
            {"scenario": "partitioned 4", "completions": 17808,
             "max_retained": 6820, "sum_retained": 26236,
             "forwarded": 16951},
        ],
    }
    sharding_same = json.loads(json.dumps(sharding_base))
    sharding_regrown = json.loads(json.dumps(sharding_base))
    sharding_regrown["rows"][0]["max_retained"] = 60014  # unbounded shard
    sharding_regrown["rows"][0]["sum_retained"] = 149988
    sharding_rerouted = json.loads(json.dumps(sharding_base))
    sharding_rerouted["rows"][1]["forwarded"] += 1
    # fig7's rows are query plans, not queries; each plan's counts gate
    # exactly like a query's.
    plans_base = {
        "bench": "fig7",
        "edges": 40006,
        "rows": [
            {"scenario": "left_deep_edge_order", "completions": 6,
             "peak_partials": 397},
            {"scenario": "primitive_pairs", "completions": 6,
             "peak_partials": 77},
        ],
    }
    plans_same = json.loads(json.dumps(plans_base))
    plans_regrown = json.loads(json.dumps(plans_base))
    plans_regrown["rows"][1]["peak_partials"] += 1
    plans_ok = gate_throughput(plans_same, plans_base, 0.25, "self-test",
                               report)
    plans_bad = gate_throughput(plans_regrown, plans_base, 0.25, "self-test",
                                report)
    # A store that let a probe see one more (or one fewer) partial match
    # moves the work counts while completions and peaks hold.
    work_base = {
        "bench": "fig5",
        "edges": 92359,
        "rows": [
            {"scenario": "news_event_politics_3", "completions": 3042,
             "peak_partials": 6654, "probes": 1700000,
             "join_attempts": 900000},
        ],
    }
    work_same = json.loads(json.dumps(work_base))
    work_probed = json.loads(json.dumps(work_base))
    work_probed["rows"][0]["probes"] += 1
    work_joined = json.loads(json.dumps(work_base))
    work_joined["rows"][0]["join_attempts"] -= 1
    work_ok = gate_throughput(work_same, work_base, 0.25, "self-test", report)
    work_bad_probes = gate_throughput(work_probed, work_base, 0.25,
                                      "self-test", report)
    work_bad_attempts = gate_throughput(work_joined, work_base, 0.25,
                                        "self-test", report)
    replans_base = {
        "bench": "ablation_adaptive",
        "edges": 80000,
        "rows": [
            {"scenario": "static", "completions": 500, "replans": 0},
            {"scenario": "adaptive", "completions": 500, "replans": 1},
        ],
    }
    replans_changed = json.loads(json.dumps(replans_base))
    replans_changed["rows"][1]["replans"] += 1
    replans_bad = gate_throughput(replans_changed, replans_base, 0.25,
                                  "self-test", report)
    sharding_ok = gate_throughput(sharding_same, sharding_base, 0.25,
                                  "self-test", report)
    sharding_bad_window = gate_throughput(sharding_regrown, sharding_base,
                                          0.25, "self-test", report)
    sharding_bad_exchange = gate_throughput(sharding_rerouted, sharding_base,
                                            0.25, "self-test", report)
    obs_pass = {"overhead": {"median_cpu_pct": 1.6, "gate_pct": 3.0}}
    obs_fail = {"overhead": {"median_cpu_pct": 4.5, "gate_pct": 3.0}}
    obs_ok = gate_obs_overhead(obs_pass, "self-test obs", report)
    obs_bad = gate_obs_overhead(obs_fail, "self-test obs", report)
    obs_absent = gate_obs_overhead({}, "self-test obs", report)
    cluster_pass = {"overhead": {"median_ingest_pct": 0.8, "min_scrapes": 9,
                                 "gate_pct": 3.0}}
    cluster_fail = {"overhead": {"median_ingest_pct": 5.1, "min_scrapes": 9,
                                 "gate_pct": 3.0}}
    # In budget, but one obs-on run finished before a second scrape.
    cluster_unscraped = {"overhead": {"median_ingest_pct": 0.0,
                                      "min_scrapes": 1, "gate_pct": 3.0}}
    cluster_uncounted = {"overhead": {"median_ingest_pct": 0.0,
                                      "gate_pct": 3.0}}
    # A count file left by another build: older than the library, it is
    # reported stale rather than gated, and --strict fails on it. The same
    # file written after the library gates as usual.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        library = tmp / "libstreamworks.a"
        library.write_bytes(b"")
        (tmp / "BENCH_fig5.json").write_text(json.dumps(counts_base))
        stale_file = tmp / "bench_fig5.json"
        stale_file.write_text(json.dumps(counts_off_by_one))
        built = library.stat().st_mtime
        os.utime(stale_file, (built - 60, built - 60))
        stale_lenient, stale_report = run_gate(tmp, tmp, 0.25, False, library)
        stale_strict, strict_report = run_gate(tmp, tmp, 0.25, True, library)
        os.utime(stale_file, (built + 60, built + 60))
        fresh_changed, _ = run_gate(tmp, tmp, 0.25, False, library)

    def reports_stale(findings, ok):
        return any(found_ok == ok and "bench_fig5.json: stale" in message
                   for found_ok, message in findings)
    cluster_ok = gate_obs_overhead(cluster_pass, "self-test cluster", report)
    cluster_bad = gate_obs_overhead(cluster_fail, "self-test cluster", report)
    cluster_idle = gate_obs_overhead(cluster_unscraped, "self-test cluster",
                                     report)
    cluster_blind = gate_obs_overhead(cluster_uncounted, "self-test cluster",
                                      report)
    checks = [
        (ok_failures == 0, "clean fresh run passes"),
        (bad_failures == 1, "40% degradation fails exactly one scenario"),
        (downsized_failures == 0, "size-mismatched workload skips, not fails"),
        (partial_lenient == 0, "missing scenario skips by default"),
        (partial_strict == 1, "missing scenario fails under --strict"),
        (downsized_strict == 2, "size mismatch fails under --strict"),
        (counts_ok == 0, "identical counts pass"),
        (counts_bad == 1, "a count off by one fails at any tolerance"),
        (counts_missing == 1, "a count missing from the fresh row fails"),
        (plans_ok == 0, "identical per-plan counts pass"),
        (plans_bad == 1, "one plan's peak partials off by one fails"),
        (work_ok == 0, "identical probes and join attempts pass"),
        (work_bad_probes == 1, "probes off by one fails"),
        (work_bad_attempts == 1, "join attempts off by one fails"),
        (replans_bad == 1, "a changed replan count fails"),
        (sharding_ok == 0, "identical sharding counts pass"),
        (sharding_bad_window == 2,
         "a changed retained-edge max and sum fail as two counts"),
        (sharding_bad_exchange == 1, "a forwarded count off by one fails"),
        (stale_lenient == 0 and reports_stale(stale_report, True),
         "a stale file with a changed count is reported stale, not gated"),
        (stale_strict == 1 and reports_stale(strict_report, False),
         "a stale file fails under --strict"),
        (fresh_changed == 1, "the same file written after the build gates"),
        (obs_ok == 0, "in-budget obs overhead passes"),
        (obs_bad == 1, "over-budget obs overhead fails"),
        (obs_absent == 1, "overhead block with missing fields fails"),
        (cluster_ok == 0, "in-budget cluster ingest overhead passes"),
        (cluster_bad == 1, "over-budget cluster ingest overhead fails"),
        (cluster_idle == 1, "cluster overhead scraped under twice fails"),
        (cluster_blind == 1, "cluster overhead without a scrape count fails"),
    ]
    all_ok = True
    for ok, what in checks:
        print(f"{'ok' if ok else 'FAIL'}: {what}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default="bench-results",
                        help="directory with fresh bench_*.json")
    parser.add_argument("--baseline", default="bench-results",
                        help="directory with committed BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional throughput drop (0.25)")
    parser.add_argument("--library", default="build/libstreamworks.a",
                        help="the library the benches link; a fresh file "
                             "older than it is stale")
    parser.add_argument("--strict", action="store_true",
                        help="fail (instead of skip) when a committed "
                             "baseline has no matching fresh scenario at "
                             "the same workload size")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate passes clean and fails "
                             "degraded synthetic results, then exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    failures, report = run_gate(pathlib.Path(args.results),
                                pathlib.Path(args.baseline), args.tolerance,
                                args.strict, pathlib.Path(args.library))
    for ok, message in report:
        print(f"{'ok' if ok else 'REGRESSION'}: {message}")
    if failures:
        print(f"\nbench gate: {failures} regression(s): throughput beyond "
              f"{args.tolerance:.0%} tolerance or a changed count")
        return 1
    print("\nbench gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
