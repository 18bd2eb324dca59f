#!/usr/bin/env python3
"""Gate a cmd/capstress report: allocation ceilings, the trace / watch /
incident / fault overhead twins, and the chaos and router-chaos
zero-failed-request storms. Every gate is absolute, so the script needs
nothing but the report; what a probe or a division costs against the
parent commit is BENCHMARK.json's comparison (native_fine, native_coarse).

Usage: scripts/bench_gate.py [BENCH_capsule.json]
"""
import json
import sys

d = json.load(open(sys.argv[1] if len(sys.argv) > 1 else "BENCH_capsule.json"))
r = d["results"]
# The granted divide must stay allocation-free in the runtime:
# the only tolerated alloc is noise, never the old per-spawn
# goroutine + closure. Ceiling is fixed: raise it only with a
# design change, not a regression.
dg = r["atomic/divide_granted"]
assert dg["allocs_per_op"] <= 1, ("divide_granted allocs regressed", dg)
# Probe and the refusal paths are flat-out allocation-free, and so are
# the refused offer and the lock in the states a workload meets them in
# (after a death, two requests at once). Those three carry no timing
# budget: at two Ps their timings are noise-bound.
for name in ("atomic/probe_granted_serial",
             "atomic/probe_granted_parallel_4x",
             "atomic/probe_granted_parallel_16x",
             "atomic/probe_refused_parallel_4x",
             "atomic/try_divide_refused",
             "atomic/probe_refused_after_death",
             "atomic/group_divide_refused_2groups",
             "atomic/lock_unlock_2callers"):
    assert r[name]["allocs_per_op"] == 0, (name, r[name])
# Grant rate under a nop-worker storm is legitimately near zero
# (instant deaths keep the throttle tripped); only sanity-bound it.
assert d["storm"]["probes"] > 0 and 0 <= d["storm"]["grant_rate"] <= 1, d["storm"]
assert d["serve"]["rps"] > 0, d["serve"]
# Cluster scenario: a backend dies at halftime, clients must not
# notice (zero errors), and the death must be visible in the
# router's accounting.
c = d["cluster"]
assert c["errors"] == 0, ("clients saw a killed backend", c)
assert c["requests"] > 0 and c["deaths"] > 0, c
assert 0 < c["remote_grant_rate"] <= 1, c
assert 0 <= c["fallback_rate"] <= 1, c
# captrace budget: armed (tracer installed, request unsampled —
# the state every request is in under -trace) may cost at most
# 5% over tracing-off on the canonical paths, and the off cases
# must sit on their atomic twins (the disabled ~0% check). The
# traced column is recorded, not budgeted — only 1-in-N sampled
# requests pay ring writes.
to = d["trace_overhead"]
for path in ("probe_granted_serial", "probe_granted_parallel_4x", "divide_granted"):
    assert to[path]["armed_overhead_pct"] <= 5.0, ("armed trace overhead over budget", path, to[path])
for path in ("probe_granted_serial", "probe_granted_parallel_4x"):
    off = r["trace/%s_off" % path]["ns_per_op"]
    twin = r["atomic/%s" % path]["ns_per_op"]
    assert off <= 1.10 * twin, ("tracing-off case drifted from its atomic twin", path, off, twin)
# Sampled-request ring writes stay allocation-free on the probe
# path; the granted divide keeps its one tolerated alloc.
for name in ("trace/probe_granted_serial_traced",
             "trace/probe_granted_parallel_4x_traced"):
    assert r[name]["allocs_per_op"] == 0, (name, r[name])
assert r["trace/divide_granted_traced"]["allocs_per_op"] <= 1, r["trace/divide_granted_traced"]
# capwatch budget: a sampler ticking at its production interval
# may cost at most 2% on the canonical paths — it is a pure
# reader, so anything more means the hot path grew a write it
# shouldn't have. The off control carries an inert ticker at the
# same period (on a single-P runtime any pending timer taxes the
# scheduler pass the divide hand-off takes every op, ~15% on its
# own — a tax every deployment with HTTP deadlines already
# pays), so the pair prices the sampler's work, not the
# runtime's timers; the off cases get matching 15% headroom over
# their ticker-free atomic twins.
# The divide pair gets the trace gate's 5% budget instead: its
# hand-off takes the scheduler path every op, and the pair's
# run-to-run spread straddles zero at ±3% — a 2% gate there
# flakes on noise, not on regressions.
wo = d["watch_overhead"]
for path in ("probe_granted_serial", "probe_granted_parallel_4x"):
    assert wo[path]["armed_overhead_pct"] <= 2.0, ("armed watch overhead over budget", path, wo[path])
assert wo["divide_granted"]["armed_overhead_pct"] <= 5.0, ("armed watch overhead over budget", "divide_granted", wo["divide_granted"])
for path in ("probe_granted_serial", "probe_granted_parallel_4x"):
    off = r["watch/%s_off" % path]["ns_per_op"]
    twin = r["atomic/%s" % path]["ns_per_op"]
    assert off <= 1.15 * twin, ("watch-off case drifted from its atomic twin", path, off, twin)
# The serving run's SLO verdict: recorded by an armed sampler,
# must be sane and unburned on an idle-error run.
slo = d["serve"]["slo"]
assert 0 <= slo["availability"] <= 1, slo
assert slo["burn_rate"] >= 0 and not slo["exhausted"], ("serve run burned its SLO budget", slo)
# capfault budget: the injection layer with wraps installed but
# zero rules (the state a -fault router idles in) must sit
# within noise of its unwrapped twin at both wrap points — the
# wraps are meant to stay on in production so storms can be
# scripted against live fleets.
fo = d["fault_overhead"]
for point in ("transport", "handler"):
    assert fo[point]["disarmed_overhead_pct"] <= 5.0, ("disarmed capfault overhead over budget", point, fo[point])
# capscope budget: arming the flight recorder on top of an
# already-armed sampler (both sides of the pair run the
# sampler at its production tick) may add at most 2% on the
# probe paths and 5% on the divide pair — the recorder rides
# the sampler's tick, so anything more means trigger
# evaluation leaked onto a hot path. The off cases pin to the
# watch-armed cases (their exact configuration) within 15%.
inco = d["incident_overhead"]
for path in ("probe_granted_serial", "probe_granted_parallel_4x"):
    assert inco[path]["armed_overhead_pct"] <= 2.0, ("armed incident overhead over budget", path, inco[path])
assert inco["divide_granted"]["armed_overhead_pct"] <= 5.0, ("armed incident overhead over budget", "divide_granted", inco["divide_granted"])
for path in ("probe_granted_serial", "probe_granted_parallel_4x"):
    off = r["incident/%s_off" % path]["ns_per_op"]
    twin = r["watch/%s_armed" % path]["ns_per_op"]
    assert off <= 1.15 * twin, ("incident-off case drifted from its watch-armed twin", path, off, twin)
# Staged burn: the in-process overload must have exhausted the
# budget and the recorder must have landed a complete bundle
# (watch rollup + trace snapshot + heap profile are asserted
# by capstress itself before it reports).
inc = d["incident"]
assert inc["bundles"] >= 1, inc
assert inc["trigger"] in ("slo_budget_exhausted", "shed_storm"), inc
if inc["trigger"] == "slo_budget_exhausted":
    assert inc["fast_burn"] >= 1 and inc["slow_burn"] >= 1, inc
for f in ("watch.json", "trace.json", "heap.pprof"):
    assert f in inc["files"], (f, inc["files"])
# Chaos storms: churn, slow-not-dead and partition each hold the
# zero-failed-client-requests line, and the mechanism under test
# must demonstrably have fired (a storm that didn't storm proves
# nothing).
ch = d["chaos"]
for name in ("churn", "slow", "partition"):
    s = ch[name]
    assert s["errors"] == 0, ("chaos storm leaked to clients", name, s)
    assert s["requests"] > 0, (name, s)
assert ch["churn"]["leaves"] > 0 and ch["churn"]["joins"] > 0, ch["churn"]
assert ch["slow"]["ejections"] > 0, ("slow backend never ejected", ch["slow"])
assert ch["slow"]["readmitted"], ("ejected backend never readmitted", ch["slow"])
assert ch["partition"]["deaths"] > 0, ("partition never cost a bounded death", ch["partition"])
assert ch["partition"]["breaker_denies"] > 0, ch["partition"]
# Router-plane storms: killing one of two router replicas
# without drain mid-storm must leak zero failed client
# requests (failovers prove the kill was exercised), and
# rendezvous placement must agree across replicas on every
# remotely-routed key. The feed partition must show the push
# plane carried before the cut (refresh skips grew), then the
# scrape fallback kept every gauge fresh (zero stale decays,
# zero client errors) after it.
rc = d["router_chaos"]
rk = rc["replica_kill"]
assert rk["errors"] == 0, ("replica kill leaked to clients", rk)
assert rk["requests"] > 0 and rk["failovers"] > 0, rk
assert rk["placement_checked"] > 0, ("placement agreement unchecked", rk)
assert rk["placement_agreed"] == rk["placement_checked"], ("replicas disagree on placement", rk)
fp = rc["feed_partition"]
assert fp["errors"] == 0, ("feed partition leaked to clients", fp)
assert fp["refresh_skipped_pre"] > 0, ("push plane never carried before the cut", fp)
assert fp["feed_deltas"] > 0, fp
assert fp["stale_decays"] == 0, ("scrape fallback failed to keep gauges fresh", fp)
print("hot path clean:",
      {k: v["ns_per_op"] for k, v in r.items() if k.startswith("atomic/")})
print("trace overhead:", {k: round(v["armed_overhead_pct"], 1) for k, v in to.items()})
print("watch overhead:", {k: round(v["armed_overhead_pct"], 1) for k, v in wo.items()})
print("incident overhead:", {k: round(v["armed_overhead_pct"], 1) for k, v in inco.items()})
print("fault overhead:", {k: round(v["disarmed_overhead_pct"], 1) for k, v in fo.items()})
print("incident:", inc["bundles"], "bundle(s),", inc["trigger"])
print("router chaos: kill", rk["requests"], "req /", rk["failovers"], "failovers;",
      "feed", fp["refresh_skipped_pre"], "skips pre-cut /", fp["feed_deltas"], "deltas")
