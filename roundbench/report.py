#!/usr/bin/env python3
"""Per-layer report of a traced roundbench run.

    python3 roundbench/report.py .bench_build/runs/conv_cached-1-trace1.facts.json

Reads the harness's facts (written by run.py --trace 1) and the span JSONL
they name, and prints every per-layer metric by name with its unit, plus
the tracing overhead. A layer's self time is its span minus the part of
that interval its child spans cover.

Metrics that a workload cannot observe read 0 (no such layer on the path:
the wire on an in-process chain) or -1 (the layer is on the path but not
visible from outside the program: secret-cache counters inside hopd).
"""

import json
import statistics
import sys
from collections import defaultdict

HOPS = 3


def median(xs):
    return statistics.median(xs) if xs else 0.0


def covered(interval, children):
    """Length of `interval` covered by the union of `children` intervals."""
    lo, hi = interval
    spans = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in spans:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def delta(window, key):
    return window["counters_after"].get(key, 0.0) - window["counters_before"].get(key, 0.0)


def per_layer(facts):
    """Every per-layer metric of the traced window: name -> (value, unit)."""
    untraced, traced = facts["windows"][0], facts["windows"][1]
    spans = load_spans(facts["spans"])
    wall = traced["wall"]
    fleet = not facts["in_process"]

    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    conv_rounds = by_name["round.conv"]
    rounds = len(conv_rounds) + len(by_name["round.dial"])

    def per_round(name):
        return median([dur(s) for s in by_name[name]])

    def hop_spans(i):
        return [s for s in spans if s["name"].startswith("hop%d." % i)]

    m = {}
    # engine
    gaps = []
    dh_per_round = []
    for r in conv_rounds:
        kids = [k for k in children[r["id"]] if k["name"].startswith("hop")]
        gaps.append(dur(r) - covered((r["start"], r["end"]), [(k["start"], k["end"]) for k in kids]))
        dh_per_round.append(sum(k["dh_ops"] for k in kids))
    m["engine.stage_gap_s_p50"] = (median(gaps), "s")
    m["engine.submit_block_frac"] = (traced["submit_blocked"] / wall, "ratio")
    m["engine.max_in_flight"] = (facts["max_in_flight"], "count")
    attempted = sum(w["conv_rounds"] + w["dial_rounds"] for w in facts["windows"])
    failed = sum(w["failed"] for w in facts["windows"])
    m["engine.failed_round_ratio"] = (failed / max(1, attempted), "ratio")

    # mixnet
    m["mixnet.fwd_s.hop0"] = (per_round("hop0.fwd"), "s")
    m["mixnet.fwd_s.hop1"] = (per_round("hop1.fwd"), "s")
    m["mixnet.last_s"] = (per_round("hop2.last"), "s")
    m["mixnet.bwd_s.hop1"] = (per_round("hop1.bwd"), "s")
    m["mixnet.bwd_s.hop0"] = (per_round("hop0.bwd"), "s")
    for i in range(HOPS):
        m["mixnet.busy_frac.hop%d" % i] = (sum(dur(s) for s in hop_spans(i)) / wall, "ratio")
    fwd_time = sum(dur(s) for n in ("hop0.fwd", "hop1.fwd", "hop2.last") for s in by_name[n])
    client_onions = sum(r["items"] for r in conv_rounds)
    m["mixnet.fwd_us_per_onion"] = (fwd_time / max(1, client_onions) * 1e6, "us")
    for i, name in enumerate(("hop0.fwd", "hop1.fwd", "hop2.last")):
        m["mixnet.noise_per_round.hop%d" % i] = (median([s["noise"] for s in by_name[name]]),
                                                 "count")
    m["mixnet.dh_ops_per_round"] = (median(dh_per_round), "count")
    hop_all = [s for s in spans if s["name"].startswith("hop")]
    m["mixnet.dropped_ratio"] = (sum(s["dropped"] for s in hop_all) /
                                 max(1, sum(s["items"] for s in hop_all)), "ratio")

    # crypto (secret caches of in-process servers)
    if fleet:
        for name, unit in (("cache_hit_ratio", "ratio"), ("cache_misses", "count"),
                           ("cache_evictions", "count")):
            m["crypto." + name] = (-1.0, unit)
    else:
        hits = sum(delta(traced, "cache.hop%d.hits" % i) for i in range(HOPS))
        misses = sum(delta(traced, "cache.hop%d.misses" % i) for i in range(HOPS))
        evictions = sum(delta(traced, "cache.hop%d.evictions" % i) for i in range(HOPS))
        m["crypto.cache_hit_ratio"] = (hits / max(1.0, hits + misses), "ratio")
        m["crypto.cache_misses"] = (misses / max(1, rounds), "count")
        m["crypto.cache_evictions"] = (evictions / max(1, rounds), "count")

    # deaddrop
    if fleet:
        ex_s = delta(traced, "exchanged.vuvuzela_exchange_seconds_sum")
        ex_n = delta(traced, "exchanged.vuvuzela_exchange_seconds_count")
        ex_req = delta(traced, "exchanged.vuvuzela_exchange_requests_total")
        m["deaddrop.exchange_s_p50"] = (ex_s / max(1.0, ex_n), "s")
        m["deaddrop.exchange_us_per_request"] = (ex_s / max(1.0, ex_req) * 1e6, "us")
    else:
        ex = by_name["deaddrop.exchange"]
        m["deaddrop.exchange_s_p50"] = (per_round("deaddrop.exchange"), "s")
        m["deaddrop.exchange_us_per_request"] = (
            sum(dur(s) for s in ex) / max(1, sum(s["items"] for s in ex)) * 1e6, "us")
    m["deaddrop.messages_per_round"] = (median([s["exchanged"] for s in by_name["hop2.last"]]),
                                        "count")

    # transport / wire / net
    for i in range(HOPS):
        rpc = wire = 0.0
        if fleet:
            per = defaultdict(float)
            for s in hop_spans(i):
                per[s["round"]] += dur(s)
            conv_ids = {r["round"] for r in conv_rounds}
            rpc = median([v for k, v in per.items() if k in conv_ids])
            pass_s = delta(traced, "hop%d.vuvuzela_hop_pass_seconds_sum" % i)
            wire = (sum(dur(s) for s in hop_spans(i)) - pass_s) / max(1, rounds)
        m["transport.rpc_s.hop%d" % i] = (rpc, "s")
        m["transport.wire_s.hop%d" % i] = (wire, "s")
    if fleet:
        ex_s = delta(traced, "exchanged.vuvuzela_exchange_seconds_sum")
        ex_n = delta(traced, "exchanged.vuvuzela_exchange_seconds_count")
        m["transport.exchange_rpc_s"] = (ex_s / max(1.0, ex_n), "s")
        m["transport.bytes_per_round"] = (sum(s["bytes"] for s in hop_all) / max(1, rounds),
                                          "bytes")
        m["transport.reconnects"] = (delta(traced, "self.vuvuzela_shard_reconnects_total"),
                                     "count")
        errors = delta(traced, "self.vuvuzela_rpc_errors_total") + sum(
            delta(traced, "hop%d.vuvuzela_hop_pass_errors_total" % i) for i in range(HOPS))
        m["transport.hop_errors"] = (errors, "count")
    else:
        m["transport.exchange_rpc_s"] = (0.0, "s")
        m["transport.bytes_per_round"] = (0.0, "bytes")
        m["transport.reconnects"] = (0.0, "count")
        m["transport.hop_errors"] = (0.0, "count")

    # coord / client: the dist tier
    fetches = by_name["dist.fetch"]
    m["dist.publish_s_p50"] = (per_round("dist.publish"), "s")
    m["dist.fetch_s_p50"] = (per_round("dist.fetch"), "s")
    m["dist.bucket_kb"] = (sum(s["bytes"] for s in fetches) / max(1, len(fetches)) / 1024, "KB")
    m["dist.fetch_errors"] = (traced["fetch_errors"], "count")

    # sim: the load generator, not the program
    m["loadgen.wrap_s"] = (facts["wrap_s"], "s")

    # obs: what tracing itself costs
    rate = lambda w: w["messages"] / w["wall"]  # noqa: E731
    m["trace.overhead_frac"] = (1.0 - rate(traced) / rate(untraced), "ratio")
    return m


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        facts = json.load(f)
    for name, (value, unit) in per_layer(facts).items():
        print("%-32s %14.6g %s" % (name, value, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
