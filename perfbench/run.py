"""End-to-end, layer-attributed benchmark of the CORBA-LC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chaos-steady --seed 1105 \\
        --seconds 50 --trace 0

Workloads (see ``perfbench/README.md``): ``chaos-steady`` and
``c18-flood``, listed in ``BENCHMARK.json``, and ``chaos-mixed`` and
``c18-sharded``, run by hand.  A run sets the workload up, then repeats
its measured phase on freshly built worlds of the same seed for up to
``--seconds`` of host time (at least once), and reports medians of host
time rescaled to a nominal host speed (``hostspeed.py``) beside the raw
host time.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics.  Every repetition checks its outputs, and every repetition of
a run, traced or not, must print the same digest of its simulated
outputs.  The last line of standard output is one JSON object.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import hostspeed  # noqa: E402

#: Reference calls per host-speed sample around set-up, which has only
#: the two samples.
SETUP_REF_CALLS = 7

#: Host speed at process start, and the seconds taking it cost (not
#: counted as set-up).
_started = perf_counter()
_START_REF = hostspeed.sample(SETUP_REF_CALLS)
_START_REF_COST = perf_counter() - _started

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from hostspeed import HostClock  # noqa: E402
from tracer import LayerTrace, Patcher  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")

#: Child set-up runs per run, besides the run's own set-up: setup_s is
#: the median of all of them.
SETUP_CHILDREN = 4


def _load_program():
    """Import the program from this checkout's ``src`` or fail."""
    sys.path.insert(0, SRC)
    try:
        import repro
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, "
                 f"not from {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def _measure(workload, state):
    gc.collect()
    clock = HostClock()
    outcome = workload.measure(state, clock.lap)
    clock.lap()
    outcome.wall = clock.raw_s
    outcome.norm = clock.norm_s
    return outcome


def traced(workload, build):
    """Build a world (``build()``) with the layer wrappers installed and
    measure it."""
    trace = LayerTrace()
    patcher = Patcher(trace)
    patcher.install()
    try:
        state = build()
        trace.reset()
        outcome = _measure(workload, state)
    finally:
        patcher.restore()
    outcome.trace = trace
    outcome.missing = patcher.missing
    return outcome


def _repeat(workload, seed: int, worlds: list, seconds: float,
            trace: bool):
    """Measured phase: repetitions while the next one, at the mean pace
    so far, still ends within *seconds* (at least one).  A failed check
    ends it: the same seed would fail the same way again.

    The first world comes from set-up, handed over in *worlds* so no
    other frame keeps it alive; each further repetition builds its own.
    """
    plain, traced_reps = [], []
    begin = perf_counter()
    while True:
        plain.append(_measure(workload, worlds.pop()))
        if trace:
            traced_reps.append(traced(workload,
                                      lambda: workload.build(seed)))
        elapsed = perf_counter() - begin
        failed = not all(r.ok for r in plain[-1:] + traced_reps[-1:])
        if failed or elapsed + elapsed / len(plain) > seconds:
            return plain, traced_reps
        gc.collect()
        worlds.append(workload.build(seed))


def _child_setups(args) -> list:
    """Set-up times of fresh processes (imports and all)."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            check=True)
        line = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((line["setup_s"], line["setup_raw_s"]))
    return samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(reps, setups: list) -> dict:
    """End-to-end metrics; *setups* holds (normalised, raw) seconds.

    ``norm_wall_s``, ``sim_s_per_norm_s`` and ``setup_s`` are host time
    at the nominal speed of :mod:`hostspeed`; ``wall_s``,
    ``sim_s_per_wall_s`` and ``setup_raw_s`` are the raw host time.
    """
    first = reps[0]
    return {
        "norm_wall_s": (_median([r.norm for r in reps]), "s"),
        "sim_s_per_norm_s": (_median([r.sim_s / r.norm for r in reps]),
                             "sim-s/s"),
        "setup_s": (_median([norm for norm, _raw in setups]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "wall_s": (_median([r.wall for r in reps]), "s"),
        "sim_s_per_wall_s": (_median([r.sim_s / r.wall for r in reps]),
                             "sim-s/s"),
        "setup_raw_s": (_median([raw for _norm, raw in setups]), "s"),
        "error_rate": (_ratio(first.errors, first.ops), "ratio"),
        "op_p50_sim_s": (first.latencies["p50"], "sim-s"),
        "op_p90_sim_s": (first.latencies["p90"], "sim-s"),
    }


#: end-to-end metrics gated by BENCHMARK.json (the rest are printed).
GATED = ("norm_wall_s", "setup_s", "peak_rss_mb")


def reported(metrics: dict) -> dict:
    """The metrics BENCHMARK.json lists, out of all those printed.

    A layer's self time in seconds is printed only: an idle layer reads
    exactly 0 s on every run, so the JSON carries ``self_share`` (self
    time over traced wall time) instead.
    """
    return {name: value for name, value in metrics.items()
            if not name.endswith(".self_s")}


def per_layer(rep) -> dict:
    """Per-layer metrics of one traced repetition."""
    trace, c = rep.trace, rep.counters
    out = {}
    for i, layer in enumerate(trace.layers):
        out[f"{layer}.calls"] = (trace.calls[i], "count")
        out[f"{layer}.self_s"] = (trace.self_s[i], "s")
        out[f"{layer}.self_share"] = (trace.self_s[i] / rep.wall, "ratio")

    def entries(name, parent=None):
        return trace.entries_of(name, parent)

    def outer(name):
        """Calls of *name* from outside its own layer."""
        tid = trace.target_ids.get(name)
        if tid is None:
            return 0
        return entries(name) - entries(name,
                                       trace.layers[trace.target_layer[tid]])

    def count(*names):
        return sum(c.get(n, 0.0) for n in names)

    topo = "repro.sim.topology:Topology."
    giop = "repro.orb.giop:"
    route_calls = outer(topo + "route_links") + outer(topo + "route")
    searches = entries("networkx:shortest_path")
    codec = [n for n in trace.target_ids if n.startswith("codec.")]
    codec_calls = sum(entries(n) for n in codec)
    codegen_calls = sum(entries(n) for n in codec if n.endswith("/codegen"))
    attempts = entries("repro.orb.core:ORB.invoke", "orb.retry")
    retry = "repro.orb.retry:invoke_with_retry"
    fed = "repro.registry.federation."
    flood = "repro.registry.queries:FloodResolver._find"
    out.update({
        "sim.kernel.events": (rep.kernel_events, "count"),
        "sim.topology.route_calls": (route_calls, "count"),
        "sim.topology.path_searches": (searches, "count"),
        "sim.topology.route_hit_ratio": (
            _ratio(route_calls - searches, route_calls), "ratio"),
        "sim.network.messages": (count("net.messages"), "count"),
        "sim.network.bytes": (count("net.bytes"), "bytes"),
        "sim.network.dropped": (sum(v for k, v in c.items()
                                    if k.startswith("net.dropped.")),
                                "count"),
        "orb.core.invocations": (count("orb.requests"), "count"),
        "orb.core.oneways": (count("orb.oneways"), "count"),
        "orb.core.shed": (count("orb.shed", "orb.shed.oneway"), "count"),
        "orb.giop.encoded": (sum(outer(giop + n) for n in (
            "encode_request", "encode_reply", "encode_multi")), "count"),
        "orb.giop.decoded": (outer(giop + "_decode_message_body")
                             + outer(giop + "decode_message"), "count"),
        "orb.giop.bad_messages": (count("orb.bad_messages"), "count"),
        "orb.codec.codegen_share": (_ratio(codegen_calls, codec_calls),
                                    "ratio"),
        "orb.retry.attempts": (attempts, "count"),
        "orb.retry.retries": (count("orb.retries"), "count"),
        "orb.retry.fast_fails": (count("breaker.fast_fails"), "count"),
        "orb.retry.useful_ratio": (
            _ratio(trace.returned_of(retry), attempts),
            "ratio"),
        "obs.spans": (entries("repro.obs.trace:Tracer.start_span"), "count"),
        "events.published": (count("bus.published"), "count"),
        "events.delivered": (count("bus.delivered"), "count"),
        "events.dropped": (sum(v for k, v in c.items()
                               if k.endswith(".dropped")), "count"),
        "registry.federation.gossip_frames": (
            entries(fed + "shard:ShardAgent.accept_gossip"), "count"),
        "registry.federation.beacons_built": (
            entries(fed + "records:MembershipTable.beacons"), "count"),
        "registry.federation.records_decoded": (
            entries(fed + "records:ProviderRecord.from_value")
            + entries(fed + "records:HostBeacon.from_value"), "count"),
        "registry.federation.lookups": (
            entries(fed + "shard:ShardServant.lookup"), "count"),
        "registry.federation.fallbacks": (count(
            "federation.lookup.failover", "federation.lookup.ring_fallback",
            "federation.lookup.flood_fallback"), "count"),
        "registry.queries.lookups": (trace.created_of(flood), "count"),
        "registry.queries.hosts_interrogated": (trace.tally_of(flood),
                                                "count"),
        "deployment.recoveries": (count("supervisor.recoveries"), "count"),
        "deployment.repairs_fenced": (count("supervisor.repair.fenced"),
                                      "count"),
        "chaos.probes": (trace.created_of(
            "repro.chaos.invariants:probe_monitor"), "count"),
        "chaos.actions": (count("chaos.actions"), "count"),
        "trace.spans": (trace.spans, "count"),
        "trace.uncovered_s": (rep.wall - trace.covered_s(), "s"),
    })
    return out


# ---------------------------------------------------------------------------
# Checks and the report
# ---------------------------------------------------------------------------

def check_trace(rep) -> list:
    """Self-time accounting of one traced repetition."""
    trace = rep.trace
    problems = [f"tracer target missing: {name}" for name in rep.missing]
    if len(trace.stack) != 1:
        problems.append(f"{len(trace.stack) - 1} spans left open")
    total_self = sum(trace.self_s)
    if abs(total_self - trace.covered_s()) > 1e-6:
        problems.append(f"layer self times sum to {total_self:.6f} s, "
                        f"spans cover {trace.covered_s():.6f} s")
    if trace.covered_s() > rep.wall + 1e-6:
        problems.append("spans cover more than the traced wall time")
    return problems


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="host seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed

    workload.warm()
    worlds = [workload.build(args.seed)]
    setup_raw = perf_counter() - _PROCESS_START - _START_REF_COST
    setup_s = setup_raw * hostspeed.NOMINAL_S / (
        (_START_REF + hostspeed.sample(SETUP_REF_CALLS)) / 2.0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    plain, traced_reps = _repeat(workload, args.seed, worlds, args.seconds,
                                 bool(args.trace))
    setups = [(setup_s, setup_raw)] + _child_setups(args)
    reps = plain + traced_reps

    problems = sorted({p for r in reps for p in r.problems})
    digests = sorted({r.digest for r in reps})
    if len(digests) > 1:
        problems.append("repetitions disagree on the output digest: "
                        + ", ".join(d[:16] for d in digests))
    for rep in traced_reps:
        problems.extend(check_trace(rep))
    attempted = sum(r.ops for r in reps)
    failed = attempted if len(digests) > 1 else sum(
        r.ops for r in reps if not r.ok)

    e2e = end_to_end(plain, setups)
    first = plain[0]
    print(f"perfbench {args.workload} seed {args.seed}: {len(plain)} "
          f"untraced + {len(traced_reps)} traced repetitions, "
          f"digest {digests[0]}")
    notes = {
        "norm_wall_s": f"median of {len(plain)}, at nominal host speed",
        "sim_s_per_norm_s": f"{first.sim_s:.6g} sim-s per repetition",
        "setup_s": "median of " + ", ".join(f"{n:.3f}" for n, _r in setups),
        "wall_s": "median of " + ", ".join(f"{r.wall:.3f}" for r in plain),
        "setup_raw_s": "median of " + ", ".join(f"{r:.3f}"
                                                for _n, r in setups),
        "error_rate": f"{first.errors} of {first.ops} operations",
        "op_p50_sim_s": f"{first.latencies['samples']} samples",
        "op_p90_sim_s": (f"{first.latencies['samples']} samples, "
                         f"{first.latencies['samples'] // 10} beyond p90"),
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:<18} {_fmt(value):>14} {unit:<8} "
              f"{notes.get(name, '')}")
    print(f"  work per repetition: {first.kernel_events} kernel events, "
          f"{first.counters.get('net.messages', 0):.0f} messages, "
          f"{first.counters.get('net.bytes', 0):.0f} bytes")

    if traced_reps:
        layers = [per_layer(r) for r in traced_reps]
        metrics = {name: (_median([m[name][0] for m in layers]), unit)
                   for name, (_v, unit) in layers[0].items()}
        norm_traced = _median([r.norm for r in traced_reps])
        metrics["trace.overhead_s"] = (
            norm_traced - e2e["norm_wall_s"][0], "s")
        for rep in traced_reps:
            root = rep.trace.self_s[0]      # sim.kernel: Environment.run
            print(f"  traced wall {rep.wall:.6g} s = layer self times "
                  f"{sum(rep.trace.self_s) - root:.6g} s + kernel root "
                  f"{root:.6g} s + uncovered "
                  f"{rep.wall - rep.trace.covered_s():.6g} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {_fmt(value):>14} {unit}")
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR,
                            f"{args.workload}-seed{args.seed}.trace.json")
        last = traced_reps[-1].trace
        last.write_chrome(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)} "
              f"({len(last.span_tid)} of {last.spans})")
    else:
        metrics = {name: e2e[name] for name in GATED}

    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported(metrics).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
