"""C17 — batched event fan-out vs point-to-point oneways.

One publisher fans N_EVENTS events out to N_SINKS remote sinks.  The
point-to-point arm sends one ``push`` oneway per event per sink with a
pipeline window of 0, so every logical event pays a full message
(header, link charge, kernel events) N_SINKS times.  The bus arm
publishes each event once to a local :class:`EventBus`; a single
batched subscription hands flush windows to a
:class:`FanoutForwarder`, which marshals the ``push_batch`` arguments
once and frames them per sink, and the publisher ORB's GIOP
pipelining coalesces consecutive flushes per sink underneath.  Same
logical fan-out, a fraction of the wire and simulator work.

Measured per arm: wall-clock fan-out throughput (delivered events per
real second spent simulating), wire messages and bytes.

Run ``python benchmarks/bench_eventbus.py --selftest`` for the
assertion-only mode wired into ``make check``.
"""

import time

from _harness import report, stash
from repro.events.bus import EventBus
from repro.events.remote import (
    EVENT_SINK_IFACE,
    EventSinkServant,
    FanoutForwarder,
    sink_batch_args,
)
from repro.orb.core import ORB
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

N_SINKS = 8
N_EVENTS = 2048
BURST = 64                   # events published per sim tick
TICK = 0.01
MAX_BATCH = 64               # one full size-flush per tick
PIPELINE_WINDOW = 2 * TICK   # consecutive flushes per sink coalesce
HORIZON = 10.0

TOPIC = "bench.fanout"
PUSH = EVENT_SINK_IFACE.operations["push"]
PUSH_BATCH = EVENT_SINK_IFACE.operations["push_batch"]


def run(batched: bool, seed: int = 0) -> dict:
    env = Environment()
    net = Network(env, star(N_SINKS), rngs=RngRegistry(seed))
    publisher = ORB(env, net, "hub",
                    pipeline_window=PIPELINE_WINDOW if batched else 0.0)
    sinks = []
    iors = []
    for k in range(N_SINKS):
        orb = ORB(env, net, f"h{k}")
        servant = EventSinkServant()
        iors.append(orb.adapter("sink").activate(servant))
        sinks.append(servant)

    bus = None
    if batched:
        bus = EventBus(env, net.metrics)
        forwarder = FanoutForwarder(publisher, iors, PUSH_BATCH,
                                    to_args=sink_batch_args)
        bus.batch_subscribe(TOPIC, forwarder.deliver,
                            max_batch=MAX_BATCH, max_age=2 * TICK)

    def publish():
        sent = 0
        while sent < N_EVENTS:
            for _ in range(min(BURST, N_EVENTS - sent)):
                payload = f"e{sent}"
                if batched:
                    bus.publish(TOPIC, payload)
                else:
                    for ior in iors:
                        publisher.send_oneway(ior, PUSH, (TOPIC, payload))
                sent += 1
            yield env.timeout(TICK)
        if batched:
            bus.flush()
            publisher.flush_pipelines()

    env.process(publish())
    wall_start = time.perf_counter()
    env.run(until=HORIZON)
    wall = time.perf_counter() - wall_start

    delivered = sum(len(s.received) for s in sinks)
    return {
        "wall": wall,
        "delivered": delivered,
        "throughput": delivered / wall,
        "messages": net.metrics.get("net.messages"),
        "bytes": net.metrics.get("net.bytes"),
        "logical": net.metrics.get("net.logical"),
        "batches": net.metrics.get("bus.remote.batches"),
        "in_order": all(
            [d for _t, d in s.received] == [f"e{i}" for i in range(N_EVENTS)]
            for s in sinks),
    }


def _measure() -> tuple:
    """Warmed measurement pair: first touches of each arm pay one-off
    codec code generation and imports, which would otherwise dominate
    the (fast) bus arm's wall clock."""
    run(True)
    run(False)
    return run(True), run(False)


def _check(bus_arm: dict, p2p_arm: dict) -> None:
    total = N_SINKS * N_EVENTS
    for arm in (bus_arm, p2p_arm):
        assert arm["delivered"] == total, arm     # nothing lost
        assert arm["in_order"], arm               # nothing reordered
    # Batching collapses the wire: way fewer messages, fewer bytes.
    assert bus_arm["messages"] * 5 <= p2p_arm["messages"], (
        bus_arm["messages"], p2p_arm["messages"])
    assert bus_arm["bytes"] < p2p_arm["bytes"]
    # The headline claim: batched fan-out is at least 5x the
    # point-to-point throughput in real simulation work.
    assert bus_arm["throughput"] >= 5 * p2p_arm["throughput"], (
        bus_arm["throughput"], p2p_arm["throughput"])


def test_eventbus_fanout(benchmark, capsys):
    bus_arm, p2p_arm = _measure()
    benchmark.pedantic(lambda: run(True, seed=1), rounds=1, iterations=1)
    rows = [
        ["bus+batch+pipeline", f"{bus_arm['throughput']:,.0f}",
         bus_arm["messages"], f"{bus_arm['bytes']:,.0f}",
         bus_arm["delivered"]],
        ["p2p oneways", f"{p2p_arm['throughput']:,.0f}",
         p2p_arm["messages"], f"{p2p_arm['bytes']:,.0f}",
         p2p_arm["delivered"]],
    ]
    report(capsys,
           f"C17: {N_EVENTS} events x {N_SINKS} sinks fan-out",
           ["path", "events/s (wall)", "net msgs", "net bytes",
            "delivered"], rows,
           note="events/s = delivered events per real second of "
                "simulation; both arms deliver every event in order")
    _check(bus_arm, p2p_arm)
    stash(benchmark,
          throughput_bus=bus_arm["throughput"],
          throughput_p2p=p2p_arm["throughput"],
          speedup=bus_arm["throughput"] / p2p_arm["throughput"],
          messages_bus=bus_arm["messages"],
          messages_p2p=p2p_arm["messages"],
          bytes_bus=bus_arm["bytes"],
          bytes_p2p=p2p_arm["bytes"],
          batches=bus_arm["batches"])


def selftest() -> int:
    bus_arm, p2p_arm = _measure()
    _check(bus_arm, p2p_arm)
    print("bench_eventbus selftest ok: "
          f"{bus_arm['throughput']:,.0f} vs {p2p_arm['throughput']:,.0f} "
          f"events/s ({bus_arm['throughput'] / p2p_arm['throughput']:.1f}x), "
          f"{bus_arm['messages']:.0f} vs {p2p_arm['messages']:.0f} messages")
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="event fan-out throughput benchmark")
    parser.add_argument("--selftest", action="store_true",
                        help="run the assertion-only gate (no tables)")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    parser.error("run via pytest for the full report, or pass --selftest")
