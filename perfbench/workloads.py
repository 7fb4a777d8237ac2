"""The benchmark workloads, built on the public API of ``repro``.

Each workload has three steps, timed separately by ``run.py``:

- ``warm()`` runs a toy-sized copy once per process, so first-touch
  codec generation is paid in set-up, as a user pays it once per
  experiment;
- ``build(seed)`` stands the system up and brings it to steady state
  (topology, rig, package install, registry and assembly deployment,
  warm-up);
- ``run(state, lap)`` is the measured phase.  It calls ``lap()`` each
  time it hands control back between ``rig.run`` chunks, so the host
  clock can sample host speed there, and returns an :class:`Outcome`
  holding the simulated outputs, the output check and a digest of the
  outputs.

The seed is the only input; everything else the program receives is
generated from it.  The C18 workloads mirror the two arms of
``benchmarks/bench_federation.py`` at 256 hosts; they are written out
here so the benchmark does not move when that file changes.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

from repro.chaos.campaign import CampaignConfig, ChaosCampaign
from repro.chaos import invariants
from repro.chaos.scenario import build_world
from repro.idl import compile_idl
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation.shard import SHARD_IFACE, shard_ior
from repro.registry.mrm import MrmConfig
from repro.registry.queries import FloodResolver
from repro.sim.topology import clustered
from repro.testing import CounterExecutor, SimRig
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version


@dataclass
class Outcome:
    """Simulated outputs of one measured phase."""

    ops: int                   # operations attempted
    errors: int                # operations that failed or answered empty
    latencies: dict            # p50, p90, samples (sim seconds)
    problems: list             # failed output checks (empty = ok)
    outputs: dict              # everything the digest covers
    sim_s: float = 0.0         # simulated seconds the phase advanced
    #: program counters over the measured phase (name -> delta).
    counters: dict = field(default_factory=dict)
    kernel_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _no_lap() -> None:
    pass


def _percentile(values, q):
    ordered = sorted(values)
    idx = int(round(q / 100.0 * (len(ordered) - 1)))
    return ordered[min(idx, len(ordered) - 1)]


class _Workload:
    """What ``run.py`` drives: ``warm``, ``build``, ``run``, ``ops``."""

    def measure(self, state, lap=_no_lap) -> Outcome:
        """:meth:`run`, with an exception from the program reported as a
        failed check of every operation instead of ending the run."""
        try:
            return self.run(state, lap)
        except Exception as exc:  # the program's defect, reported
            ops = self.ops(state)
            error = f"{type(exc).__name__}: {exc}"
            return Outcome(
                ops=ops, errors=ops,
                latencies={"p50": 0.0, "p90": 0.0, "samples": 0},
                problems=[f"program raised {error}"],
                outputs={"raised": error})


class _Phase:
    """Brackets a measured phase: sim clock, kernel events, counters."""

    def __init__(self, rig) -> None:
        self.rig = rig
        self.now = rig.env.now
        self.eid = rig.env._eid
        self.before = rig.metrics.counters()

    def finish(self, outcome: Outcome) -> Outcome:
        after = self.rig.metrics.counters()
        outcome.counters = {k: v - self.before.get(k, 0.0)
                            for k, v in after.items()}
        outcome.kernel_events = self.rig.env._eid - self.eid
        outcome.sim_s = self.rig.env.now - self.now
        outcome.outputs.update(
            sim_s=outcome.sim_s, kernel_events=outcome.kernel_events,
            messages=outcome.counters.get("net.messages", 0.0),
            bytes=outcome.counters.get("net.bytes", 0.0))
        return outcome


# ---------------------------------------------------------------------------
# chaos-mixed
# ---------------------------------------------------------------------------

def _increment_latencies(rig) -> dict:
    """p50/p90 of the chaos clients' ``increment`` attempts (sim-s)."""
    hist = rig.metrics.find_histogram("orb.client.latency.increment")
    samples = hist.count if hist is not None else 0
    return {"p50": hist.percentile(50) if samples else 0.0,
            "p90": hist.percentile(90) if samples else 0.0,
            "samples": samples}


class ChaosMixed(_Workload):
    """One chaos campaign, default mixed fault weights, over the
    standard 9-host world with tracing on.  Closed loop: three clients,
    each waiting for its reply, think time U(0.2, 0.8) sim-s."""

    name = "chaos-mixed"
    default_seed = 1105
    horizon = 600.0

    def warm(self) -> None:
        ChaosCampaign(build_world(0), CampaignConfig(horizon=20.0)).run()

    def build(self, seed: int):
        world = build_world(seed)
        return world, ChaosCampaign(world, CampaignConfig(
            horizon=self.horizon))

    def ops(self, state) -> int:
        world, _campaign = state
        return world.client_ok + world.client_errors

    def run(self, state, lap=_no_lap) -> Outcome:
        world, campaign = state
        phase = _Phase(world.rig)
        report = campaign.run()
        latencies = _increment_latencies(world.rig)
        problems = [f"violation {v.name} at {v.time:.3f}"
                    for v in report.violations]
        if not report.ok:
            problems.append("chaos report not ok")
        ops = world.client_ok + world.client_errors
        return phase.finish(Outcome(
            ops=ops, errors=world.client_errors, latencies=latencies,
            problems=problems,
            outputs={"report": report.digest(), "calls": ops,
                     "call_errors": world.client_errors, **latencies}))


# ---------------------------------------------------------------------------
# chaos-steady
# ---------------------------------------------------------------------------

class ChaosSteady(_Workload):
    """The chaos scenario's live system in steady state, no fault
    injected: the same 9-host world, tracing, clients, retry/breaker,
    supervisor and gossip as ``chaos-mixed``, with the campaign's
    invariant panel probed every ``probe_every`` sim-s and strictly at
    quiescence.  Closed loop: three clients, each waiting for its
    reply, think time U(0.2, 0.8) sim-s."""

    name = "chaos-steady"
    default_seed = 1105
    horizon = 600.0
    probe_every = 10.0
    drain = CampaignConfig.drain

    def warm(self) -> None:
        self._run(build_world(0), 20.0, _no_lap)

    def build(self, seed: int):
        return build_world(seed)

    def ops(self, world) -> int:
        return world.client_ok + world.client_errors

    def run(self, world, lap=_no_lap) -> Outcome:
        return self._run(world, self.horizon, lap)

    def _run(self, world, horizon: float, lap) -> Outcome:
        rig = world.rig
        phase = _Phase(rig)
        monitors = invariants.default_monitors()
        checks: list = []

        def probe(stage):
            for monitor in monitors:
                # Looked up at call time, so a traced run times it.
                ok, _detail = yield from invariants.probe_monitor(
                    monitor, world, stage)
                checks.append([round(rig.env.now, 6), monitor.name, stage,
                               bool(ok),
                               bool(ok or (stage == invariants.MID
                                           and not monitor.strict_mid))])

        end = rig.env.now + horizon
        while rig.env.now < end:
            rig.run(until=min(rig.env.now + self.probe_every, end))
            rig.run_process(probe(invariants.MID))
            lap()
        world.stop_clients()
        rig.run(until=rig.env.now + self.drain)
        rig.run_process(probe(invariants.QUIESCENCE))
        lap()

        latencies = _increment_latencies(rig)
        problems = [f"violation {name} ({stage}) at {time:.3f}"
                    for time, name, stage, _ok, held in checks if not held]
        if world.client_errors:
            problems.append(f"{world.client_errors} client calls failed "
                            f"with no fault injected")
        ops = world.client_ok + world.client_errors
        return phase.finish(Outcome(
            ops=ops, errors=world.client_errors, latencies=latencies,
            problems=problems,
            outputs={"checks": checks, "calls": ops,
                     "call_errors": world.client_errors, **latencies}))


# ---------------------------------------------------------------------------
# C18 federation population (256 hosts)
# ---------------------------------------------------------------------------

SCALE = dict(clusters=16, size=16, owners=16, components=24, queries=128,
             window=64.0, update=10.0, gossip=2.0, drain=4500.0)
WARM_SCALE = dict(clusters=2, size=4, owners=2, components=2, queries=4,
                  window=4.0, update=2.0, gossip=1.0, drain=60.0)

_SHARD_LOOKUP = SHARD_IFACE.operations["lookup"]


@functools.lru_cache(maxsize=None)
def _service_module():
    """24 distinct service interfaces, so lookups spread over the ring."""
    n = SCALE["components"]
    idl = ('#pragma prefix "corbalc"\nmodule BenchFed {\n'
           + "".join(f"  interface Svc{i} {{ long ping(); }};\n"
                     for i in range(n))
           + "};\n")
    module = compile_idl(idl).BenchFed
    return idl, [getattr(module, f"Svc{i}") for i in range(n)]


def _service_package(index: int) -> ComponentPackage:
    idl, ifaces = _service_module()
    entry = "demo.counter"
    GLOBAL_BINARIES.register(entry, CounterExecutor)
    name = f"BenchSvc{index}"
    soft = SoftwareDescriptor(
        name=name, version=Version.parse("1.0.0"), vendor="repro-bench",
        abstract="Synthetic federation-benchmark service.",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/svc")])
    comp = ComponentTypeDescriptor(
        name=name, provides=[PortDecl("svc", ifaces[index].repo_id)],
        qos=QoSSpec(cpu_units=1.0, memory_mb=2.0))
    builder = PackageBuilder(soft, comp)
    builder.add_idl("benchfed", idl)
    builder.add_binary("bin/any/svc", synthetic_payload(500, seed=18))
    return ComponentPackage(builder.build())


def _make_rig(scale: dict, seed: int):
    rig = SimRig(clustered(scale["clusters"], scale["size"],
                           backbone="chords"), seed=seed)
    _idl, ifaces = _service_module()
    for i in range(scale["components"]):
        host = (f"c{i % scale['clusters']}"
                f"h{1 + (i // scale['clusters']) % (scale['size'] - 1)}")
        rig.node(host).install_package(_service_package(i))
    return rig, [ifaces[i].repo_id for i in range(scale["components"])]


def _query_load(rig, scale: dict, repo_ids: list, find, answers: list):
    """Open loop in sim time: each lookup fires at its scheduled time
    whatever the backlog, and is timed from that time."""
    env = rig.env
    rng = rig.rngs.stream("bench.federation.load")
    hosts = rig.topology.host_ids()

    def one(delay, host, repo_id):
        yield env.timeout(delay)
        due = env.now
        count = yield from find(host, repo_id)
        answers.append((env.now - due, count))

    for _ in range(scale["queries"]):
        delay = float(rng.uniform(0.0, scale["window"]))
        host = hosts[int(rng.integers(0, len(hosts)))]
        repo_id = repo_ids[int(rng.integers(0, len(repo_ids)))]
        env.process(one(delay, host, repo_id))


def _drain(rig, scale: dict, answers: list, lap) -> None:
    deadline = rig.env.now + scale["window"] + scale["drain"]
    while len(answers) < scale["queries"] and rig.env.now < deadline:
        rig.run(until=min(rig.env.now + 5.0, deadline))
        lap()


def _lookup_outcome(scale: dict, answers: list) -> Outcome:
    waits = [wait for wait, _count in answers]
    lost = scale["queries"] - len(answers)
    empty = sum(1 for _wait, count in answers if count == 0)
    latencies = {"p50": _percentile(waits, 50) if waits else 0.0,
                 "p90": _percentile(waits, 90) if waits else 0.0,
                 "samples": len(waits)}
    problems = [f"{lost} lookups lost"] if lost else []
    return Outcome(
        ops=scale["queries"], errors=lost + empty, latencies=latencies,
        problems=problems,
        outputs={"answers": [[w, c] for w, c in answers], "lost": lost,
                 "empty": empty})


class C18Sharded(_Workload):
    """C18 sharded arm: ring-owner lookups beside publish, gossip,
    anti-entropy and beacons, then owner kills, a WAN partition and
    re-convergence.  Open loop: 128 lookups on a seeded schedule over
    64 sim-s."""

    name = "c18-sharded"
    default_seed = 0

    def warm(self) -> None:
        self.run(self._build(WARM_SCALE, 0))

    def build(self, seed: int):
        return self._build(SCALE, seed)

    def _build(self, scale: dict, seed: int):
        rig, repo_ids = _make_rig(scale, seed)
        fed = FederatedRegistry(rig.nodes, FederationConfig(
            owners=scale["owners"], replication=2,
            update_interval=scale["update"],
            gossip_interval=scale["gossip"]))
        clusters, size = scale["clusters"], scale["size"]
        fed.deploy(owner_hosts=[
            f"c{i % clusters}h{2 + (i // clusters) % (size - 2)}"
            for i in range(scale["owners"])])
        rig.run(until=fed.settle_time())
        return rig, fed, repo_ids, scale

    def ops(self, state) -> int:
        return state[-1]["queries"]

    def run(self, state, lap=_no_lap) -> Outcome:
        rig, fed, repo_ids, scale = state
        phase = _Phase(rig)

        def find(host, repo_id):
            owner = fed.ring.owners(repo_id, 1)[0]
            values = yield rig.node(host).orb.invoke(
                shard_ior(owner), _SHARD_LOOKUP, (repo_id, 0.0, 0.0, 0.0),
                timeout=scale["drain"], meter="bench.lookup")
            return len(values)

        answers: list = []
        _query_load(rig, scale, repo_ids, find, answers)
        _drain(rig, scale, answers, lap)
        outcome = _lookup_outcome(scale, answers)
        if outcome.outputs["empty"]:
            outcome.problems.append(
                f"{outcome.outputs['empty']} lookups answered empty")
        converged, seconds = _churn(rig, fed, repo_ids, scale, lap)
        if not converged:
            outcome.problems.append("registry did not re-converge")
        outcome.outputs.update(converged=converged, convergence_s=seconds)
        return phase.finish(outcome)


def _churn(rig, fed, repo_ids: list, scale: dict, lap) -> tuple:
    """Kill the primary owners of the first repo-ids, partition one
    surviving owner's cluster past the failure-detection timeout, heal,
    and time re-convergence from the heal (as C18 does)."""
    victims: list = []
    for repo_id in repo_ids:
        primary = fed.ring.owners(repo_id, 1)[0]
        if primary not in victims:
            victims.append(primary)
        if len(victims) == 2:
            break
    for victim in victims:
        rig.topology.set_host_state(victim, alive=False)
        fed.remove_owner(victim)
    isolated = sorted(fed.agents)[0]
    gateway = isolated.split("h")[0] + "h0"
    wan = [link for link in rig.topology.links()
           if link.link_class.name == "wan" and gateway in (link.a, link.b)]
    for link in wan:
        rig.topology.set_link_state(link.a, link.b, up=False)
    rig.run(until=rig.env.now + 3.0 * scale["update"]
            + 2.0 * scale["gossip"])
    for link in wan:
        rig.topology.set_link_state(link.a, link.b, up=True)
    start = rig.env.now
    probe = repo_ids[: min(4, len(repo_ids))]

    def converged():
        return (fed.owner_views_agree()
                and all(fed.records_converged(r) for r in probe))

    deadline = start + 60.0 * scale["gossip"] + 3.0 * scale["update"]
    while not converged() and rig.env.now < deadline:
        rig.run(until=rig.env.now + scale["gossip"])
        lap()
    return converged(), rig.env.now - start


class C18Flood(_Workload):
    """C18 flat-flood arm: the same population and query schedule, each
    lookup interrogating every host in turn.  No registry
    infrastructure runs."""

    name = "c18-flood"
    default_seed = 0

    def warm(self) -> None:
        self.run(self._build(WARM_SCALE, 0))

    def build(self, seed: int):
        return self._build(SCALE, seed)

    def _build(self, scale: dict, seed: int):
        rig, repo_ids = _make_rig(scale, seed)
        return rig, repo_ids, scale

    def ops(self, state) -> int:
        return state[-1]["queries"]

    def run(self, state, lap=_no_lap) -> Outcome:
        rig, repo_ids, scale = state
        phase = _Phase(rig)
        hosts = rig.topology.host_ids()
        config = MrmConfig(query_timeout=2.0)

        def find(host, repo_id):
            resolver = FloodResolver(rig.node(host), hosts, config)
            candidates = yield from resolver._find(repo_id, QoSSpec())
            return len(candidates)

        answers: list = []
        _query_load(rig, scale, repo_ids, find, answers)
        _drain(rig, scale, answers, lap)
        return phase.finish(_lookup_outcome(scale, answers))


WORKLOADS = {w.name: w for w in (ChaosSteady(), ChaosMixed(), C18Sharded(),
                                  C18Flood())}
