"""Which module belongs to which layer, and where each layer is timed.

:data:`MODULE_LAYERS` maps every module under ``src/repro`` to one of
:data:`LAYERS`, or to ``None`` when the benchmark does not time it: its
work is then charged to whichever timed span encloses it (usually the
kernel root, ``Environment.run``).  ``test_perfbench.py`` fails when a
module is missing from the map or a target no longer resolves.

:data:`TARGETS` lists the entry points the tracer wraps, as
``"module:Qualified.name"``.  Each layer is named by its module so a
later change can say which layer saved the time.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

LAYERS = (
    "sim.kernel", "sim.topology", "sim.network",
    "orb.core", "orb.giop", "orb.codec", "orb.retry",
    "obs", "events", "registry.federation", "registry.queries",
    "deployment", "chaos",
)

_UNTIMED = None

MODULE_LAYERS = {
    "repro": _UNTIMED,
    # Static analysis runs before deployment, never in a workload.
    "repro.analysis": _UNTIMED,
    "repro.analysis.assembly": _UNTIMED,
    "repro.analysis.descriptors": _UNTIMED,
    "repro.analysis.findings": _UNTIMED,
    "repro.analysis.gate": _UNTIMED,
    "repro.analysis.idlcheck": _UNTIMED,
    "repro.analysis.simlint": _UNTIMED,
    "repro.analysis.simlint.baseline": _UNTIMED,
    "repro.analysis.simlint.determinism": _UNTIMED,
    "repro.analysis.simlint.effects": _UNTIMED,
    "repro.analysis.simlint.engine": _UNTIMED,
    "repro.analysis.simlint.hygiene": _UNTIMED,
    "repro.analysis.simlint.loops": _UNTIMED,
    "repro.analysis.verifier": _UNTIMED,
    "repro.chaos": "chaos",
    "repro.chaos.actions": "chaos",
    "repro.chaos.campaign": "chaos",
    "repro.chaos.invariants": "chaos",
    "repro.chaos.report": "chaos",
    "repro.chaos.scenario": "chaos",
    # Component executors run inside servant upcalls (orb.core spans).
    "repro.components": _UNTIMED,
    "repro.components.executor": _UNTIMED,
    "repro.components.factory": _UNTIMED,
    "repro.components.model": _UNTIMED,
    "repro.components.ports": _UNTIMED,
    "repro.components.reflection": _UNTIMED,
    "repro.container": _UNTIMED,
    "repro.container.agent": _UNTIMED,
    "repro.container.aggregation": _UNTIMED,
    "repro.container.container": _UNTIMED,
    "repro.container.context": _UNTIMED,
    "repro.container.instance": _UNTIMED,
    "repro.container.migration": _UNTIMED,
    "repro.container.replication": _UNTIMED,
    # Applications outside the three workloads.
    "repro.cscw": _UNTIMED,
    "repro.cscw.display": _UNTIMED,
    "repro.cscw.video": _UNTIMED,
    "repro.cscw.whiteboard": _UNTIMED,
    "repro.deployment": "deployment",
    "repro.deployment.application": "deployment",
    "repro.deployment.bootstrap": "deployment",
    "repro.deployment.loadbalancer": "deployment",
    "repro.deployment.planner": "deployment",
    "repro.deployment.supervisor": "deployment",
    "repro.events": "events",
    "repro.events.batch_writer": "events",
    "repro.events.bus": "events",
    "repro.events.export": "events",
    "repro.events.remote": "events",
    "repro.events.worker": "events",
    "repro.grid": _UNTIMED,
    "repro.grid.idle": _UNTIMED,
    "repro.grid.volunteer": _UNTIMED,
    "repro.grid.worker": _UNTIMED,
    # IDL compilation happens at import time, inside setup_s.
    "repro.idl": _UNTIMED,
    "repro.idl.codegen": _UNTIMED,
    "repro.idl.idlast": _UNTIMED,
    "repro.idl.lexer": _UNTIMED,
    "repro.idl.parser": _UNTIMED,
    "repro.idl.unparse": _UNTIMED,
    "repro.node": _UNTIMED,
    "repro.node.acceptor": _UNTIMED,
    "repro.node.events": _UNTIMED,
    "repro.node.node": _UNTIMED,
    "repro.node.registry": _UNTIMED,
    "repro.node.repository": _UNTIMED,
    "repro.node.resources": _UNTIMED,
    "repro.obs": "obs",
    "repro.obs.interceptors": "obs",
    "repro.obs.names": "obs",
    "repro.obs.trace": "obs",
    "repro.orb": "orb.core",
    "repro.orb.cdr": "orb.codec",
    "repro.orb.codegen": "orb.codec",
    "repro.orb.compiled": "orb.codec",
    "repro.orb.core": "orb.core",
    "repro.orb.dii": "orb.core",
    "repro.orb.exceptions": "orb.core",
    "repro.orb.fuzz": _UNTIMED,
    "repro.orb.giop": "orb.giop",
    "repro.orb.ior": "orb.core",
    "repro.orb.poa": "orb.core",
    "repro.orb.retry": "orb.retry",
    "repro.orb.services": _UNTIMED,
    "repro.orb.services.events": _UNTIMED,
    "repro.orb.services.naming": _UNTIMED,
    "repro.orb.typecodes": "orb.codec",
    "repro.packaging": _UNTIMED,
    "repro.packaging.binaries": _UNTIMED,
    "repro.packaging.package": _UNTIMED,
    "repro.packaging.signature": _UNTIMED,
    # The soft-state registry planes, views and groups run under the
    # kernel root; only federation and flood queries are timed.
    "repro.registry": _UNTIMED,
    "repro.registry.cohesion": _UNTIMED,
    "repro.registry.federation": "registry.federation",
    "repro.registry.federation.orchestrator": "registry.federation",
    "repro.registry.federation.records": "registry.federation",
    "repro.registry.federation.resolver": "registry.federation",
    "repro.registry.federation.ring": "registry.federation",
    "repro.registry.federation.shard": "registry.federation",
    "repro.registry.groups": _UNTIMED,
    "repro.registry.mrm": _UNTIMED,
    "repro.registry.prediction": _UNTIMED,
    "repro.registry.queries": "registry.queries",
    "repro.registry.replication": _UNTIMED,
    "repro.registry.softstate": _UNTIMED,
    "repro.registry.strongstate": _UNTIMED,
    "repro.registry.view": _UNTIMED,
    "repro.sim": "sim.kernel",
    "repro.sim.faults": "sim.network",
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.network": "sim.network",
    "repro.sim.rng": _UNTIMED,
    "repro.sim.stats": _UNTIMED,
    "repro.sim.topology": "sim.topology",
    "repro.testing": _UNTIMED,
    "repro.tools": _UNTIMED,
    "repro.tools.builder": _UNTIMED,
    "repro.tools.ccm_compat": _UNTIMED,
    "repro.tools.chaos": _UNTIMED,
    "repro.tools.licensing": _UNTIMED,
    "repro.tools.lint": _UNTIMED,
    "repro.tools.obs_report": _UNTIMED,
    "repro.tools.simlint": _UNTIMED,
    "repro.util": _UNTIMED,
    "repro.util.diagnostics": _UNTIMED,
    "repro.util.errors": _UNTIMED,
    "repro.util.ids": _UNTIMED,
    "repro.xmlmeta": _UNTIMED,
    "repro.xmlmeta.descriptors": _UNTIMED,
    "repro.xmlmeta.schema": _UNTIMED,
    "repro.xmlmeta.versions": _UNTIMED,
}


class Target(NamedTuple):
    """One wrapped entry point."""

    name: str                  # "module:Qualified.name"
    layer: str
    #: optional count added per call (per generator, at creation).
    tally: Optional[Callable[..., int]] = None


def _hosts_asked(resolver, *_args, **_kwargs) -> int:
    """A flood lookup interrogates every host in its list."""
    return len(resolver.all_hosts)


TARGETS = (
    Target("repro.sim.kernel:Environment.run", "sim.kernel"),
    Target("repro.sim.topology:Topology.route", "sim.topology"),
    Target("repro.sim.topology:Topology.route_links", "sim.topology"),
    # Topology calls it as ``nx.shortest_path``: an attribute of the
    # networkx module, so that is where it is bound.
    Target("networkx:shortest_path", "sim.topology"),
    Target("repro.sim.network:Network.send", "sim.network"),
    Target("repro.sim.network:Network._deliver", "sim.network"),
    Target("repro.orb.core:ORB.invoke", "orb.core"),
    Target("repro.orb.core:ORB.send_oneway", "orb.core"),
    Target("repro.orb.core:ORB.send_oneway_fanout", "orb.core"),
    # Inbound path: GIOP decode, servant upcall, reply completion.
    Target("repro.orb.core:ORB._on_message", "orb.core"),
    Target("repro.orb.core:ORB._sweep_deadlines", "orb.core"),
    Target("repro.orb.giop:encode_request_prefix", "orb.giop"),
    Target("repro.orb.giop:encode_request", "orb.giop"),
    Target("repro.orb.giop:encode_reply", "orb.giop"),
    Target("repro.orb.giop:encode_multi", "orb.giop"),
    Target("repro.orb.giop:decode_message", "orb.giop"),
    Target("repro.orb.giop:_decode_message_body", "orb.giop"),
    # OperationCodec plan handles are wrapped by Patcher._install_codec.
    Target("repro.orb.cdr:encode_value", "orb.codec"),
    Target("repro.orb.cdr:decode_value", "orb.codec"),
    Target("repro.orb.retry:invoke_with_retry", "orb.retry"),
    Target("repro.orb.retry:send_oneway_with_breaker", "orb.retry"),
    Target("repro.obs.trace:Tracer.start_span", "obs"),
    Target("repro.obs.trace:Tracer.end_span", "obs"),
    Target("repro.obs.trace:ContextStore.bind", "obs"),
    Target("repro.obs.trace:ContextStore.current", "obs"),
    Target("repro.obs.interceptors:TracingInterceptor.send_request", "obs"),
    Target("repro.obs.interceptors:TracingInterceptor.receive_reply", "obs"),
    Target("repro.obs.interceptors:TracingInterceptor.receive_exception",
           "obs"),
    Target("repro.obs.interceptors:TracingInterceptor.receive_request",
           "obs"),
    Target("repro.obs.interceptors:TracingInterceptor.child_process", "obs"),
    Target("repro.obs.interceptors:TracingInterceptor.finish_request",
           "obs"),
    Target("repro.obs.interceptors:MetricsInterceptor.receive_reply", "obs"),
    Target("repro.obs.interceptors:MetricsInterceptor.receive_exception",
           "obs"),
    Target("repro.obs.interceptors:MetricsInterceptor.finish_request",
           "obs"),
    Target("repro.events.bus:EventBus.publish", "events"),
    Target("repro.events.bus:EventBus.flush", "events"),
    Target("repro.events.batch_writer:BatchWriter.flush", "events"),
    Target("repro.events.remote:FanoutForwarder.deliver", "events"),
    Target("repro.events.remote:BatchForwarder.deliver", "events"),
    Target("repro.registry.federation.shard:ShardAgent.accept_gossip",
           "registry.federation"),
    Target("repro.registry.federation.shard:ShardAgent.accept_publish",
           "registry.federation"),
    Target("repro.registry.federation.shard:ShardAgent._gossip_round",
           "registry.federation"),
    Target("repro.registry.federation.shard:ShardAgent.candidates",
           "registry.federation"),
    Target("repro.registry.federation.shard:ShardServant.lookup",
           "registry.federation"),
    Target("repro.registry.federation.records:MembershipTable.beacons",
           "registry.federation"),
    Target("repro.registry.federation.records:ProviderRecord.from_value",
           "registry.federation"),
    Target("repro.registry.federation.records:HostBeacon.from_value",
           "registry.federation"),
    Target("repro.registry.federation.resolver:FederatedResolver._find",
           "registry.federation"),
    Target("repro.registry.federation.orchestrator:"
           "FederationReporter.send_now", "registry.federation"),
    Target("repro.registry.queries:FloodResolver._find", "registry.queries",
           tally=_hosts_asked),
    Target("repro.deployment.supervisor:ApplicationSupervisor._tick",
           "deployment"),
    Target("repro.deployment.application:Application._repair", "deployment"),
    Target("repro.chaos.invariants:probe_monitor", "chaos"),
    Target("repro.chaos.campaign:ChaosCampaign._apply_one", "chaos"),
    Target("repro.chaos.campaign:ChaosCampaign._revert_fault", "chaos"),
)
