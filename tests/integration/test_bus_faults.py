"""Pipelined soft-state reporting under a flapping network.

Soft-state reports are direct ``report`` oneways, and bursts of them
to one MRM coalesce in the sender ORB's GIOP pipeline.  Coalescing
must never change the registry's consistency story: whatever the
network drops is repaired by later reports, but a multi-frame
transmission that *does* arrive must apply its member reports exactly
once and in send order.  This test floods the MRM with
generation-stamped views while a fault injector flaps the links under
the delivery path, then checks the sequence of state applications at
the MRM: per host strictly increasing generations — gaps are loss
(allowed), a repeat is a duplicate, a decrease is a reorder (both
forbidden).
"""

import pytest

from repro.registry.groups import DistributedRegistry, RegistryConfig
from repro.registry.mrm import MRM_IFACE
from repro.registry.view import NodeView
from repro.sim.faults import FaultInjector
from repro.sim.topology import star
from repro.testing import SimRig

pytestmark = pytest.mark.faults

HOSTS = ["h0", "h1", "h2"]


def deploy():
    rig = SimRig(star(3), seed=13)
    cfg = RegistryConfig(update_interval=1.0)
    dr = DistributedRegistry(rig.nodes, cfg)
    dr.deploy({"g": list(HOSTS)})
    return rig, dr


class TestBusUnderFaults:
    def test_no_duplicate_or_reordered_application(self):
        rig, dr = deploy()
        agent = dr.groups["g"].agents[0]          # MRM lives on h0

        applied = []
        orig = agent.accept_report

        def recording(host, view, *a, **kw):
            applied.append((host, view.generation))
            return orig(host, view, *a, **kw)

        agent.accept_report = recording

        # Synthetic high-rate publishers: bursts of generation-stamped
        # views, faster than the real reporter and several per pipeline
        # window so transmissions carry real coalescence.
        report = MRM_IFACE.operations["report"]

        def publisher(node):
            base = NodeView.collect(node).to_value()
            gen = 0
            while True:
                for _ in range(3):
                    gen += 1
                    node.orb.send_oneway(
                        agent.ior, report,
                        (node.host_id, dict(base, generation=float(gen))))
                yield rig.env.timeout(0.15)

        for host in HOSTS:
            rig.env.process(publisher(rig.node(host)))

        # Flap the delivery path: the leaf links while traffic flows,
        # and twice the MRM's own uplink.
        injector = FaultInjector(rig.env, rig.topology)
        for t in (2.0, 4.1, 6.3, 8.0):
            injector.cut_link_at(t, "h1", "hub")
            injector.heal_link_at(t + 0.4, "h1", "hub")
        for t in (3.0, 7.2):
            injector.cut_link_at(t, "h2", "hub")
            injector.heal_link_at(t + 0.7, "h2", "hub")
        for t in (5.0, 9.1):
            injector.cut_link_at(t, "h0", "hub")
            injector.heal_link_at(t + 0.5, "h0", "hub")

        rig.run(until=12.0)

        # The real reporter interleaves views at generation 0 (nothing
        # installed changes registry.generation); the synthetic stream
        # starts at 1.
        synthetic = [(h, g) for h, g in applied if g > 0]
        per_host = {h: [g for hh, g in synthetic if hh == h]
                    for h in HOSTS}
        for host in HOSTS:
            gens = per_host[host]
            # Traffic got through despite the flapping...
            assert len(gens) >= 30, (host, len(gens))
            # ...and every application is fresh and in order: strictly
            # increasing, so no batch was double-applied (duplicate)
            # and no late flush overtook a newer one (reorder).
            assert all(b > a for a, b in zip(gens, gens[1:])), host
        # Loss happened under the flaps (otherwise this test isn't
        # exercising anything).  h0 hosts the MRM itself — loopback
        # delivery never touches a link — but h1/h2 cross the flapped
        # uplinks, so not every generation of theirs arrived.
        for host in ("h1", "h2"):
            gens = per_host[host]
            assert gens[-1] > len(gens), host

        # Delivery really was coalesced, not one message per report.
        assert rig.metrics.get("orb.pipeline.flushes") >= 30
        assert (rig.metrics.get("orb.pipeline.frames")
                >= 2 * rig.metrics.get("orb.pipeline.flushes"))

    def test_registry_converges_after_flaps(self):
        rig, dr = deploy()
        injector = FaultInjector(rig.env, rig.topology)
        for t in (1.0, 2.6, 4.4):
            injector.cut_link_at(t, "h1", "hub")
            injector.heal_link_at(t + 0.6, "h1", "hub")
        rig.run(until=dr.settle_time() + 8.0)
        agent = dr.groups["g"].agents[0]
        assert sorted(agent.members) == HOSTS
