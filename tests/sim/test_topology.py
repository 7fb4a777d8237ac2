"""Unit tests for topology construction and routing."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.sim.rng import RngRegistry
from repro.sim.topology import (
    DESKTOP,
    LAN,
    MODEM,
    PDA,
    SERVER,
    WAN,
    HostProfile,
    Topology,
    clustered,
    line,
    random_mesh,
    star,
)
from repro.util.errors import ConfigurationError


class TestConstruction:
    def test_add_host_and_lookup(self):
        topo = Topology()
        host = topo.add_host("a", SERVER)
        assert topo.host("a") is host
        assert host.profile.cpu_power == 1000.0

    def test_duplicate_host_rejected(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(ConfigurationError):
            topo.add_host("a")

    def test_unknown_host_rejected(self):
        topo = Topology()
        with pytest.raises(ConfigurationError):
            topo.host("ghost")

    def test_link_requires_existing_endpoints(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "b")

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "a")

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        topo.add_link("a", "b")
        with pytest.raises(ConfigurationError):
            topo.add_link("b", "a")

    def test_link_lookup_symmetric(self):
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        link = topo.add_link("a", "b", WAN)
        assert topo.link("a", "b") is link
        assert topo.link("b", "a") is link
        assert link.latency == WAN.latency


class TestRouting:
    def test_route_to_self(self):
        topo = star(2)
        assert topo.route("h0", "h0") == ["h0"]

    def test_star_routes_via_hub(self):
        topo = star(3)
        assert topo.route("h0", "h2") == ["h0", "hub", "h2"]

    def test_line_route_full_length(self):
        topo = line(5)
        assert topo.route("h0", "h4") == ["h0", "h1", "h2", "h3", "h4"]

    def test_unreachable_after_link_cut(self):
        topo = line(3)
        topo.set_link_state("h0", "h1", up=False)
        assert topo.route("h0", "h2") is None
        assert not topo.reachable("h0", "h2")

    def test_route_heals_when_link_restored(self):
        topo = line(3)
        topo.set_link_state("h0", "h1", up=False)
        assert topo.route("h0", "h2") is None
        topo.set_link_state("h0", "h1", up=True)
        assert topo.route("h0", "h2") == ["h0", "h1", "h2"]

    def test_dead_host_not_routed_through(self):
        topo = line(3)
        topo.set_host_state("h1", alive=False)
        assert topo.route("h0", "h2") is None

    def test_route_prefers_low_latency(self):
        topo = Topology()
        for h in "abcd":
            topo.add_host(h)
        topo.add_link("a", "d", MODEM)       # direct but 100 ms
        topo.add_link("a", "b", LAN)
        topo.add_link("b", "c", LAN)
        topo.add_link("c", "d", LAN)         # 3 hops but 1.5 ms total
        assert topo.route("a", "d") == ["a", "b", "c", "d"]

    def test_path_links(self):
        topo = line(4)
        path = topo.route("h0", "h3")
        links = topo.path_links(path)
        assert len(links) == 3
        assert links[0].key == ("h0", "h1")


class TestLiveness:
    def test_crash_fires_callbacks(self):
        topo = star(1)
        seen = []
        topo.host("h0").on_crash.append(lambda h: seen.append(h.host_id))
        topo.set_host_state("h0", alive=False)
        assert seen == ["h0"]
        # Crashing an already-dead host is a no-op.
        topo.set_host_state("h0", alive=False)
        assert seen == ["h0"]

    def test_restart_fires_callbacks(self):
        topo = star(1)
        seen = []
        topo.host("h0").on_restart.append(lambda h: seen.append(h.host_id))
        topo.set_host_state("h0", alive=False)
        topo.set_host_state("h0", alive=True)
        assert seen == ["h0"]


class TestProfiles:
    def test_pda_is_tiny(self):
        assert PDA.is_tiny
        assert not SERVER.is_tiny

    def test_scaled_profile(self):
        fast = DESKTOP.scaled(2.0)
        assert fast.cpu_power == DESKTOP.cpu_power * 2
        assert fast.os == DESKTOP.os


class TestBuilders:
    def test_clustered_shape(self):
        topo = clustered(3, 4)
        assert len(topo.host_ids()) == 12
        # intra-cluster routes are direct (full mesh: a LAN switch)
        assert topo.route("c0h1", "c0h2") == ["c0h1", "c0h2"]
        # inter-cluster routes pass through cluster heads
        route = topo.route("c0h1", "c2h3")
        assert route[0] == "c0h1" and route[-1] == "c2h3"
        assert "c1h0" in route

    def test_clustered_survives_head_loss_within_cluster(self):
        topo = clustered(2, 4)
        topo.set_host_state("c0h0", alive=False)
        # intra-cluster connectivity survives losing the gateway
        assert topo.reachable("c0h1", "c0h3")
        # but inter-cluster traffic from c0 is cut (it was the gateway)
        assert not topo.reachable("c0h1", "c1h1")

    def test_clustered_inter_links_are_wan(self):
        topo = clustered(2, 2)
        assert topo.link("c0h0", "c1h0").link_class.name == "wan"
        assert topo.link("c0h0", "c0h1").link_class.name == "lan"

    def test_clustered_chords_backbone_shortens_wan_diameter(self):
        chain = clustered(16, 2)
        chords = clustered(16, 2, backbone="chords")
        # chain: c0 -> c15 crosses every intermediate gateway
        assert len(chain.route("c0h0", "c15h0")) == 16
        # ring + power-of-two chords: logarithmic gateway hops
        assert len(chords.route("c0h0", "c15h0")) <= 5
        # every pair still reachable, links still WAN class
        for c in range(16):
            assert chords.reachable("c0h1", f"c{c}h1")
        assert chords.link("c0h0", "c1h0").link_class.name == "wan"
        assert chords.link("c0h0", "c8h0").link_class.name == "wan"

    def test_clustered_chords_small_counts_degenerate_to_chain(self):
        # with <= 2 clusters there is nothing to chord
        duo = clustered(2, 2, backbone="chords")
        assert len(list(duo.links())) == len(
            list(clustered(2, 2).links()))

    def test_clustered_rejects_unknown_backbone(self):
        with pytest.raises(ConfigurationError):
            clustered(2, 2, backbone="mesh")

    def test_random_mesh_connected_and_deterministic(self):
        rng1 = RngRegistry(7).stream("topo")
        rng2 = RngRegistry(7).stream("topo")
        t1 = random_mesh(20, degree=3.0, rng=rng1)
        t2 = random_mesh(20, degree=3.0, rng=rng2)
        assert sorted(l.key for l in t1.links()) == sorted(
            l.key for l in t2.links()
        )
        for i in range(1, 20):
            assert t1.reachable("h0", f"h{i}")

    def test_star_profiles(self):
        topo = star(2, hub_profile=SERVER, leaf_profile=PDA)
        assert topo.host("hub").profile is SERVER
        assert topo.host("h0").profile is PDA


# -- routing against a networkx oracle ----------------------------------------

def _live_graph(topo):
    """The live subgraph as a weighted networkx graph: the oracle."""
    g = nx.Graph()
    g.add_nodes_from(h.host_id for h in topo.hosts() if h.alive)
    g.add_weighted_edges_from(
        (l.a, l.b, l.latency) for l in topo.links()
        if l.up and l.a in g and l.b in g)
    return g


def _break(topo, seed):
    """Fill the route caches, then cut a seeded tenth of the links and
    crash a seeded tenth of the hosts: routes must follow the change."""
    hosts = topo.host_ids()
    for src in hosts:
        for dst in hosts:
            topo.route_links(src, dst)
    rng = random.Random(seed)
    links = topo.links()
    for link in rng.sample(links, max(1, len(links) // 10)):
        topo.set_link_state(link.a, link.b, up=False)
    for host in rng.sample(hosts, max(1, len(hosts) // 10)):
        topo.set_host_state(host, alive=False)


ORACLE_TOPOLOGIES = {
    "star": lambda: star(6),
    "line": lambda: line(7),
    "chain": lambda: clustered(4, 4),
    "chords": lambda: clustered(16, 16, backbone="chords"),
    "mesh": lambda: random_mesh(40, 3.0, RngRegistry(5).stream("topo")),
}


@pytest.fixture(params=[(name, broken) for name in ORACLE_TOPOLOGIES
                        for broken in (False, True)],
                ids=lambda p: f"{p[0]}-{'broken' if p[1] else 'intact'}")
def oracle_topology(request):
    name, broken = request.param
    topo = ORACLE_TOPOLOGIES[name]()
    if broken:
        _break(topo, seed=7)
    return topo


class TestRoutingOracle:
    def test_latency_and_reachability_match_networkx(self, oracle_topology):
        topo = oracle_topology
        g = _live_graph(topo)
        for src in topo.host_ids():
            live = src in g
            lengths = (nx.single_source_dijkstra_path_length(g, src)
                       if live else {})
            component = nx.node_connected_component(g, src) if live else ()
            for dst in topo.host_ids():
                if src == dst:
                    continue
                path = topo.route(src, dst)
                assert (path is not None) == (dst in component), (src, dst)
                if path is None:
                    assert topo.route_links(src, dst) is None
                    continue
                links = topo.route_links(src, dst)
                assert links == topo.path_links(path)
                assert all(l.up for l in links)
                assert all(topo.host(h).alive for h in path)
                assert sum(l.latency for l in links) == pytest.approx(
                    lengths[dst], rel=1e-12)

    def test_every_prefix_is_a_route(self, oracle_topology):
        # route(s, d) minus its last hop is route(s, prev); by induction
        # every prefix of a route is the route to its last host.
        topo = oracle_topology
        for src in topo.host_ids():
            for dst in topo.host_ids():
                path = topo.route(src, dst)
                if path is not None and len(path) > 1:
                    assert topo.route(src, path[-2]) == path[:-1]

    def test_equal_latency_tie_goes_to_first_discovered_path(self):
        # c0h0 reaches c13h0 over two WAN hops either via c1h0 or via
        # c12h0.  The link to c1h0 was added first, so c1h0 is pushed
        # and popped first and claims c13h0; c12h0's equal-latency path
        # is not strictly shorter and loses.
        topo = clustered(16, 16, backbone="chords")
        assert topo.route("c0h0", "c13h0") == ["c0h0", "c1h0", "c13h0"]

    def test_unknown_endpoints_rejected(self):
        topo = line(3)
        with pytest.raises(ConfigurationError):
            topo.route("h0", "ghost")
        with pytest.raises(ConfigurationError):
            topo.route_links("ghost", "h0")


# -- determinism across processes, and no networkx at run time ----------------

_ROUTE_DIGEST = """
import hashlib, json, sys
import repro
from repro.chaos import build_world
from repro.sim.topology import clustered
from repro.testing import SimRig

def routes(topo):
    hosts = topo.host_ids()
    return [topo.route(s, d) for s in hosts for d in hosts]

world = build_world(0)
chords = clustered(16, 16, backbone="chords")
rig = SimRig(chords)
blob = json.dumps([routes(world.topology), routes(rig.topology)])
print(json.dumps({"digest": hashlib.sha256(blob.encode()).hexdigest(),
                  "networkx": "networkx" in sys.modules}))
"""

SRC = Path(__file__).resolve().parents[2] / "src"


def _route_digest(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _ROUTE_DIGEST], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestRoutingProcessInvariants:
    def test_routes_identical_across_hash_seeds_without_networkx(self):
        first, second = _route_digest(1), _route_digest(2)
        assert first["digest"] == second["digest"]
        assert not first["networkx"] and not second["networkx"]
