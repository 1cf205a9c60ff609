"""Tests for topology generators."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError, ValidationError
from repro.topology.generators import (
    ACCESS,
    TOPOLOGY_FAMILIES,
    LinkProfile,
    apply_oversubscription,
    attach_iot_devices,
    barabasi_albert,
    edge_hierarchy,
    ensure_connected,
    fat_tree,
    grid,
    make_topology,
    random_geometric,
    tier_crossing_links,
    watts_strogatz,
    waxman,
)
from repro.topology.graph import NetworkGraph, NodeKind


class TestLinkProfile:
    def test_latency_scales_with_distance(self):
        profile = LinkProfile(1e-3, 2e-3, 1e9, 0.0)
        assert profile.latency(0.0) == pytest.approx(1e-3)
        assert profile.latency(1.0) == pytest.approx(3e-3)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            LinkProfile(1e-3, 0.0, 0.0, 0.0)


class TestEnsureConnected:
    def test_connects_two_islands(self):
        graph = NetworkGraph()
        a = graph.add_node(NodeKind.ROUTER, (0.0, 0.0))
        b = graph.add_node(NodeKind.ROUTER, (0.1, 0.0))
        graph.add_node(NodeKind.ROUTER, (1.0, 1.0))
        graph.add_link(a, b, 1e-3, 1e9)
        ensure_connected(graph)
        assert graph.is_connected()

    def test_noop_on_connected(self):
        graph = NetworkGraph()
        a = graph.add_node(NodeKind.ROUTER)
        b = graph.add_node(NodeKind.ROUTER)
        graph.add_link(a, b, 1e-3, 1e9)
        links_before = graph.n_links
        ensure_connected(graph)
        assert graph.n_links == links_before


@pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
class TestAllFamilies:
    def test_connected(self, family):
        graph = make_topology(family, 30, seed=1)
        assert graph.is_connected()

    def test_only_routers(self, family):
        graph = make_topology(family, 30, seed=1)
        assert all(n.kind == NodeKind.ROUTER for n in graph.nodes())

    def test_positions_in_unit_square(self, family):
        graph = make_topology(family, 30, seed=1)
        for node in graph.nodes():
            assert 0.0 <= node.position[0] <= 1.0
            assert 0.0 <= node.position[1] <= 1.0

    def test_deterministic_under_seed(self, family):
        first = make_topology(family, 25, seed=9)
        second = make_topology(family, 25, seed=9)
        assert first.n_nodes == second.n_nodes
        assert first.n_links == second.n_links
        assert [l.latency_s for l in first.links()] == [
            l.latency_s for l in second.links()
        ]

    def test_positive_link_latencies(self, family):
        graph = make_topology(family, 25, seed=2)
        for link in graph.links():
            assert link.latency_s > 0
            assert link.bandwidth_bps > 0


class TestSpecificFamilies:
    def test_grid_shape(self):
        graph = grid(3, 4)
        assert graph.n_nodes == 12
        assert graph.n_links == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_grid_square_default(self):
        assert grid(3).n_nodes == 9

    def test_hierarchy_node_count(self):
        graph = edge_hierarchy(depth=3, fanout=2)
        assert graph.n_nodes == 1 + 2 + 4

    def test_hierarchy_is_tree(self):
        graph = edge_hierarchy(depth=4, fanout=3)
        assert graph.n_links == graph.n_nodes - 1

    def test_fat_tree_sizes(self):
        graph = fat_tree(k=4)
        # (k/2)^2 core + k * k agg+edge
        assert graph.n_nodes == 4 + 16

    def test_fat_tree_rejects_odd_k(self):
        with pytest.raises(ValidationError):
            fat_tree(k=3)

    def test_watts_strogatz_rejects_odd_neighbors(self):
        with pytest.raises(ValidationError):
            watts_strogatz(10, ring_neighbors=3)

    def test_barabasi_has_hubs(self):
        graph = barabasi_albert(60, attach=2, seed=5)
        degrees = sorted(graph.degree(n) for n in graph.node_ids())
        assert degrees[-1] >= 3 * degrees[len(degrees) // 2]

    def test_waxman_alpha_increases_density(self):
        sparse = waxman(40, alpha=0.1, seed=3)
        dense = waxman(40, alpha=0.9, seed=3)
        assert dense.n_links > sparse.n_links

    def test_geometric_radius_increases_density(self):
        small = random_geometric(40, radius=0.2, seed=3)
        large = random_geometric(40, radius=0.5, seed=3)
        assert large.n_links > small.n_links

    def test_single_router_allowed(self):
        graph = random_geometric(1, seed=0)
        assert graph.n_nodes == 1
        assert graph.is_connected()

    def test_unknown_family_raises(self):
        with pytest.raises(TopologyError):
            make_topology("ring_of_fire", 10)


class TestAttachIoTDevices:
    def test_adds_devices_with_access_links(self):
        graph = random_geometric(20, seed=1)
        devices = attach_iot_devices(graph, 15, seed=2)
        assert len(devices) == 15
        for device in devices:
            assert graph.node(device).kind == NodeKind.IOT_DEVICE
            assert graph.degree(device) == 1
            gateway = graph.neighbors(device)[0]
            assert graph.node(gateway).kind == NodeKind.ROUTER

    def test_nearest_strategy_picks_closest_router(self):
        graph = NetworkGraph()
        near = graph.add_node(NodeKind.ROUTER, (0.0, 0.0))
        far = graph.add_node(NodeKind.ROUTER, (1.0, 1.0))
        graph.add_link(near, far, 1e-3, 1e9)
        # deterministic check over many devices: each attaches to the
        # router nearer its sampled position
        devices = attach_iot_devices(graph, 30, seed=3, strategy="nearest")
        for device in devices:
            gateway = graph.neighbors(device)[0]
            dx, dy = graph.node(device).position
            to_near = math.hypot(dx, dy)
            to_far = math.hypot(dx - 1.0, dy - 1.0)
            expected = near if to_near <= to_far else far
            assert gateway == expected

    def test_random_strategy_spreads(self):
        graph = random_geometric(10, seed=4)
        devices = attach_iot_devices(graph, 50, seed=5, strategy="random")
        gateways = {graph.neighbors(d)[0] for d in devices}
        assert len(gateways) > 1

    def test_access_profile_used(self):
        graph = random_geometric(5, seed=6)
        devices = attach_iot_devices(graph, 3, seed=7)
        for device in devices:
            link = graph.incident_links(device)[0]
            assert link.bandwidth_bps == ACCESS.bandwidth_bps

    def test_no_routers_raises(self):
        graph = NetworkGraph()
        graph.add_node(NodeKind.EDGE_SERVER)
        with pytest.raises(TopologyError):
            attach_iot_devices(graph, 2)

    def test_unknown_strategy_rejected(self):
        graph = random_geometric(5, seed=8)
        with pytest.raises(ValidationError):
            attach_iot_devices(graph, 2, strategy="teleport")


class TestOversubscription:
    def test_hierarchy_has_tier_crossing_links(self):
        graph = make_topology("edge_hierarchy", 25, seed=3)
        crossing = tier_crossing_links(graph)
        assert crossing
        for link in crossing:
            assert graph.node(link.u).region != graph.node(link.v).region

    def test_unlabeled_graph_has_no_crossings(self):
        graph = random_geometric(15, seed=3)
        assert tier_crossing_links(graph) == []

    def test_factor_thins_only_crossing_links(self):
        graph = make_topology("edge_hierarchy", 25, seed=3)
        crossing = {frozenset((l.u, l.v)) for l in tier_crossing_links(graph)}
        before = {frozenset((l.u, l.v)): l.bandwidth_bps for l in graph.links()}
        thinned = apply_oversubscription(graph, 4.0)
        assert thinned == len(crossing)
        for link in graph.links():
            key = frozenset((link.u, link.v))
            expected = before[key] / 4.0 if key in crossing else before[key]
            assert link.bandwidth_bps == pytest.approx(expected)

    def test_factor_one_is_exact_noop(self):
        graph = make_topology("edge_hierarchy", 25, seed=3)
        before = {(l.u, l.v): (l.latency_s, l.bandwidth_bps) for l in graph.links()}
        assert apply_oversubscription(graph, 1.0) == 0
        after = {(l.u, l.v): (l.latency_s, l.bandwidth_bps) for l in graph.links()}
        assert before == after

    def test_factor_below_one_rejected(self):
        graph = make_topology("edge_hierarchy", 25, seed=3)
        with pytest.raises(ValidationError):
            apply_oversubscription(graph, 0.5)


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(sorted(TOPOLOGY_FAMILIES)),
    n=st.integers(min_value=5, max_value=60),
    seed=st.integers(0, 10_000),
)
def test_property_every_family_always_connected(family, n, seed):
    """The repair pass must make any generated backbone routable."""
    graph = make_topology(family, n, seed=seed)
    assert graph.is_connected()
    assert graph.n_nodes >= 1
