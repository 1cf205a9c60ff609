"""Tests for topology visualization helpers."""

from __future__ import annotations

from repro.model.instances import topology_instance
from repro.topology.generators import barabasi_albert, grid, random_geometric
from repro.topology.graph import NodeKind
from repro.topology.visualize import (
    degree_histogram,
    path_length_profile,
    summarize_topology,
    to_graphviz,
)


class TestSummarize:
    def test_mentions_every_present_kind(self, topo_problem):
        text = summarize_topology(topo_problem.graph)
        assert "router" in text
        assert "edge_server" in text
        assert "iot_device" in text

    def test_includes_link_statistics(self):
        graph = random_geometric(15, seed=1)
        text = summarize_topology(graph)
        assert "latency (ms)" in text
        assert "bandwidth (Mbps)" in text

    def test_empty_kind_omitted(self):
        graph = random_geometric(10, seed=2)
        text = summarize_topology(graph)
        assert "iot_device" not in text


class TestGraphviz:
    def test_dot_structure(self):
        graph = grid(2, 2)
        dot = to_graphviz(graph)
        assert dot.startswith("graph topology {")
        assert dot.rstrip().endswith("}")
        assert dot.count(" -- ") == graph.n_links
        for node in graph.nodes():
            assert f"n{node.node_id} [" in dot

    def test_positions_pinned(self):
        graph = grid(2, 2)
        dot = to_graphviz(graph)
        assert 'pos="' in dot
        assert '!"' in dot

    def test_writes_file(self, tmp_path):
        graph = grid(2, 3)
        path = tmp_path / "topo.dot"
        dot = to_graphviz(graph, path)
        assert path.read_text() == dot

    def test_kinds_styled_differently(self, topo_problem):
        dot = to_graphviz(topo_problem.graph)
        assert "lightblue" in dot     # routers
        assert "lightgreen" in dot    # servers
        assert "shape=point" in dot   # devices


class TestDegreeHistogram:
    def test_counts_sum_to_nodes(self):
        graph = random_geometric(20, seed=3)
        histogram = degree_histogram(graph)
        assert sum(histogram.values()) == graph.n_nodes

    def test_kind_filter(self, topo_problem):
        histogram = degree_histogram(topo_problem.graph, NodeKind.IOT_DEVICE)
        # every device has exactly one access link
        assert set(histogram) == {1}

    def test_barabasi_heavy_tail_visible(self):
        graph = barabasi_albert(80, attach=2, seed=4)
        histogram = degree_histogram(graph)
        assert max(histogram) >= 8  # hubs exist


class TestPathLengthProfile:
    def test_profile_keys_and_sanity(self, topo_problem):
        profile = path_length_profile(topo_problem.graph)
        assert set(profile) == {"mean_hops", "min_hops", "max_hops", "p95_hops"}
        assert 1 <= profile["min_hops"] <= profile["mean_hops"] <= profile["max_hops"]

    def test_empty_without_devices(self):
        graph = random_geometric(10, seed=5)
        assert path_length_profile(graph) == {}

    def test_hierarchy_deeper_than_geometric(self):
        geo = topology_instance(
            family="random_geometric", n_routers=40, n_devices=20, n_servers=3, seed=6
        )
        tree = topology_instance(
            family="edge_hierarchy", n_routers=40, n_devices=20, n_servers=3, seed=6
        )
        assert (
            path_length_profile(tree.graph)["max_hops"]
            >= path_length_profile(geo.graph)["min_hops"]
        )
