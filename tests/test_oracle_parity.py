"""The per-batch oracles agree with their definitions.

``separator_report`` counts the components of ``G - S`` with one walk over
the adjacency; networkx's connected components of the subgraph view are the
reference.  ``certify_cycle`` answers ``"virtual-edge"`` from the faces of
a rotation; the reference is the slot enumeration augment uses
(``planar_slot_pairs`` on a configuration), asked on fresh embeddings and
on the live rotations churn leaves behind.
"""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.augment import planar_slot_pairs
from repro.core.certify import certify_cycle
from repro.core.config import PlanarConfiguration
from repro.core.separator import cycle_separator
from repro.core.verify import VerificationError, separator_report
from repro.dynamic import DynamicPipeline, flap_updates
from repro.planar import generators as gen


def _reference_components(graph, separator):
    rest = graph.subgraph(set(graph.nodes) - set(separator))
    return sorted((len(c) for c in nx.connected_components(rest)), reverse=True)


@st.composite
def graphs_with_separator_sets(draw):
    """A planar instance (sometimes string-labelled) and a node subset:
    empty, everything, one node, or a random draw, which often leaves
    several components."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 10_000))
    family = draw(st.sampled_from(["delaunay", "sparse", "tree", "grid", "outer"]))
    if family == "delaunay" and n >= 3:
        g = gen.delaunay(n, seed=seed)
    elif family == "sparse" and n >= 2:
        g = gen.random_planar(n, density=0.2, seed=seed)
    elif family == "grid":
        g = gen.grid(1 + n % 7, 1 + n // 7)
    elif family == "outer" and n >= 3:
        g = gen.outerplanar(n, chords=n // 4, seed=seed)
    else:
        g = gen.random_tree(n, seed=seed)
    if draw(st.booleans()):
        g = nx.relabel_nodes(g, {v: f"v{v}" for v in g})
    nodes = list(g.nodes)
    kind = draw(st.sampled_from(["empty", "all", "one", "subset"]))
    if kind == "empty":
        sep = []
    elif kind == "all":
        sep = nodes
    elif kind == "one":
        sep = [draw(st.sampled_from(nodes))]
    else:
        sep = draw(st.lists(st.sampled_from(nodes), unique=True))
    return g, sep


class TestSeparatorReportParity:
    @given(graphs_with_separator_sets())
    @settings(deadline=None, max_examples=120,
              suppress_health_check=[HealthCheck.too_slow])
    def test_components_match_the_subgraph_view(self, instance):
        g, sep = instance
        report = separator_report(g, sep)
        assert report.components == _reference_components(g, sep)
        assert report.n == len(g)
        assert report.separator_size == len(set(sep))

    def test_cut_vertex_leaves_several_components(self):
        g = gen.star_graph(6)
        assert separator_report(g, [0]).components == [1] * (len(g) - 1)
        g = nx.relabel_nodes(gen.path_graph(9), str)
        report = separator_report(g, ["2", "5"])
        assert report.components == [3, 2, 2] == _reference_components(g, ["2", "5"])

    def test_non_node_error_text(self):
        g = gen.grid(3, 3)
        with pytest.raises(VerificationError) as info:
            separator_report(g, [0, 99, "x"])
        assert str(info.value) == "separator contains non-nodes: [\"'x'\", '99']"


def _assert_virtual_edge_parity(graph, rotation, cfg):
    """For every non-adjacent pair, the face certificate on ``rotation``
    says "virtual-edge" exactly when ``cfg`` has a planar slot pair."""
    nodes = list(graph.nodes)
    checked = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if graph.has_edge(a, b):
                continue
            path = cfg.tree.path(a, b)
            cert = certify_cycle(graph, rotation, path)
            has_slot = next(planar_slot_pairs(cfg, a, b), None) is not None
            assert (cert == "virtual-edge") == has_slot, (a, b, cert)
            checked += 1
    return checked


def _slot_pair_certificate(cfg, path):
    """The certificate as the slot enumeration defines it."""
    if len(path) <= 2:
        return "trivial"
    a, b = path[0], path[-1]
    if cfg.graph.has_edge(a, b):
        return "real-edge"
    if next(planar_slot_pairs(cfg, a, b), None) is not None:
        return "virtual-edge"
    return "none"


class TestCertificateParity:
    @pytest.mark.parametrize(
        "name,graph",
        gen.FAMILIES(0) + gen.FAMILIES(1),
        ids=[f"{n}-{s}" for s in (0, 1) for n, _ in gen.FAMILIES(s)],
    )
    def test_every_pair_on_a_family(self, name, graph):
        root = min(graph.nodes, key=repr)
        cfg = PlanarConfiguration.build(graph, root=root)
        assert _assert_virtual_edge_parity(graph, cfg.rotation, cfg) > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_separator_paths_keep_their_certificates(self, seed):
        for name, graph in gen.FAMILIES(seed):
            cfg = PlanarConfiguration.build(graph, root=0)
            path = cycle_separator(cfg).path
            cert = certify_cycle(graph, cfg.rotation, path)
            assert cert == _slot_pair_certificate(cfg, path), name
            assert cert != "none", name

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_every_pair_on_live_churn_rotations(self, seed):
        # Churn re-inserts edges as face chords of the live rotation, so
        # its rows differ from a fresh embedding; the certificate reads
        # them in place, the reference through a configuration.
        graph = gen.delaunay(40, seed=seed)
        pipeline = DynamicPipeline(graph)
        states = 0
        for batch in flap_updates(graph, seed=seed, rate=0.08, rounds=6):
            pipeline.apply(batch)
            live_graph, live = pipeline.dyn.graph, pipeline.dyn.rotation
            cfg = PlanarConfiguration(live_graph, live, pipeline._sep_tree)
            _assert_virtual_edge_parity(live_graph, live, cfg)
            assert pipeline.certificate == _slot_pair_certificate(
                cfg, list(pipeline.separator_path))
            states += 1
        assert states == 7
