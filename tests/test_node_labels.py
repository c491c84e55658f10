"""Robustness: everything works with non-integer node labels.

Node identifiers in CONGEST are opaque IDs; the library breaks ties by
``repr`` ordering, so strings and tuples must work everywhere integers do.
"""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro

from repro.core.config import PlanarConfiguration
from repro.core.dfs import dfs_tree
from repro.core.separator import compute_cycle_separators, cycle_separator
from repro.core.verify import check_dfs_tree, check_separator
from repro.planar import generators as gen


def string_labelled(graph):
    return nx.relabel_nodes(graph, {v: f"node-{v:03d}" for v in graph.nodes})


def tuple_labelled(graph):
    return nx.relabel_nodes(graph, {v: (v // 10, v % 10) for v in graph.nodes})


class TestStringLabels:
    def test_separator(self):
        g = string_labelled(gen.delaunay(45, seed=3))
        cfg = PlanarConfiguration.build(g, root="node-000")
        res = cycle_separator(cfg)
        check_separator(g, res.path, cfg.tree)

    def test_dfs(self):
        g = string_labelled(gen.grid(5, 6))
        res = dfs_tree(g, "node-000")
        check_dfs_tree(g, res.parent, "node-000")

    def test_partition(self):
        g = string_labelled(gen.grid(4, 6))
        names = sorted(g.nodes)
        parts = [names[:12], names[12:]]
        out = compute_cycle_separators(g, parts)
        for i, part in enumerate(parts):
            check_separator(g.subgraph(part), out[i].path)


class TestTupleLabels:
    def test_separator_and_dfs(self):
        g = tuple_labelled(gen.triangulated_grid(5, 5))
        root = min(g.nodes)
        cfg = PlanarConfiguration.build(g, root=root)
        check_separator(g, cycle_separator(cfg).path, cfg.tree)
        res = dfs_tree(g, root)
        check_dfs_tree(g, res.parent, root)

    def test_hierarchy(self):
        from repro.applications import build_hierarchy

        g = tuple_labelled(gen.delaunay(60, seed=2))
        h = build_hierarchy(g)
        assert sorted(h.elimination_order()) == sorted(g.nodes)


_PARENT_MAP_SCRIPT = """
import networkx as nx
from repro.core.dfs import dfs_tree
from repro.planar import generators as gen
g = nx.relabel_nodes(gen.delaunay(120, seed=7), lambda v: f"n{v}")
print(sorted(dfs_tree(g, "n0").parent.items(), key=repr))
"""


#: String-labelled churn through the mutation layer: each insert's chord
#: placement must not depend on set order.
_CHURN_ROWS_SCRIPT = """
import hashlib
import networkx as nx
from repro.dynamic import DynamicPlanarGraph, flap_updates
from repro.planar import generators as gen
g = nx.relabel_nodes(gen.delaunay(80, seed=3), lambda v: f"n{v}")
dyn = DynamicPlanarGraph(g)
for batch in flap_updates(g, seed=5, rate=0.05, rounds=10):
    for update in batch:
        dyn.apply(update)
rows = sorted((v, dyn.rotation.neighbors_cw(v)) for v in dyn.graph)
print(hashlib.sha256(repr(rows).encode()).hexdigest(), dyn.reembeds)
"""


def _parent_map_under_hash_seed(seed: int) -> str:
    return _run_under_hash_seed(_PARENT_MAP_SCRIPT, seed)


def _run_under_hash_seed(script: str, seed: int) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-1000:]
    return proc.stdout


class TestHashSeedIndependence:
    @pytest.mark.xfail(
        strict=True,
        reason="known defect: set-order tie-breaks (unused repr key in "
        "_deepest_attachment, set-ordered components and induced copies) "
        "make string-labelled DFS trees depend on PYTHONHASHSEED",
    )
    def test_dfs_tree_is_independent_of_hash_seed(self):
        assert _parent_map_under_hash_seed(1) == _parent_map_under_hash_seed(2)

    def test_churn_inserts_are_independent_of_hash_seed(self):
        outputs = {_run_under_hash_seed(_CHURN_ROWS_SCRIPT, seed) for seed in (0, 1, 2)}
        assert len(outputs) == 1, outputs
