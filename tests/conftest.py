"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib

import networkx as nx
import pytest

from repro.congest import Network
from repro.core.config import PlanarConfiguration
from repro.planar import generators as gen
from repro.trees import bfs_tree, dfs_spanning_tree, random_spanning_tree


def family_instances(seed: int = 0):
    """One representative instance per generator family."""
    return gen.FAMILIES(seed)


def make_config(graph: nx.Graph, root=0, kind: str = "bfs", seed: int = 0) -> PlanarConfiguration:
    """Configuration with a chosen spanning-tree flavor."""
    if kind == "bfs":
        tree = bfs_tree(graph, root)
    elif kind == "dfs":
        tree = dfs_spanning_tree(graph, root)
    else:
        tree = random_spanning_tree(graph, root, seed)
    return PlanarConfiguration.build(graph, root=root, tree=tree)


def configs_for(graph: nx.Graph, root=0, seed: int = 0):
    """The three spanning-tree flavors for one graph."""
    for kind in ("bfs", "dfs", "rand"):
        yield kind, make_config(graph, root=root, kind=kind, seed=seed)


@contextlib.contextmanager
def forced_scheduler(scheduler: str = "dense"):
    """Run every ``Network.run`` inside the block under ``scheduler``.

    Only the kernel primitives (``bfs_run``, ``broadcast_run``,
    ``convergecast_run``) take ``scheduler=``; every other sim and the
    chaos scenarios dispatch active-set.  Tests reach the dense reference
    for them through this wrapper, which overrides whatever dispatcher a
    call asks for.
    """
    run = Network.run

    def forced(self, *args, **kwargs):
        kwargs["scheduler"] = scheduler
        return run(self, *args, **kwargs)

    Network.run = forced
    try:
        yield
    finally:
        Network.run = run


@pytest.fixture
def grid_config() -> PlanarConfiguration:
    """A 5x6 grid with a BFS spanning tree — the workhorse fixture."""
    return make_config(gen.grid(5, 6))


@pytest.fixture
def delaunay_graph() -> nx.Graph:
    """A 40-node Delaunay triangulation."""
    return gen.delaunay(40, seed=7)
