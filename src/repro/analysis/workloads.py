"""Workload suites for the experiment harness (DESIGN.md §4).

Every instance an experiment runs on is produced here, by name, from a
seeded generator — which is what makes the runner subsystem work:

* the **unit plans** of :mod:`repro.analysis.registry` reference instances
  as ``(family, n, seed)`` triples and each unit rebuilds its instance
  via :func:`scaled_instance` / :func:`suite_instance` /
  :func:`partitioned_instance`;
* :func:`scaling_key` exposes the *realized* generator parameters without
  building the graph, letting unit planning deduplicate sizes that
  collapse to the same instance (the Apollonian family maps several
  requested ``n`` to one ``levels`` value — E2 relies on this).

Which experiment uses which builder: :func:`scaled_instance` serves the
Õ(D) scaling experiments E1/E2/E5/E10/E12; :func:`suite_instance` serves
the balance/phase/exactness/ablation experiments E3/E4/E7/E11 over
:data:`SEPARATOR_SUITE`; :func:`partitioned_instance` serves the
shortcut-quality experiment E6 over :data:`PARTITIONED_INSTANCES`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import networkx as nx

from ..planar import generators as gen

__all__ = [
    "SEPARATOR_SUITE",
    "PARTITIONED_INSTANCES",
    "suite_instance",
    "scaling_key",
    "scaled_instance",
    "partitioned_instance",
]


# -- the mixed-family separator suite (E3/E4/E7/E11) ------------------------

_SUITE_MAKERS: Dict[str, Callable[[int], nx.Graph]] = {
    "grid": lambda seed: gen.grid(9, 10),
    "tri-grid": lambda seed: gen.triangulated_grid(8, 9),
    "cylinder": lambda seed: gen.cylinder(5, 16),
    "delaunay": lambda seed: gen.delaunay(90, seed=seed),
    "random-planar-0.3": lambda seed: gen.random_planar(80, density=0.3, seed=seed),
    "random-planar-0.7": lambda seed: gen.random_planar(80, density=0.7, seed=seed),
    "outerplanar": lambda seed: gen.outerplanar(70, chords=20, seed=seed),
    "apollonian": lambda seed: gen.apollonian(6, seed=seed),
    "wheel": lambda seed: gen.wheel(60),
    "random-tree": lambda seed: gen.random_tree(80, seed=seed),
    "broom": lambda seed: gen.broom(40, 40),
    "nested-triangles": lambda seed: gen.nested_triangles(25),
}

#: Suite member names, in table order — the unit plans of E3/E4/E7/E11
#: iterate this instead of building every graph up front.
SEPARATOR_SUITE: Tuple[str, ...] = tuple(_SUITE_MAKERS)


def suite_instance(name: str, seed: int = 0) -> nx.Graph:
    """Build one separator-suite instance by name (for unit workers)."""
    try:
        maker = _SUITE_MAKERS[name]
    except KeyError:
        raise ValueError(f"unknown suite instance {name!r}; choose from {SEPARATOR_SUITE}") from None
    return maker(seed)


# -- scaling series (E1/E2/E5/E10/E12) --------------------------------------


def scaling_key(family: str, n: int) -> Tuple:
    """The *realized* generator parameters for a requested size — computed
    without building the graph.  Two requested sizes with equal keys yield
    the identical instance (unit planning dedups on this)."""
    if family in ("grid", "tri-grid"):
        side = max(2, round(n**0.5))
        return (family, side)
    if family == "delaunay":
        return (family, n)
    if family == "cylinder":
        return (family, max(3, n // 4))
    if family == "path":
        return (family, n)
    if family == "apollonian":
        return (family, max(2, (n - 2).bit_length()))
    raise ValueError(f"unknown scaling family {family!r}")


def _build_scaled(family: str, n: int, seed: int) -> nx.Graph:
    key = scaling_key(family, n)
    if family == "grid":
        return gen.grid(key[1], key[1])
    if family == "tri-grid":
        return gen.triangulated_grid(key[1], key[1])
    if family == "delaunay":
        return gen.delaunay(n, seed=seed)
    if family == "cylinder":
        return gen.cylinder(4, key[1])
    if family == "path":
        return gen.path_graph(n)
    if family == "apollonian":
        return gen.apollonian(key[1], seed=seed)
    raise ValueError(f"unknown scaling family {family!r}")


def scaled_instance(family: str, n: int, seed: int = 0) -> Tuple[int, nx.Graph]:
    """One scaling-series instance ``(realized_n, graph)``."""
    graph = _build_scaled(family, n, seed)
    return len(graph), graph


# -- partitioned instances (E6) ---------------------------------------------


def _grid_parts(k: int) -> Tuple[nx.Graph, List[List[int]]]:
    g = gen.grid(8, 8)
    size = 64 // k
    return g, [list(range(i, i + size)) for i in range(0, 64, size)]


def _delaunay_layers(seed: int) -> Tuple[nx.Graph, List[List[int]]]:
    d = gen.delaunay(80, seed=seed)
    # BFS-layer partition: contiguous layers induce connected parts on
    # triangulations after merging with their shallower neighbors.
    dist = nx.single_source_shortest_path_length(d, 0)
    maxd = max(dist.values())
    half = [v for v in d.nodes if dist[v] <= maxd // 2]
    rest = [v for v in d.nodes if dist[v] > maxd // 2]
    parts = [half] + [sorted(c) for c in nx.connected_components(d.subgraph(rest))]
    return d, parts

_PARTITIONED_MAKERS: Dict[str, Callable[[int], Tuple[nx.Graph, List[List[int]]]]] = {
    "grid-2": lambda seed: _grid_parts(2),
    "grid-4": lambda seed: _grid_parts(4),
    "delaunay-layers": _delaunay_layers,
}

#: Partitioned-instance names, in table order (E6's unit plan).
PARTITIONED_INSTANCES: Tuple[str, ...] = tuple(_PARTITIONED_MAKERS)


def partitioned_instance(name: str, seed: int = 0) -> Tuple[nx.Graph, List[List[int]]]:
    """Build one partitioned instance by name (for unit workers)."""
    try:
        maker = _PARTITIONED_MAKERS[name]
    except KeyError:
        raise ValueError(
            f"unknown partitioned instance {name!r}; choose from {PARTITIONED_INSTANCES}"
        ) from None
    return maker(seed)
