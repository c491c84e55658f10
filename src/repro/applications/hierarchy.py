"""Separator hierarchies: recursive decomposition by cycle separators.

The introduction's motivation for separator sets is divide and conquer:
"separator sets, combined with a divide-and-conquer strategy, enable
solving smaller subproblems recursively".  This module packages that
strategy as a reusable artifact built on Theorem 1:

* a :class:`SeparatorHierarchy` — the recursion tree of regions, each split
  by a cycle separator into components of at most 2/3 of its size, hence
  depth :math:`O(\\log n)`;
* a nested-dissection *elimination order* (separators concatenated
  bottom-up), the ordering used by sparse factorization and planar
  shortest-path oracles;
* region/level queries for downstream divide-and-conquer algorithms.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence

import networkx as nx

from ..core.config import PlanarConfiguration
from ..core.separator import cycle_separator
from ..planar.checks import require_planar_connected
from ..planar.construct import induced_copy

Node = Hashable

__all__ = ["Region", "SeparatorHierarchy", "build_hierarchy"]


class Region:
    """One node of the separator recursion tree.

    Attributes
    ----------
    level:
        Depth in the recursion (the root region is level 0).
    nodes:
        The region's node set.
    separator:
        The cycle separator splitting this region (for leaf regions, all of
        the region's nodes).
    children:
        Sub-regions (the components after removing the separator).
    phase:
        Which separator phase produced the split (for analysis).
    """

    __slots__ = ("level", "nodes", "separator", "children", "phase")

    def __init__(self, level: int, nodes: List[Node], separator: List[Node], phase: str):
        self.level = level
        self.nodes = nodes
        self.separator = separator
        self.children: List["Region"] = []
        self.phase = phase

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Region(level={self.level}, n={len(self.nodes)}, sep={len(self.separator)})"


class SeparatorHierarchy:
    """The full recursion tree plus derived queries."""

    def __init__(self, root_region: Region, graph: nx.Graph):
        self.root_region = root_region
        self.graph = graph
        self._level_of: Dict[Node, int] = {}
        for region in self.regions():
            for v in region.separator:
                self._level_of.setdefault(v, region.level)

    def regions(self) -> Iterator[Region]:
        """All regions, preorder."""
        stack = [self.root_region]
        while stack:
            region = stack.pop()
            yield region
            stack.extend(region.children)

    @property
    def depth(self) -> int:
        """Deepest recursion level (O(log n) by the 2/3 balance)."""
        return max(r.level for r in self.regions())

    def elimination_order(self) -> List[Node]:
        """Nested-dissection order: leaf separators first, the top
        separator last.  Covers every node exactly once."""
        by_level: Dict[int, List[Node]] = {}
        for region in self.regions():
            by_level.setdefault(region.level, []).extend(region.separator)
        order: List[Node] = []
        for level in sorted(by_level, reverse=True):
            order.extend(by_level[level])
        return order

    def level_sizes(self) -> Dict[int, int]:
        """Separator nodes removed per level."""
        out: Dict[int, int] = {}
        for v, level in self._level_of.items():
            out[level] = out.get(level, 0) + 1
        return out

    def pieces(self) -> List["Piece"]:
        """The division into leaf pieces with their boundary sets.

        Every leaf region of the recursion becomes a *piece*; its boundary
        is its graph neighborhood — by construction, only nodes removed by
        ancestor separators.  With ``build_hierarchy(leaf_size=r)`` this is
        the cycle-separator analogue of an r-division: every piece interior
        has at most ``r`` nodes, pieces are vertex-disjoint, and all
        inter-piece interaction passes through boundary (separator) nodes.
        """
        out: List[Piece] = []
        for region in self.regions():
            if not region.is_leaf:
                continue
            interior = set(region.nodes)
            boundary = set()
            for v in interior:
                boundary.update(
                    u for u in self.graph.neighbors(v) if u not in interior
                )
            out.append(Piece(interior, boundary))
        return out


class Piece:
    """One leaf piece of the division: interior nodes plus boundary.

    Attributes
    ----------
    interior:
        The piece's own nodes (vertex-disjoint across pieces).
    boundary:
        Outside neighbors of the interior — separator nodes of ancestor
        levels, through which all inter-piece paths pass.
    """

    __slots__ = ("interior", "boundary")

    def __init__(self, interior, boundary):
        self.interior = interior
        self.boundary = boundary

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Piece(interior={len(self.interior)}, boundary={len(self.boundary)})"


def build_hierarchy(
    graph: nx.Graph,
    leaf_size: int = 3,
    max_levels: Optional[int] = None,
    ledger=None,
) -> SeparatorHierarchy:
    """Recursively decompose a connected planar graph (Theorem 1 per level).

    In CONGEST all regions of one level are separated in parallel (they are
    node-disjoint — this is exactly the partition form of Theorem 1), so
    the whole hierarchy costs :math:`\\tilde{O}(D \\log n)` charged rounds.

    Parameters
    ----------
    leaf_size:
        Regions at or below this size become leaves (their separator is the
        whole region).
    max_levels:
        Optional hard recursion cap.
    """
    require_planar_connected(graph)
    if max_levels is None:
        max_levels = 4 * max(len(graph), 2).bit_length() + 4

    def split(nodes: List[Node], level: int) -> Region:
        subgraph = induced_copy(graph, nodes)
        if len(nodes) <= leaf_size or level >= max_levels:
            return Region(level, nodes, list(nodes), "leaf")
        cfg = PlanarConfiguration.build(subgraph, root=min(nodes, key=repr))
        result = cycle_separator(cfg, ledger=ledger)
        region = Region(level, nodes, result.path, result.phase)
        rest = subgraph.subgraph(set(nodes) - set(result.path))
        for component in nx.connected_components(rest):
            region.children.append(split(sorted(component, key=repr), level + 1))
        return region

    if ledger is not None:
        ledger.begin_parallel()
        ledger.begin_branch()
    root_region = split(sorted(graph.nodes, key=repr), 0)
    if ledger is not None:
        ledger.end_parallel()
    return SeparatorHierarchy(root_region, graph)
