"""Path enumeration and selection.

The paper gives each host multiple addresses and uses the fat tree's
Two-Level Routing Lookup so that different subflows of one MPTCP flow take
different deterministic paths.  The observable consequence — each subflow
pinned to one of the equal-cost paths, single-path flows hashed onto one of
them — is reproduced here by enumerating all shortest paths between two
hosts and pinning each (sub)flow to one at connect time.

Two selection policies cover the paper's setups:

* :class:`EcmpSelector` — hash-based choice, used for single-path schemes
  (TCP, DCTCP); collisions of several flows on one link are possible and
  are exactly what Fig. 11 attributes DCTCP's unbalanced utilization to.
* :class:`DistinctPathSelector` — assigns the subflows of one MPTCP flow to
  distinct equal-cost paths (a seeded shuffle of the paths per flow),
  reproducing the multi-address trick.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Sequence, Tuple

from repro.net.link import Link
from repro.net.node import Node

Path = Tuple[Link, ...]


def enumerate_paths(
    adjacency: Dict[Node, List[Link]],
    src: Node,
    dst: Node,
    max_paths: int = 64,
) -> List[Path]:
    """All shortest paths from ``src`` to ``dst`` as tuples of links.

    Breadth-first search computes hop distances from ``dst``; a depth-first
    walk then follows strictly-decreasing distances, which enumerates every
    shortest path without revisiting.  ``max_paths`` bounds the result for
    very large fabrics.
    """
    if src is dst:
        return [()]
    distance: Dict[Node, int] = {dst: 0}
    frontier = deque([dst])
    reverse_adjacency: Dict[Node, List[Link]] = {}
    for links in adjacency.values():
        for link in links:
            reverse_adjacency.setdefault(link.dst, []).append(link)
    while frontier:
        node = frontier.popleft()
        for link in reverse_adjacency.get(node, ()):  # links INTO node
            neighbor = link.src
            if neighbor not in distance:
                distance[neighbor] = distance[node] + 1
                frontier.append(neighbor)
    if src not in distance:
        return []

    paths: List[Path] = []
    stack: List[Link] = []

    def walk(node: Node) -> None:
        if len(paths) >= max_paths:
            return
        if node is dst:
            paths.append(tuple(stack))
            return
        node_distance = distance.get(node)
        if node_distance is None:
            return
        for link in adjacency.get(node, ()):
            next_distance = distance.get(link.dst)
            if next_distance is not None and next_distance == node_distance - 1:
                stack.append(link)
                walk(link.dst)
                stack.pop()

    walk(src)
    return paths


class PathSelector:
    """Strategy interface: pick paths for the subflows of one flow."""

    def select(
        self, paths: Sequence[Path], flow: int, subflow_count: int
    ) -> List[Path]:
        raise NotImplementedError


class EcmpSelector(PathSelector):
    """Hash-style ECMP: every subflow draws an independent random path.

    A seeded :class:`random.Random` stands in for the 5-tuple hash: distinct
    flows get independent, reproducible choices, and collisions happen at
    the birthday-paradox rate a real ECMP hash would give.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def select(
        self, paths: Sequence[Path], flow: int, subflow_count: int
    ) -> List[Path]:
        if not paths:
            raise ValueError("no paths available")
        return [self._rng.choice(paths) for _ in range(subflow_count)]


class DistinctPathSelector(PathSelector):
    """Give each subflow its own path when enough paths exist.

    Paths are sampled without replacement; if the flow has more subflows
    than paths (e.g. an intra-rack pair has exactly one path), selection
    wraps around, so extra subflows share paths — matching what multiple
    addresses on the same physical topology would do.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def select(
        self, paths: Sequence[Path], flow: int, subflow_count: int
    ) -> List[Path]:
        if not paths:
            raise ValueError("no paths available")
        shuffled = list(paths)
        self._rng.shuffle(shuffled)
        return [shuffled[i % len(shuffled)] for i in range(subflow_count)]


__all__ = [
    "Path",
    "enumerate_paths",
    "PathSelector",
    "EcmpSelector",
    "DistinctPathSelector",
]
