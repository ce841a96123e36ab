"""Deterministic backtracking search for commuting-class partitions.

Vertices are operator labels; two labels are adjacent when the operators
commute.  The search covers the lexicographically smallest uncovered
vertex with each clique of the requested size through it (cliques are
generated in lexicographic order), recursing until the vertex set is
exhausted or all branches fail.  With a fixed vertex ordering the outcome
is fully deterministic, and failure is an exhaustive proof that no
partition into cliques of that size exists.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

Vertex = Hashable


def _build_adjacency(
    vertices: Sequence[Vertex], commutes: Callable[[Vertex, Vertex], bool]
) -> dict[Vertex, set]:
    """Neighbour sets; commutes is symmetric, so each unordered pair is tested once."""
    adjacency: dict[Vertex, set] = {v: set() for v in vertices}
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if commutes(u, v):
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


def _cliques_through(
    pivot: Vertex,
    allowed: frozenset,
    adjacency: dict[Vertex, set],
    size: int,
):
    """Yield size-cliques containing pivot, members drawn from allowed."""

    def extend(current: list, candidates: list):
        if len(current) == size:
            yield frozenset(current)
            return
        needed = size - len(current)
        for i, v in enumerate(candidates):
            remaining = candidates[i + 1 :]
            if len(remaining) + 1 < needed:
                break
            current.append(v)
            yield from extend(current, [u for u in remaining if u in adjacency[v]])
            current.pop()

    yield from extend([pivot], sorted(allowed & adjacency[pivot]))


def find_commuting_partition(
    vertices: Sequence[Vertex],
    commutes: Callable[[Vertex, Vertex], bool],
    class_size: int,
) -> list[list[Vertex]] | None:
    """Partition all vertices into cliques of class_size, or None if impossible."""
    ordered = sorted(vertices)
    if len(ordered) % class_size != 0:
        return None
    adjacency = _build_adjacency(ordered, commutes)

    def cover(uncovered: frozenset) -> list[frozenset] | None:
        if not uncovered:
            return []
        pivot = min(uncovered)
        rest = uncovered - {pivot}
        for clique in _cliques_through(pivot, rest, adjacency, class_size):
            tail = cover(uncovered - clique)
            if tail is not None:
                return [clique] + tail
        return None

    solution = cover(frozenset(ordered))
    if solution is None:
        return None
    return [sorted(clique) for clique in solution]


def greedy_commuting_classes(
    vertices: Sequence[Vertex],
    commutes: Callable[[Vertex, Vertex], bool],
    class_size: int,
) -> list[list[Vertex]]:
    """First-found disjoint cliques, scanning pivots in lexicographic order.

    Used as the best-effort answer when no full partition exists.
    """
    ordered = sorted(vertices)
    adjacency = _build_adjacency(ordered, commutes)
    covered: set[Vertex] = set()
    classes: list[list[Vertex]] = []
    for pivot in ordered:
        if pivot in covered:
            continue
        allowed = frozenset(v for v in ordered if v not in covered and v != pivot)
        clique = next(_cliques_through(pivot, allowed, adjacency, class_size), None)
        if clique is not None:
            classes.append(sorted(clique))
            covered |= clique
    return classes


def validate_partition(
    classes: Sequence[Sequence[Vertex]],
    vertices: Sequence[Vertex],
    commutes: Callable[[Vertex, Vertex], bool],
    class_size: int | None = None,
) -> bool:
    """Disjoint, covering, pairwise commuting (and sized, when requested)."""
    flat = [v for cls in classes for v in cls]
    if len(flat) != len(set(flat)) or set(flat) != set(vertices):
        return False
    for cls in classes:
        if class_size is not None and len(cls) != class_size:
            return False
        for i, u in enumerate(cls):
            for v in cls[i + 1 :]:
                if not commutes(u, v):
                    return False
    return True
