"""Deterministic backtracking search for commuting-class partitions.

Vertices are sortable values, the positions of sorted operator labels in
`basis`; two are adjacent when the operators commute.  The search covers
the lexicographically smallest uncovered vertex with each clique of the
requested size through it (cliques are generated in lexicographic
order), recursing until the vertex set is exhausted or all branches fail.
With a fixed vertex ordering the outcome is fully deterministic, and
failure (`None`) is an exhaustive proof that no partition into cliques of
that size exists.

Sets of vertices are bitsets: Python ints whose bit i stands for the i-th
vertex in sorted order.  Lowest set bit first is then lexicographic order,
and intersecting a candidate set with a neighbour set is one `&`.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Sequence

Vertex = Hashable


def _adjacency_masks(
    vertices: Sequence[Vertex], commutes: Callable[[Vertex, Vertex], bool]
) -> list[int]:
    """Neighbour bitmasks; commutes is symmetric, so each unordered pair is tested once."""
    masks = [0] * len(vertices)
    for i, u in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            if commutes(u, vertices[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _members(mask: int, vertices: Sequence[Vertex]) -> list[Vertex]:
    """The vertices whose bits are set in mask, in sorted order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(vertices[low.bit_length() - 1])
        mask ^= low
    return out


def _cliques_through(
    pivot: int, allowed: int, adjacency: list[int], size: int
) -> Iterator[int]:
    """Yield size-cliques (as masks) containing vertex pivot, members drawn from allowed."""

    def extend(clique: int, count: int, candidates: int) -> Iterator[int]:
        if count == size:
            yield clique
            return
        needed = size - count
        # stop once too few candidates are left to complete the clique
        while candidates.bit_count() >= needed:
            low = candidates & -candidates
            candidates ^= low
            yield from extend(
                clique | low, count + 1, candidates & adjacency[low.bit_length() - 1]
            )

    yield from extend(1 << pivot, 1, allowed & adjacency[pivot])


def find_commuting_partition(
    vertices: Sequence[Vertex],
    commutes: Callable[[Vertex, Vertex], bool],
    class_size: int,
) -> list[list[Vertex]] | None:
    """The first-found partition into cliques of class_size, or None if there is none."""
    ordered = sorted(vertices)
    # a count that class_size does not divide has no partition: test no pair
    if len(ordered) % class_size:
        return None
    adjacency = _adjacency_masks(ordered, commutes)

    def cover(uncovered: int) -> list[int] | None:
        if not uncovered:
            return []
        low = uncovered & -uncovered
        pivot = low.bit_length() - 1
        for clique in _cliques_through(pivot, uncovered ^ low, adjacency, class_size):
            tail = cover(uncovered & ~clique)
            if tail is not None:
                return [clique] + tail
        return None

    solution = cover((1 << len(ordered)) - 1)
    return None if solution is None else [_members(clique, ordered) for clique in solution]
