"""Invariant-based classification that predicts class structure without
enumerating orbits, plus helpers to cross-validate against the move engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import families, moves
from .diagram import Diagram, DiagramError, Edge, Labeling


def _require_path(diagram: Diagram):
    if diagram.pinned:
        raise DiagramError("classifier requires an unpinned diagram")
    if not (
        diagram.is_tree
        and diagram.is_simply_laced
        and diagram.max_degree <= 2
    ):
        raise DiagramError("diagram is not a simple path")


def classify_by_components(diagram: Diagram, a: Labeling) -> int:
    """Class key on a path: the component count is a complete invariant."""
    _require_path(diagram)
    return diagram.count_components(a)


def parity(diagram: Diagram, a: Labeling) -> int:
    """Component-count parity; move-invariant on simply-laced trees only."""
    if not (diagram.is_tree and diagram.is_simply_laced):
        raise DiagramError("parity invariant requires a simply-laced tree")
    return diagram.count_components(a) & 1


# -- branching-tree classifier --------------------------------------------


@dataclass(frozen=True)
class E6TreePrediction:
    diagram: Diagram
    class_count: int
    fallback: bool
    warning: str | None

    def class_key(self, a: Labeling):
        a = self.diagram.labeling(a)
        if self.diagram.is_fixed(a):
            return ("fixed", a.bits)
        return ("parity", self.diagram.count_components(a) & 1)

    def key_ids(self, cap: int | None = None) -> np.ndarray:
        """Predicted class id of every state: 0 and 1 for the even and odd
        classes, then 2, 3, ... for the fixed states in increasing order.
        The one pass over the 2^n states, gated before it allocates."""
        n = self.diagram.n_vertices
        # the int8 counts with the count pass's block buffers, then the
        # counts with the int64 ids made from their parity, beside the fixed
        # states and their ids (int64, one of each per singleton class)
        need = (9 << n) + moves._COMPONENT_BLOCK_BYTES + 16 * self.class_count
        moves.require_states(n, need, cap)
        fixed = moves.fixed_states(self.diagram, cap)
        counts = moves.component_counts(self.diagram)
        ids = np.empty(len(counts), dtype=np.int64)  # the fixed ids pass 127
        np.bitwise_and(counts, 1, out=ids)
        ids[fixed] = np.arange(2, 2 + len(fixed))
        return ids


def _parities_reach_nonfixed(diagram: Diagram) -> bool:
    """The guard: on the path w1-u1-v-u2-w2 of Diagram.e6_path, v alone (one
    component) and w1 with u2 (two: a tree has no edge w1-u2) are not fixed."""
    w1, _, v, u2, _ = diagram.e6_path()
    return all(diagram.count_components(x) & 1 == odd and not diagram.is_fixed(x)
               for x, odd in ((1 << v, 1), (1 << w1 | 1 << u2, 0)))


def e6_tree_classify(diagram: Diagram, cap: int | None = None) -> E6TreePrediction:
    """Predict the partition of a branching tree: fixed labelings are
    singletons and the rest splits into the odd- and even-parity classes,
    2^nullity(A) + 2 classes from one GF(2) rank, with no pass over states.

    A guard checks that both parity classes hold non-fixed labelings; if not,
    the count is recomputed by enumeration under cap and flagged.
    """
    if diagram.pinned:
        raise DiagramError("classifier requires an unpinned diagram")
    if not diagram.contains_e6():
        raise DiagramError("classifier requires a branch vertex with two arms of length >= 2")
    if _parities_reach_nonfixed(diagram):
        # unpinned and simply laced: A is the fixed-labeling system's matrix
        nullity = diagram.adjacency_matrix().nullity()
        return E6TreePrediction(diagram, (1 << nullity) + 2, False, None)
    count = moves.enumerate_classes(diagram, cap).class_count
    warning = "a parity class has no non-fixed labelings; fell back to enumeration"
    return E6TreePrediction(diagram, count, True, warning)


# -- flower classifier ----------------------------------------------------


@dataclass(frozen=True)
class FlowerPrediction:
    diagram: Diagram
    d: int
    class_count: int

    def class_key(self, a: Labeling):
        """zero | one key per even-size petal set (fixed) | the odd class."""
        a = self.diagram.labeling(a)
        if a.bits == 0:
            return ("zero",)
        petals = a.bits & ((1 << self.d) - 1)
        center = a.bits >> self.d & 1
        if not center and petals.bit_count() % 2 == 0:
            return ("fixed", petals)
        return ("odd",)


def flower_classify(d: int) -> FlowerPrediction:
    """Predict the flower(d) partition; FamilySpec rejects d < 1."""
    diagram = families.construct(families.FamilySpec("flower", d))
    return FlowerPrediction(diagram, d, 2 ** (d - 1) + 1)


# -- swallowing on B-type diagrams ----------------------------------------


def _is_b_type(diagram: Diagram) -> bool:
    n = diagram.n_vertices
    return (n >= 2 and not diagram.pinned
            and diagram._effective == families.construct(families.FamilySpec("B", n))._effective)


def swallowing_check(diagram: Diagram, a: Labeling) -> list[int] | None:
    """Witness that the short vertex's label is irrelevant when the tail is lit.

    For a tail labeling a != 0 on the long path of a B-type diagram, returns
    a move sequence taking (a, short=1) to (a, short=0).  Returns None for
    the zero tail, whose two extensions really are inequivalent.
    """
    if not _is_b_type(diagram):
        raise DiagramError("swallowing requires a B-type diagram")
    n = diagram.n_vertices
    tail_bits = diagram.labeling(a).bits & ((1 << (n - 1)) - 1)
    if tail_bits == 0:
        return None
    start = diagram.labeling(tail_bits | 1 << (n - 1))
    witness = moves.shortest_moves(diagram, start, diagram.labeling(tail_bits))
    if witness is None:
        raise AssertionError("swallowing witness not found; states exhausted")
    return witness


# -- random tree corpus ----------------------------------------------------


def tree_from_pruefer(seq: list[int], n: int) -> Diagram:
    """Decode a Pruefer sequence of length n-2 into an n-vertex tree."""
    if n < 2:
        raise DiagramError("need at least 2 vertices")
    if len(seq) != n - 2:
        raise DiagramError("sequence length must be n-2")
    for i, v in enumerate(seq):
        if not 0 <= v < n:
            raise DiagramError(f"Pruefer entry {i} is {v}, outside 0..{n - 1}")
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append(Edge(min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append(Edge(min(u, w), max(u, w)))
    return Diagram(n, tuple(edges))


def random_e6_trees(
    count: int,
    max_vertices: int = 20,
    seed: int = 0,
    min_vertices: int = 6,
):
    """Seeded stream of uniform random trees that pass contains_e6, of
    min_vertices to max_vertices vertices; a range that holds no such tree
    raises DiagramError before anything is drawn."""
    if max_vertices < 6:
        raise DiagramError(f"no tree of at most {max_vertices} vertices contains E6, which has 6")
    if min_vertices > max_vertices:
        raise DiagramError(f"min_vertices {min_vertices} exceeds max_vertices {max_vertices}")
    return _random_e6_trees(count, max(min_vertices, 6), max_vertices, random.Random(seed))


def _random_e6_trees(count: int, lo: int, hi: int, rng: random.Random):
    produced = 0
    while produced < count:
        n = rng.randint(lo, hi)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        t = tree_from_pruefer(seq, n)
        if t.contains_e6():
            produced += 1
            yield t
