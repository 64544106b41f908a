"""Lit-only sigma game and its duality with the move engine.

In the sigma game a 1-labeled vertex may flip all of its neighbors.  On a
simply-laced diagram the sigma move matrices are the transposes of the
Reeder move matrices, and when the adjacency matrix A is invertible over
GF(2) the map a -> A a carries equivalence classes onto sigma orbits.

The duality report comes from the Reeder class partition, closed on its
reduced game and lifted to a member of each state's class without ranking,
and from the orbit roots of the kernel run on the Reeder move tables with a
and b swapped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernel, moves
from .diagram import Diagram, DiagramError, Labeling
from .f2 import F2Matrix


def _require_sigma(diagram: Diagram):
    if not diagram.is_simply_laced:
        raise DiagramError("sigma game is defined on simply-laced diagrams only")
    if diagram.pinned:
        raise DiagramError("sigma game does not support pinned vertices")


def sigma_move(diagram: Diagram, a: Labeling, i: int) -> Labeling:
    """If vertex i is lit, flip all of its neighbors; otherwise no-op."""
    _require_sigma(diagram)
    if not 0 <= i < diagram.n_vertices:
        raise IndexError(i)
    a = diagram.labeling(a)
    if not a.bits >> i & 1:
        return a
    mask = sum(1 << k for k in diagram.neighbors(i))
    return Labeling(a.n, a.bits ^ mask)


def sigma_matrix(diagram: Diagram, i: int) -> F2Matrix:
    _require_sigma(diagram)
    if not 0 <= i < diagram.n_vertices:
        raise IndexError(i)
    rows = list(F2Matrix.identity(diagram.n_vertices).rows)
    for k in diagram.neighbors(i):
        rows[k] |= 1 << i
    return F2Matrix(diagram.n_vertices, diagram.n_vertices, tuple(rows))


def duality_check(diagram: Diagram) -> bool:
    """S_i = T_i^t and A T_i = S_i A for every vertex i."""
    _require_sigma(diagram)
    adj = diagram.adjacency_matrix()
    for i in range(diagram.n_vertices):
        t = moves.move_matrix(diagram, i)
        s = sigma_matrix(diagram, i)
        if s != t.transpose():
            return False
        if adj @ t != s @ adj:
            return False
    return True


def enumerate_sigma_orbits(diagram: Diagram, cap: int | None = None) -> np.ndarray:
    """Orbit root (minimum member) of every state under sigma moves: the
    Reeder move tables with a and b swapped, as S_i = T_i^t (vertex i lit,
    a = 1 << i, flips its neighbors, b = row i of A, with c = 0)."""
    _require_sigma(diagram)
    n = diagram.n_vertices
    moves.require_cap(n, cap)  # before the tables, which grow as n^2
    b, a, c = moves._move_tables(diagram)
    moves.require_states(n, _kernel.kernel_bytes(1 << n, a, b), cap)
    return _kernel.orbit_roots(1 << n, a, b, c)


@dataclass(frozen=True)
class DualityReport:
    reeder_classes: int
    sigma_orbits: int
    det_A: int
    applicable: bool
    bijection_verified: bool | None

    def to_json(self) -> str:
        return json.dumps({
            "reeder_classes": self.reeder_classes,
            "sigma_orbits": self.sigma_orbits,
            "det_A": self.det_A,
            "bijection_verified": self.bijection_verified,
        }, indent=2)


def orbit_bijection_check(diagram: Diagram, cap: int | None = None) -> DualityReport:
    """Verify that a -> A a maps equivalence classes onto sigma orbits.

    One gate covers both closures and the map.  When det A = 1, A s must
    have the sigma root of A r, for r the member of s's class that the
    partition's lift gives s (well-defined), and hit every sigma orbit
    (onto).  When det A = 0 the report carries both counts
    but asserts nothing (applicable=False, bijection_verified=None).
    """
    _require_sigma(diagram)
    n = diagram.n_vertices
    moves.require_cap(n, cap)  # before det A and the tables, which grow as n^2
    adj = diagram.adjacency_matrix()
    det = adj.det()
    game = moves._reduced_game(diagram)
    a, b, c = game.tables
    # the Reeder closure, then the sigma kernel beside the partition's roots
    # (at most 4 B/state); that also covers the lift of the Reeder members
    # (int32, and blocks) beside the sigma roots, and the members, the sigma
    # roots and the int32 image (12 B/state) with one int64 block of the
    # map, then the image and the hit mask
    need = max(game.need, _kernel.kernel_bytes(1 << n, b, a) + (4 << n))
    moves.require_states(n, need, cap)
    part = moves._closed(diagram, game, cap)
    sigma_roots = _kernel.orbit_roots(1 << n, b, a, c)
    classes, orbits = part.class_count, _kernel.orbit_count(sigma_roots)
    if det == 0:
        return DualityReport(classes, orbits, 0, False, None)
    # a member of each state's class, at the partition's positions, and the
    # state at each bit of a position
    members, basis = part._lifted()
    # the sigma root of A s for the state s at every position: A s is the
    # XOR of A's columns at s's bits, so the map at a position is the span
    # of A applied to each basis state
    image = np.empty(1 << n, dtype=np.int32)
    moves.span_take(sigma_roots, [adj.mul_vec(x) for x in basis], image)
    del sigma_roots  # counted
    # image == image[members], a block at a time
    well_defined = all(np.array_equal(mapped, image[start : start + len(mapped)])
                       for start, mapped in _kernel.gathered_blocks(image, members))
    hit = np.zeros(1 << n, dtype=bool)
    hit[image] = True
    onto = int(np.count_nonzero(hit)) == orbits
    return DualityReport(classes, orbits, 1, True, well_defined and onto and classes == orbits)
