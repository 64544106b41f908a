"""Lit-only sigma game and its duality with the move engine.

In the sigma game a 1-labeled vertex may flip all of its neighbors.  On a
simply-laced diagram the sigma move matrices are the transposes of the
Reeder move matrices, and when the adjacency matrix A is invertible over
GF(2) the map a -> A a carries equivalence classes onto sigma orbits.
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
    """Orbit root (minimum member) of every state under sigma moves."""
    _require_sigma(diagram)
    n = diagram.n_vertices
    if n > moves.state_cap(cap):
        raise moves.ResourceError(
            f"{n} vertices exceed the cap: would require {1 << n} states"
        )
    moves.require_memory(
        _kernel.kernel_bytes(1 << n, n), f"enumerating {1 << n} sigma states"
    )
    a = [1 << i for i in range(n)]
    b = [sum(1 << k for k in diagram.neighbors(i)) for i in range(n)]
    return _kernel.orbit_roots(1 << n, a, b, [0] * n)


@dataclass(frozen=True)
class DualityReport:
    reeder_classes: int
    sigma_orbits: int
    det_A: int
    applicable: bool
    bijection_verified: bool | None

    def to_json_obj(self) -> dict:
        return {
            "reeder_classes": self.reeder_classes,
            "sigma_orbits": self.sigma_orbits,
            "det_A": self.det_A,
            "bijection_verified": self.bijection_verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def orbit_bijection_check(diagram: Diagram, cap: int | None = None) -> DualityReport:
    """Verify that a -> A a maps equivalence classes onto sigma orbits.

    When det A = 0 the report carries both counts but asserts nothing
    (applicable=False, bijection_verified=None).
    """
    _require_sigma(diagram)
    n = diagram.n_vertices
    adj = diagram.adjacency_matrix()
    det = adj.det()
    partition = moves.enumerate_classes(diagram, cap)
    sigma_roots = enumerate_sigma_orbits(diagram, cap)
    sigma_orbit_count = int((sigma_roots == np.arange(1 << n)).sum())
    if det == 0:
        return DualityReport(
            partition.class_count, sigma_orbit_count, 0, False, None
        )
    states = np.arange(1 << n, dtype=np.int64)
    mapped = np.zeros_like(states)
    for i, row in enumerate(adj.rows):
        mapped |= ((np.bitwise_count(states & row) & 1).astype(np.int64)) << i
    reeder_id = partition.class_id_array()
    image_root = sigma_roots[mapped]
    # the pairing is well-defined iff each class maps into one orbit
    first = np.full(partition.class_count, -1, dtype=np.int64)
    first[reeder_id] = image_root
    well_defined = bool((first[reeder_id] == image_root).all())
    onto = len(np.unique(first)) == sigma_orbit_count
    verified = (
        well_defined and onto and partition.class_count == sigma_orbit_count
    )
    return DualityReport(
        partition.class_count, sigma_orbit_count, 1, True, verified
    )
