"""Named diagram families: constructors, closed-form class counts, and
canonical representative lists.

Each family has one record in the registry _FAMILIES at the end of this
module: its builder, the published class count and representative list
(None where the source defers them), its least parameter or fixed size, and
whether its printed form leads with vertex 0.  To add a family, write its
_build_* and _reps_* functions and add its record there; FAMILY_NAMES,
DEFERRED and FAMILY_HEADS are derived from the registry.

Internal vertex order: finite families store the printed vertices 1..n at
indices 0..n-1.  Affine families additionally store the printed vertex 0 at
the LAST internal index, so the underlying finite diagram occupies a bit
prefix.  Boxed families realize each boxed 1 as a pinned vertex appended
after the free vertices.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import moves
from .diagram import Diagram, DiagramError, Edge, Labeling, _number


def _ceil_half(x: int) -> int:
    return -(-x // 2)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    param: int | None = None

    def __post_init__(self):
        record = _FAMILIES.get(self.family)
        if record is None:
            raise DiagramError(f"unknown family {self.family!r}")
        if record.fixed is not None:
            if self.param not in (None, record.fixed):
                raise DiagramError(
                    f"family {self.family} is fixed-size (param {record.fixed})"
                )
        elif self.param is None or self.param < record.least:
            raise DiagramError(
                f"family {self.family} requires an integer parameter >= {record.least}"
            )

    @property
    def n(self) -> int:
        fixed = _FAMILIES[self.family].fixed
        return self.param if fixed is None else fixed

    def __str__(self) -> str:
        return f"{self.family}:{self.n}"


def parse_family(text: str) -> FamilySpec:
    """Parse CLI family strings like A:5, affD:7, flower:4, Abox:6:ends=1."""
    parts = text.split(":")
    name = parts[0]
    if name == "Abox":
        name = "Abox_m"
        if parts[2:] == ["ends=1"]:
            name = "Abox_1m"
            parts = parts[:2]
        elif len(parts) > 2:
            raise DiagramError(f"bad family option {parts[2]!r}")
    if len(parts) > 2:
        raise DiagramError(f"bad family string {text!r}")
    param = None
    if len(parts) == 2:
        param = _number(parts[1], signed=True)
        if param is None:
            raise DiagramError(f"bad family parameter {parts[1]!r}")
    return FamilySpec(name, param)


# -- constructors ----------------------------------------------------------


def _path(k: int, start: int = 0) -> list[Edge]:
    return [Edge(start + i, start + i + 1) for i in range(k - 1)]


def _build_A(n):
    return Diagram(n, _path(n))


def _build_affA(n):
    return Diagram(n + 1, _path(n) + [Edge(n, 0), Edge(n, n - 1)])


def _build_B(n):
    return Diagram(n, _path(n - 1) + [Edge(n - 2, n - 1, 2, True)])


def _build_affB(n):
    # leafs at 0 and n both join the neck start at 1; tail ends in the
    # directed edge toward the short vertex n-1
    return Diagram(
        n + 1,
        _path(n - 1) + [Edge(n - 2, n - 1, 2, True), Edge(n, 1)],
    )


def _build_C(n):
    return Diagram(n, _path(n - 1) + [Edge(n - 1, n - 2, 2, True)])


def _build_affC(n):
    return Diagram(
        n + 1,
        _path(n - 1) + [Edge(n - 1, n - 2, 2, True), Edge(n, 0, 2, True)],
    )


def _build_D(n):
    return Diagram(n, _path(n - 2) + [Edge(n - 3, n - 2), Edge(n - 3, n - 1)])


def _build_affD(n):
    return Diagram(
        n + 1,
        _path(n - 2) + [Edge(n - 3, n - 2), Edge(n - 3, n - 1), Edge(n, 1)],
    )


def _build_E6(_):
    return Diagram(6, _path(5) + [Edge(2, 5)])


def _build_affE6(_):
    return Diagram(7, _path(5) + [Edge(2, 5), Edge(5, 6)])


def _build_E7(_):
    return Diagram(7, _path(6) + [Edge(3, 6)])


def _build_affE7(_):
    return Diagram(8, _path(6) + [Edge(3, 6), Edge(5, 7)])


def _build_E8(_):
    return Diagram(8, _path(7) + [Edge(4, 7)])


def _build_affE8(_):
    return Diagram(9, _path(7) + [Edge(4, 7), Edge(0, 8)])


def _build_F4(_):
    return Diagram(4, [Edge(0, 1), Edge(2, 1, 2, True), Edge(2, 3)])


def _build_affF4(_):
    return Diagram(5, [Edge(0, 1), Edge(2, 1, 2, True), Edge(2, 3), Edge(3, 4)])


def _build_G2(_):
    return Diagram(2, [Edge(1, 0, 3, False)])


def _build_affG2(_):
    return Diagram(3, [Edge(1, 0, 3, False), Edge(1, 2)])


def _build_X(n):
    return Diagram(
        n + 2,
        _path(n) + [Edge(n - 1, n, 2, True), Edge(n + 1, 0, 2, True)],
    )


def _build_A2_2(_):
    return Diagram(2, [Edge(0, 1, 4, True)])


def _build_Y(n):
    return Diagram(
        n + 1,
        _path(n - 2)
        + [Edge(n - 3, n - 2), Edge(n - 3, n - 1), Edge(n, 0, 2, True)],
    )


def _build_Z(n):
    return Diagram(
        n + 1,
        _path(n - 1) + [Edge(n - 2, n - 1, 2, True), Edge(0, n, 2, True)],
    )


def _build_flower(d):
    return Diagram(d + 1, [Edge(i, d) for i in range(d)])


def _build_Abox_m(m):
    return Diagram(m + 1, _path(m) + [Edge(m - 1, m)], pinned={m})


def _build_Abox_1m(m):
    return Diagram(
        m + 2, _path(m) + [Edge(m, 0), Edge(m - 1, m + 1)], pinned={m, m + 1}
    )


def _build_Bbox_1(n):
    return Diagram(
        n + 2,
        _path(n) + [Edge(n - 1, n, 2, True), Edge(n + 1, 0)],
        pinned={n + 1},
    )


def _build_Dbox_1(n):
    return Diagram(
        n + 1,
        _path(n - 2) + [Edge(n - 3, n - 2), Edge(n - 3, n - 1), Edge(n, 0)],
        pinned={n},
    )


def _build_E6_2(_):
    return Diagram(5, [Edge(4, 0), Edge(0, 1), Edge(2, 1, 2, True), Edge(2, 3)])


def _build_D4_3(_):
    return Diagram(3, [Edge(0, 1, 3, False), Edge(2, 0)])


def construct(spec: FamilySpec) -> Diagram:
    return _FAMILIES[spec.family].build(spec.n)


def free_count(spec: FamilySpec) -> int:
    """The free vertices of construct(spec), from the family's smallest
    diagram alone: each step of a parametric family's parameter adds one
    free vertex."""
    record = _FAMILIES[spec.family]
    least = record.least or spec.n
    return len(record.build(least).free_vertices) + spec.n - least


def display_layout(spec: FamilySpec, diagram: Diagram) -> tuple[tuple[int, ...], bool]:
    """(internal indices in printed order, leads-with-vertex-0 flag)."""
    n = diagram.n_vertices
    if _FAMILIES[spec.family].leads_with_0:
        return (n - 1,) + tuple(range(n - 1)), True
    return tuple(range(n)), False


# -- closed-form class counts ---------------------------------------------


def closed_form_count(spec: FamilySpec) -> int | None:
    """The published class count, or None for the families the source defers.

    affF4's published count is one short; see its record in _FAMILIES.
    """
    count = _FAMILIES[spec.family].count
    return None if count is None else count(spec.n)


# -- canonical path labelings ---------------------------------------------


def xi(r: int, n: int) -> Labeling:
    """r single-vertex components packed maximally to the left of a path."""
    if not 0 <= r <= _ceil_half(n):
        raise DiagramError(f"xi({r},{n}): r out of range")
    return Labeling(n, _xi_bits(r))


def eta(r: int, n: int) -> Labeling:
    """r single-vertex components packed maximally to the right of a path."""
    if not 0 <= r <= _ceil_half(n):
        raise DiagramError(f"eta({r},{n}): r out of range")
    return Labeling(n, _eta_bits(r, n))


def _xi_bits(r: int) -> int:
    return sum(1 << (2 * t) for t in range(r))


def _eta_bits(r: int, n: int) -> int:
    return sum(1 << (n - 1 - 2 * t) for t in range(r))


# -- canonical representatives --------------------------------------------


@dataclass(frozen=True)
class RepresentativeSet:
    bits: tuple[int, ...]  # packed labelings, bit v = internal vertex v
    provenance: tuple[str, ...]


def canonical_representatives(spec: FamilySpec) -> RepresentativeSet | None:
    """The family's published representative list, or None where deferred."""
    reps = _FAMILIES[spec.family].reps
    if reps is None:
        return None
    out = reps(spec.n)
    return out if isinstance(out, RepresentativeSet) else RepresentativeSet(*zip(*out))


def _reps_A(n):
    return [(_xi_bits(i), f"xi:{i}") for i in range(_ceil_half(n) + 1)]


def _reps_affA(n):
    out = [(_xi_bits(i), f"xi:{i}") for i in range(_ceil_half(n) + 1)]
    out.append(((1 << (n + 1)) - 1, "fixed:all-ones"))
    if n % 2:
        alt = sum(1 << j for j in range(1, n, 2)) | 1 << n
        out.append((alt, "fixed:alternating"))
    return out


def _reps_B(n):
    out = [(1 << (n - 1), "short:xi:0")]
    out += [(_xi_bits(i), f"xi:{i}") for i in range(_ceil_half(n - 1) + 1)]
    return out


def _reps_affB(n):
    k = n // 2
    out = [
        (0, "fixed:l0"),
        (1 << (n - 1), "fixed:l1"),
        (1 << 0 | 1 << n, "fixed:l2"),
        (1 << 0 | 1 << n | 1 << (n - 1), "fixed:l3"),
    ]
    if n % 2:
        out += [(_xi_bits(i) << 1, f"xi:{i}") for i in range(1, k + 1)]
    else:
        out += [(_xi_bits(i) << 1, f"xi:{i}") for i in range(1, k)]
        neck_eta = _eta_bits(k - 1, n - 2) << 1
        out.append((neck_eta | 1 << n, "semi-fixed:kappa0"))
        out.append((neck_eta | 1 << 0, "semi-fixed:kappa1"))
    return out


def _reps_C(n):
    out = [(_xi_bits(i), f"xi:{i}:short0") for i in range(_ceil_half(n - 1) + 1)]
    out += [
        (_xi_bits(i) | 1 << (n - 1), f"xi:{i}:short1")
        for i in range(_ceil_half(n - 2) + 1)
    ]
    return out


def _reps_affC(n):
    out = [(_xi_bits(i), f"xi:{i}:00") for i in range(_ceil_half(n - 1) + 1)]
    out += [
        (_eta_bits(i, n - 2) | 1 << (n - 1), f"eta:{i}:01")
        for i in range(_ceil_half(n - 2) + 1)
    ]
    out += [
        (_xi_bits(i) << 1 | 1 << n, f"xi:{i}:10")
        for i in range(_ceil_half(n - 2) + 1)
    ]
    out += [
        (_xi_bits(i) << 1 | 1 << n | 1 << (n - 1), f"xi:{i}:11")
        for i in range(_ceil_half(n - 3) + 1)
    ]
    out.append(((1 << (n + 1)) - 1, "fixed:all-ones"))
    return out


def _reps_D(n):
    k = n // 2
    if n % 2:
        out = [(_xi_bits(i), f"xi:{i}") for i in range(k + 1)]
    else:
        out = [(_xi_bits(i), f"xi:{i}") for i in range(k)]
        out.append((_xi_bits(k - 1) | 1 << (n - 2), "fixed:l1"))
        out.append((_xi_bits(k - 1) | 1 << (n - 1), "fixed:l3"))
    out.append((1 << (n - 2) | 1 << (n - 1), "fixed:l2"))
    return out


def _reps_affD(n):
    k = n // 2
    out = [
        (1 << 0 | 1 << n, "fixed:l-left"),
        (1 << (n - 2) | 1 << (n - 1), "fixed:l-right"),
        (1 << 0 | 1 << n | 1 << (n - 2) | 1 << (n - 1), "fixed:l-center"),
    ]
    out += [(_xi_bits(i) << 1, f"xi:{i}") for i in range(k)]
    if n % 2:
        out.append((_xi_bits(k - 1) << 1 | 1 << (n - 2), "kappa"))
    else:
        neck = _xi_bits(k - 2) << 2
        out += [
            (neck | 1 << 0 | 1 << (n - 2), "fixed:l1"),
            (neck | 1 << n | 1 << (n - 2), "fixed:l2"),
            (neck | 1 << 0 | 1 << (n - 1), "fixed:l3"),
            (neck | 1 << n | 1 << (n - 1), "fixed:l4"),
        ]
    return out


def _reps_X(n):
    out = [(1 << n, "short1:xi:0")]
    out += [(_xi_bits(i), f"xi:{i}") for i in range(_ceil_half(n) + 1)]
    out += [
        (_eta_bits(i, n) | 1 << (n + 1), f"long1:eta:{i}")
        for i in range(_ceil_half(n - 1) + 1)
    ]
    return out


def _reps_Y(n):
    out = _reps_D(n)
    k = n // 2
    box = 1 << n
    extra = [(_xi_bits(i) << 1 | box, f"boxed:xi:{i}") for i in range(k)]
    if n % 2:
        extra += [
            (_xi_bits(k - 1) << 1 | 1 << (n - 2) | box, "boxed:l1"),
            (_xi_bits(k - 1) << 1 | 1 << (n - 1) | box, "boxed:l2"),
        ]
    return out + extra


def _reps_Z(n):
    out = [
        (1 << n, "fixed:l-left"),
        (1 << (n - 1), "fixed:l-right"),
        (1 << n | 1 << (n - 1), "fixed:l-center"),
    ]
    out += [(_xi_bits(i), f"xi:{i}") for i in range(_ceil_half(n - 1) + 1)]
    return out


def _reps_flower(d):
    # 2^(d-1) + 1 representatives: built as columns, not one pair each
    petals = np.arange(1, 1 << d)  # the nonempty petal sets, increasing
    evens = petals[np.bitwise_count(petals) % 2 == 0].tolist()
    return RepresentativeSet(
        (0, *evens, 1 << d), ("zero", *("fixed:petals",) * len(evens), "center")
    )


def _reps_Abox_m(m):
    return [
        (_xi_bits(i) | 1 << m, f"xi:{i}") for i in range(_ceil_half(m - 1) + 1)
    ]


def _reps_Abox_1m(m):
    pins = 1 << m | 1 << (m + 1)
    out = [((1 << (m + 2)) - 1, "fixed:all-ones")]
    out += [
        (_xi_bits(i) << 1 | pins, f"xi:{i}")
        for i in range(_ceil_half(m - 2) + 1)
    ]
    return out


def _reps_Bbox_1(n):
    box = 1 << (n + 1)
    return [
        (_eta_bits(i, n) | box, f"eta:{i}")
        for i in range(_ceil_half(n - 1) + 1)
    ]


def _reps_Dbox_1(n):
    k = n // 2
    box = 1 << n
    out = [(_xi_bits(i) << 1 | box, f"xi:{i}") for i in range(k)]
    if n % 2:
        out += [
            (_xi_bits(k - 1) << 1 | 1 << (n - 2) | box, "l1"),
            (_xi_bits(k - 1) << 1 | 1 << (n - 1) | box, "l2"),
        ]
    return out


def _reps_G2(_):
    return [(0, "xi:0"), (1, "xi:1")]


def _reps_affG2(_):
    return [(0, "xi:0"), (1 << 0, "xi:1"), (1 << 0 | 1 << 2, "xi:2")]


def _reps_A2_2(_):
    return [(0, "zero"), (1 << 1, "short1"), (1 << 0, "long1")]


def _reps_affE6(_):
    return [
        (0, "fixed:zero"),
        (1 << 0 | 1 << 2 | 1 << 4 | 1 << 6, "fixed:alternating"),
        (1 << 0, "odd"),
        (1 << 0 | 1 << 2, "even"),
    ]


def _reps_affE7(_):
    return [
        (0, "fixed:zero"),
        (1 << 0 | 1 << 2 | 1 << 6, "fixed:l-left"),
        (1 << 4 | 1 << 7 | 1 << 6, "fixed:l-right"),
        (1 << 0 | 1 << 2 | 1 << 4 | 1 << 7, "fixed:l-center"),
        (1 << 0, "odd"),
        (1 << 0 | 1 << 2, "even"),
    ]


def _reps_affE8(_):
    return [
        (0, "fixed:zero"),
        (1 << 8 | 1 << 1 | 1 << 3 | 1 << 7, "fixed:l-left"),
        (1 << 8, "odd"),
        (1 << 8 | 1 << 1, "even"),
    ]


def _reps_affF4(_):
    # the published list stops after class:00101; brute force and the
    # fixed-labeling system both find the extra fixed singleton 10101
    # (README, "Known discrepancy"), so it is included to keep the list
    # complete
    return [
        (0, "zero"),
        (1 << 0, "class:10000"),
        (1 << 2, "class:00100"),
        (1 << 2 | 1 << 4, "class:00101"),
        (1 << 0 | 1 << 2 | 1 << 4, "fixed:omitted"),
    ]


def _reps_E6_2(_):
    return [
        (0, "zero"),
        (1 << 4 | 1 << 1, "fixed"),
        (1 << 4, "class:10000"),
        (1 << 3, "class:00001"),
    ]


def _reps_D4_3(_):
    return [(0, "xi:0"), (1 << 2, "xi:1"), (1 << 2 | 1 << 1, "xi:2")]


def check_representatives(spec: FamilySpec, reps, partition) -> list[str]:
    """Problems with the published list reps = canonical_representatives(spec)
    against a partition.

    Empty result means the list is pairwise inequivalent, complete, and
    weight-minimal per class.  Deferred families report a single problem.
    """
    if reps is None:
        return [f"{spec}: no published representative list"]
    states = moves.encode_states(partition.diagram, reps.bits)
    ids = partition.class_id_array()[states]
    # a labeling's weight counts its pinned vertices, which are always lit
    pinned = len(partition.diagram.pinned)
    weights = np.bitwise_count(states) + pinned
    best = np.bitwise_count(partition.rep_states)[ids] + pinned
    # each entry's latest earlier entry in its class, -1 if none: the stable
    # sort keeps a class's entries in list order
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    again = np.flatnonzero(ranked[1:] == ranked[:-1])
    earlier = np.full(len(ids), -1)
    earlier[order[again + 1]] = order[again]
    heavy = weights != best
    problems = []
    for idx in np.flatnonzero((earlier >= 0) | heavy).tolist():
        tag = reps.provenance[idx]
        if earlier[idx] >= 0:
            problems.append(f"{tag}: same class as representative {earlier[idx]}")
        if heavy[idx]:
            problems.append(f"{tag}: weight {weights[idx]}, class minimum {best[idx]}")
    covered = len(ids) - len(again)
    if covered != partition.class_count:
        problems.append(f"{spec}: {covered} classes covered of {partition.class_count}")
    return problems


# -- the registry ----------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """What the source gives for one family.  A parametric family sets
    least, its least parameter; a fixed-size family sets fixed, its size.
    count maps n to the published class count and reps to the published
    representative list; both are None where the source defers them."""

    build: Callable[[int], Diagram]
    count: Callable[[int], int] | None
    reps: Callable[[int], list[tuple[int, str]]] | None
    least: int | None = None
    fixed: int | None = None
    leads_with_0: bool = False  # printed form leads with vertex 0, stored last


_FAMILIES = {
    "A": _Family(_build_A, lambda n: _ceil_half(n) + 1, _reps_A, least=1),
    "affA": _Family(
        _build_affA, lambda n: n // 2 + 2 if n % 2 == 0 else (n - 1) // 2 + 4,
        _reps_affA, least=2, leads_with_0=True,
    ),
    "B": _Family(_build_B, lambda n: 2 + _ceil_half(n - 1), _reps_B, least=2),
    "affB": _Family(
        _build_affB, lambda n: (n - 1) // 2 + 4 if n % 2 else n // 2 + 5,
        _reps_affB, least=4, leads_with_0=True,
    ),
    "C": _Family(_build_C, lambda n: n + 1, _reps_C, least=3),
    "affC": _Family(_build_affC, lambda n: 2 * n + 2, _reps_affC, least=3, leads_with_0=True),
    "D": _Family(
        _build_D, lambda n: n // 2 + 3 if n % 2 == 0 else (n - 1) // 2 + 2,
        _reps_D, least=4,
    ),
    "affD": _Family(
        _build_affD, lambda n: n // 2 + 7 if n % 2 == 0 else (n - 1) // 2 + 4,
        _reps_affD, least=5, leads_with_0=True,
    ),
    "E6": _Family(_build_E6, None, None, fixed=6),
    "E7": _Family(_build_E7, None, None, fixed=7),
    "E8": _Family(_build_E8, None, None, fixed=8),
    "affE6": _Family(_build_affE6, lambda _: 4, _reps_affE6, fixed=6, leads_with_0=True),
    "affE7": _Family(_build_affE7, lambda _: 6, _reps_affE7, fixed=7, leads_with_0=True),
    "affE8": _Family(_build_affE8, lambda _: 4, _reps_affE8, fixed=8, leads_with_0=True),
    "F4": _Family(_build_F4, None, None, fixed=4),
    # Erratum: the published count 4 is one short, since the paper's class
    # list omits the fixed labeling 10101 and brute force finds 5 (README,
    # "Known discrepancy").  Every other published count is exact.
    "affF4": _Family(_build_affF4, lambda _: 4, _reps_affF4, fixed=4, leads_with_0=True),
    "G2": _Family(_build_G2, lambda _: 2, _reps_G2, fixed=2),
    "affG2": _Family(_build_affG2, lambda _: 3, _reps_affG2, fixed=2, leads_with_0=True),
    "X": _Family(_build_X, lambda n: n + 3, _reps_X, least=1, leads_with_0=True),
    "A2_2": _Family(_build_A2_2, lambda _: 3, _reps_A2_2, fixed=2),
    "Y": _Family(_build_Y, lambda n: n + 3, _reps_Y, least=4, leads_with_0=True),
    "Z": _Family(_build_Z, lambda n: _ceil_half(n - 1) + 4, _reps_Z, least=2, leads_with_0=True),
    "E6_2": _Family(_build_E6_2, lambda _: 4, _reps_E6_2, fixed=6, leads_with_0=True),
    "D4_3": _Family(_build_D4_3, lambda _: 3, _reps_D4_3, fixed=4, leads_with_0=True),
    "flower": _Family(_build_flower, lambda n: 2 ** (n - 1) + 1, _reps_flower, least=1),
    "Abox_m": _Family(_build_Abox_m, lambda n: _ceil_half(n - 1) + 1, _reps_Abox_m, least=1),
    "Abox_1m": _Family(_build_Abox_1m, lambda n: _ceil_half(n - 2) + 2, _reps_Abox_1m, least=1),
    "Bbox_1": _Family(_build_Bbox_1, lambda n: 1 + _ceil_half(n - 1), _reps_Bbox_1, least=1),
    "Dbox_1": _Family(
        _build_Dbox_1, lambda n: n // 2 if n % 2 == 0 else (n - 1) // 2 + 2,
        _reps_Dbox_1, least=4,
    ),
}

FAMILY_NAMES = tuple(_FAMILIES)
DEFERRED = tuple(name for name, record in _FAMILIES.items() if record.count is None)
# what parse_family accepts before the first colon: Abox:m[:ends=1] names
# Abox_m or Abox_1m
FAMILY_HEADS = (*FAMILY_NAMES, "Abox")
