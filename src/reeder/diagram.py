"""Immutable diagrams, labelings, and the move-relevant graph structure.

A diagram is a finite graph with edge multiplicities, directions on
even-multiplicity edges (the arrow points at the shorter vertex), and a set of
pinned vertices whose label is frozen at 1.  A multiplicity matters only mod
2, so an edge stores it that way: single undirected or double directed.
Labelings assign one bit per vertex; bit i of the packed integer is the label
of vertex i.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from functools import cached_property

from .f2 import F2Matrix


class DiagramError(ValueError):
    """Malformed diagram, labeling, or DSL input."""


class ResourceError(RuntimeError):
    """A computation would exceed the state-space cap or the available memory."""


@dataclass(frozen=True)
class Edge:
    """An edge u-v of the given multiplicity, stored mod 2: an odd one as 1,
    undirected; an even one as 2, directed u => v (u the longer vertex),
    which it must be."""

    u: int
    v: int
    multiplicity: int = 1
    directed: bool = False

    def __post_init__(self):
        if self.u == self.v:
            raise DiagramError(f"self-loop at vertex {self.u}")
        if self.multiplicity < 1:
            raise DiagramError(f"edge {self.u}-{self.v}: multiplicity must be >= 1")
        if self.multiplicity % 2 == 0 and not self.directed:
            raise DiagramError(f"edge {self.u}-{self.v}: even multiplicity requires a direction")
        object.__setattr__(self, "multiplicity", 2 - self.multiplicity % 2)
        object.__setattr__(self, "directed", self.multiplicity == 2)

    @property
    def pair(self) -> frozenset[int]:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class Labeling:
    n: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.n):
            raise DiagramError(f"labeling bits out of range for {self.n} vertices")

    @classmethod
    def from_bits(cls, bits_seq) -> "Labeling":
        """Vertex i labeled by entry i: 0 or 1, as an int or a string."""
        bits_seq = list(bits_seq)
        for i, b in enumerate(bits_seq):
            if b not in (0, 1, "0", "1"):
                raise DiagramError(f"labeling entry {i} is {b!r}, not 0 or 1")
        packed = sum(int(b) << i for i, b in enumerate(bits_seq))
        return cls(len(bits_seq), packed)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.bits >> i & 1

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self.bits >> i & 1 for i in range(self.n))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def with_bit(self, i: int, value: int) -> "Labeling":
        mask = 1 << i
        bits = (self.bits | mask) if value & 1 else (self.bits & ~mask)
        return Labeling(self.n, bits)

    def bitstring(self) -> str:
        """Vertex-0-first string, e.g. vertex 0 is the leftmost character."""
        return "".join(str(self.bits >> i & 1) for i in range(self.n))

    def __str__(self) -> str:
        return self.bitstring()


@dataclass(frozen=True)
class Diagram:
    n_vertices: int
    edges: tuple[Edge, ...] = ()
    pinned: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "pinned", frozenset(self.pinned))
        if self.n_vertices < 0:
            raise DiagramError("negative vertex count")
        seen: set[frozenset[int]] = set()
        for e in self.edges:
            if not (0 <= e.u < self.n_vertices and 0 <= e.v < self.n_vertices):
                raise DiagramError(f"edge {e.u}-{e.v}: endpoint out of range")
            if e.pair in seen:
                raise DiagramError(f"duplicate edge between {min(e.pair)} and {max(e.pair)}")
            seen.add(e.pair)
        for p in self.pinned:
            if not 0 <= p < self.n_vertices:
                raise DiagramError(f"pinned vertex {p} out of range")

    # -- basic graph structure (direction and multiplicity ignored) ------

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for e in self.edges:
            nbrs[e.u].append(e.v)
            nbrs[e.v].append(e.u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    @property
    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj), default=0)

    @property
    def is_connected(self) -> bool:
        return self.n_graph_components <= 1

    @cached_property
    def n_graph_components(self) -> int:
        return self.count_components((1 << self.n_vertices) - 1)  # all lit

    @property
    def n_independent_cycles(self) -> int:
        return len(self.edges) - self.n_vertices + self.n_graph_components

    @property
    def is_forest(self) -> bool:
        return self.n_independent_cycles == 0

    @property
    def is_tree(self) -> bool:
        return self.is_forest and self.is_connected and self.n_vertices > 0

    @property
    def is_simply_laced(self) -> bool:
        return all(e.multiplicity == 1 for e in self.edges)

    def contains_e6(self) -> bool:
        """True iff this is a simply-laced tree with a branch vertex carrying
        at least two arms of length >= 2 (see e6_path)."""
        return self.e6_path() is not None

    def e6_path(self) -> tuple[int, int, int, int, int] | None:
        """On a simply-laced tree, a path (w1, u1, v, u2, w2) through the first
        branch vertex v (degree >= 3) with two arms of length >= 2, or None."""
        if not self.is_simply_laced:
            raise DiagramError("contains_e6 requires a simply-laced diagram")
        if not self.is_tree:
            raise DiagramError("contains_e6 requires a tree")
        for v in range(self.n_vertices):
            arms = {u: w for u in self._adj[v] for w in self._adj[u] if w != v}  # arms v-u-w
            if self.degree(v) >= 3 and len(arms) >= 2:
                (u1, w1), (u2, w2) = list(arms.items())[:2]
                return w1, u1, v, u2, w2
        return None

    # -- move-relevant structure -----------------------------------------

    @cached_property
    def _effective(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for e in self.edges:
            nbrs[e.v].add(e.u)
            if not e.directed:
                nbrs[e.u].add(e.v)
        return tuple(frozenset(ns) for ns in nbrs)

    def effective_neighbors(self, i: int) -> frozenset[int]:
        """Neighbors contributing to vertex i's move sum.  For a directed
        edge u=>v the longer vertex u does not see v."""
        if not 0 <= i < self.n_vertices:
            raise IndexError(i)
        return self._effective[i]

    @cached_property
    def free_vertices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_vertices) if i not in self.pinned)

    @property
    def pinned_bits(self) -> int:
        return sum(1 << p for p in self.pinned)

    # -- labelings -------------------------------------------------------

    def labeling(self, bits) -> Labeling:
        """Build a labeling from an int or a bit sequence, checking pins."""
        if isinstance(bits, Labeling):
            a = bits
        elif isinstance(bits, int):
            a = Labeling(self.n_vertices, bits)
        else:
            a = Labeling.from_bits(bits)
        if a.n != self.n_vertices:
            raise DiagramError(
                f"labeling length {a.n} does not match {self.n_vertices} vertices"
            )
        if a.bits & self.pinned_bits != self.pinned_bits:
            raise DiagramError("pinned vertex labeled 0")
        return a

    def count_components(self, a: Labeling) -> int:
        """Connected components of the subgraph induced on 1-labeled vertices."""
        bits = self.labeling(a).bits
        seen = 0
        count = 0
        for start in range(self.n_vertices):
            if not bits >> start & 1 or seen >> start & 1:
                continue
            count += 1
            seen |= 1 << start
            stack = [start]
            while stack:
                for k in self._adj[stack.pop()]:
                    if bits >> k & 1 and not seen >> k & 1:
                        seen |= 1 << k
                        stack.append(k)
        return count

    def is_fixed(self, a: Labeling) -> bool:
        """Whether every move fixes a: its free bits x solve M x = b (see
        effective_system)."""
        bits = self.labeling(a).bits
        m, b = self.effective_system()
        x = sum((bits >> v & 1) << j for j, v in enumerate(self.free_vertices))
        return m.mul_vec(x) == b

    # -- linear algebra ---------------------------------------------------

    def adjacency_matrix(self) -> F2Matrix:
        """Symmetric 0/1 adjacency, ignoring direction and multiplicity."""
        n = self.n_vertices
        rows = [0] * n
        for e in self.edges:
            rows[e.u] |= 1 << e.v
            rows[e.v] |= 1 << e.u
        return F2Matrix(n, n, tuple(rows))

    def effective_system(self) -> tuple[F2Matrix, int]:
        """The fixed-labeling system over free vertices.

        Returns (M, b): a labeling with free bits x is fixed iff M x = b,
        where column j of M corresponds to free vertex free_vertices[j] and
        b collects the pinned contributions.
        """
        return self._system

    @cached_property
    def _system(self) -> tuple[F2Matrix, int]:
        free = self.free_vertices
        pos = {v: j for j, v in enumerate(free)}
        rows = []
        b = 0
        for r, i in enumerate(free):
            row = 0
            for k in self._effective[i]:
                if k in pos:
                    row |= 1 << pos[k]
                else:
                    b ^= 1 << r
            rows.append(row)
        return F2Matrix(len(free), len(free), tuple(rows)), b


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 after d1 with vertex indices shifted by d1.n_vertices."""
    off = d1.n_vertices
    edges = d1.edges + tuple(
        Edge(e.u + off, e.v + off, e.multiplicity, e.directed) for e in d2.edges
    )
    pinned = d1.pinned | {p + off for p in d2.pinned}
    return Diagram(d1.n_vertices + d2.n_vertices, edges, pinned)


# -- text DSL -------------------------------------------------------------


def _number(text: str, signed: bool = False) -> int | None:
    """text as an int if it is a run of ASCII digits that int() takes, after
    one leading '-' when signed, else None: every integer the DSL and the
    CLI read.  int() alone also takes '_', '+', spaces and '٣' (as 3), and
    str.isdigit also '²', which int() refuses; int() refuses a run of more
    digits than sys.get_int_max_str_digits()."""
    digits = text.removeprefix("-") if signed else text
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):
            return int(text)
    return None


def parse_dsl(text: str) -> Diagram:
    """Parse the diagram DSL.

    One declaration per line; '#' starts a comment:
        vertices N
        edge U V [mult=M] [dir=U>V]    (dir names the longer vertex first;
                                        required if M is even, else refused)
        pin P
    """
    n_vertices = None
    edges: dict[frozenset[int], Edge] = {}
    pinned: set[int] = set()

    def err(lineno: int, msg: str):
        raise DiagramError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "vertices":
            if n_vertices is not None:
                err(lineno, "duplicate 'vertices' declaration")
            n_vertices = _number(parts[1]) if len(parts) == 2 else None
            if n_vertices is None:
                err(lineno, "expected 'vertices N'")
        elif kw == "edge":
            if n_vertices is None:
                err(lineno, "'vertices' must come first")
            u, v = map(_number, parts[1:3]) if len(parts) >= 3 else (None, None)
            if u is None or v is None:
                err(lineno, "expected 'edge U V [mult=M] [dir=U>V]'")
            if max(u, v) >= n_vertices:
                err(lineno, f"edge {u}-{v}: endpoint out of range")
            mult = 1
            direction = None
            for opt in parts[3:]:
                if opt.startswith("mult="):
                    # a negative one is read, to be refused as below 1
                    mult = _number(opt[5:], signed=True)
                    if mult is None:
                        err(lineno, f"bad multiplicity {opt[5:]!r}")
                elif opt.startswith("dir="):
                    direction = tuple(map(_number, opt[4:].split(">")))
                    if len(direction) != 2 or None in direction:
                        err(lineno, "expected dir=LONGER>SHORTER")
                else:
                    err(lineno, f"unknown option {opt!r}")
            if mult < 1:
                err(lineno, f"edge {u} {v}: multiplicity must be >= 1")
            if mult % 2 == 0 and direction is None:
                err(lineno, f"edge {u} {v}: even multiplicity requires dir=")
            if direction is not None:
                if set(direction) != {u, v}:
                    err(lineno, f"dir= must name vertices {u} and {v}")
                if mult % 2:
                    err(lineno, f"edge {u} {v}: dir= needs an even multiplicity")
                u, v = direction
            try:
                edge = Edge(u, v, mult, directed=mult % 2 == 0)
            except DiagramError as exc:
                err(lineno, str(exc))
            if edge.pair in edges:
                err(lineno, f"duplicate edge between {min(u, v)} and {max(u, v)}")
            edges[edge.pair] = edge
        elif kw == "pin":
            if n_vertices is None:
                err(lineno, "'vertices' must come first")
            p = _number(parts[1]) if len(parts) == 2 else None
            if p is None:
                err(lineno, "expected 'pin P'")
            if p >= n_vertices:
                err(lineno, f"pinned vertex {p} out of range")
            pinned.add(p)
        else:
            err(lineno, f"unknown declaration {kw!r}")
    if n_vertices is None:
        raise DiagramError("missing 'vertices' declaration")
    return Diagram(n_vertices, tuple(edges.values()), frozenset(pinned))
