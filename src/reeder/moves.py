"""Move application and brute-force enumeration of equivalence classes.

The state space of a diagram is indexed by the free (non-pinned) vertices:
free vertex ``free_vertices[j]`` contributes bit j of the state integer.
Pinned bits are stripped on encode and re-inserted (as 1) on decode.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernel
from .diagram import Diagram, DiagramError, Labeling, ResourceError
from .f2 import F2Matrix, parity

DEFAULT_CAP = 26
_ENV_CAP = "REEDER_MAX_VERTICES"


def state_cap(override: int | None = None) -> int:
    """Effective free-vertex cap: explicit override > environment > default."""
    if override is not None:
        return override
    env = os.environ.get(_ENV_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DiagramError(f"bad {_ENV_CAP} value {env!r}")
    return DEFAULT_CAP


_MEMINFO = "/proc/meminfo"
# int64 class ids, states and sort keys plus uint8 popcounts are live at once
# while ClassPartition.build ranks the classes
_RANK_BYTES_PER_STATE = 25


def available_memory() -> int:
    """Bytes the system can still hand out: MemAvailable, else free pages."""
    try:
        with open(_MEMINFO) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def build_bytes(n_states: int, n_moves: int) -> int:
    """Upper bound on the array bytes ClassPartition.build holds at once."""
    return max(
        _kernel.kernel_bytes(n_states, n_moves), _RANK_BYTES_PER_STATE * n_states
    )


def require_memory(need: int, what: str) -> None:
    """Raise ResourceError, before anything is allocated, when need bytes
    exceed the memory available."""
    avail = available_memory()
    if need > avail:
        raise ResourceError(
            f"{what} needs about {need >> 20} MB, "
            f"but only {avail >> 20} MB of memory is available"
        )


# -- single moves ---------------------------------------------------------


def apply_move(diagram: Diagram, a: Labeling, i: int) -> Labeling:
    """One move at vertex i; a move at a pinned vertex is the identity."""
    if not 0 <= i < diagram.n_vertices:
        raise IndexError(i)
    a = diagram.labeling(a)
    if i in diagram.pinned:
        return a
    mask = sum(1 << k for k in diagram.effective_neighbors(i))
    return Labeling(a.n, a.bits ^ (parity(a.bits & mask) << i))


def apply_sequence(diagram: Diagram, a: Labeling, moves) -> Labeling:
    for i in moves:
        a = apply_move(diagram, a, i)
    return a


def move_matrix(diagram: Diagram, i: int) -> F2Matrix:
    """Identity with row i replaced by e_i + indicator of effective neighbors."""
    if not 0 <= i < diagram.n_vertices:
        raise IndexError(i)
    rows = list(F2Matrix.identity(diagram.n_vertices).rows)
    if i not in diagram.pinned:
        for k in diagram.effective_neighbors(i):
            rows[i] |= 1 << k
    return F2Matrix(diagram.n_vertices, diagram.n_vertices, tuple(rows))


# -- state encoding -------------------------------------------------------


def encode_state(diagram: Diagram, a: Labeling) -> int:
    a = diagram.labeling(a)
    return sum((a.bits >> v & 1) << j for j, v in enumerate(diagram.free_vertices))


def decode_state(diagram: Diagram, state: int) -> Labeling:
    full = diagram.pinned_bits
    for j, v in enumerate(diagram.free_vertices):
        full |= (state >> j & 1) << v
    return Labeling(diagram.n_vertices, full)


def _move_tables(diagram: Diagram):
    """Per-free-vertex transvection triples (a, b, c) over the free encoding.

    The move at free bit j flips bit j (b) when the parity of its free
    effective neighbors (a) differs from that of its pinned ones (c).
    """
    free = diagram.free_vertices
    pos = {v: j for j, v in enumerate(free)}
    a, b, c = [], [], []
    for j, i in enumerate(free):
        mask = 0
        const = 0
        for k in diagram.effective_neighbors(i):
            if k in pos:
                mask |= 1 << pos[k]
            else:
                const ^= 1
        a.append(mask)
        b.append(1 << j)
        c.append(const)
    return a, b, c


def expand_states(diagram: Diagram, states: np.ndarray) -> np.ndarray:
    """Free-encoded state integers -> full labeling integers (pins set)."""
    full = np.full(states.shape, diagram.pinned_bits, dtype=np.int64)
    for j, v in enumerate(diagram.free_vertices):
        full |= ((states >> j) & 1) << v
    return full


def component_counts(diagram: Diagram, states: np.ndarray) -> np.ndarray:
    """Component count of every free-encoded state, vectorized.

    Forests need only a popcount and an edge sum; a single independent cycle
    adds a correction when the whole cycle is lit.  Anything else falls back
    to the per-state graph walk.
    """
    full = expand_states(diagram, states)
    cycles = diagram.n_independent_cycles
    if cycles > 1:
        return np.array(
            [diagram.count_components(diagram.labeling(int(b))) for b in full],
            dtype=np.int64,
        )
    comps = np.bitwise_count(full).astype(np.int64)
    for e in diagram.edges:
        comps -= (full >> e.u) & (full >> e.v) & 1
    if cycles == 1:
        cyc = _cycle_mask(diagram)
        comps += (full & cyc) == cyc
    return comps


def _cycle_mask(diagram: Diagram) -> int:
    deg = [diagram.degree(v) for v in range(diagram.n_vertices)]
    alive = set(range(diagram.n_vertices))
    leaves = [v for v in alive if deg[v] <= 1]
    while leaves:
        v = leaves.pop()
        alive.discard(v)
        for u in diagram.neighbors(v):
            if u in alive:
                deg[u] -= 1
                if deg[u] == 1:
                    leaves.append(u)
    return sum(1 << v for v in alive)


# -- class partition ------------------------------------------------------


@dataclass(frozen=True)
class ClassSummary:
    size: int
    min_representative: Labeling
    components: dict[int, int]
    is_singleton_fixed: bool


class ClassPartition:
    """Partition of all 2^f states into equivalence classes.

    Classes are indexed by increasing integer value of their minimal
    representative (least 1-count, ties by least integer, vertex 0 = LSB).
    """

    def __init__(self, diagram: Diagram, class_id: np.ndarray, reps: np.ndarray):
        self.diagram = diagram
        self._class_id = class_id
        self._rep_states = reps
        self.class_count = len(reps)

    @classmethod
    def build(cls, diagram: Diagram, cap: int | None = None) -> "ClassPartition":
        f = len(diagram.free_vertices)
        cap = state_cap(cap)
        if f > cap:
            raise ResourceError(
                f"{f} free vertices exceed the cap of {cap}: "
                f"would require {1 << f} states"
            )
        n_states = 1 << f
        a, b, c = _move_tables(diagram)
        require_memory(build_bytes(n_states, len(a)), f"enumerating {n_states} states")
        roots = _kernel.orbit_roots(n_states, a, b, c)
        states = np.arange(n_states, dtype=np.int64)
        # every root is its class's minimum state, so ranking roots by value
        # is a counting pass rather than a sort
        is_root = roots == states
        n_classes = int(np.count_nonzero(is_root))
        root_rank = np.cumsum(is_root)
        del is_root
        root_rank -= 1
        class_id = np.take(root_rank, roots, out=roots)  # reuses the roots buffer
        del root_rank
        key = np.bitwise_count(states).astype(np.int64)
        key <<= f
        key |= states
        del states
        min_keys = np.full(n_classes, np.iinfo(np.int64).max)
        np.minimum.at(min_keys, class_id, key)
        del key
        reps = min_keys & (n_states - 1)
        # reindex classes by their minimal representative's integer value
        perm = np.argsort(reps, kind="stable")
        rank = np.empty_like(perm)
        rank[perm] = np.arange(len(perm))
        # the ids the partition keeps get a fresh array: holding on to the
        # kernel's buffer raised peak RSS by 10 MB on `classes flower:17`
        return cls(diagram, rank[class_id], reps[perm])

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self._class_id, minlength=self.class_count)

    @cached_property
    def _component_histograms(self) -> list[dict[int, int]]:
        states = np.arange(len(self._class_id), dtype=np.int64)
        comps = component_counts(self.diagram, states)
        cmax = int(comps.max(initial=0))
        flat = np.bincount(
            self._class_id * (cmax + 1) + comps,
            minlength=self.class_count * (cmax + 1),
        ).reshape(self.class_count, cmax + 1)
        return [
            {c: int(row[c]) for c in range(cmax + 1) if row[c]}
            for row in flat
        ]

    @cached_property
    def summaries(self) -> list[ClassSummary]:
        hists = self._component_histograms
        return [
            ClassSummary(
                size=int(self.sizes[c]),
                min_representative=self.minimal_representative(c),
                components=hists[c],
                is_singleton_fixed=int(self.sizes[c]) == 1,
            )
            for c in range(self.class_count)
        ]

    def class_of(self, a: Labeling) -> int:
        return int(self._class_id[encode_state(self.diagram, a)])

    def minimal_representative(self, class_index: int) -> Labeling:
        if not 0 <= class_index < self.class_count:
            raise IndexError(f"unknown class index {class_index}")
        return decode_state(self.diagram, int(self._rep_states[class_index]))

    def members(self, class_index: int):
        if not 0 <= class_index < self.class_count:
            raise IndexError(f"unknown class index {class_index}")
        for s in np.flatnonzero(self._class_id == class_index):
            yield decode_state(self.diagram, int(s))

    def class_id_array(self) -> np.ndarray:
        """Class index of every free-encoded state (read-only view)."""
        view = self._class_id.view()
        view.flags.writeable = False
        return view

    # -- exports ----------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n_vertices": self.diagram.n_vertices,
            "free_vertices": list(self.diagram.free_vertices),
            "class_count": self.class_count,
            "classes": [
                {
                    "size": s.size,
                    "min_representative": s.min_representative.bitstring(),
                    "components": {str(k): v for k, v in sorted(s.components.items())},
                    "is_singleton_fixed": s.is_singleton_fixed,
                }
                for s in self.summaries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["class", "size", "min_representative", "components", "is_singleton_fixed"])
        for c, s in enumerate(self.summaries):
            hist = ";".join(f"{k}:{v}" for k, v in sorted(s.components.items()))
            w.writerow([c, s.size, s.min_representative.bitstring(), hist, int(s.is_singleton_fixed)])
        return buf.getvalue()


def enumerate_classes(diagram: Diagram, cap: int | None = None) -> ClassPartition:
    """Union-find closure of the full state space under all moves."""
    return ClassPartition.build(diagram, cap)


def are_equivalent(
    diagram: Diagram,
    a: Labeling,
    b: Labeling,
    partition: ClassPartition | None = None,
) -> bool:
    """Reachability of b from a; BFS when no partition is supplied."""
    a = diagram.labeling(a)
    b = diagram.labeling(b)
    if partition is not None:
        return partition.class_of(a) == partition.class_of(b)
    if a.bits == b.bits:
        return True
    seen = {a.bits}
    frontier = [a]
    while frontier:
        nxt = []
        for cur in frontier:
            for i in diagram.free_vertices:
                t = apply_move(diagram, cur, i)
                if t.bits == b.bits:
                    return True
                if t.bits not in seen:
                    seen.add(t.bits)
                    nxt.append(t)
        frontier = nxt
    return False

