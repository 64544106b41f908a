"""Move application, brute-force enumeration of equivalence classes, and
their count.

The state space of a diagram is indexed by the free (non-pinned) vertices:
free vertex ``free_vertices[j]`` contributes bit j of the state integer.
Pinned bits are stripped on encode and re-inserted (as 1) on decode.

enumerate_classes deletes the free vertices whose translations commute
with every move (the unread ones, and all but one of each group of clones),
closes the smaller game, and counts the classes of the full game from one
firing pass over its roots.  A ClassPartition lifts those roots to all 2^f
states, by doubling over the deleted vertices, only when it ranks its
classes for the class table.
"""

from __future__ import annotations

import os
import sys
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernel
from .diagram import Diagram, DiagramError, Labeling, ResourceError, _number
from .f2 import F2Matrix, parity

DEFAULT_CAP = 26
_ENV_CAP = "REEDER_MAX_VERTICES"


def state_cap(override: int | None = None) -> int:
    """Effective free-vertex cap: explicit override > environment > default."""
    cap = override
    if cap is None:
        env = os.environ.get(_ENV_CAP)
        if env is None:
            return DEFAULT_CAP
        cap = _number(env, signed=True)
        if cap is None:
            raise DiagramError(f"bad {_ENV_CAP} value {env!r}")
    if cap < 0:
        raise DiagramError(f"the free-vertex cap must be >= 0, not {cap}")
    return cap


_MEMINFO = "/proc/meminfo"
# While ranking, the lift's int32 members and the int64 class ids are live at
# once, 12 B/state (the ids' buffer first holds each class's least key), with
# blocks of keys and of gather indices; the lift and its copy in index order
# hold 8 B/state before.  Per class, the packed roots and ranks take 20 B
_RANK_BYTES_PER_STATE = 25
_RANK_BYTES_PER_CLASS = 32


def _key_type(f: int) -> type:
    """Ranking's key popcount(s) << f | s: int32 up to 31 bits (f <= 26)."""
    return np.int32 if f + f.bit_length() <= 31 else np.int64


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


def _states_text(f: int) -> str:
    """2^f states, written out in full only while that is short."""
    return f"{1 << f} states" if f < 63 else f"2^{f} states"


def require_cap(f: int, cap: int | None = None, dimension: str = "") -> None:
    """Refuse to enumerate 2^f states when f exceeds the cap (see state_cap).

    It reads f alone, so an entry point calls it before anything that grows
    with the diagram.  The refusal counts f as free vertices unless a
    dimension names f.
    """
    cap = state_cap(cap)
    if f > cap:
        if dimension:
            what = f"{dimension} {f} exceeds"
        else:
            what = "1 free vertex exceeds" if f == 1 else f"{f} free vertices exceed"
        raise ResourceError(f"{what} the cap of {cap}: would require {_states_text(f)}")


def require_states(f: int, need: int, cap: int | None = None, dimension: str = "") -> None:
    """Refuse, before anything is allocated, to enumerate 2^f states.

    Raises ResourceError when f exceeds the cap (see require_cap) or when the
    need bytes estimated for the enumeration exceed the available memory.
    """
    require_cap(f, cap, dimension)
    avail = available_memory()
    if need > avail:
        raise ResourceError(
            f"enumerating {_states_text(f)} needs about {need >> 20} MB, "
            f"but only {avail >> 20} MB of memory is available"
        )


def require_ranking(diagram: Diagram, cap: int | None = None) -> None:
    """Refuse, before any closure, to partition a diagram whose ranking will
    not fit: a caller that reads the class table calls it before
    enumerate_classes, since the closure holds far less than the ranking's
    bytes per state over all 2^f states (see ClassPartition)."""
    f = diagram.n_vertices - len(diagram.pinned)
    require_states(f, _RANK_BYTES_PER_STATE << f, cap)


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


def encode_states(diagram: Diagram, bits) -> np.ndarray:
    """Free-encoded states of packed labelings; both are int64 below 63
    vertices (free vertices for the states), Python ints in an object array
    past.  A bit out of range or a pinned vertex at 0 raises DiagramError."""
    n = diagram.n_vertices
    try:
        bits = np.asarray(bits, dtype=np.int64 if n < 63 else object)
    except OverflowError:
        raise DiagramError(f"labeling bits out of range for {n} vertices")
    if np.any(bits >> n != 0):  # also catches negative bits
        raise DiagramError(f"labeling bits out of range for {n} vertices")
    if np.any(bits & diagram.pinned_bits != diagram.pinned_bits):
        raise DiagramError("pinned vertex labeled 0")
    states = np.zeros(bits.shape, np.int64 if len(diagram.free_vertices) < 63 else object)
    for j, v in enumerate(diagram.free_vertices):
        states |= (bits >> v & 1).astype(states.dtype) << j
    return states


def decode_state(diagram: Diagram, state: int) -> Labeling:
    full = diagram.pinned_bits
    for j, v in enumerate(diagram.free_vertices):
        full |= (state >> j & 1) << v
    return Labeling(diagram.n_vertices, full)


# lines per block of the rendered class table (JSON: classes), and states per
# block of labeling_strings
_RENDER_BLOCK = 4096


def _label_chars(diagram: Diagram, states, order=None, leads: bool = False) -> np.ndarray:
    """Each free-encoded state's vertex labels in order (default: vertex
    order), pinned vertices reading 1, as a row of ASCII bytes; leads puts a
    ``;`` after the first label, as in an affine labeling's a0;a1..an."""
    n = diagram.n_vertices
    columns = list(range(n) if order is None else order)
    if leads:
        columns.insert(1, n)
    # built transposed, a row per vertex, so that every write is contiguous
    chars = np.full((n + 1, len(states)), ord("1"), dtype=np.uint8)
    chars[n] = ord(";")
    for j, v in enumerate(diagram.free_vertices):
        np.bitwise_and(states >> j, 1, out=chars[v], casting="unsafe")
        chars[v] |= ord("0")
    return chars[columns].T


def labeling_strings(diagram: Diagram, states, order=None):
    """Each free-encoded state as its vertex labels in order (default: vertex
    order), pinned vertices reading 1, from one character matrix per block."""
    for start in range(0, len(states), _RENDER_BLOCK):
        chars = _label_chars(diagram, np.asarray(states[start : start + _RENDER_BLOCK]), order)
        yield from _compose(len(chars), [(slice(None), [chars, b"\n"])]).splitlines()


def fixed_states(diagram: Diagram, cap: int | None = None) -> np.ndarray:
    """Sorted free-encoded states fixed by every move: x0 + ker M for the
    system of Diagram.effective_system, gated as 2^nullity states."""
    m, rhs = diagram.effective_system()
    x0 = m.solve(rhs)
    if x0 is None:
        return np.empty(0, dtype=np.int64)
    basis = m.nullspace_basis()
    # int64 states; past 62 bits (see span_states) a pointer to a Python
    # int of the states' width each, in pymalloc's 16-byte-aligned blocks
    width = max([x0, *basis]).bit_length()
    per_state = 8 if width < 63 else 8 + (sys.getsizeof((1 << width) - 1) + 15) // 16 * 16
    require_states(len(basis), per_state << len(basis), cap, "nullity")
    states = span_states(x0, basis)
    states.sort()
    return states


def span_states(x0: int, vectors) -> np.ndarray:
    """x0 XOR the vectors[k] of every set bit k of s, for each s below
    2^len(vectors): by doubling, each next half is the states so far XOR the
    next vector.  As in encode_states, the states are int64 when they fit in
    62 bits, Python ints in an object array past."""
    width = max([x0, *vectors]).bit_length()
    states = np.full(1 << len(vectors), x0, dtype=np.int64 if width < 63 else object)
    for j, v in enumerate(vectors):
        np.bitwise_xor(states[: 1 << j], v, out=states[1 << j : 2 << j])
    return states


def span_take(src, vectors, out) -> np.ndarray:
    """out[s] = src[the XOR of vectors[i] over the set bits i of s], for
    every s below 2^len(vectors), a block of _GATHER_BLOCK states at a time:
    the span of the low vectors (span_states) XOR each span of the high
    ones, so each next block's indices are the last one's XOR the change in
    the high span.  out has src's dtype, and is returned."""
    k = min(len(vectors), _kernel._GATHER_BLOCK.bit_length() - 1)
    targets = span_states(0, vectors[:k])
    highs = [0]
    for v in vectors[k:]:
        highs += [h ^ v for h in highs]
    for start, last, high in zip(range(0, len(out), 1 << k), [0, *highs], highs):
        targets ^= last ^ high
        # mode="clip" (every index is a state) spares take a copy of `out`
        np.take(src, targets, out=out[start : start + len(targets)], mode="clip")
    return out


def _move_tables(diagram: Diagram):
    """Per-free-vertex transvection triples (a, b, c) over the free encoding.

    The move at free bit j flips bit j (b) when the parity of its free
    effective neighbors (a, row j of the fixed-labeling system) differs from
    that of its pinned ones (c, bit j of the system's right-hand side).
    """
    m, rhs = diagram.effective_system()
    f = len(m.rows)
    return list(m.rows), [1 << j for j in range(f)], [rhs >> j & 1 for j in range(f)]


def _bits(x: int):
    """The set bits of x, least first."""
    while x:
        yield (x & -x).bit_length() - 1
        x &= x - 1


def _layout(a, b, c) -> tuple[list[int], tuple[list, list, list]] | None:
    """The bit layout the kernel runs a diagram's moves (a, b, c) in, as
    (order, the tables relabeled by _relabeled), bit i of a state holding
    free bit order[i]; or None for index order.

    Index order stays when it is a connected-prefix order already, as on the
    paper's families and their reduced games: every free bit but the least
    of its component has a neighbour at a lower bit.  The least bit of a
    component never has one, so that holds exactly when the bits with no
    lower neighbour number the components, that is when no bit joins two
    components of the bits below it, which one pass over the bits decides
    before any traversal.
    Otherwise each component, in the order of its least bit, is walked from
    one end of a longest path: start, the farthest bit from the least bit
    (the least such).  The walk is a DFS from start that visits children
    lightest first, by the size of their subtree in the breadth-first tree
    hung from start, the smaller bit first among equal ones.  A forest lays
    each tree out in the reverse of that walk, the postorder that visits
    the heaviest subtree first, so start takes the tree's top bit; the
    kernel's hooks and pointer jumps then do less work than in a preorder,
    at about the same sweep count.  A graph with a cycle keeps the walk,
    which closes faster there than its reverse (see README).
    """
    f = len(a)
    near = [0] * f  # the free effective graph, both ways, as bit masks
    for j, am in enumerate(a):
        am &= ~(1 << j)
        near[j] |= am
        for k in _bits(am):
            near[k] |= 1 << j
    # each bit's component among the bits below it, while no bit joins two
    comp = [0] * f
    for j in range(f):
        below = {comp[k] for k in _bits(near[j] & (1 << j) - 1)}
        if len(below) > 1:
            break
        comp[j] = below.pop() if below else j
    else:
        return None
    starts, seen = [], [False] * f
    for least in range(f):
        if seen[least]:
            continue
        # the farthest bit from the component's least bit, by breadth first
        dist = {least: 0}
        queue = [least]
        for j in queue:
            seen[j] = True
            for k in _bits(near[j]):
                if k not in dist:
                    dist[k] = dist[j] + 1
                    queue.append(k)
        starts.append(min(dist, key=lambda k: (-dist[k], k)))
    forest = sum(m.bit_count() for m in near) == 2 * (f - len(starts))
    order, seen = [], [False] * f
    for start in starts:
        # subtree sizes in the breadth-first tree hung from start
        above = {start: start}
        queue = [start]
        for j in queue:
            for k in _bits(near[j]):
                if k not in above:
                    above[k] = j
                    queue.append(k)
        size = dict.fromkeys(queue, 1)
        for j in reversed(queue[1:]):
            size[above[j]] += size[j]
        walk, stack = [], [start]
        while stack:
            j = stack.pop()
            if seen[j]:
                continue
            seen[j] = True
            walk.append(j)
            # pushed so that the lightest child pops first
            stack += sorted((k for k in _bits(near[j]) if not seen[k]),
                            key=lambda k: (size[k], k), reverse=True)
        order += walk[::-1] if forest else walk
    return order, _relabeled(order, a, b, c)


def _bit_map(order, f: int):
    """The map of f-bit masks that takes bit order[i] to bit i and drops the
    bits that order lacks."""
    at = [0] * f
    for i, v in enumerate(order):
        at[v] = 1 << i
    return lambda x: sum(at[k] for k in _bits(x))


def _relabeled(order, a, b, c):
    """The move tables (a, b, c) in layout order: move i and bit i are those
    of free bit order[i].  An order that lacks some bits keeps only their
    moves, and drops their bits from every mask."""
    relabel = _bit_map(order, len(a))
    return [relabel(a[v]) for v in order], [relabel(b[v]) for v in order], [c[v] for v in order]


# the buffers of one block of states take at most this many bytes (in the
# propagation, the labels and the floors take this many each)
_COMPONENT_BLOCK_BYTES = 1 << 20
# component_counts counts the cycle-space elements of graphs with at most this
# many independent cycles and propagates labels past it.  The uint8 tally sets
# it: the 2^8 - 1 nonzero elements at 8 still fit.  On 18-vertex random graphs
# with 8 cycles propagation takes about 7 times as long (see CHANGES.md)
_CYCLE_RANK_BOUND = 8


def component_counts(diagram: Diagram) -> np.ndarray:
    """Lit-component count of every free-encoded state 0..2^f-1, as int8
    below 128 vertices and a wider int past.

    With S the lit set of a state (pinned vertices lit) and beta1(S) the
    number of independent cycles of the subgraph induced on S,

        components(S) = |S| - |E(S)| + beta1(S).

    |S| - |E(S)| is a constant for the pinned vertices and the edges among
    them, plus 1 - p for each lit free bit with p pinned neighbours, minus
    the free-free edges with both ends lit.  It doubles one free bit j at a
    time, from counts[0] = the constant: for every state s < 2^j,
    counts[s + 2^j] = counts[s] + w_j - popcount(s & L_j), with w_j = 1 - p
    for bit j and L_j the mask of its free neighbours below j.
    2^beta1(S) is the number of cycle-space elements whose free support lies
    inside s, the cycle space being the GF(2) nullspace of the vertex-edge
    incidence matrix (_cycle_supports), so the nonzero ones inside s, which
    are tallied on strided views, number 2^beta1(S) - 1: popcount beta1(S).

    Past _CYCLE_RANK_BOUND independent cycles the 2^k - 1 nonzero elements
    no longer fit the uint8 tally, and the counts come from
    _propagated_counts.  Either way the states are worked in blocks of at
    most _COMPONENT_BLOCK_BYTES.
    """
    n = diagram.n_vertices
    dtype = next(t for t in (np.int8, np.int16, np.int32) if n <= np.iinfo(t).max)
    counts = np.empty(1 << len(diagram.free_vertices), dtype=dtype)
    supports = _cycle_supports(diagram)
    if supports is None:
        _propagated_counts(diagram, counts)
    else:
        _euler_counts(diagram, supports, counts)
    return counts


def _cycle_supports(diagram: Diagram) -> dict[int, int] | None:
    """The free supports of the nonzero cycle-space elements, each with the
    number of elements that have it, or None past _CYCLE_RANK_BOUND
    independent cycles.

    The cycle space is the GF(2) nullspace of the vertex-edge incidence
    matrix (bit i of row v set when edge i touches v), its elements the sums
    of a nullspace basis (span_states), taken as edge sets; an element's
    free support is the free bits of its edges' ends.
    """
    if diagram.n_independent_cycles > _CYCLE_RANK_BOUND:
        return None
    rows = [0] * diagram.n_vertices
    for i, e in enumerate(diagram.edges):
        rows[e.u] |= 1 << i
        rows[e.v] |= 1 << i
    basis = F2Matrix(len(rows), len(diagram.edges), tuple(rows)).nullspace_basis()
    bit = {v: 1 << j for j, v in enumerate(diagram.free_vertices)}
    ends = [bit.get(e.u, 0) | bit.get(e.v, 0) for e in diagram.edges]
    supports: dict[int, int] = {}
    for x in span_states(0, basis).tolist()[1:]:  # as masks of edge indices
        support = 0
        while x:
            support |= ends[(x & -x).bit_length() - 1]
            x &= x - 1
        supports[support] = supports.get(support, 0) + 1
    return supports


def _euler_counts(diagram: Diagram, supports: dict[int, int], counts: np.ndarray) -> None:
    """component_counts from the identity into counts, given the cycle
    supports of _cycle_supports, a block of 2^k states at a time.  A block
    holds a support's elements when its start holds the support's bits at or
    above k, on the view of a (2,)*k uint8 tally that fixes the axes of the
    low bits to 1 (axis x for bit k - 1 - x, as in the kernel's view); beta1
    is the popcount of the tally.  The sums wrap in the unsigned int of the
    counts' width, and only the final counts need to fit."""
    bit = {v: j for j, v in enumerate(diagram.free_vertices)}
    f = len(bit)
    const = len(diagram.pinned)
    weight, below = [1] * f, [0] * f
    for e in diagram.edges:
        ends = sorted(bit[x] for x in (e.u, e.v) if x in bit)
        if len(ends) == 2:
            below[ends[1]] |= 1 << ends[0]
        elif ends:
            weight[ends[0]] -= 1
        else:
            const -= 1

    uint = np.dtype(f"u{counts.itemsize}")
    wrap = 1 << 8 * uint.itemsize
    # the states' low bits and a scratch word, a popcount, and the cycle tally
    fit = _COMPONENT_BLOCK_BYTES // (2 * 4 + uint.itemsize + 1)
    k = min(f, max(fit.bit_length() - 1, 0))
    block = 1 << k
    s, t = np.arange(block, dtype=np.uint32), np.empty(block, np.uint32)
    pc = np.empty(block, uint)
    tally = np.empty(block, np.uint8)
    out = counts.view(uint)
    # the recurrence of component_counts, a block at a time: of bit j's edges
    # to lit lower bits, those to the block's high bits are one count per
    # block, and those to its low bits the same popcounts in every block
    out[0] = const % wrap
    for j in range(f):
        n = min(block, 1 << j)
        near = below[j] & block - 1
        if near:
            np.bitwise_and(s[:n], near, out=t[:n])
            np.bitwise_count(t[:n], out=pc[:n])
        for low in range(0, 1 << j, n):
            acc = out[(1 << j) + low :][:n]
            np.add(out[low : low + n], (weight[j] - (low & below[j]).bit_count()) % wrap, out=acc)
            if near:
                acc -= pc[:n]
    # the trailing Ellipsis keeps a 0-d view, not a scalar, when every axis is fixed
    cube = tally.reshape((2,) * k)
    views = []
    for support, m in supports.items():
        fixed = (1 if support >> k - 1 - x & 1 else slice(None) for x in range(k))
        views.append((support >> k, cube[(*fixed, ...)], m))
    for start in range(0, 1 << f, block):
        here = [(view, m) for high, view, m in views if high & ~(start >> k) == 0]
        if not here:
            continue
        tally.fill(0)
        for view, m in here:
            view += m
        np.bitwise_count(tally, out=tally)
        out[start : start + block] += tally


def _propagated_counts(diagram: Diagram, counts: np.ndarray) -> None:
    """component_counts by label propagation into counts.

    Minimum labels propagate over the edges for a block of states at once,
    row v holding vertex v's label.  A lit vertex starts at its own index,
    an unlit one at n; its floor is 0 if lit, n if not, so an edge update
    max(min(ends), floor) never lights it.  Gauss-Seidel sweeps, in
    alternating edge order, stop at the first that changes nothing; then
    only the least vertex of each component holds its own index.
    """
    n = diagram.n_vertices
    free = diagram.free_vertices
    f = len(free)
    dtype = np.int8 if n < np.iinfo(np.int8).max else np.int32
    fit = _COMPONENT_BLOCK_BYTES // (max(n, 1) * np.dtype(dtype).itemsize)
    k = min(f, max(fit.bit_length() - 1, 0))
    block = 1 << k
    floor = np.zeros((n, block), dtype=dtype)
    for j, v in enumerate(free[:k]):
        # bit j of the states in a block repeats in runs of 2^j
        floor[v].reshape(-1, 2, 1 << j)[:, 0] = n
    own = np.arange(n, dtype=dtype)[:, None]
    low = np.empty(block, dtype=dtype)
    for start in range(0, 1 << f, block):
        for j, v in enumerate(free[k:], start=k):
            floor[v] = 0 if start >> j & 1 else n
        label = np.maximum(floor, own)
        order = diagram.edges
        while True:
            before = label.copy()
            for e in order:
                np.minimum(label[e.u], label[e.v], out=low)
                np.maximum(low, floor[e.u], out=label[e.u])
                np.maximum(low, floor[e.v], out=label[e.v])
            if np.array_equal(label, before):
                break
            order = order[::-1]
        counts[start : start + block] = np.count_nonzero(label == own, axis=0)


# -- class partition ------------------------------------------------------


# Rendered output is built a block at a time as a uint8 matrix.  Each row is a
# piece of output (a line, or a part of one), each field fills its own columns,
# and byte 0 pads a field to the width of its columns; one boolean compress
# per block drops the pads.  A group's constant text is broadcast from a
# template row, and then only its digits, labels and conditional text written.


def _digits(values) -> np.ndarray:
    """Non-negative ints as right-aligned decimal digit rows, padded on the
    left: one floor division by the scalar 10 per column, right to left."""
    rest = np.asarray(values, dtype=np.int64)
    width = len(str(int(rest.max(initial=0))))
    columns = np.empty((width, len(rest)), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        quotient = rest // 10
        digit = columns[col]
        np.subtract(rest, quotient * 10, out=digit, casting="unsafe")
        digit |= ord("0")
        if col < width - 1:
            digit *= rest != 0  # leading zeros; 0 keeps its digit
        rest = quotient
    return columns.T


def _compose(n_rows: int, groups) -> str:
    """n_rows rows of fields with the pad bytes dropped, as one string.  Each
    group (rows, fields) fills the next columns of the rows it names, a slice
    written in place or an index array in one row-indexed write, with its
    fields side by side: bytes on every named row, uint8 matrices with a row
    per named row, or (mask, bytes) pairs, the bytes on the named rows where
    mask holds.  Rows a group does not name are padded in its columns."""
    # columns c to c + w of a uint8 matrix, one item per row
    cells = lambda m, c, w: m[:, c : c + w].view(np.dtype((np.void, w)))[:, 0]
    groups = [(rows, fields, [len(f) if isinstance(f, bytes) else f.shape[1]
                              if isinstance(f, np.ndarray) else len(f[1]) for f in fields])
              for rows, fields in groups]
    out = np.zeros((n_rows, sum(sum(widths) for _, _, widths in groups)), dtype=np.uint8)
    col = 0
    for rows, fields, widths in groups:
        width = sum(widths)
        sliced = isinstance(rows, slice)
        block = out[rows, col : col + width] if sliced else np.empty((len(rows), width), np.uint8)
        cells(block, 0, width)[:] = b"".join(f if isinstance(f, bytes) else bytes(w)
                                             for f, w in zip(fields, widths))
        for f, c, w in zip(fields, np.cumsum(widths) - widths, widths):
            if isinstance(f, tuple):
                cells(block, c, w)[f[0]] = f[1]
            elif not isinstance(f, bytes):
                block[:, c : c + w] = f
        if not sliced:
            cells(out, col, width)[rows] = cells(block, 0, width)
        col += width
    return out[out != 0].tobytes().decode("ascii")


# Per format, the fields of a class's head (on the row of its first histogram
# pair), of every (k, count) pair, and of its tail (on the row of its last
# pair), from the block's class ids, sizes, representative labels, pairs, and
# which pairs follow another of their class.


def _text_fields(cls, sizes, reps, k, count, later):
    head = [_digits(cls), b" ", _digits(sizes), b" ", reps, b" "]
    pair = [(later, b";"), _digits(k), b":", _digits(count)]
    return head, pair, [(sizes == 1, b" fixed"), b"\n"]


def _csv_fields(cls, sizes, reps, k, count, later):
    head = [_digits(cls), b",", _digits(sizes), b",", reps, b","]
    pair = [(later, b";"), _digits(k), b":", _digits(count)]
    return head, pair, [(sizes == 1, b",1"), (sizes != 1, b",0"), b"\n"]


# the layout of json.dumps(..., indent=2)
_JSON_HEAD = ('{{\n  "n_vertices": {},\n  "free_vertices": {},\n'
              '  "class_count": {},\n  "classes": [\n')


def _json_fields(cls, sizes, reps, k, count, later):
    head = [(cls > 0, b",\n"), b'    {\n      "size": ', _digits(sizes),
            b',\n      "min_representative": "', reps, b'",\n      "components": {\n']
    pair = [(later, b",\n"), b'        "', _digits(k), b'": ', _digits(count)]
    tail = [b'\n      },\n      "is_singleton_fixed": ', (sizes == 1, b"true"),
            (sizes != 1, b"false"), b"\n    }"]
    return head, pair, tail


# the lift works on blocks of this many positions of a row of the 2^k reduced
# states, or of rows of them tiled to this width when the game is smaller, and
# ranking on blocks of this many states
_LIFT_BLOCK = 1 << 14


class _Lift(NamedTuple):
    """How a partition's roots, closed on the reduced game of
    enumerate_classes, lift to all 2^f states.

    A position is a state written in the bits of the lift: bit i of a
    position stands for the free-encoded state basis[i], the first k bits
    for the kept bits in the kernel's layout and bit k + j for the
    translation of the j-th deleted bit.  index[v], the inverse, is the
    position of free bit v, or index is None when that is bit v itself.
    fired holds, at each reduced root, bit i set when the i-th condition
    fires at some state of its class, and conditions[j] is the condition of
    the j-th deleted bit.
    """

    class_count: int
    basis: tuple[int, ...]
    index: tuple[int, ...] | None
    fired: np.ndarray | None
    conditions: tuple[int, ...]


class ClassPartition:
    """Partition of all 2^f states into equivalence classes.

    Classes are indexed by increasing integer value of their minimal
    representative (least 1-count, ties by least integer, vertex 0 = LSB);
    enumerate_classes builds it from the kernel's orbit roots.  The class table
    is kept as arrays indexed by class: ``sizes``, ``rep_states`` (read-only)
    and ``component_histograms``; ``member_states`` lists every state grouped
    by class.

    ``class_count`` is known when the partition is built.  Ranking, which
    gives the class ids and the minimal representatives, runs once, on the
    first read of either (``rep_states``, ``sizes``, ``class_id_array()``,
    ``class_of``, the table and the exports), and then releases the roots; a
    caller that reads only the count never ranks.  Before it allocates,
    ranking is gated through require_states, with the cap the partition was
    built under and the class count known.

    The roots are the kernel's over all 2^f states in index order, or, with
    a lift, over the reduced game of enumerate_classes in its layout:
    ranking then lifts them to every position first (see _Lift).  It ranks
    the root positions in _key_type's dtype (see _ranked).
    """

    def __init__(self, diagram: Diagram, roots: np.ndarray, cap: int | None = None,
                 lift: _Lift | None = None):
        self.diagram = diagram
        self._roots = roots
        self._cap = cap  # the free-vertex cap that ranking is gated by
        self._lift = lift
        self.class_count = _kernel.orbit_count(roots) if lift is None else lift.class_count

    def _lifted(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """(members, basis): for every position (see _Lift), as int32, the
        position of a member of its class that depends only on the class, and
        the free-encoded state of each bit of a position.  It releases the
        roots, so it runs once.

        Position (v, x), for v the high bits and x the low k, is the state
        E(x) + T(v): the kept bits x, with the deleted bits at 0, translated
        by the deleted bits' translations that v selects.  Its class is that
        of (root(x), v & ~F), F being the deleted bits whose move fires in
        x's class (see enumerate_classes).  The members double one deleted
        bit j at a time: the half with bit k + j set is the half below it,
        with that bit set where the bit's move fires nowhere in the class of
        x, a term over the reduced states broadcast along the rows of 2^k.
        Beside the int32 members it holds blocks of _LIFT_BLOCK entries."""
        roots = self._roots
        del self._roots
        lift = self._lift
        if lift is None:
            return roots, tuple(1 << v for v in range(len(self.diagram.free_vertices)))
        if not lift.conditions:
            return roots, lift.basis
        k = len(roots).bit_length() - 1
        members = np.empty(1 << len(lift.basis), dtype=np.int32)
        members[: 1 << k] = roots
        del roots
        roots = members[: 1 << k]  # which the doubling never writes
        for j, i in enumerate(lift.conditions):
            n = 1 << k + j
            # rows of the 2^k reduced states, tiled up to a block when the
            # reduced game is smaller, and worked a block of columns at a time
            width = max(1 << k, min(n, _LIFT_BLOCK))
            lo, hi = (members[x : x + n].reshape(-1, width) for x in (0, n))
            for x in range(0, width, _LIFT_BLOCK):
                cols = slice(x, x + _LIFT_BLOCK)
                term = np.where(lift.fired[roots[cols]] & 1 << i, np.int32(0), np.int32(n))
                np.bitwise_or(lo[:, cols], np.tile(term, width >> k), out=hi[:, cols])
        return members, lift.basis

    @cached_property
    def _ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """(class id of every state, minimal representative state of every
        class), with the classes reindexed by minimal representative."""
        f = len(self.diagram.free_vertices)
        n_states = 1 << f
        need = _RANK_BYTES_PER_STATE * n_states + _RANK_BYTES_PER_CLASS * self.class_count
        require_states(f, need, self._cap)
        ids, _ = self._lifted()
        if self._lift is not None and self._lift.index is not None:
            ids = span_take(ids, self._lift.index, np.empty_like(ids))  # to index order
        # ids[s] is the position of the root of s's class, where the least key
        # of the class goes, in the front of the buffer the ids are widened
        # into last; a block's keys are the first block's plus its start's
        dtype, block = _key_type(f), min(n_states, _LIFT_BLOCK)
        class_id = np.empty(n_states, dtype=np.int64)
        least = class_id.view(dtype)[:n_states]
        least.fill(np.iinfo(dtype).max)
        low = np.zeros(block, dtype=dtype)
        for j in range(block.bit_length() - 1):
            np.add(low[: 1 << j], (1 << f) + (1 << j), out=low[1 << j : 2 << j])
        for start in range(0, n_states, block):
            key = low + ((start.bit_count() << f) + start)
            np.minimum.at(least, ids[start : start + block], key)
        del low, key
        # each root under its class's minimal representative, for one sort
        roots = np.flatnonzero(least != np.iinfo(dtype).max)
        reps = least[roots].astype(np.int64)
        reps &= n_states - 1
        reps <<= f
        reps |= roots
        del roots
        reps.sort()
        roots = reps & n_states - 1
        reps >>= f
        reps.flags.writeable = False
        # the rank map, each root's class id at its position, gathered into the
        # ids: take converts a block's int32 indices before it writes them
        least[roots] = np.arange(len(roots), dtype=dtype)
        del roots
        for start in range(0, n_states, block):
            chunk = ids[start : start + block]
            np.take(least, chunk, out=chunk, mode="clip")  # clip: no copy of out
        np.copyto(class_id, ids)
        return class_id, reps

    @property
    def _class_id(self) -> np.ndarray:
        return self._ranked[0]

    @property
    def rep_states(self) -> np.ndarray:
        """Minimal representative state of every class (read-only int64)."""
        return self._ranked[1]

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self._class_id, minlength=self.class_count)

    @cached_property
    def component_histograms(self) -> np.ndarray:
        """Read-only class x component-count matrix: entry [c, k] counts the
        members of class c whose lit vertices form k components."""
        class_id = self._class_id  # ranks, if need be, before the counts are held
        counts = component_counts(self.diagram)
        width = int(counts.max(initial=0)) + 1
        key = class_id * width
        key += counts
        del counts
        hist = np.bincount(key, minlength=self.class_count * width)
        hist = hist.reshape(self.class_count, width)
        hist.flags.writeable = False
        return hist

    def class_of(self, a: Labeling) -> int:
        a = self.diagram.labeling(a)
        return int(self._class_id[encode_states(self.diagram, [a.bits])[0]])

    def minimal_representative(self, class_index: int) -> Labeling:
        if not 0 <= class_index < self.class_count:
            raise IndexError(f"unknown class index {class_index}")
        return decode_state(self.diagram, int(self.rep_states[class_index]))

    @cached_property
    def member_states(self) -> np.ndarray:
        """Every state, grouped by class in class order and increasing within
        a class: the stable argsort of the class ids (read-only)."""
        order = np.argsort(self._class_id, kind="stable")
        order.flags.writeable = False
        return order

    @cached_property
    def _member_ends(self) -> np.ndarray:
        return np.cumsum(self.sizes)

    def members(self, class_index: int) -> np.ndarray:
        """The states of one class, increasing: a slice of member_states."""
        if not 0 <= class_index < self.class_count:
            raise IndexError(f"unknown class index {class_index}")
        stop = int(self._member_ends[class_index])
        return self.member_states[stop - int(self.sizes[class_index]) : stop]

    def class_id_array(self) -> np.ndarray:
        """Class index of every free-encoded state (read-only view)."""
        view = self._class_id.view()
        view.flags.writeable = False
        return view

    # -- rendering ----------------------------------------------------------

    def _table_blocks(self, fields, order=None, leads=False, full=False):
        """The class table, a block of _RENDER_BLOCK lines at a time: each
        class is one line, laid out by fields (see _text_fields), and with full
        each of its members is one line after it, so a block may end mid-class.
        order and leads lay out the labels, as in _label_chars."""
        sizes, hist = self.sizes, self.component_histograms
        width = hist.shape[1]
        # the flat indices of the histograms' nonzero (k, count) pairs, found
        # once for the table: class c's pairs are those in [c, c + 1) * width
        flat = np.flatnonzero(hist != 0)  # faster than over the int64 counts
        lines = sizes + 1 if full else np.ones_like(sizes)
        head_line = np.cumsum(lines) - lines  # the line of each class
        total = int(head_line[-1] + lines[-1])
        for a in range(0, total, _RENDER_BLOCK):
            b = min(a + _RENDER_BLOCK, total)
            c0, c1 = np.searchsorted(head_line, [a, b]).tolist()
            i0, i1 = np.searchsorted(flat, [c0 * width, c1 * width]).tolist()
            pc, k = np.divmod(flat[i0:i1], width)
            pc -= c0
            # each (k, count) pair of a class takes a row, the first also
            # holding the class's head and the last its tail; without members
            # the pairs fill every row, in order
            bounds = np.searchsorted(pc, np.arange(c1 - c0 + 1))
            starts, ends = bounds[:-1], bounds[1:]
            pairs = np.arange(i1 - i0)
            row = head_line[c0 + pc] - a - pc + pairs
            reps = _label_chars(self.diagram, self.rep_states[c0:c1], order, leads)
            head, pair, tail = fields(np.arange(c0, c1), sizes[c0:c1], reps,
                                      k, hist.reshape(-1)[flat[i0:i1]], pairs != starts[pc])
            groups = [(row[starts], head), (row if full else slice(None), pair), (row[ends - 1], tail)]
            if full:
                # a member's row is its line past the extra pair rows of its
                # class and the block's classes before it: [0] for a class
                # begun in an earlier block
                extra = np.concatenate(([0], ends - np.arange(1, c1 - c0 + 1)))
                members = np.arange(a - c0, b - c1)
                mc = np.searchsorted(self._member_ends, members, side="right")
                labels = _label_chars(self.diagram, self.member_states[a - c0 : b - c1], order, leads)
                groups.append((members + mc + 1 - a + extra[mc - c0 + 1], [b"  ", labels, b"\n"]))
            yield _compose(b - a + len(pc) - (c1 - c0), groups)  # lines + extra pair rows

    def text_blocks(self, order=None, leads=False, full=False):
        """The text class table, _RENDER_BLOCK lines a block, each line ending
        in a newline: ``class size labels k:count;... [fixed]`` per class and,
        with full, ``  labels`` per member after it; labels are laid out as
        in labeling_strings, with leads a ``;`` after the first."""
        return self._table_blocks(_text_fields, order, leads, full)

    def rep_blocks(self, tags, states, order=None, leads=False):
        """``rep tag labels -> class c`` for each free-encoded state and its
        tag (ASCII text), _RENDER_BLOCK lines a block, laid out as text_blocks."""
        ids = self._class_id[states]
        for a in range(0, len(states), _RENDER_BLOCK):
            block = slice(a, a + _RENDER_BLOCK)
            names = np.array(tags[block], dtype=bytes)
            yield _compose(len(names), [(slice(None), [
                b"rep ", names.view(np.uint8).reshape(len(names), -1), b" ",
                _label_chars(self.diagram, states[block], order, leads),
                b" -> class ", _digits(ids[block]), b"\n",
            ])])

    def json_blocks(self):
        """The class table as json.dumps(..., indent=2) writes it, with no
        final newline: a head, _table_blocks' blocks and a tail.  Nothing
        needs escaping, as representatives are 0/1 strings, the rest ints
        and flags."""
        d = self.diagram
        free = ",".join(f"\n    {v}" for v in d.free_vertices)
        yield _JSON_HEAD.format(d.n_vertices, f"[{free}\n  ]" if free else "[]", self.class_count)
        yield from self._table_blocks(_json_fields)
        yield "\n  ]\n}"

    def csv_blocks(self):
        """The class table as CSV, a header line and then _table_blocks'
        blocks; no field holds a comma, a quote or a newline."""
        yield "class,size,min_representative,components,is_singleton_fixed\n"
        yield from self._table_blocks(_csv_fields)

    def to_json(self) -> str:
        """json_blocks joined."""
        return "".join(self.json_blocks())

    def to_csv(self) -> str:
        """csv_blocks joined."""
        return "".join(self.csv_blocks())


def _twins(a, c) -> list[int | None]:
    """Of each free bit of moves (a, ., c): None when it is unread, that is
    when no move's a holds it, else the least bit of its group of clones, a
    clone of bit q being a bit with q's a and c that the same moves read."""
    readers = [0] * len(a)
    for j, am in enumerate(a):
        for k in _bits(am):
            readers[k] |= 1 << j
    least: dict[tuple[int, int, int], int] = {}
    return [least.setdefault((a[r], c[r], readers[r]), r) if readers[r] else None
            for r in range(len(a))]


def _deletable(a, c) -> list[int]:
    """The free bits that enumerate_classes deletes from moves (a, ., c),
    least first: every unread bit, and every clone but the least of its
    group (see _twins)."""
    return [r for r, q in enumerate(_twins(a, c)) if q != r]


class _Game(NamedTuple):
    """The game that enumerate_classes closes for a diagram: its move
    tables, the free bits it deletes and those it keeps, the kept bits'
    tables, and the bytes that the closure and its firing pass hold."""

    tables: tuple[list, list, list]
    deleted: list[int]
    kept: list[int]
    reduced: tuple[list, list, list]
    need: int


def _reduced_game(diagram: Diagram) -> _Game:
    """The diagram's game with the bits of _deletable deleted.  The memory
    charge is the kernel's over the reduced states, plus, once a bit is
    deleted, 2 bytes per reduced state for the firing pass: its word per
    state of where each condition fires (uint8 up to 8 conditions, uint16
    up to 16, and uint32 only where 17 or more deleted bits leave at most
    2^(f - 17) states, which the kernel's hook blocks outweigh); its blocks
    take less than the hooks, which are freed by then."""
    a, b, c = tables = _move_tables(diagram)
    deleted = _deletable(a, c)
    kept = sorted(set(range(len(a))).difference(deleted))
    reduced = _relabeled(kept, a, b, c)
    n_states = 1 << len(kept)
    need = _kernel.kernel_bytes(n_states, *reduced[:2]) + (2 * n_states if deleted else 0)
    return _Game(tables, deleted, kept, reduced, need)


def enumerate_classes(diagram: Diagram, cap: int | None = None) -> ClassPartition:
    """Partition of the full state space into classes under all moves.

    Translating a state by e_r, for r unread, or by e_r + e_q, for r a clone
    of q (see _twins), commutes with every move.  So the kernel closes only
    the states with every deleted bit (_deletable) at 0, where the kept
    moves drop the deleted bits from their conditions, an unread r's move is
    a self-loop and a clone's move a copy of its twin's, each carrying the
    voltage of its translation, and no other move carries one.  The cycle
    voltages of a class C of that reduced game then span the translations
    of the deleted bits whose move fires at some state of C, m(C) of them
    and independent, and C lifts to 2^(|R| - m(C)) classes of the full
    game, R being the deleted bits: the components of a derived graph (Gross
    and Tucker, Topological Graph Theory, 1987, ch. 2).  A clone fires
    wherever its kept twin does, and the condition of every deleted bit
    reads only kept bits.  One firing pass over the reduced roots counts
    the classes and keeps, at each root, which conditions fire in its
    class; ranking lifts the roots to all 2^f states from that (see
    ClassPartition._lifted).

    The kernel runs in the bit layout that _layout picks from the reduced
    tables, and on the tables _layout relabeled for it: index order on the
    paper's families, a traversal order of the diagram on a graph numbered
    in no such order, such as a Pruefer tree, which takes the postorder from
    its far end.  With no bit deleted this is the closure of all 2^f states.
    The cap reads f, and the memory gate charges the reduced closure and the
    firing pass; a caller that ranks gates that first (require_ranking).
    """
    f = diagram.n_vertices - len(diagram.pinned)
    require_cap(f, cap)  # before the tables, which grow as f^2
    game = _reduced_game(diagram)
    require_states(f, game.need, cap)
    return _closed(diagram, game, cap)


def _closed(diagram: Diagram, game: _Game, cap: int | None) -> ClassPartition:
    """enumerate_classes' partition of a game that has passed its gate."""
    a, b, c = game.tables
    kept, tables = game.kept, game.reduced
    layout = _layout(*tables)
    if layout is not None:
        order, tables = layout
        kept = [kept[i] for i in order]
    roots = _kernel.orbit_roots(1 << len(kept), *tables)
    if layout is None and not game.deleted:
        return ClassPartition(diagram, roots, cap)
    # the positions of _Lift: the kept bits in layout order, then the
    # deleted bits' translations
    twins = _twins(a, c)
    basis, index = [1 << v for v in kept], [0] * len(a)
    for i, v in enumerate(kept):
        index[v] = 1 << i
    for i, r in enumerate(game.deleted, start=len(kept)):
        q = twins[r]
        if q is None or q == r:
            basis.append(1 << r)
            index[r] = 1 << i
        else:  # e_r is the translation XOR e_q
            basis.append(1 << r | 1 << q)
            index[r] = 1 << i | index[q]
    index = None if all(x == 1 << v for v, x in enumerate(index)) else tuple(index)
    if not game.deleted:
        return ClassPartition(diagram, roots, cap,
                              _Lift(_kernel.orbit_count(roots), tuple(basis), index, None, ()))
    relabel = _bit_map(kept, len(a))
    conditions: dict[tuple[int, int], int] = {}  # numbered as first met
    of = tuple(conditions.setdefault((relabel(a[r]), c[r]), len(conditions)) for r in game.deleted)
    fired = _fired(roots, list(conditions))
    count = _lifted_count(roots, fired, [of.count(i) for i in range(len(conditions))])
    return ClassPartition(diagram, roots, cap, _Lift(count, tuple(basis), index, fired, of))


def closure_bytes(diagram: Diagram) -> int:
    """kernel_bytes over all 2^f states of the diagram's moves.  It bounds
    what enumerate_classes holds while it closes the diagram's reduced game,
    which has half the states or fewer once a bit is deleted, with its
    firing pass, and so for any diagram with no more free vertices and
    masked moves.  Ranking, which lifts the roots to all 2^f states, is
    gated on its own (require_ranking)."""
    a, b, _ = _move_tables(diagram)
    return _kernel.kernel_bytes(1 << len(a), a, b)


def _fired(roots: np.ndarray, conditions: list[tuple[int, int]]) -> np.ndarray:
    """At each root of roots, bit i set when the i-th condition (am, cm)
    fires at some state of the root's class, that is where parity(s & am)
    != cm.  It is one pass over the roots per condition, a block of states
    at a time: the parities of the block's low bits are found once, and the
    start of the block decides whether those that are odd fire or those
    that are even."""
    n = len(roots)
    fired = np.zeros(n, dtype=np.min_scalar_type((1 << len(conditions)) - 1))
    block = min(n, _kernel._GATHER_BLOCK)
    low = np.arange(block, dtype=np.int64)
    for i, (am, cm) in enumerate(conditions):
        if not am:  # fires everywhere or nowhere
            if cm:
                fired |= 1 << i
            continue
        odd = (np.bitwise_count(low & am) & 1).view(bool)
        fires = odd, ~odd
        for start in range(0, n, block):
            fired[roots[start : start + block][fires[cm ^ (start & am).bit_count() & 1]]] |= 1 << i
    return fired


def _lifted_count(roots: np.ndarray, fired: np.ndarray, counts: list[int]) -> int:
    """The sum over the classes C that roots closes of 2^(|R| - m(C)), m(C)
    being the deleted bits whose condition fires in C: counts[i] of them
    have the i-th condition, whose bit fired holds at C's root."""
    n = len(roots)
    total = sum(counts)
    by_m = np.zeros(total + 1, dtype=np.int64)
    block = min(n, _kernel._GATHER_BLOCK)
    ids = np.arange(block, dtype=roots.dtype)
    for start in range(0, n, block):
        if start:
            ids += block
        words = fired[start : start + block][roots[start : start + block] == ids]
        m = np.zeros(len(words), dtype=np.int64)
        for i, count in enumerate(counts):
            m += (words >> i & 1) * count
        by_m += np.bincount(m, minlength=total + 1)
    return sum(int(k) << total - i for i, k in enumerate(by_m.tolist()))


def shortest_moves(diagram: Diagram, a: Labeling, b: Labeling) -> list[int] | None:
    """A shortest move sequence taking a to b, or None when b is unreachable.

    Breadth-first, trying the free vertices in increasing order, so the
    sequence found is always the same one.
    """
    ends = [diagram.labeling(x).bits for x in (a, b)]
    start, goal = encode_states(diagram, ends).tolist()
    tables = list(zip(diagram.free_vertices, *_move_tables(diagram)))
    prev = {start: None}
    frontier = [start]
    while frontier and goal not in prev:
        nxt = []
        for s in frontier:
            for i, am, bm, cm in tables:
                t = s ^ (parity(s & am) ^ cm) * bm
                if t not in prev:
                    prev[t] = (s, i)
                    nxt.append(t)
        frontier = nxt
    if goal not in prev:
        return None
    path = []
    while goal != start:
        goal, i = prev[goal]
        path.append(i)
    return path[::-1]


def are_equivalent(
    diagram: Diagram,
    a: Labeling,
    b: Labeling,
    partition: ClassPartition | None = None,
) -> bool:
    """Reachability of b from a; BFS when no partition is supplied."""
    if partition is not None:
        return partition.class_of(a) == partition.class_of(b)
    return shortest_moves(diagram, a, b) is not None
