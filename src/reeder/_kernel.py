"""Orbit closure over bit-packed state spaces under GF(2) transvections.

States are the integers 0..2^f-1.  Every move is given by a triple (a, b, c)
and sends state s to

    t = s ^ ((parity(s & a) ^ c) * b)

A Reeder move at free bit j has a = the mask of its free effective neighbors,
b = 1 << j and c = the parity of its pinned effective neighbors; a sigma move
at vertex i has a = 1 << i, b = the mask of its neighbors and c = 0.  The
kernel requires parity(a & b) = 0.  Then the condition reads the same at s
and at t, so every move is an involution pairing s with t = s ^ b wherever
the condition holds.

The class root of each state is its minimum member.  Minimum labels
propagate in place over an int32 label array viewed as shape (2,)*f: with j
the lowest bit of b, the bit-j-clear slice holds one end of every pair and
the bit-j-set slice, flipped along the other bits of b, holds the partner
end.  A move with a & b = 0 whose condition reads fewer than _MASK_BITS bits
fixes the axes of a's bits to each pattern that fires it, so its pairs are
exactly those sub-views and it sweeps them unmasked.  Only a wide or
overlapping move (a high-degree vertex, an even overlap of a and b) sweeps
its whole slice and copies back through a bool edge mask.  The first sweep
runs the moves from the top state bit down and takes the minimum of both
ends, writing it back at once (Gauss-Seidel).  Every later sweep is a hook
round (Shiloach and Vishkin, J. Algorithms 3, 1982), in move order and its
reverse by turns; the order changes only the number of sweeps, never the
roots.  Each step compares its two ends (under the edge mask, if any) into a
bool view of the minimum buffer and is skipped while they agree.  For each
pair that differs it lowers label[max] to min, a scatter-min, and writes no
end: the larger root is hooked under the smaller, and the pointer jumps that
end the sweep carry the merge to every state that named it.  Writing the
minimum into both ends instead would tell only the larger end, so a minimum
that must pass many states would reach them one pair per sweep: 12 to 21
sweeps on the sigma moves of E8, odd D, affD and affA, against at most 5
with hooks.  Labels never rise, and each stays in its state's class, since a
hook joins the roots of a pair.  After a sweep in which a pair differed, one
round of pointer jumps points every label at the root of its chain, in place
and in one increasing pass over blocks of states.  Since label[s] <= s, a
label below the block names a state the pass has already resolved, so one
gather label[label] settles it; the block is gathered again only while some
label that pointed into the block still changes, at most f + 1 gathers.

The first hook sweep keeps the (lower, larger) labels of every pair it
hooks, and the kernel stops after that sweep's jump round, with no further
sweep.  The round leaves every label at its root.  The kernel gathers the
labels of both ends of each kept pair; while some kept pair's two roots
differ, a scatter-min round hooks the larger under the smaller, and then one
more round of pointer jumps runs.  This is exact.  Between two jump rounds a
hook writes only the label of a state that was a root when the sweep began,
and every label it writes is the lower end of a kept pair whose larger end
is that state.  So once the kept pairs are joined, each state shares its
root with every label it held during the sweep: a pair whose ends agreed
when compared still agrees, and a pair that differed was kept.  Kept pairs
can be apart only because a scatter-min keeps just the least label hooked
under a root, and they are few: the sigma tables of D:17 hook 57350 pairs
in that sweep, 23 of them distinct.  The pairs are kept raw, at most
_KEEP_PAIRS over all parts, and compacted to the distinct ones when they
fill.  A first hook sweep that could not keep every pair (compaction left
less than half the room free), or that wrote a pair's ends (part 1, in two
parts), falls back to the full loop: hook sweeps until the first in which
no pair differs.  It stops, since a sweep in which some pair differs lowers
a label: the pair's larger root, or its larger end where the pair takes the
minimum, unless the same sweep has lowered it already.  Either way the ends
of every pair then name one root and every root names itself, so each class
carries one label, which is its minimum member since label[s] <= s.  The
result is the int32 label array itself, so f <= 31.

In one part every diagram of the paper's families with at most 14 vertices
closes in two sweeps, on its Reeder tables and on its sigma tables, and so
do random 16-vertex E6 trees; the full loop took three on affB, affD and
flower and up to five on the sigma tables.  The totals over those Reeder
tables, 72 such trees and those sigma tables are 394, 144 and 134 sweeps in
one part (433, 218 and 237 with the full loop) and 412, 258 and 206 in two
(442, 258 and 224).

From _SPLIT_STATES states on, and when the process may run on two CPUs, the
work is cut in two parts on the top state bit (axis 0), since numpy releases
the interpreter lock inside its loops.  Part p owns the states whose top bit
is p.  A pair of views that leaves axis 0 free is cut into its two halves,
and one that fixes axis 0 goes whole to its part; each part sweeps its pairs
in Gauss-Seidel order, with no wait between them.  Only a pair that flips
the top bit (of one Reeder move, or of the sigma moves at the top vertex's
neighbors) joins both halves.  It goes whole into the joined steps, which
open every sweep while no part sweeps.  Run last in a sweep instead, they
cost most Reeder families a sweep more.  Each sweep forks and joins: part 0
sweeps in the caller while a one-thread pool sweeps part 1, and the caller
then waits for part 1's result, so the caller alone learns whether a pair of
either part, or a joined one, differed, and the parts stop together.  Then,
while no part sweeps, the caller runs the round of pointer jumps over all
the states, as one part does, and the joined steps of the next sweep.  The
gathers run through an intp block, so no intp copy of the whole label array
is made.  Hooks write labels of roots, not of the step's ends.  Labels never
exceed their states, so part 0's roots lie in its own half; the joined steps
run alone; both hook any root.  Part 1 hooks only a pair whose larger root
lies in its own half, since a root below it is part 0's, and every other
pair of its own that differs takes the minimum into both ends as the first
sweep does, which sends a first hook sweep to the full loop.  While both
parts sweep, no part then writes a label that the other reads, and the
roots, the sweeps and the jumps repeat from run to run; the sweeps may
differ from one part's, since part 1 hooks fewer pairs and the joined steps
run at other points of each sweep.
Below the threshold the caller runs the same loop alone, with no pool and
no thread.  The roots are the same either way.  Memory is about 6 bytes
per state (the label array and a half-size minimum buffer, which the jumps
gather into) plus one bool edge mask over half the states per masked move,
and 8 bytes per kept pair.
Each part's steps take its own slice of the minimum buffer, and the joined
steps, which run while the parts wait, take all of it.  A hook takes a block
of pairs at a time and selects only those that differ, through the bools of
the step's comparison, so it allocates at most a block of their ends, roots
and lower ends, and scatters only them.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .diagram import DiagramError, ResourceError

# The numpy kernel below is the only backend; perfbench/run.py records the
# backend it measured from this flag.
HAVE_NUMBA = False


# a disjoint move whose a has this many bits or more sweeps through a mask,
# not through its 2^(popcount(a) - 1) sub-views
_MASK_BITS = 7

# from this many states on, two parts split the work on the top state bit when
# the process may run on two CPUs.  Below it a sweep's fork-join and the
# interpreter lock's hand-offs cost about what the second CPU saves on a quiet
# host (20% less time at f = 18, 25% more at f = 17), and up to twice the
# one-part time when the host delays thread wake-ups
_SPLIT_STATES = 1 << 19

# the first hook sweep keeps the (lower, larger) label of at most this many of
# the pairs it hooks, over all parts, to re-check once its pointer jumps end
# (see _Kept)
_KEEP_PAIRS = 1 << 13

# indices per block of a gather.  The pointer jumps, and the hooks, take
# blocks of a sixteenth of a part's states, at least an eighth and at most
# all of this: larger blocks gather again more often, smaller ones take more
# calls
_GATHER_BLOCK = 1 << 16


def _masked(am: int, bm: int) -> bool:
    """Whether move (am, bm, .) sweeps through an edge mask, not sub-views."""
    return bm != 0 and (am & bm != 0 or am.bit_count() >= _MASK_BITS)


def kernel_bytes(n_states: int, a, b) -> int:
    """Upper bound on the array bytes orbit_roots holds at once for moves
    with masks a and b.

    One bool edge mask over half the states per masked move, plus 8 per
    state, rounded up from what the sweeps hold: the int32 label array and
    a half-size int32 minimum buffer, which the sweeps' comparisons and the
    pointer jumps' gathers share; plus 42 per entry of a block of at most
    _GATHER_BLOCK: the jumps' intp index block (8), and what both parts'
    hooks hold at once per differing pair of a block.  Part 0 and the joined
    steps hold its int32 ends, of which the lower end reuses one, and its
    root (12).  Part 1 holds those, two bools of whether it owns the root,
    and its owned roots and their lower ends (22).  Each part's hook also
    holds, during its np.minimum.at, a buffer in which numpy casts the int32
    roots to intp: 8192 of them and the iterator, 70736 bytes traced (at
    most 70 KB per part).  The first hook sweep's kept pairs take 8 per pair
    of _KEEP_PAIRS, and 9 more while one part compacts them (a bool mask and
    the distinct pairs).  The scatter-min rounds that re-check them run once
    the hooks' blocks are freed, and hold at most 64 per kept pair (copies,
    their intp casts and masks) and one cast buffer, beside the jumps'
    index block.  Building a mask holds less: an int32 state array and
    half-size temporaries, before the labels exist.  The int32 result is the
    label array.
    """
    n_masked = sum(_masked(am, bm) for am, bm in zip(a, b))
    sweeping = (8 + 12 + 22) * _GATHER_BLOCK + 2 * (70 << 10) + 9 * _KEEP_PAIRS
    settling = 8 * _GATHER_BLOCK + 64 * _KEEP_PAIRS + (70 << 10)
    return 8 * n_states + n_masked * (n_states // 2) + 8 * _KEEP_PAIRS + max(sweeping, settling)


class _Kept:
    """The number of pairs that one part's first hook sweep hooks, and their
    (lower, larger) labels, in a buffer of at most capacity pairs allocated
    at the first pair.  When it fills, it is compacted to its distinct
    pairs; when that leaves less than half of it free, or the part writes a
    pair's ends, the part keeps nothing more and whole turns False."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.pairs = None
        self.n = self.hooked = 0
        self.whole = True

    def add(self, low, top) -> None:
        self.hooked += len(low)
        i = 0
        while self.whole and i < len(low):
            if self.n == self.capacity:
                self.compact()
                continue
            if self.pairs is None:
                self.pairs = np.empty((self.capacity, 2), dtype=np.int32)
            m = min(self.capacity - self.n, len(low) - i)
            self.pairs[self.n : self.n + m, 0] = low[i : i + m]
            self.pairs[self.n : self.n + m, 1] = top[i : i + m]
            self.n += m
            i += m

    def compact(self) -> None:
        if not self.capacity:
            return self.drop()
        # each pair of int32 labels read as one int64, sorted in place: on
        # 2^12 pairs that took a tenth to a third of the time of np.unique,
        # which hashes integers in numpy 2.4
        pairs = self.pairs.view(np.int64)[:, 0]
        pairs.sort()
        distinct = np.empty(len(pairs), dtype=bool)
        distinct[0] = True
        np.not_equal(pairs[1:], pairs[:-1], out=distinct[1:])
        n = int(np.count_nonzero(distinct))
        if 2 * n > self.capacity:
            return self.drop()
        pairs[:n] = pairs[distinct]
        self.n = n

    def drop(self) -> None:
        self.whole = False
        self.pairs = None


def _move_pairs(f: int, a, b, c) -> list:
    """The pairs of views that each move joins: per move with b != 0, a list
    of (bit-j-clear end, partner end, edge mask or None).

    Both ends are index tuples into the (2,)*f label view, axis x for bit
    f - 1 - x.  A masked move gives one pair, its mask holding where the
    move's condition does, indexed like the bit-j-clear end; any other move
    gives one unmasked pair per pattern of a's bits that fires it.  The
    pairs of one move are disjoint.
    """
    states = None
    moves = []
    for am, bm, cm in zip(a.tolist(), b.tolist(), c.tolist()):
        if bm == 0:  # an identity move
            continue
        j = (bm & -bm).bit_length() - 1
        # the partner end is flipped along the other bits of b, and the
        # trailing Ellipsis keeps a 0-d view, not a scalar, when every axis
        # is fixed
        lo = [slice(None)] * f
        hi = [slice(None, None, -1) if bm >> (f - 1 - x) & 1 else slice(None) for x in range(f)]
        lo[f - 1 - j] = 0
        hi[f - 1 - j] = 1
        pairs = []
        if not _masked(am, bm):
            bits = [k for k in range(f) if am >> k & 1]
            for p in range(1 << len(bits)):
                if (p.bit_count() & 1) ^ cm:
                    for i, k in enumerate(bits):
                        lo[f - 1 - k] = hi[f - 1 - k] = p >> i & 1
                    pairs.append(((*lo, ...), (*hi, ...), None))
        else:
            if states is None:
                states = np.arange(1 << f, dtype=np.int32).reshape((2,) * f)
            # read at the bit-j-clear end only, so its temporaries are
            # half-size
            mask = np.bitwise_count(states[(*lo, ...)] & am) & 1 != cm
            if mask.any():
                pairs.append(((*lo, ...), (*hi, ...), mask))
        if pairs:
            moves.append(pairs)
    return moves


def _schedule(view, moves: list, n_parts: int) -> list:
    """Each part's steps, then the joined steps: lists of (end, partner end,
    mask or None) views to sweep, in move order.

    With two parts, part p owns view[p], the states whose top bit is p.  A
    pair that leaves axis 0 free is cut into its two halves, and a pair that
    fixes axis 0 to p goes whole to part p.  A pair that flips the top bit
    (of one Reeder move, or of a sigma move at a neighbor of the top vertex)
    joins both halves: it goes whole into the joined steps, which run while
    no part sweeps.  One part takes every pair, and no step is joined.
    """
    if n_parts == 1:
        return [[(view[lo], view[hi], mask) for pairs in moves for lo, hi, mask in pairs], []]
    parts = [[], [], []]
    for pairs in moves:
        for lo, hi, mask in pairs:
            pair = view[lo], view[hi], mask
            if lo[0] != hi[0]:
                parts[2].append(pair)
            elif isinstance(lo[0], int):
                parts[lo[0]].append(pair)
            else:
                for p in range(2):
                    half = tuple(x if x is None else x[p, ...] for x in pair)
                    if half[2] is None or half[2].any():
                        parts[p].append(half)
    return parts


def _chunks(view, block: int):
    """view cut along its leading axes into sub-views of at most block
    entries, in C order: the view itself when it holds no more."""
    if view.size <= block:
        return (view,)
    k = 0
    while math.prod(view.shape[k:]) > block:
        k += 1
    # the trailing Ellipsis keeps a 0-d view, not a scalar
    return (view[(*i, ...)] for i in np.ndindex(view.shape[:k]))


def _propagate(label, parts: list) -> tuple[int, int, int]:
    """Lower every label to its class minimum, in place.  parts holds each
    part's steps, then the joined steps: part p owns the p-th of
    len(parts) - 1 equal slices of label, part 0 runs in the caller's thread
    and each other part in a pool's thread, forked and joined once per sweep.
    The joined steps open every sweep in the caller while no part sweeps:
    before the first, and after the join and the pointer jumps that end the
    sweep before.  Returns the number of sweeps and of pointer jumps run, the
    jumps of a round counting the gathers of the block that took the most,
    and the number of pairs that the first hook sweep hooked."""
    *parts, joined = parts
    n_parts = len(parts)
    size = len(label) // n_parts
    f = len(label).bit_length() - 1
    # each part's largest step, then the largest joined step
    sizes = [max((step[0].size for step in steps), default=0) for steps in (*parts, joined)]
    if not any(sizes):  # no move joins two states
        return 0, 0, 0
    block = min(size, _GATHER_BLOCK, max(_GATHER_BLOCK >> 3, size >> 4))
    # a ufunc's where= runs its loop once per run of true mask entries, so the
    # minimum goes unmasked into a buffer and only the copies are masked.
    # Each part's buffer holds its largest step.  The joined steps, and the
    # jumps' gathers of a block, run while the parts wait, so they take the
    # whole buffer
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    least = np.empty(max(offsets[-1], sizes[-1], block), dtype=np.int32)
    # take() gathers through intp indices, a block at a time, not an intp
    # copy of the whole label array.  A hooking part allocates temporaries of
    # at most a block of pairs, which stay resident in its thread's malloc
    # arena once freed
    index = np.empty(block, dtype=np.intp)
    got = least[:block]
    sweeps = jumps = 0
    # what each part's first hook sweep hooks; the joined steps run in the
    # caller, as part 0 does, and share its pairs
    kept = [_Kept(_KEEP_PAIRS // n_parts) for _ in parts]

    def resolve(x: slice) -> int:
        """Point every label of block x at its root, given that each label
        below x.start points at its root.  Returns the gathers taken."""
        lab = label[x]
        n = len(lab)
        # the comparisons reuse the bytes of the indices already read
        inside, moved = index.view(bool)[:n], index.view(bool)[n : 2 * n]
        for gathers in range(1, f + 2):
            np.copyto(index[:n], lab)
            # mode="clip" (never needed: labels are valid indices) spares
            # take the copy of `out` it makes under mode="raise"
            np.take(label, index[:n], out=got[:n], mode="clip")
            if not np.not_equal(got[:n], lab, out=moved).any():
                return gathers
            np.greater_equal(lab, x.start, out=inside)
            np.copyto(lab, got[:n])
            # a label below x.start settled in this gather; one inside the
            # block that did not move names a root
            if not np.logical_and(inside, moved, out=inside).any():
                return gathers
        # each gather halves a chain inside the block, so ceil(log2 block)
        # + 1 <= f + 1 gathers settle it
        raise RuntimeError(f"labels still change after {f + 1} pointer jumps")

    def jump_round() -> int:
        """A round of pointer jumps: label[s] <= s stays in s's class, so one
        increasing pass points every label at its root, as those below a
        block already do.  Returns the gathers of the block that took the
        most."""
        return max(resolve(slice(x, x + block)) for x in range(0, len(label), block))

    def settle(pairs) -> int:
        """Join the roots of both ends of each pair, given that every label
        names its root: scatter-min rounds hook the larger root of each pair
        whose roots differ under the smaller, then follow each end to its
        new root, until no pair differs.  Returns the rounds run."""
        ends, rounds = label[pairs], 0
        apart = ends[:, 0] != ends[:, 1]
        while apart.any():
            ends = ends[apart]
            np.minimum.at(label, ends.max(axis=1), ends.min(axis=1))
            # a root hooked in this round may name one hooked after it
            up = label[ends]
            while not np.array_equal(up, ends):
                ends, up = up, label[up]
            apart = ends[:, 0] != ends[:, 1]
            rounds += 1
        return rounds

    def sweeper(steps: list, buf, start: int, p: int):
        """A sweep of part p's steps through minimum buffer buf, hooking only
        roots from start on: a function that runs the sweep numbered `sweeps`
        and returns whether a pair differed.  In the first hook sweep, it
        counts and keeps the pairs it hooks."""
        # a step's minimum and the comparison of its ends share the buffer
        steps = [(*step, buf[: step[0].size].reshape(step[0].shape),
                  buf.view(bool)[: step[0].size].reshape(step[0].shape)) for step in steps]

        def hook(lo, hi, differs) -> None:
            """Hook the larger root of each differing pair under the smaller,
            a block of pairs at a time, by a scatter-min; a pair whose root
            lies below start takes the minimum into both ends instead."""
            for lo, hi, pairs in zip(*(_chunks(x, block) for x in (lo, hi, differs))):
                x, y = lo[pairs], hi[pairs]
                top, low = np.maximum(x, y), np.minimum(x, y, out=x)
                if start:
                    own = top >= start
                    if not own.all():
                        # the differing pairs whose root is below start
                        below = ~own
                        pairs[pairs] = below
                        lo[pairs] = hi[pairs] = low[below]
                        top, low = top[own], low[own]
                        kept[p].drop()
                np.minimum.at(label, top, low)
                if sweeps == 1:
                    kept[p].add(low, top)

        def sweep() -> bool:
            if not sweeps:
                # labels start as the identity, so every pair differs: the
                # first sweep writes the minimum into both ends, from the
                # top state bit down
                for lo, hi, mask, out, _ in reversed(steps):
                    np.minimum(lo, hi, out=out)
                    if mask is None:
                        np.copyto(lo, out)
                        np.copyto(hi, out)
                    else:
                        np.copyto(lo, out, where=mask)
                        np.copyto(hi, out, where=mask)
                return bool(steps)
            seen = False
            # later sweeps run forward and backward by turns
            for lo, hi, mask, _, differs in reversed(steps) if sweeps % 2 == 0 else steps:
                np.not_equal(lo, hi, out=differs)
                if mask is not None:
                    np.logical_and(differs, mask, out=differs)
                if differs.any():
                    hook(lo, hi, differs)
                    seen = True
            return seen

        return sweep

    # part p owns the states from p * size on; labels are never above their
    # states, so a root below that is another part's.  The joined steps run
    # alone and hook any root
    sweeps_of = [sweeper(steps, least[offsets[p] : offsets[p + 1]], p * size, p)
                 for p, steps in enumerate(parts)]
    sweep_joined = sweeper(joined, least, 0, 0)

    # part 0 sweeps in the caller, each other part in a pool's thread.  The
    # pool's import costs about 5 ms and 0.4 MB, so one part skips both
    pool = contextlib.nullcontext()
    if n_parts > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(n_parts - 1)
    with pool:
        # the caller opens the first sweep alone with the joined steps
        differed = sweep_joined()
        while True:
            others = [pool.submit(sweep) for sweep in sweeps_of[1:]]
            differed |= sweeps_of[0]()
            # the list joins every part, not only up to one whose pair differed
            differed |= any([other.result() for other in others])
            sweeps += 1
            if not differed:
                return sweeps, jumps, sum(k.hooked for k in kept)
            # while no part sweeps: a round of pointer jumps, then the next
            # sweep's joined steps
            jumps += jump_round()
            if sweeps == 2:
                if all(k.whole for k in kept):
                    # the first hook sweep wrote only labels of roots and
                    # kept every pair it hooked: only those can be apart
                    if settle(np.concatenate([k.pairs[: k.n] for k in kept if k.n])):
                        jumps += jump_round()
                    return sweeps, jumps, sum(k.hooked for k in kept)
                for k in kept:
                    k.drop()
            differed = sweep_joined()


# int32 labels hold the indices of at most 2^31 states
_MAX_STATES = 1 << 31


def orbit_roots(n_states: int, a, b, c):
    """Root (minimum member) of each state's orbit, as an int32 array.

    Move m maps s to s ^ ((parity(s & a[m]) ^ c[m]) * b[m]) over the
    n_states = 2^f states, f <= 31; more states raise ResourceError before
    anything is allocated.  Every move must satisfy parity(a[m] & b[m]) = 0,
    which makes it an involution; a move that does not raises DiagramError.
    """
    if n_states > _MAX_STATES:
        raise ResourceError(
            f"{n_states} states exceed the {_MAX_STATES} that int32 labels can index"
        )
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    odd = np.flatnonzero(np.bitwise_count(a & b) & 1)
    if len(odd):
        m = int(odd[0])
        raise DiagramError(
            f"move {m} (a={int(a[m]):#x}, b={int(b[m]):#x}) has odd "
            "parity(a & b), so it is not an involution"
        )
    f = n_states.bit_length() - 1
    # the masks are built before the labels exist
    moves = _move_pairs(f, a, b, c)
    label = np.arange(n_states, dtype=np.int32)
    split = n_states >= _SPLIT_STATES and len(os.sched_getaffinity(0)) > 1
    _propagate(label, _schedule(label.reshape((2,) * f), moves, 2 if split else 1))
    return label


def gathered_blocks(src, indices):
    """src[indices], _GATHER_BLOCK indices at a time, as (start, values)
    pairs: each block is gathered through one intp index block into one
    buffer, which the next block reuses, so nothing the size of indices is
    allocated.  Indices must be valid."""
    block = min(len(indices), _GATHER_BLOCK)
    index = np.empty(block, dtype=np.intp)
    values = np.empty(block, dtype=src.dtype)
    for start in range(0, len(indices), block):
        chunk = indices[start : start + block]
        n = len(chunk)
        np.copyto(index[:n], chunk)
        # mode="clip" spares take the copy of `out` it makes under mode="raise"
        yield start, np.take(src, index[:n], out=values[:n], mode="clip")


def orbit_count(roots) -> int:
    """Orbits in orbit_roots' result: the states that are their own root,
    counted _GATHER_BLOCK states at a time against one reused range."""
    block = min(len(roots), _GATHER_BLOCK)
    ids = np.arange(block, dtype=roots.dtype)
    own = np.empty(block, dtype=bool)
    count = 0
    for start in range(0, len(roots), block):
        if start:
            ids += block
        chunk = roots[start : start + block]
        n = len(chunk)
        count += np.count_nonzero(np.equal(chunk, ids[:n], out=own[:n]))
    return int(count)
