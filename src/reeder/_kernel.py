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
its whole slice and copies back through a bool edge mask.  Each sweep takes
the minimum of both ends, writing it back at once (Gauss-Seidel).  The first
sweep runs the moves from the top state bit down, and later sweeps alternate
between move order and its reverse; the order changes only the number of
sweeps, never the roots.  Every sweep starts by checking: each step compares
its two ends (under the edge mask, if any) into a bool view of the minimum
buffer and is skipped while they agree, since its writes would change
nothing.  The first step that finds ends that differ writes, and so does
every step after it in that sweep.  Labels only fall, so a sweep changed a
label exactly when it wrote, and the kernel stops at the first sweep that
wrote nothing: that sweep only compares.  After a sweep that wrote, one
round of pointer jumps points every label at the root of its chain, in place
and in one increasing pass over blocks of states.  Since label[s] <= s, a
label below the block names a state the pass has already resolved, so one
gather label[label] settles it; the block is gathered again only while some
label that pointed into the block still changes, at most f + 1 gathers.  The
result is the int32 label array itself, so f <= 31.

From _SPLIT_STATES states on, and when the process may run on two CPUs, the
work is cut in two parts on the top state bit (axis 0), each run by its own
thread, since numpy releases the interpreter lock inside its loops.  Part p
owns the states whose top bit is p.  A pair of views that leaves axis 0 free
is cut into its two halves, and one that fixes axis 0 goes whole to its
part; each part sweeps its pairs in Gauss-Seidel order with no barrier
between them.  Only a move that flips the top bit (one Reeder move, or the
sigma moves of the top vertex's neighbors) joins both halves: its pairs are
cut along their own first axis, and each such move is swept between two
barriers, since the halves of two different moves may overlap.  A barrier
ends each sweep; it also folds whether each part wrote, so the parts stop
together.  Each part checks its own steps and starts writing on its own.
Whichever part reaches that barrier last runs the round of pointer jumps
over all the states, as one part does, while the other part waits, so a
sweep that writes costs one barrier, plus two per move that flips the top
bit.  The gathers run through an intp block, so no intp copy of the whole
label array is made.
Below the threshold one part runs the same loop with no thread started and
no barrier.  The roots are the same either way.  Memory is about 6 bytes
per state (the label array and a half-size minimum buffer, which the jumps
gather into) plus one bool edge mask over half the states per masked move.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .diagram import DiagramError, ResourceError

# The numpy kernel below is the only backend; perfbench/run.py records the
# backend it measured from this flag.
HAVE_NUMBA = False


# a disjoint move whose a has this many bits or more sweeps through a mask,
# not through its 2^(popcount(a) - 1) sub-views
_MASK_BITS = 7

# from this many states on, two parts split the work on the top state bit when
# the process may run on two CPUs.  Below it their barrier and interpreter-lock
# hand-offs cost about what the second CPU saves on a quiet host (20% less
# time at f = 18, 25% more at f = 17), and up to twice the one-part time when
# the host delays thread wake-ups
_SPLIT_STATES = 1 << 19

# indices per block of a gather.  The pointer jumps take blocks of a
# sixteenth of a part's states, at least an eighth and at most all of this:
# larger blocks gather again more often, smaller ones take more calls
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
    pointer jumps' gathers share; plus an intp index block of at most
    _GATHER_BLOCK entries and, per part, as many int32 entries again for a
    minimum buffer shorter than a block.  Building a mask holds less: an
    int32 state array and half-size temporaries, before the labels exist.
    The int32 result is the label array.
    """
    n_masked = sum(_masked(am, bm) for am, bm in zip(a, b))
    return 8 * n_states + n_masked * (n_states // 2) + 2 * 12 * _GATHER_BLOCK


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
    """Each part's steps: (end, partner end, mask or None) views to sweep, or
    None for a barrier that every part passes together.

    With two parts, part p owns view[p], the states whose top bit is p.  A
    pair that leaves axis 0 free is cut into its two halves, and a pair that
    fixes axis 0 to p goes whole to part p.  A move that flips the top bit
    joins both halves: its pairs are cut along their own first axis (or,
    when 0-d, go whole to part 0).  Its pairs are disjoint, and so are the
    two halves of each, but the halves of two such moves may overlap, so
    each such move is swept in a section of its own between two barriers.
    """
    if n_parts == 1:
        return [[(view[lo], view[hi], mask) for pairs in moves for lo, hi, mask in pairs]]
    parts = [[], []]
    crossing = False
    for pairs in moves:
        lo, hi, _ = pairs[0]
        if crossing or lo[0] != hi[0]:  # a section opens or closes
            for steps in parts:
                steps.append(None)
        crossing = lo[0] != hi[0]
        for lo, hi, mask in pairs:
            pair = view[lo], view[hi], mask
            if crossing and pair[0].ndim == 0:
                parts[0].append(pair)
            elif crossing or not isinstance(lo[0], int):
                for p, steps in enumerate(parts):
                    half = tuple(x if x is None else x[p, ...] for x in pair)
                    if half[2] is None or half[2].any():
                        steps.append(half)
            else:
                parts[lo[0]].append(pair)
    if crossing:
        for steps in parts:
            steps.append(None)
    return parts


def _propagate(label, parts: list) -> tuple[int, int]:
    """Lower every label to its class minimum, in place: part p of the
    schedule owns the p-th of len(parts) equal slices of label; part 0 runs
    in the caller's thread and each other part in a thread of its own.
    Returns the number of sweeps and of pointer jumps run, the jumps of a
    round counting the gathers of the block that took the most."""
    n_parts = len(parts)
    size = len(label) // n_parts
    f = len(label).bit_length() - 1
    least_size = max((step[0].size for steps in parts for step in steps if step), default=0)
    if not least_size:  # no move joins two states
        return 0, 0
    block = min(size, _GATHER_BLOCK, max(_GATHER_BLOCK >> 3, size >> 4))
    # a ufunc's where= runs its loop once per run of true mask entries, so the
    # minimum goes unmasked into a buffer and only the copies are masked
    width = max(least_size, block)
    least = np.empty(n_parts * width, dtype=np.int32)
    # the parts allocate nothing themselves: what a thread frees stays
    # resident in its own malloc arena.  take() gathers through intp
    # indices, a block at a time, not an intp copy of the whole label array,
    # into part 0's minimum buffer: the jumps run while no part sweeps
    index = np.empty(block, dtype=np.intp)
    got = least[:block]
    # whether each part wrote in the last sweep
    wrote = [False] * n_parts
    sweeps = jumps = 0
    writes = True

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

    def end_sweep() -> None:
        """Count the sweep and, if a part wrote, run one round of pointer
        jumps, while every part waits.  label[s] <= s stays in s's class, so
        one increasing pass points every label at its root: the labels
        below a block already do."""
        nonlocal sweeps, jumps, writes
        sweeps += 1
        writes = any(wrote)
        if writes:
            jumps += max(resolve(slice(x, x + block)) for x in range(0, len(label), block))

    # the last part at the barrier runs end_sweep; a part alone calls it
    barrier = threading.Barrier(n_parts, action=end_sweep) if n_parts > 1 else None
    section = threading.Barrier(n_parts) if n_parts > 1 else None
    end = barrier.wait if barrier else end_sweep

    def run(p: int) -> None:
        buf = least[p * width : (p + 1) * width]
        # a step's minimum and the comparison of its ends share the buffer
        steps = [step and (*step, buf[: step[0].size].reshape(step[0].shape),
                           buf.view(bool)[: step[0].size].reshape(step[0].shape))
                 for step in parts[p]]
        while writes:
            # the first sweep runs the moves from the top state bit down.  A
            # sweep skips steps whose ends agree until one differs; that step
            # and all after it write.  Labels only fall, so a sweep that
            # wrote has changed a label
            writing = False
            for step in reversed(steps) if sweeps % 2 == 0 else steps:
                if step is None:
                    section.wait()
                    continue
                lo, hi, mask, out, differs = step
                if not writing:
                    np.not_equal(lo, hi, out=differs)
                    if mask is not None:
                        np.logical_and(differs, mask, out=differs)
                    writing = bool(differs.any())
                    if not writing:
                        continue
                np.minimum(lo, hi, out=out)
                if mask is None:
                    np.copyto(lo, out)
                    np.copyto(hi, out)
                else:
                    np.copyto(lo, out, where=mask)
                    np.copyto(hi, out, where=mask)
            wrote[p] = writing
            end()

    if n_parts == 1:
        run(0)
        return sweeps, jumps
    errors = []

    def part(p: int) -> None:
        try:
            run(p)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)
            barrier.abort()
            section.abort()

    threads = [threading.Thread(target=part, args=(p,)) for p in range(1, n_parts)]
    for thread in threads:
        thread.start()
    try:
        part(0)  # the parts run in step
    finally:
        for thread in threads:
            thread.join()
    if errors:
        # a part stopped by an aborted barrier raised BrokenBarrierError;
        # raise the error that aborted it
        errors.sort(key=lambda exc: isinstance(exc, threading.BrokenBarrierError))
        raise errors[0]
    return sweeps, jumps


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
