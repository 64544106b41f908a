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
the minimum of both ends, writing it back at once (Gauss-Seidel, alternate
sweeps in reverse move order), then pointer-jumps the labels to a fixpoint.
It stops at the first sweep that changes nothing.  The result is the int32
label array itself, so f <= 31.  Memory is O(2^f): a few int32 label buffers
and one bool edge mask over half the states per masked move.
"""

from __future__ import annotations

import numpy as np

from .diagram import DiagramError, ResourceError

# The numpy kernel below is the only backend; perfbench/run.py records the
# backend it measured from this flag.
HAVE_NUMBA = False


# a disjoint move whose a has this many bits or more sweeps through a mask,
# not through its 2^(popcount(a) - 1) sub-views
_MASK_BITS = 7


def _masked(am: int, bm: int) -> bool:
    """Whether move (am, bm, .) sweeps through an edge mask, not sub-views."""
    return bm != 0 and (am & bm != 0 or am.bit_count() >= _MASK_BITS)


def kernel_bytes(n_states: int, a, b) -> int:
    """Upper bound on the array bytes orbit_roots holds at once for moves
    with masks a and b.

    One bool edge mask over half the states per masked move, plus 24 per
    state, rounded up from what the sweeps hold: three int32 label buffers,
    a half-size int32 minimum buffer, and the intp copy of the indices that
    each pointer-jumping gather makes.  Building the masks needs less, and
    the int32 result is one of the label buffers.
    """
    n_masked = sum(_masked(am, bm) for am, bm in zip(a, b))
    return 24 * n_states + n_masked * (n_states // 2)


def _move_pairs(label, f: int, a, b, c) -> list:
    """(bit-j-clear end, partner end, edge mask or None) per pair of views
    that a move joins.

    Both ends are views into label.  A masked move gives one pair, its mask
    holding where the move's condition does, indexed like the bit-j-clear
    end; any other move gives one unmasked pair per pattern of a's bits that
    fires it.
    """
    view = label.reshape((2,) * f)
    states = None
    pairs = []
    for am, bm, cm in zip(a.tolist(), b.tolist(), c.tolist()):
        if bm == 0:  # an identity move
            continue
        j = (bm & -bm).bit_length() - 1
        # axis x holds bit f - 1 - x; the partner end is flipped along the
        # other bits of b, and the trailing Ellipsis keeps a 0-d view, not a
        # scalar, when f = 1
        lo = [slice(None)] * f
        hi = [slice(None, None, -1) if bm >> (f - 1 - x) & 1 else slice(None) for x in range(f)]
        lo[f - 1 - j] = 0
        hi[f - 1 - j] = 1
        if not _masked(am, bm):
            bits = [k for k in range(f) if am >> k & 1]
            for p in range(1 << len(bits)):
                if (p.bit_count() & 1) ^ cm:
                    for i, k in enumerate(bits):
                        lo[f - 1 - k] = hi[f - 1 - k] = p >> i & 1
                    pairs.append((view[(*lo, ...)], view[(*hi, ...)], None))
            continue
        if states is None:
            states = np.arange(1 << f, dtype=np.int32)
        cond = (np.bitwise_count(states & am) & 1).astype(bool)
        if cm:
            cond = ~cond
        mask = cond.reshape((2,) * f)[(*lo, ...)].copy()
        if mask.any():
            pairs.append((view[(*lo, ...)], view[(*hi, ...)], mask))
    return pairs


def _propagate(label, pairs: list) -> None:
    """Lower every label to its class minimum, in place."""
    if not pairs:
        return
    before = np.empty_like(label)
    jumped = np.empty_like(label)
    # a ufunc's where= runs its loop once per run of true mask entries, so the
    # minimum goes unmasked into a buffer and only the copies are masked
    least = np.empty(max(lo.size for lo, _, _ in pairs), dtype=np.int32)
    sweeps = [(lo, hi, least[: lo.size].reshape(lo.shape), mask) for lo, hi, mask in pairs]
    sweep = 0
    while True:
        np.copyto(before, label)
        for lo, hi, out, mask in sweeps if sweep % 2 == 0 else reversed(sweeps):
            np.minimum(lo, hi, out=out)
            if mask is None:
                np.copyto(lo, out)
                np.copyto(hi, out)
            else:
                np.copyto(lo, out, where=mask)
                np.copyto(hi, out, where=mask)
        if np.array_equal(before, label):
            return
        sweep += 1
        # label[s] <= s stays in s's class, so jumping only shortens chains;
        # mode="clip" (never needed: labels are valid indices) spares take
        # the copy of `out` it makes under the default mode="raise"
        while True:
            np.take(label, label, out=jumped, mode="clip")
            if np.array_equal(jumped, label):
                break
            np.copyto(label, jumped)


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
    label = np.arange(n_states, dtype=np.int32)
    _propagate(label, _move_pairs(label, n_states.bit_length() - 1, a, b, c))
    return label
