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
end.  Each sweep takes the minimum of both ends wherever the move's edge
mask holds, writing it back at once (Gauss-Seidel, alternate sweeps in
reverse move order), then pointer-jumps the labels to a fixpoint.  It stops
at the first sweep that changes nothing.  Memory is O(2^f): a few int32
label buffers, one bool edge mask over half the states per move, and the
int64 result.
"""

from __future__ import annotations

import numpy as np

from .diagram import DiagramError

# The numpy kernel below is the only backend; perfbench/run.py records the
# backend it measured from this flag.
HAVE_NUMBA = False


def kernel_bytes(n_states: int, n_moves: int) -> int:
    """Upper bound on the array bytes orbit_roots holds at once.

    One bool edge mask over half the states per move, plus 24 per state,
    rounded up from what the sweeps hold: three int32 label buffers, a
    half-size int32 minimum buffer, and the intp copy of the indices that
    each pointer-jumping gather makes.  Building the masks and the int64
    result need less.
    """
    return 24 * n_states + n_moves * (n_states // 2)


def _move_pairs(label, f: int, a, b, c) -> list:
    """(bit-j-clear end, partner end, edge mask) per move that can fire.

    Both ends are views into label; the mask holds where the move's
    condition does, indexed like the bit-j-clear end.
    """
    view = label.reshape((2,) * f)
    states = np.arange(1 << f, dtype=np.int32)
    pairs = []
    for am, bm, cm in zip(a.tolist(), b.tolist(), c.tolist()):
        if bm == 0:  # an identity move
            continue
        j = (bm & -bm).bit_length() - 1
        axis = f - 1 - j  # axis 0 is the most significant bit
        # the trailing Ellipsis keeps a 0-d view, not a scalar, when f = 1
        clear = (slice(None),) * axis + (0, Ellipsis)
        lit = (slice(None),) * axis + (1, Ellipsis)
        cond = (np.bitwise_count(states & am) & 1).astype(bool)
        if cm:
            cond = ~cond
        mask = cond.reshape((2,) * f)[clear].copy()
        if not mask.any():
            continue
        # the other bits of b lie above j, so their axes precede `axis`
        flips = tuple(f - 1 - k for k in range(j + 1, f) if bm >> k & 1)
        hi = np.flip(view[lit], axis=flips) if flips else view[lit]
        pairs.append((view[clear], hi, mask))
    return pairs


def _propagate(label, pairs: list) -> None:
    """Lower every label to its class minimum, in place."""
    if not pairs:
        return
    before = np.empty_like(label)
    jumped = np.empty_like(label)
    # a ufunc's where= runs its loop once per run of true mask entries, so the
    # minimum goes unmasked into a buffer and only the copies are masked
    least = np.empty(pairs[0][2].shape, dtype=np.int32)
    sweep = 0
    while True:
        np.copyto(before, label)
        for lo, hi, mask in pairs if sweep % 2 == 0 else reversed(pairs):
            np.minimum(lo, hi, out=least)
            np.copyto(lo, least, where=mask)
            np.copyto(hi, least, where=mask)
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


def orbit_roots(n_states: int, a, b, c):
    """Root (minimum member) of each state's orbit, as an int64 array.

    Move m maps s to s ^ ((parity(s & a[m]) ^ c[m]) * b[m]) over the
    n_states = 2^f states, f <= 31.  Every move must satisfy
    parity(a[m] & b[m]) = 0, which makes it an involution; a move that does
    not raises DiagramError.
    """
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
    return label.astype(np.int64)
