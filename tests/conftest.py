"""Shared corpus and independent oracles.

The oracles deliberately avoid the library's fast paths: class enumeration by
dictionary BFS with effective neighbors recomputed from the edge list (an odd
edge seen from both ends, an even one only from its shorter end v), and GF(2)
rank by dense numpy elimination.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest

from reeder import families
from reeder.diagram import Diagram


def oracle_effective_neighbors(diagram: Diagram) -> list[list[int]]:
    eff = [[] for _ in range(diagram.n_vertices)]
    for e in diagram.edges:
        eff[e.v].append(e.u)
        if e.multiplicity % 2:
            eff[e.u].append(e.v)
    return eff


def oracle_classes(diagram: Diagram) -> list[frozenset[int]]:
    """All equivalence classes as frozensets of full labeling integers."""
    eff = oracle_effective_neighbors(diagram)
    free = [i for i in range(diagram.n_vertices) if i not in diagram.pinned]
    pinned_bits = sum(1 << p for p in diagram.pinned)
    all_states = []
    for s in range(1 << len(free)):
        full = pinned_bits
        for j, v in enumerate(free):
            full |= (s >> j & 1) << v
        all_states.append(full)
    unseen = set(all_states)
    classes = []
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for i in free:
                p = sum(cur >> k & 1 for k in eff[i]) & 1
                t = cur ^ (p << i)
                if t not in comp:
                    comp.add(t)
                    frontier.append(t)
        classes.append(frozenset(comp))
        unseen -= comp
    return classes


def oracle_rank_gf2(lists) -> int:
    """Dense elimination over uint8, column by column."""
    m = np.array(lists, dtype=np.uint8) % 2
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.nonzero(m[rank:, col])[0]
        if len(pivots) == 0:
            continue
        p = rank + pivots[0]
        m[[rank, p]] = m[[p, rank]]
        hits = np.nonzero(m[:, col])[0]
        for r in hits:
            if r != rank:
                m[r] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff two label arrays induce the same partition of indices."""
    if a.shape != b.shape:
        return False
    pairs = a.astype(np.int64) << 32 | b.astype(np.int64)
    return len(np.unique(pairs)) == len(np.unique(a)) == len(np.unique(b))


# seconds a part of the split kernel may wait at one barrier in the tests
BARRIER_TIMEOUT = 30


@contextmanager
def split_kernel(threshold: int = 4):
    """Run the orbit kernel's two-part split from threshold states on (from
    f = 2 on by default), as on a process allowed two CPUs.  Its barriers
    wait at most BARRIER_TIMEOUT seconds, so a part that skips a wait()
    breaks the barrier and the call raises BrokenBarrierError, rather than
    leaving the other part waiting forever."""
    from reeder import _kernel

    barrier = partial(threading.Barrier, timeout=BARRIER_TIMEOUT)
    with mock.patch.object(_kernel, "_SPLIT_STATES", threshold), \
            mock.patch.object(_kernel.os, "sched_getaffinity", lambda pid: {0, 1}), \
            mock.patch.object(_kernel.threading, "Barrier", barrier):
        yield


def check_split_schedule(n_states: int, a, b, c) -> list:
    """The two-part schedule must never let the parts touch one state
    between the same two barriers, which would let one part write back a
    label that the other has just lowered.  Scheduling a view of the state
    indices makes every step's views hold the states they touch.  Returns
    each part's list of the sets of states it touches between barriers."""
    from reeder import _kernel

    f = n_states.bit_length() - 1
    moves = _kernel._move_pairs(f, *(np.asarray(x, dtype=np.int64) for x in (a, b, c)))
    states = np.arange(n_states).reshape((2,) * f)
    sections = []
    for steps in _kernel._schedule(states, moves, 2):
        touched = [[]]
        for step in steps:
            if step is None:
                touched.append([])
            else:
                touched[-1] += [np.ravel(step[0]), np.ravel(step[1])]
        sections.append([set(np.concatenate(x).tolist()) if x else set() for x in touched])
    assert len(sections[0]) == len(sections[1])  # the same barriers
    for first, second in zip(*sections):
        assert not first & second, sorted(first & second)[:8]
    return sections


def check_kernels(n_states: int, a, b, c, classes) -> None:
    """The orbit kernel against oracle classes of state indices: the
    two-part schedule must keep the parts apart between barriers (checked
    first, since parts with unequal barriers would wait forever), and the
    kernel must root every state at its class's minimum member, under the
    default split threshold and with the two-part split forced."""
    from reeder import _kernel

    if n_states >= 4:
        check_split_schedule(n_states, a, b, c)
    want = np.empty(n_states, dtype=np.int64)
    for cls in classes:
        idx = np.fromiter(cls, dtype=np.int64)
        want[idx] = idx.min()
    for threshold in (_kernel._SPLIT_STATES, 4):
        with split_kernel(threshold):
            assert np.array_equal(_kernel.orbit_roots(n_states, a, b, c), want), threshold


def family_corpus(max_vertices: int) -> list[tuple[str, Diagram]]:
    """One constructed diagram per family/parameter up to a vertex budget."""
    out = []
    ranged = {
        "A": range(1, 15), "affA": range(2, 14), "B": range(2, 15),
        "affB": range(4, 14), "C": range(3, 15), "affC": range(3, 14),
        "D": range(4, 15), "affD": range(5, 14), "X": range(1, 13),
        "Y": range(4, 14), "Z": range(2, 14), "flower": range(1, 14),
        "Abox_m": range(1, 14), "Abox_1m": range(1, 13),
        "Bbox_1": range(1, 13), "Dbox_1": range(4, 14),
    }
    for fam, rng in ranged.items():
        for n in rng:
            spec = families.FamilySpec(fam, n)
            d = families.construct(spec)
            if d.n_vertices <= max_vertices:
                out.append((str(spec), d))
    for fam in ("E6", "E7", "E8", "affE6", "affE7", "affE8", "F4", "affF4",
                "G2", "affG2", "A2_2", "E6_2", "D4_3"):
        spec = families.FamilySpec(fam)
        d = families.construct(spec)
        if d.n_vertices <= max_vertices:
            out.append((str(spec), d))
    return out


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:  # acceptance module not part of this run
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_corpus():
    return family_corpus(12)


@pytest.fixture(scope="session")
def tree_corpus_14():
    """Simply-laced trees with at most 14 vertices, families plus random."""
    from reeder.classifiers import tree_from_pruefer
    import random

    trees = [
        (name, d)
        for name, d in family_corpus(14)
        if d.is_simply_laced and d.is_tree and not d.pinned
    ]
    rng = random.Random(20260823)
    for idx in range(10):
        n = rng.randint(5, 14)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        trees.append((f"random-tree-{idx}", tree_from_pruefer(seq, n)))
    return trees
