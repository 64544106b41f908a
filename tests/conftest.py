"""Shared corpus and independent oracles.

The oracles deliberately avoid the library's fast paths: class enumeration by
dictionary BFS with effective neighbors recomputed from the edge list (an odd
edge seen from both ends, an even one only from its shorter end v), and GF(2)
rank by dense numpy elimination.
"""

from __future__ import annotations

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


def walker_component_counts(diagram: Diagram, states, block: int = 1 << 13) -> np.ndarray:
    """Lit-component count of each free-encoded state (free vertex
    free_vertices[j] on bit j, pinned vertices lit), from the diagram's edges
    alone, a block of states at a time.  Each vertex starts labelled by its
    own index; every round lowers both ends of each edge with two lit ends
    to the smaller of their labels, then replaces every label by its label's
    label, until a round changes nothing.  A label always names a vertex of
    its own component, so then each component carries its least vertex, and
    the lit vertices that keep their own index count the components."""
    n = diagram.n_vertices
    states = np.asarray(states, dtype=np.int64)
    counts = np.empty(len(states), dtype=np.int64)
    for start in range(0, len(states), block):
        part = states[start : start + block]
        lit = np.ones((n, len(part)), dtype=bool)
        for j, v in enumerate(diagram.free_vertices):
            lit[v] = part >> j & 1 == 1
        joined = [(e.u, e.v, lit[e.u] & lit[e.v]) for e in diagram.edges]
        own = np.broadcast_to(np.arange(n)[:, None], lit.shape)
        label = own.copy()
        while True:
            before = label.copy()
            for u, v, both in joined:
                low = np.where(both, np.minimum(label[u], label[v]), n)
                np.minimum(label[u], low, out=label[u])
                np.minimum(label[v], low, out=label[v])
            label = np.take_along_axis(label, label, axis=0)
            if np.array_equal(label, before):
                break
        counts[start : start + block] = np.count_nonzero(lit & (label == own), axis=0)
    return counts


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff two label arrays induce the same partition of indices."""
    if a.shape != b.shape:
        return False
    pairs = a.astype(np.int64) << 32 | b.astype(np.int64)
    return len(np.unique(pairs)) == len(np.unique(a)) == len(np.unique(b))


def check_kernels(n_states: int, a, b, c, classes) -> None:
    """The orbit kernel against oracle classes of state indices: it must
    root every state at its class's minimum member."""
    from reeder import _kernel

    want = np.empty(n_states, dtype=np.int64)
    for cls in classes:
        idx = np.fromiter(cls, dtype=np.int64)
        want[idx] = idx.min()
    assert np.array_equal(_kernel.orbit_roots(n_states, a, b, c), want)


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
