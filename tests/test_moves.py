"""Move application and class enumeration, cross-checked against a pure
Python BFS oracle."""

import collections
import concurrent.futures
import contextlib
import hashlib
import importlib.util
import json
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reeder import _kernel, classifiers, families, moves, sigma
from reeder.diagram import (
    Diagram,
    DiagramError,
    Edge,
    Labeling,
    ResourceError,
    parse_dsl,
)
from reeder.f2 import F2Matrix
from conftest import (
    check_kernels, family_corpus, oracle_classes, split_kernel, walker_component_counts,
)


def fam(text):
    return families.construct(families.parse_family(text))


def partition_as_sets(part):
    return {
        frozenset(moves.decode_state(part.diagram, s).bits for s in part.members(c).tolist())
        for c in range(part.class_count)
    }


@st.composite
def dsl_graphs(draw, max_vertices=9):
    """Random DSL diagrams: any multiplicities and arrows, some pins."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    lines = [f"vertices {n}"]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)):
            mult = draw(st.integers(1, 4))
            line = f"edge {u} {v} mult={mult}"
            if mult % 2 == 0:
                longer, shorter = draw(st.permutations([u, v]))
                line += f" dir={longer}>{shorter}"
            lines.append(line)
    for p in draw(st.sets(st.integers(0, n - 1), max_size=n // 3)):
        lines.append(f"pin {p}")
    return parse_dsl("\n".join(lines))


# -- single moves ----------------------------------------------------------


def test_apply_move_path_examples():
    d = fam("A:3")
    ones = Labeling.from_bits([1, 1, 1])
    assert moves.apply_move(d, ones, 1).to_tuple() == (1, 1, 1)
    assert moves.apply_move(d, ones, 0).to_tuple() == (0, 1, 1)


def test_apply_move_directed_pair():
    d = Diagram(2, [Edge(0, 1, 2, True)])
    ones = Labeling.from_bits([1, 1])
    assert moves.apply_move(d, ones, 0).to_tuple() == (1, 1)
    assert moves.apply_move(d, ones, 1).to_tuple() == (1, 0)


def test_apply_move_pinned_is_identity():
    d = fam("Abox:3")
    lab = d.labeling(d.pinned_bits)
    assert moves.apply_move(d, lab, 3).bits == lab.bits


def test_apply_move_index_error():
    d = fam("A:3")
    with pytest.raises(IndexError):
        moves.apply_move(d, Labeling(3, 0), 3)


def test_apply_sequence():
    d = fam("A:3")
    ones = Labeling.from_bits([1, 1, 1])
    assert moves.apply_sequence(d, ones, []).bits == ones.bits
    assert moves.apply_sequence(d, ones, [0, 0]).bits == ones.bits


def test_move_locality(small_corpus):
    for name, d in small_corpus:
        lab = d.labeling(d.pinned_bits)
        for i in d.free_vertices:
            out = moves.apply_move(d, lab, i)
            assert out.bits & ~(1 << i) == lab.bits & ~(1 << i), name


def test_involution_exhaustive_small(small_corpus):
    for name, d in small_corpus:
        if len(d.free_vertices) > 8:
            continue
        for s in range(1 << len(d.free_vertices)):
            a = moves.decode_state(d, s)
            for i in d.free_vertices:
                twice = moves.apply_move(d, moves.apply_move(d, a, i), i)
                assert twice.bits == a.bits, name


# -- move matrices ---------------------------------------------------------


def test_move_matrix_example():
    d = fam("A:2")
    t0 = moves.move_matrix(d, 0)
    assert t0.to_lists() == [[1, 1], [0, 1]]
    # matrix action agrees with apply_move on every state
    for bits in range(4):
        assert t0.mul_vec(bits) == moves.apply_move(d, Labeling(2, bits), 0).bits


def test_move_matrix_squares_to_identity(small_corpus):
    for name, d in small_corpus:
        n = d.n_vertices
        for i in range(n):
            t = moves.move_matrix(d, i)
            assert t @ t == F2Matrix.identity(n), name


def test_move_matrix_isolated_and_pinned():
    iso = Diagram(2, [])
    assert moves.move_matrix(iso, 0) == F2Matrix.identity(2)
    boxed = fam("Abox:3")
    assert moves.move_matrix(boxed, 3) == F2Matrix.identity(4)


def test_move_matrix_vertex_action():
    d = fam("A:2")
    t1 = moves.move_matrix(d, 1)
    assert t1.to_lists() == [[1, 0], [1, 1]]
    for bits in range(4):
        assert t1.mul_vec(bits) == moves.apply_move(d, Labeling(2, bits), 1).bits


# -- state encoding --------------------------------------------------------


# 140 vertex labels do not fit in int8 (nor their labelings in int64); all but
# six vertices are pinned
PINNED_140 = Diagram(
    140,
    [Edge(i, i + 1) for i in range(139)] + [Edge(0, 139), Edge(10, 60)],
    frozenset(range(140)) - {0, 1, 30, 60, 61, 139},
)


def test_encode_decode_roundtrip_with_pins():
    for name, d in family_corpus(10) + [("140-vertices-pinned", PINNED_140)]:
        n = d.n_vertices
        states = np.arange(1 << len(d.free_vertices), dtype=np.int64)
        labs = [moves.decode_state(d, s) for s in states.tolist()]
        assert all(lab.bits & d.pinned_bits == d.pinned_bits for lab in labs), name
        encoded = moves.encode_states(d, [lab.bits for lab in labs])
        assert encoded.dtype == np.int64 and encoded.tolist() == states.tolist(), name
        assert list(moves.labeling_strings(d, states)) == [
            lab.bitstring() for lab in labs
        ], name
        order = np.random.default_rng(n).permutation(n).tolist()
        assert list(moves.labeling_strings(d, states, order)) == [
            "".join(lab.bitstring()[v] for v in order) for lab in labs
        ], name
        for bad in (1 << n, -1):
            with pytest.raises(DiagramError, match="out of range"):
                moves.encode_states(d, [labs[0].bits, bad])
        if d.pinned:
            unpinned = labs[-1].bits & ~(1 << min(d.pinned))
            with pytest.raises(DiagramError, match="pinned vertex labeled 0"):
                moves.encode_states(d, [labs[0].bits, unpinned])
    # past 62 free vertices states are Python ints: bit 63 and up survive
    d = fam("B:70")
    states = [1 << 69 | 1 << 68, 1 << 68, 1 << 63, (1 << 70) - 1, 5]
    labs = [moves.decode_state(d, s) for s in states]
    encoded = moves.encode_states(d, [lab.bits for lab in labs])
    assert encoded.dtype == object and encoded.tolist() == states
    assert list(moves.labeling_strings(d, encoded)) == [lab.bitstring() for lab in labs]


# -- vectorized component counts ------------------------------------------


@pytest.mark.parametrize(
    "target",
    [
        "A:6", "D:5", "affA:5", "affA:6", "B:5", "flower:4", "Abox:4", "Y:5",
        pytest.param(
            Diagram(4, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 0), Edge(0, 2)]),
            id="theta",
        ),
        pytest.param(PINNED_140, id="140-vertices-pinned"),
        pytest.param(Diagram(3, [Edge(0, 1), Edge(1, 2), Edge(2, 0)], {0, 1, 2}),
                     id="pinned-triangle"),
        # the cycle's free support is empty
        pytest.param(Diagram(5, [Edge(0, 1), Edge(1, 2), Edge(2, 0), Edge(2, 3), Edge(3, 4)],
                             {0, 1, 2}),
                     id="cycle-through-pins"),
        pytest.param(Diagram(4, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 0)], {0, 1, 3}),
                     id="cycle-one-free-vertex"),
        # the triangle's support lies wholly above the bits of a default block
        pytest.param(Diagram(20, [Edge(i, i + 1) for i in range(19)] + [Edge(17, 19)]),
                     id="path-20-top-triangle"),
    ],
)
def test_component_counts_match_walker(target):
    d = fam(target) if isinstance(target, str) else target
    check_component_counts(d)


# past this many free vertices the walker checks Diagram.count_components on
# a sample of states, not on every one
WALK_EVERY_STATE = 14


def check_component_counts(d):
    """component_counts against the numpy walker of conftest on every state,
    the walker against Diagram.count_components on every state up to
    WALK_EVERY_STATE free vertices and on a seeded sample of 4096 past it."""
    f = len(d.free_vertices)
    want = walker_component_counts(d, np.arange(1 << f)).tolist()
    walked = range(1 << f)
    if f > WALK_EVERY_STATE:
        walked = np.random.default_rng(f).choice(1 << f, size=4096, replace=False).tolist()
    assert [want[s] for s in walked] == [d.count_components(moves.decode_state(d, s))
                                         for s in walked]
    assert moves.component_counts(d).tolist() == want
    # blocks of at most four states, so the high state bits vary by block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moves, "_COMPONENT_BLOCK_BYTES", 4 * d.n_vertices)
        assert moves.component_counts(d).tolist() == want


@settings(deadline=None, max_examples=60)
@given(dsl_graphs())
def test_component_counts_match_walker_on_random_graphs(d):
    check_component_counts(d)


def chorded_tree(n, chords, seed):
    """A random labelled tree on n vertices plus chords between random
    non-adjacent pairs: a connected graph with that many independent cycles."""
    rng = np.random.default_rng(seed)
    tree = classifiers.tree_from_pruefer(rng.integers(n, size=n - 2).tolist(), n)
    pairs = {e.pair for e in tree.edges}
    while len(pairs) < n - 1 + chords:
        pairs.add(frozenset(rng.choice(n, size=2, replace=False).tolist()))
    return Diagram(n, [Edge(*sorted(p)) for p in pairs])


def wheel(spokes, pinned=()):
    """A hub (the last vertex) joined to every vertex of a cycle of spokes
    vertices: spokes independent cycles."""
    rim = [Edge(i, (i + 1) % spokes) for i in range(spokes)]
    return Diagram(spokes + 1, rim + [Edge(i, spokes) for i in range(spokes)], pinned)


def no_path(*args):
    raise AssertionError("component_counts took the other path")


BOUND = moves._CYCLE_RANK_BOUND


def test_component_counts_identity_on_corpus_and_chorded_tree(monkeypatch):
    """Without label propagation, the identity gives the counts propagation
    does on every corpus diagram and on an 18-vertex tree with 3 chords."""
    graphs = family_corpus(14) + [("tree+3 chords", chorded_tree(18, 3, seed=301))]
    wants = []
    for _, d in graphs:
        want = np.empty(1 << len(d.free_vertices), dtype=np.int8)
        moves._propagated_counts(d, want)
        wants.append(want)
    monkeypatch.setattr(moves, "_propagated_counts", no_path)
    for (name, d), want in zip(graphs, wants):
        got = moves.component_counts(d)
        assert got.dtype == np.int8, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize(
    "d, path",
    [
        pytest.param(wheel(BOUND), "_propagated_counts", id="at-bound"),
        pytest.param(wheel(BOUND, {BOUND}), "_propagated_counts", id="at-bound-hub-pinned"),
        pytest.param(wheel(BOUND, {0, 3}), "_propagated_counts", id="at-bound-rim-pinned"),
        pytest.param(wheel(BOUND + 1), "_euler_counts", id="past-bound"),
        pytest.param(Diagram(6, [Edge(u, v) for u in range(6) for v in range(u + 1, 6)]),
                     "_euler_counts", id="K6"),
    ],
)
def test_component_counts_either_side_of_the_bound(d, path, monkeypatch):
    """The identity up to _CYCLE_RANK_BOUND independent cycles, propagation
    past it, each against the walker; path names the one that must not run."""
    monkeypatch.setattr(moves, path, no_path)
    check_component_counts(d)


def test_component_counts_peak():
    """int8 counts and one block's buffers: on a path, on the flower's
    high-degree centre, and with the cycle tally at 3 and at
    _CYCLE_RANK_BOUND independent cycles."""
    graphs = [fam("B:18"), fam("flower:17"), chorded_tree(18, 3, seed=0),
              chorded_tree(18, BOUND, seed=1)]
    for d in graphs:
        tracemalloc.start()
        try:
            counts = moves.component_counts(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.dtype == np.int8
        assert peak <= len(counts) + moves._COMPONENT_BLOCK_BYTES


def test_component_histograms_peak():
    """The int8 counts and the int64 key, beside the ranked class ids."""
    part = moves.enumerate_classes(fam("B:18"))
    part.rep_states  # ranks before tracing
    tracemalloc.start()
    try:
        part.component_histograms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 << 18


# -- enumeration -----------------------------------------------------------


def test_enumeration_matches_bfs_oracle(small_corpus):
    checked = 0
    for name, d in small_corpus:
        if len(d.free_vertices) > 9:
            continue
        part = moves.enumerate_classes(d)
        assert partition_as_sets(part) == set(oracle_classes(d)), name
        checked += 1
    assert checked >= 30


def test_enumeration_known_small_diagrams():
    g2 = moves.enumerate_classes(fam("G2:2"))
    assert partition_as_sets(g2) == {frozenset({0}), frozenset({1, 2, 3})}

    x1 = moves.enumerate_classes(fam("X:1"))
    assert sorted(int(s) for s in x1.sizes) == [1, 1, 2, 4]

    assert moves.enumerate_classes(fam("flower:4")).class_count == 9
    assert moves.enumerate_classes(fam("E6:6")).class_count == 3


def test_class_indexing_and_minimal_representatives():
    part = moves.enumerate_classes(fam("A:3"))
    reps = [part.minimal_representative(c) for c in range(part.class_count)]
    assert [r.bits for r in reps] == [0b000, 0b001, 0b101]
    # classes ordered by increasing representative integer; reps are
    # weight-minimal with integer tie-break
    d = part.diagram
    for c, rep in enumerate(reps):
        for s in part.members(c).tolist():
            member = moves.decode_state(d, s)
            assert (member.weight, member.bits) >= (rep.weight, rep.bits)
    with pytest.raises(IndexError):
        part.minimal_representative(part.class_count)


def test_partition_sanity(small_corpus):
    for name, d in small_corpus:
        if len(d.free_vertices) > 10:
            continue
        part = moves.enumerate_classes(d)
        assert int(part.sizes.sum()) == 1 << len(d.free_vertices), name
        singletons = {
            part.minimal_representative(c).bits
            for c in range(part.class_count)
            if int(part.sizes[c]) == 1
        }
        fixed = moves.fixed_states(d).tolist()
        assert singletons == {moves.decode_state(d, s).bits for s in fixed}, name
        for row in json.loads(part.to_json())["classes"]:
            assert row["is_singleton_fixed"] == (row["size"] == 1)
            assert sum(row["components"].values()) == row["size"]


def test_are_equivalent_and_class_of():
    d = fam("B:5")
    part = moves.enumerate_classes(d)
    a = d.labeling(0b00001)
    b = d.labeling(0b10001)
    assert moves.are_equivalent(d, a, b, part)
    assert moves.are_equivalent(d, a, b)  # BFS path
    assert part.class_of(a) == part.class_of(b)
    zero = d.labeling(0)
    assert not moves.are_equivalent(d, zero, a)


def test_shortest_moves():
    d = fam("B:5")
    a = d.labeling(0b00001)
    assert moves.shortest_moves(d, a, a) == []
    assert moves.shortest_moves(d, d.labeling(0), a) is None
    # a lit vertex moves one step per two moves; vertices are tried in
    # increasing order, so the first of the shortest sequences is returned
    witness = moves.shortest_moves(d, a, d.labeling(0b00100))
    assert witness == [1, 0, 2, 1]
    assert moves.apply_sequence(d, a, witness).bits == 0b00100


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 7), st.data())
def test_path_equivalence_iff_equal_components(n, data):
    d = fam(f"A:{n}")
    part = moves.enumerate_classes(d)
    a = Labeling(n, data.draw(st.integers(0, (1 << n) - 1)))
    b = Labeling(n, data.draw(st.integers(0, (1 << n) - 1)))
    same = d.count_components(a) == d.count_components(b)
    assert (part.class_of(a) == part.class_of(b)) == same


# -- caps ------------------------------------------------------------------


def test_resource_error_states_required_count():
    d = fam("A:8")
    with pytest.raises(ResourceError, match="256"):
        moves.enumerate_classes(d, cap=5)


def test_build_fails_before_allocating(monkeypatch):
    d = fam("A:12")
    need = _kernel.kernel_bytes(1 << 12, *moves._move_tables(d)[:2])  # no bit is deleted

    def no_kernel(*args):
        raise AssertionError("the kernel ran although memory is short")

    monkeypatch.setattr(moves._kernel, "orbit_roots", no_kernel)
    monkeypatch.setattr(moves, "available_memory", lambda: need - 1)
    with pytest.raises(ResourceError, match="MB"):
        moves.enumerate_classes(d)
    monkeypatch.undo()
    monkeypatch.setattr(moves, "available_memory", lambda: need)
    assert moves.enumerate_classes(d).class_count == 7


def e6_tree_key_ids(d, cap=None):
    """The classifier itself enumerates nothing under any cap or memory;
    its key_ids pass is the gated entry point."""
    pred = classifiers.e6_tree_classify(d, cap=cap)
    assert pred.class_count == 3  # E8:8
    return pred.key_ids(cap)


@pytest.mark.parametrize(
    "entry",
    [
        moves.enumerate_classes,
        sigma.enumerate_sigma_orbits,
        e6_tree_key_ids,
        sigma.orbit_bijection_check,  # E8:8 has det A = 1: both kernels and the map
    ],
    ids=["classes", "sigma", "e6-tree", "duality"],
)
def test_entry_points_share_state_gate(entry, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran although the gate refuses")

    monkeypatch.setattr(_kernel, "orbit_roots", no_kernel)
    d = fam("E8:8")
    with pytest.raises(ResourceError, match="8 free vertices exceed the cap of 7"):
        entry(d, cap=7)
    monkeypatch.setenv("REEDER_MAX_VERTICES", "7")
    with pytest.raises(ResourceError, match="cap of 7"):
        entry(d)
    monkeypatch.delenv("REEDER_MAX_VERTICES")
    monkeypatch.setattr(moves, "available_memory", lambda: 1 << 10)
    with pytest.raises(ResourceError, match="memory is available"):
        entry(d)


@pytest.mark.parametrize(
    "entry",
    [moves.enumerate_classes, sigma.enumerate_sigma_orbits, sigma.orbit_bijection_check],
    ids=["classes", "sigma", "duality"],
)
def test_cap_checked_before_anything_grows(entry, monkeypatch):
    """The move tables grow as f^2 bits and det A as n^2: each entry point
    refuses on the vertex count first, and never writes 2^f out."""
    def grows(*args, **kwargs):
        raise AssertionError("work that grows with the diagram ran before the cap")

    monkeypatch.setattr(moves, "_move_tables", grows)
    monkeypatch.setattr(F2Matrix, "rank", grows)
    d = Diagram(100000, [Edge(0, 1), Edge(1, 2)])
    with pytest.raises(ResourceError, match=r"100000 free vertices exceed the cap of 26: "
                                            r"would require 2\^100000 states"):
        entry(d, cap=26)


def test_fixed_states_match_brute_force():
    for name, d in family_corpus(14):
        free = d.free_vertices
        pinned = d.pinned_bits
        # every full labeling with the pins lit, in free-encoded order
        states = np.arange(1 << len(free), dtype=np.int64)
        full = np.full_like(states, pinned)
        for j, v in enumerate(free):
            full |= (states >> j & 1) << v
        fixed = np.ones(len(states), dtype=bool)
        for i in free:
            nbrs = sum(1 << k for k in d.effective_neighbors(i))
            fixed &= np.bitwise_count(full & nbrs) % 2 == 0
        got = moves.fixed_states(d)
        assert got.tolist() == np.flatnonzero(fixed).tolist(), name


@pytest.mark.parametrize("target", ["A:65", "Abox:70"])
def test_fixed_states_past_62_free_vertices(target):
    """Basis vectors and the particular solution reach bit 63 and past, so
    the states are Python ints, as encode_states gives them."""
    d = fam(target)
    m, _ = d.effective_system()
    states = moves.fixed_states(d)
    assert states.dtype == object
    assert len(states) == 1 << m.nullity()
    assert max(states).bit_length() > 63
    assert states.tolist() == sorted(set(states.tolist()))
    assert all(d.is_fixed(moves.decode_state(d, s)) for s in states)
    # a labeling one bit away from a fixed one is not fixed
    for s in states:
        assert not any(d.is_fixed(moves.decode_state(d, s ^ 1 << j))
                       for j in range(len(d.free_vertices)))


def test_fixed_states_fail_before_allocating(monkeypatch):
    import tracemalloc

    d = fam("flower:20")  # nullity 19: 2^19 int64 fixed states
    need = 8 << 19
    monkeypatch.setattr(moves, "available_memory", lambda: need - 1)
    tracemalloc.start()
    with pytest.raises(ResourceError, match="memory is available"):
        moves.fixed_states(d)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < need // 16
    with pytest.raises(ResourceError, match="nullity 19 exceeds the cap of 18"):
        moves.fixed_states(d, cap=18)
    monkeypatch.setattr(moves, "available_memory", lambda: need)
    assert len(moves.fixed_states(d)) == 1 << 19


def test_available_memory_sources(monkeypatch, tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal: 8000 kB\nMemAvailable: 2048 kB\n")
    monkeypatch.setattr(moves, "_MEMINFO", str(meminfo))
    assert moves.available_memory() == 2048 * 1024
    monkeypatch.setattr(moves, "_MEMINFO", str(tmp_path / "missing"))
    assert moves.available_memory() > 0  # sysconf fallback


def test_cap_precedence(monkeypatch):
    monkeypatch.delenv("REEDER_MAX_VERTICES", raising=False)
    assert moves.state_cap() == moves.DEFAULT_CAP
    monkeypatch.setenv("REEDER_MAX_VERTICES", "7")
    assert moves.state_cap() == 7
    assert moves.state_cap(12) == 12  # explicit argument wins
    monkeypatch.setenv("REEDER_MAX_VERTICES", "junk")
    with pytest.raises(DiagramError):
        moves.state_cap()
    # a negative cap is bad input (exit 2), from either source
    monkeypatch.setenv("REEDER_MAX_VERTICES", "-1")
    with pytest.raises(DiagramError, match=">= 0"):
        moves.state_cap()
    with pytest.raises(DiagramError, match=">= 0"):
        moves.state_cap(-1)


@pytest.mark.parametrize("env", ["\u0663", "1_0", "+3"])
def test_cap_env_reads_ascii_digits_only(monkeypatch, env):
    monkeypatch.setenv("REEDER_MAX_VERTICES", env)
    with pytest.raises(DiagramError, match="bad REEDER_MAX_VERTICES value"):
        moves.state_cap()


def test_env_cap_limits_enumeration(monkeypatch):
    monkeypatch.setenv("REEDER_MAX_VERTICES", "3")
    with pytest.raises(ResourceError):
        moves.enumerate_classes(fam("A:6"))
    assert moves.enumerate_classes(fam("A:6"), cap=10).class_count == 4


# -- exports ---------------------------------------------------------------


def test_csv_export():
    part = moves.enumerate_classes(fam("A:3"))
    lines = part.to_csv().splitlines()
    assert lines[0] == "class,size,min_representative,components,is_singleton_fixed"
    assert lines[1] == "0,1,000,0:1,1"
    assert len(lines) == 1 + part.class_count


def test_json_export():
    part = moves.enumerate_classes(fam("G2:2"))
    obj = json.loads(part.to_json())
    assert obj["class_count"] == 2
    assert obj["classes"][0] == {
        "size": 1,
        "min_representative": "00",
        "components": {"0": 1},
        "is_singleton_fixed": True,
    }


# -- rendering -------------------------------------------------------------
# The reference is the class table written one class at a time with the
# f-strings the byte-matrix renderer replaced; its labels come from
# decode_state, not from the renderer's character matrix.


def reference_labels(d, state, order=None, leads=False):
    """A state's labels in order, written a0;a1..an with leads."""
    bits = moves.decode_state(d, int(state)).bits
    text = "".join(str(bits >> v & 1) for v in (range(d.n_vertices) if order is None else order))
    return f"{text[0]};{text[1:]}" if leads else text


def reference_table(part, order=None, leads=False):
    """(text lines, --full lines, JSON object, CSV text) of a partition."""
    d = part.diagram
    text, full, classes = [], [], []
    csv = "class,size,min_representative,components,is_singleton_fixed\n"
    hists = part.component_histograms.tolist()
    for c, (size, rep, row) in enumerate(zip(part.sizes.tolist(), part.rep_states.tolist(), hists)):
        pairs = [(k, v) for k, v in enumerate(row) if v]
        hist = ";".join(f"{k}:{v}" for k, v in pairs)
        tag = " fixed" if size == 1 else ""
        text.append(f"{c} {size} {reference_labels(d, rep, order, leads)} {hist}{tag}")
        full += [text[-1]] + [f"  {reference_labels(d, m, order, leads)}"
                              for m in part.members(c).tolist()]
        csv += f"{c},{size},{reference_labels(d, rep)},{hist},{int(size == 1)}\n"
        classes.append({"size": size, "min_representative": reference_labels(d, rep),
                        "components": {str(k): v for k, v in pairs},
                        "is_singleton_fixed": size == 1})
    obj = {"n_vertices": d.n_vertices, "free_vertices": list(d.free_vertices),
           "class_count": part.class_count, "classes": classes}
    return text, full, obj, csv


def check_rendering(part, block, order=None, leads=False, reps=None):
    """Every rendering of part, at a block size, against the reference."""
    text, full, obj, csv = reference_table(part, order, leads)
    with mock.patch.object(moves, "_RENDER_BLOCK", block):
        assert part.to_json() == json.dumps(obj, indent=2)
        assert part.to_csv() == csv
        rendered = [(list(part.text_blocks(order, leads)), text),
                    (list(part.text_blocks(order, leads, full=True)), full)]
        if reps is not None:
            tags, states = reps
            ids = part.class_id_array()[states].tolist()
            rendered.append((list(part.rep_blocks(tags, states, order, leads)), [
                f"rep {tag} {reference_labels(part.diagram, s, order, leads)} -> class {c}"
                for tag, s, c in zip(tags, states.tolist(), ids)
            ]))
    for blocks, lines in rendered:
        # whole blocks of lines, each ending in its newline; only the last short
        assert [b.count("\n") for b in blocks] == [
            min(block, len(lines) - i) for i in range(0, len(lines), block)
        ]
        assert all(b.endswith("\n") for b in blocks)
        assert "".join(blocks) == "".join(line + "\n" for line in lines)


def digit_boundary_partition():
    """A hand-made partition of the edgeless 14-vertex diagram, whose states
    have as many components as lit vertices: the states with 7 lit vertices
    fall in classes of 1000, 999, 100, 99, 10, 9 and the rest, all other
    states in classes of one.  Sizes and counts meet every digit boundary."""
    states = np.arange(1 << 14)
    seven = states[np.bitwise_count(states) == 7]
    roots = states.copy()
    start = 0
    for size in (1000, 999, 100, 99, 10, 9, len(seven) - 2217):
        roots[seven[start : start + size]] = seven[start]  # its least state
        start += size
    return moves.ClassPartition(parse_dsl("vertices 14\n"), roots.astype(np.int32))


def test_digit_boundary_partition():
    part = digit_boundary_partition()
    sizes = set(part.sizes.tolist())
    assert {9, 10, 99, 100, 999, 1000} <= sizes
    assert {9, 10, 99, 100, 999, 1000} <= set(part.component_histograms[:, 7].tolist())


# every power-of-ten boundary up to 10^9, the largest class size at the
# default cap and the largest int32
DIGIT_VALUES = [0, *(10**e + d for e in range(1, 10) for d in (-1, 0)),
                1 << moves.DEFAULT_CAP, (1 << 31) - 1]


def test_digits_match_str():
    """Right-aligned digits, pad bytes (0) on the left, in a matrix as wide
    as the largest value: the values together, each alone, and none."""
    for values in [DIGIT_VALUES, *([v] for v in DIGIT_VALUES)]:
        width = len(str(max(values)))
        digits = moves._digits(np.array(values))
        assert digits.shape == (len(values), width)
        assert [row.tobytes() for row in digits] == [
            str(v).rjust(width, "\0").encode() for v in values
        ]
    assert moves._digits(np.array([], dtype=np.int64)).shape == (0, 1)


def test_rendering_memory_stays_per_block():
    """With the arrays of the class table cached, each rendering of
    flower:17 holds a block or two at a time: its joined JSON is 10.4 MB."""
    part = moves.enumerate_classes(fam("flower:17"))
    part.sizes, part.component_histograms, part.member_states, part._member_ends
    renders = [part.json_blocks, part.csv_blocks, part.text_blocks,
               lambda: part.text_blocks(full=True)]
    for render in renders:
        tracemalloc.start()
        try:
            for block in render():
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


SMALL_RENDER_TARGETS = {
    "all-pinned": "vertices 3\nedge 0 1\nedge 1 2 mult=3\npin 0\npin 1\npin 2\n",
    "no-vertices": "vertices 0\n",  # one class, its representative empty
}


@pytest.mark.parametrize("block", [moves._RENDER_BLOCK, 3, 1])
@pytest.mark.parametrize("target", ["all-pinned", "no-vertices", "affD:7", "Abox:6:ends=1"])
def test_renderer_matches_reference(target, block):
    if target in SMALL_RENDER_TARGETS:
        check_rendering(moves.enumerate_classes(parse_dsl(SMALL_RENDER_TARGETS[target])), block)
        return
    spec = families.parse_family(target)
    d = families.construct(spec)
    order, leads = families.display_layout(spec, d)
    rep_set = families.canonical_representatives(spec)
    reps = (rep_set.provenance, moves.encode_states(d, rep_set.bits))
    check_rendering(moves.enumerate_classes(d), block, order, leads, reps)


@pytest.mark.parametrize("block", [moves._RENDER_BLOCK, 1000])
@pytest.mark.parametrize("target", ["edgeless-12", "digit-boundaries"])
def test_renderer_matches_reference_on_many_classes(target, block):
    # 4096 classes with k up to 12, or 12959 classes whose sizes and counts
    # meet the digit boundaries; blocks of 1000 lines split the big classes
    if target == "edgeless-12":
        part = moves.enumerate_classes(parse_dsl("vertices 12\n"))
    else:
        part = digit_boundary_partition()
    check_rendering(part, block)


@settings(deadline=None, max_examples=60)
@given(dsl_graphs(max_vertices=7), st.sampled_from([moves._RENDER_BLOCK, 1, 2, 5]))
def test_renderer_matches_reference_on_random_graphs(d, block):
    check_rendering(moves.enumerate_classes(d), block)


def test_count_reads_no_ranking():
    for name, d in family_corpus(14):
        part = moves.enumerate_classes(d)
        count = part.class_count
        assert "_ranked" not in part.__dict__, name
        assert count == len(part.rep_states), name
        assert "_roots" not in part.__dict__, name  # released once ranked


def test_class_id_array_read_only():
    part = moves.enumerate_classes(fam("A:3"))
    arr = part.class_id_array()
    assert len(arr) == 8
    with pytest.raises(ValueError):
        arr[0] = 5


# -- product law (also exercised in acceptance) ----------------------------


def test_product_law_example():
    a = fam("A:3")
    b = fam("D:4")
    from reeder.diagram import disjoint_union

    u = moves.enumerate_classes(disjoint_union(a, b))
    ca = moves.enumerate_classes(a).class_count
    cb = moves.enumerate_classes(b).class_count
    assert u.class_count == ca * cb


# -- orbit kernels -----------------------------------------------------------


def check_reeder_kernels(d):
    """The kernel against the BFS oracle under the default mask threshold,
    with every move masked (0), and with every disjoint move on sub-views
    (above f)."""
    a, b, c = moves._move_tables(d)
    classes = [set(moves.encode_states(d, list(cls)).tolist()) for cls in oracle_classes(d)]
    f = len(d.free_vertices)
    for mask_bits in (_kernel._MASK_BITS, 0, f + 1):
        with mock.patch.object(_kernel, "_MASK_BITS", mask_bits):
            check_kernels(1 << f, a, b, c, classes)


@pytest.mark.parametrize(
    "target",
    [
        "A:1",  # f = 1: the label array is one axis
        "B:10",  # double edges; f >= 9 puts moves at bits >= 8
        "C:10",
        "X:4",
        "affD:9",
        "flower:9",  # the centre reads 9 bits, past the mask threshold
        "Abox:6:ends=1",  # pinned neighbors
        "Bbox_1:4",
    ],
)
def test_kernels_match_oracle(target):
    d = fam(target)
    check_reeder_kernels(d)
    if d.pinned:
        assert any(moves._move_tables(d)[2])  # pinned neighbors give c = 1


@pytest.mark.parametrize(
    "dsl, c",
    [
        pytest.param("vertices 3\nedge 0 1\n", 0, id="isolated"),
        pytest.param("vertices 4\nedge 0 1\nedge 2 3\npin 3\n", 1, id="pinned-neighbor"),
    ],
)
def test_kernels_match_oracle_on_empty_conditions(dsl, c):
    """A move whose condition reads no bit (a = 0) fires nowhere when c = 0
    and everywhere when c = 1."""
    d = parse_dsl(dsl)
    a, _, cs = moves._move_tables(d)
    assert (0, c) in zip(a, cs)
    check_reeder_kernels(d)


@settings(deadline=None, max_examples=40)
@given(dsl_graphs())
def test_kernels_match_oracle_on_random_graphs(d):
    check_reeder_kernels(d)


@settings(deadline=None, max_examples=40)
@given(dsl_graphs(), st.data())
def test_kernel_roots_do_not_depend_on_move_order(d, data):
    """The kernel's move order changes only how fast it closes the orbits."""
    a, b, c = moves._move_tables(d)
    order = data.draw(st.permutations(range(len(a))))
    shuffled = [[x[m] for m in order] for x in (a, b, c)]
    for threshold in (_kernel._SPLIT_STATES, 4):
        with split_kernel(threshold):
            want = _kernel.orbit_roots(1 << len(a), a, b, c)
            got = _kernel.orbit_roots(1 << len(a), *shuffled)
        assert np.array_equal(got, want), threshold


def kernel_counts(a, b, c) -> tuple[int, int, int]:
    """The sweeps, the pointer jumps and the pairs that the first hook sweep
    hooked, of one orbit_roots call."""
    propagate = _kernel._propagate
    counts = []

    def counted(label, parts):
        counts.append(propagate(label, parts))
        return counts[-1]

    with mock.patch.object(_kernel, "_propagate", counted):
        _kernel.orbit_roots(1 << len(a), a, b, c)
    return counts[0]


def kernel_sweeps(a, b, c) -> int:
    """The sweeps of one orbit_roots call."""
    return kernel_counts(a, b, c)[0]


@settings(deadline=None, max_examples=40)
@given(dsl_graphs())
def test_kernels_match_oracle_in_small_jump_blocks(d):
    """Jump blocks of at most 8 states: a round resolves many blocks in
    turn, and chains run inside a block and across blocks.  Every round
    reaches the same fixpoint in any blocks, so the sweeps do not change
    either."""
    a, b, c = moves._move_tables(d)
    for threshold in (_kernel._SPLIT_STATES, 4):
        with split_kernel(threshold):
            want = kernel_sweeps(a, b, c)
            with mock.patch.object(_kernel, "_GATHER_BLOCK", 8):
                assert kernel_sweeps(a, b, c) == want, threshold
    with mock.patch.object(_kernel, "_GATHER_BLOCK", 8):
        check_reeder_kernels(d)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 11), st.booleans(), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_pointer_jumps_reach_the_fixpoint(f, near, split, small, rng):
    """After a sweep that wrote, one round of pointer jumps leaves every
    label at the root of its chain, as label = label[label] repeated to a
    fixpoint does: on random forests with label[s] <= s whose chains step to
    nearby states (inside a jump block) or anywhere below (across blocks,
    and from the top half into the bottom half), in blocks of at most 8
    states or of the default size."""
    n = 1 << f
    label = np.array([0, 1, *(rng.randint(max(0, s - 3) if near else 0, s) for s in range(2, n))],
                     dtype=np.int32)
    # the one step joins states 0 and 1, and its first sweep writes
    step = (label[0:1], label[1:2], None)
    want = label.copy()
    want[1] = 0
    while not np.array_equal(want[want], want):
        want = want[want]
    with split_kernel(), mock.patch.object(_kernel, "_GATHER_BLOCK", 8 if small else _kernel._GATHER_BLOCK):
        assert _kernel._propagate(label, [[step], [], []] if split else [[step], []]) == (2, mock.ANY, 0)
    assert np.array_equal(label, want)


# most sweeps the kernel may take per family: the first sweep, from the top
# state bit down, leaves these families at most one sweep of work, and the
# last sweep only checks that nothing changes
MAX_SWEEPS = {
    **dict.fromkeys(("A", "B", "C", "D", "X", "Y", "Z", "affA", "affC",
                     "Abox_m", "Abox_1m", "Bbox_1", "Dbox_1"), 2),
    **dict.fromkeys(("affB", "affD", "flower"), 3),
}


@pytest.mark.parametrize("threshold", [_kernel._SPLIT_STATES, 4])
def test_kernel_sweeps_per_family(threshold):
    propagate = _kernel._propagate
    counts = []

    def counted(label, parts):
        counts.append(propagate(label, parts))
        return counts[-1]

    seen = set()
    with split_kernel(threshold), mock.patch.object(_kernel, "_propagate", counted):
        for name, d in family_corpus(14):
            family = name.split(":")[0]
            if family in MAX_SWEEPS:
                seen.add(family)
                a, b, c = moves._move_tables(d)
                _kernel.orbit_roots(1 << len(a), a, b, c)
                sweeps, jumps, _ = counts.pop()
                assert sweeps <= MAX_SWEEPS[family], (name, sweeps)
                # every sweep but the last is followed by 1 to f + 1 jumps
                assert sweeps - 1 <= jumps <= max(sweeps - 1, 0) * (len(a) + 1), (name, jumps)
    assert seen == set(MAX_SWEEPS)


def _sigma_tables(d):
    """The sigma moves: the Reeder move tables with a and b swapped."""
    b, a, c = moves._move_tables(d)
    return a, b, c


KERNEL_PEAK_CASES = [
    ("B:16", moves._move_tables),  # every move on sub-views
    ("flower:14", moves._move_tables),  # the centre is masked
    ("D:14", _sigma_tables),
    ("affD:15", _sigma_tables),  # the most hooks, about one per state
]


@pytest.mark.parametrize("target, tables", KERNEL_PEAK_CASES)
def test_kernel_peak_within_estimate(target, tables):
    d = fam(target)
    a, b, c = tables(d)
    n_states = 1 << len(d.free_vertices)
    tracemalloc.start()
    try:
        _kernel.orbit_roots(n_states, a, b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _kernel.kernel_bytes(n_states, a, b)


@pytest.mark.parametrize("target, tables", KERNEL_PEAK_CASES)
def test_split_kernel_peak_within_estimate(target, tables):
    with split_kernel():
        test_kernel_peak_within_estimate(target, tables)


@pytest.mark.parametrize("threshold", [_kernel._SPLIT_STATES, 4])
@pytest.mark.parametrize("target, tables", [("B:18", moves._move_tables), ("D:17", _sigma_tables)])
def test_kernel_peak_under_nine_bytes_per_state(target, tables, threshold):
    """One int32 label array, a half-size minimum buffer that the pointer
    jumps gather into, and blocks."""
    a, b, c = tables(fam(target))
    n_states = 1 << len(a)
    with split_kernel(threshold):
        tracemalloc.start()
        try:
            _kernel.orbit_roots(n_states, a, b, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= _kernel.kernel_bytes(n_states, a, b)
    assert peak < 9 * n_states


@pytest.mark.parametrize("threshold", [_kernel._SPLIT_STATES, 4])
def test_pointer_jumps_capped(threshold):
    """A gather that never settles raises past f + 1 gathers of one block,
    with no thread left behind."""
    a, b, c = moves._move_tables(fam("B:10"))

    def unsettled(src, indices, out=None, mode="raise"):
        np.copyto(out, indices ^ 1)  # every label moves on, in range
        return out

    threads = threading.active_count()
    with split_kernel(threshold), mock.patch.object(np, "take", unsettled):
        with pytest.raises(RuntimeError, match="after 11 pointer jumps"):
            _kernel.orbit_roots(1 << 10, a, b, c)
    assert threading.active_count() == threads


def sigma_corpus(max_vertices: int) -> list:
    """The sigma tables of family_corpus(max_vertices): its simply-laced,
    unpinned diagrams, each with its name."""
    return [(name, _sigma_tables(d)) for name, d in family_corpus(max_vertices)
            if d.is_simply_laced and not d.pinned]


def laid_out(tables):
    """Move tables in the layout that _layout picks for them."""
    layout = moves._layout(*tables)
    return tables if layout is None else layout[1]


def random_e6_tree_tables() -> list:
    """The move tables of 72 random 16-vertex E6 trees, each in its chosen
    layout."""
    return [laid_out(moves._move_tables(t)) for seed in (101, 102, 103)
            for t in classifiers.random_e6_trees(24, max_vertices=16, min_vertices=16, seed=seed)]


def test_kernel_sweep_totals():
    """Every round of pointer jumps reaches the same fixpoint however it gets
    there, so the totals of the sweeps and of the pairs that the first hook
    sweep hooks stay fixed: over family_corpus(14), over 72 random 16-vertex
    E6 trees, each in its chosen layout, and over the sigma tables of
    family_corpus(14).  In one part every tree closes in two sweeps, since
    the pairs that the first hook sweep kept, checked once its pointer jumps
    end, all agree.  Two parts hook only the pairs whose root lies in their
    own half, part 1 takes the minimum into both ends of the others, which
    the kept pairs do not cover, and the pairs that flip the top bit open
    each sweep, so their totals differ from one part's.  Keeping no pair
    (_KEEP_PAIRS = 0) sweeps until no pair differs, as the kernel did
    before it kept any: those totals are the full ones."""
    tables = [moves._move_tables(d) for _, d in family_corpus(14)]
    trees = random_e6_tree_tables()
    sigmas = [x for _, x in sigma_corpus(14)]
    assert len(trees) == 72 and len(sigmas) == 68
    for threshold, want, full, hooked in (
        (_kernel._SPLIT_STATES, [394, 144, 134], [433, 218, 237], [9881, 1044434, 61652]),
        (4, [412, 258, 206], [442, 258, 224], [9821, 609662, 36943]),
    ):
        with split_kernel(threshold):
            counts = [[kernel_counts(*x) for x in corpus] for corpus in (tables, trees, sigmas)]
            with mock.patch.object(_kernel, "_KEEP_PAIRS", 0):
                totals = [sum(kernel_sweeps(*x) for x in corpus) for corpus in (tables, trees, sigmas)]
        assert [sum(x[0] for x in corpus) for corpus in counts] == want, threshold
        assert [sum(x[2] for x in corpus) for corpus in counts] == hooked, threshold
        assert totals == full, threshold
        if threshold > 4:
            assert {x[0] for x in counts[1]} == {2}


def roots_digests(corpus) -> list[str]:
    """The sha256 of orbit_roots' result on each move table triple."""
    return [hashlib.sha256(_kernel.orbit_roots(1 << len(x[0]), *x).tobytes()).hexdigest()
            for x in corpus]


def criterion_5_tables() -> list:
    """The reduced tables that enumerate_classes closes, in its layout, for
    the 200 random E6 trees of acceptance criterion 5."""
    return [laid_out(moves._reduced_game(t).reduced)
            for t in classifiers.random_e6_trees(200, max_vertices=20, seed=12345)]


KEPT_PAIRS_CORPORA = {
    "family-corpus": lambda: [moves._move_tables(d) for _, d in family_corpus(14)],
    "sigma-corpus": lambda: [x for _, x in sigma_corpus(14)],
    "e6-trees-16": random_e6_tree_tables,
    "criterion-5-trees": criterion_5_tables,
    "perfbench-graphs": lambda: [laid_out(moves._reduced_game(perfbench_dsl_graph(seed)).reduced)
                                 for seed in range(1, 21)],
}


@pytest.mark.parametrize("corpus", list(KEPT_PAIRS_CORPORA))
def test_kept_pairs_stop_matches_full_sweeps(corpus):
    """Stopping once the pairs that the first hook sweep kept agree gives
    roots byte-identical to sweeping until no pair differs, which keeping
    no pair (_KEEP_PAIRS = 0) forces: in one part, and in two parts from 4
    states on."""
    tables = KEPT_PAIRS_CORPORA[corpus]()
    for threshold in (_kernel._SPLIT_STATES, 4):
        with split_kernel(threshold):
            got = roots_digests(tables)
            with mock.patch.object(_kernel, "_KEEP_PAIRS", 0):
                assert roots_digests(tables) == got, threshold


def test_kept_pairs_compact_or_give_up_sweeps():
    """The first hook sweep of the sigma tables of D:8 hooks 77 pairs, 8 of
    them distinct.  With room for 16, the kept pairs compact each time they
    fill and the closure still stops after two sweeps; with room for 8,
    compaction leaves less than half of it free, the sweep gives them up,
    and the kernel sweeps on as when it keeps no pair.  The roots are the
    same each time."""
    a, b, c = _sigma_tables(fam("D:8"))
    with mock.patch.object(_kernel, "_KEEP_PAIRS", 0):
        full = kernel_counts(a, b, c)
        want = roots_digests([(a, b, c)])
    assert full[0] == 4 and full[2] == 77
    with mock.patch.object(_kernel, "_KEEP_PAIRS", 16):
        assert kernel_counts(a, b, c)[::2] == (2, 77)
        assert roots_digests([(a, b, c)]) == want
    with mock.patch.object(_kernel, "_KEEP_PAIRS", 8):
        assert kernel_counts(a, b, c) == full
        assert roots_digests([(a, b, c)]) == want


@settings(deadline=None, max_examples=40)
@given(dsl_graphs(), st.integers(1, 6))
def test_few_kept_pairs_match_full_sweeps_on_random_graphs(d, capacity):
    """Room for a few kept pairs: they compact when they fill, and the first
    hook sweep gives them up mid-sweep once compaction leaves less than half
    of the room free.  Either way the roots of the Reeder tables and of the
    swapped ones with c = 0 are those of plain BFS, in one part and in two."""
    a, b, c = moves._move_tables(d)
    for tables in ((a, b, c), (b, a, [0] * len(a))):
        classes = oracle_table_classes(*tables)
        with mock.patch.object(_kernel, "_KEEP_PAIRS", capacity):
            check_kernels(1 << len(a), *tables, classes)


def test_split_kernel_sigma_orbits_match_reeder_classes():
    """The sigma moves of an unpinned simply-laced diagram are the
    transposes of its Reeder moves, and a group of GF(2) matrices has as
    many orbits as its image under g -> (g^-1)^t (by Burnside's lemma, since
    g - 1 and its transpose have one rank), invertible A or not.  So the
    sigma roots number the Reeder classes on every diagram of
    sigma_corpus(14), in one part and in two."""
    diagrams = [(name, d) for name, d in family_corpus(14) if d.is_simply_laced and not d.pinned]
    assert any(d.adjacency_matrix().det() == 0 for _, d in diagrams)
    for threshold in (_kernel._SPLIT_STATES, 4):
        with split_kernel(threshold):
            for name, d in diagrams:
                orbits = _kernel.orbit_count(sigma.enumerate_sigma_orbits(d))
                assert orbits == moves.enumerate_classes(d).class_count, (name, threshold)


# most sweeps the kernel may take per family on the sigma tables: a hook
# round joins whole classes, however far apart their members lie
MAX_SIGMA_SWEEPS = {
    **dict.fromkeys(("G2", "affG2", "D4_3"), 3),
    **dict.fromkeys(("A", "flower", "affE6"), 4),
    **dict.fromkeys(("affA", "D", "affD", "E6", "E7", "E8", "affE7", "affE8"), 5),
}


@pytest.mark.parametrize("threshold", [_kernel._SPLIT_STATES, 4])
def test_sigma_sweeps_per_family(threshold):
    seen = set()
    with split_kernel(threshold):
        for name, tables in sigma_corpus(14):
            family = name.split(":")[0]
            seen.add(family)
            assert kernel_sweeps(*tables) <= MAX_SIGMA_SWEEPS[family], name
    assert seen == set(MAX_SIGMA_SWEEPS)


def pinned_y18_swapped():
    """The Reeder tables of Y:18 with vertex 0 pinned, a and b swapped and c
    set to 0."""
    d = fam("Y:18")
    b, a, c = moves._move_tables(Diagram(d.n_vertices, list(d.edges), pinned={0}))
    return a, b, [0] * len(a)


@pytest.mark.parametrize("threshold", [_kernel._SPLIT_STATES, 4])
@pytest.mark.parametrize("target",
                         ["D:17", "D:19", "affD:15", "affA:16", "Y:18 pinned at 0, swapped"])
def test_slow_sigma_tables_close_in_six_sweeps(target, threshold):
    """The tables on which a Gauss-Seidel write took 13 to 21 sweeps: the
    sigma moves of odd D, affD and affA, and the swapped tables of a pinned
    Y.  Hooks close them in at most 5, in one part and in two."""
    tables = pinned_y18_swapped() if target.startswith("Y") else _sigma_tables(fam(target))
    with split_kernel(threshold):
        assert kernel_sweeps(*tables) <= 5


def oracle_table_classes(a, b, c) -> list[set[int]]:
    """Orbits of the transvections s -> s ^ ((parity(s & a) ^ c) * b), by
    plain set BFS over every state."""
    n_states = 1 << len(a)
    unseen = set(range(n_states))
    classes = []
    while unseen:
        start = min(unseen)
        orbit = {start}
        frontier = [start]
        while frontier:
            s = frontier.pop()
            for am, bm, cm in zip(a, b, c):
                t = s ^ (((s & am).bit_count() & 1 ^ cm) * bm)
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        classes.append(orbit)
        unseen -= orbit
    return classes


@settings(deadline=None, max_examples=40)
@given(dsl_graphs())
def test_hooks_match_oracle_on_random_graphs(d):
    """The Reeder tables and the swapped ones, with their c and with c = 0,
    against plain BFS: in one part, in two, in jump (and so hook) blocks of
    at most 8 states, and with every move masked, so that hooks skip the
    states a move does not pair."""
    a, b, c = moves._move_tables(d)
    zeros = [0] * len(a)
    for tables in ((a, b, c), (b, a, c), (b, a, zeros)):
        classes = oracle_table_classes(*tables)
        check_kernels(1 << len(a), *tables, classes)
        with mock.patch.object(_kernel, "_GATHER_BLOCK", 8):
            check_kernels(1 << len(a), *tables, classes)
        with mock.patch.object(_kernel, "_MASK_BITS", 0):
            check_kernels(1 << len(a), *tables, classes)


def test_hooks_repeat_in_two_parts():
    """Two parts write disjoint labels between joins, so three runs give
    the same roots, sweeps and jumps: on the sigma tables of D:12, and on
    the Reeder tables of a pinned 12-vertex graph with chords and a double
    edge."""
    graph = parse_dsl("vertices 12\n" + "".join(f"edge {i} {i + 1}\n" for i in range(11))
                      + "edge 0 5\nedge 3 9\nedge 6 11 mult=2 dir=11>6\npin 4\n")
    propagate = _kernel._propagate
    for a, b, c in (_sigma_tables(fam("D:12")), moves._move_tables(graph)):
        runs = []

        def counted(label, parts):
            counts = propagate(label, parts)
            runs.append((label.tobytes(), counts))
            return counts

        with split_kernel(), mock.patch.object(_kernel, "_propagate", counted):
            for _ in range(3):
                _kernel.orbit_roots(1 << len(a), a, b, c)
        assert len(runs) == 3 and runs[0][1][0] > 2
        assert runs[1] == runs[0] and runs[2] == runs[0]


class Watched:
    """Thread pools that count how many are built, the sweeps submitted to
    them and the caller's joins, patched in by watch().  `alone` holds in
    the thread that built the pool while every sweep submitted to it is
    joined: there the kernel may run its pointer jumps and joined steps."""

    def __init__(self):
        self.built = self.submitted = self.joins = 0
        self.caller = None

    @property
    def alone(self) -> bool:
        return threading.get_ident() == self.caller and self.joins == self.submitted

    @contextlib.contextmanager
    def watch(self):
        watched = self

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                watched.built += 1
                watched.caller = threading.get_ident()
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                watched.submitted += 1
                future = super().submit(fn, *args, **kwargs)
                result = future.result

                def joined(timeout=None):
                    try:
                        return result(timeout)
                    finally:
                        watched.joins += 1

                future.result = joined
                return future

        with mock.patch.object(concurrent.futures, "ThreadPoolExecutor", Pool):
            yield self


def test_split_kernel_hooks_only_its_own_roots():
    """While a part sweeps, each part's scatter-min writes only labels of
    its own half, so the parts never write one label while both sweep; the
    joined steps, which run in the caller once every part is joined, hook
    any root.  On the sigma tables of D:12 and of affD:9, whose moves at the
    top vertex's neighbors flip the top bit, and on the Reeder tables of
    affD:12, where part 1 hooks roots of its own half."""
    minimum = np.minimum
    caller = threading.current_thread()
    watched = Watched()
    targets = collections.defaultdict(list)
    hooked = collections.Counter()

    class Recorded:
        def __call__(self, *args, **kwargs):
            return minimum(*args, **kwargs)

        def at(self, a, indices, values):
            key = "joined" if watched.alone else threading.current_thread() is caller
            targets[key].append(indices.copy())
            return minimum.at(a, indices, values)

    for target, tables in (("D:12", _sigma_tables), ("affD:9", _sigma_tables),
                           ("affD:12", moves._move_tables)):
        a, b, c = tables(fam(target))
        half = 1 << (len(a) - 1)
        targets.clear()
        with watched.watch(), split_kernel(), mock.patch.object(np, "minimum", Recorded()):
            _kernel.orbit_roots(1 << len(a), a, b, c)
        mine, theirs, joined = (np.concatenate([np.empty(0, np.intp), *targets[key]])
                                for key in (True, False, "joined"))
        assert np.all(mine < half), target
        assert np.all(theirs >= half), target
        hooked.update({"part 0": mine.size, "part 1": theirs.size, "joined": joined.size})
    assert all(hooked[key] for key in ("part 0", "part 1", "joined")), hooked


def test_one_cpu_starts_no_thread():
    """A process allowed one CPU runs the kernel in one part, with the same
    roots, and builds no pool and starts no thread."""
    d = fam("B:10")
    a, b, c = moves._move_tables(d)
    want = _kernel.orbit_roots(1 << 10, a, b, c)
    watched = Watched()
    with watched.watch(), split_kernel(), \
            mock.patch.object(_kernel.os, "sched_getaffinity", lambda pid: {0}), \
            mock.patch.object(threading, "Thread", side_effect=AssertionError("a thread")):
        assert np.array_equal(_kernel.orbit_roots(1 << 10, a, b, c), want)
    assert watched.built == 0


def raised_in_caller(a, b, c, name: str, failing) -> list:
    """The MemoryErrors that orbit_roots raised in its caller, a thread of
    its own, while np.<name> raised one in each thread where failing() holds
    (it is handed the caller thread); checks that no thread is left."""
    ufunc = getattr(np, name)
    caller = []
    raised = []

    class Failing:
        def __call__(self, *args, **kwargs):
            if failing(caller[0]):
                raise MemoryError("injected")
            return ufunc(*args, **kwargs)

        def __getattr__(self, name):  # a ufunc's .at, say
            return getattr(ufunc, name)

    def call():
        caller.append(threading.current_thread())
        try:
            _kernel.orbit_roots(1 << len(a), a, b, c)
        except MemoryError as exc:
            raised.append(exc)

    threads = threading.active_count()
    with split_kernel(), mock.patch.object(np, name, Failing()):
        worker = threading.Thread(target=call)
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert threading.active_count() == threads
    return [str(exc) for exc in raised]


@pytest.mark.parametrize("failing_part", [0, 1])
def test_split_kernel_error_reaches_caller(failing_part):
    """An error in either part's sweep is raised in the caller once the
    other part's sweep ends, with no thread left behind."""
    a, b, c = moves._move_tables(fam("B:10"))

    def failing(caller):
        return (threading.current_thread() is caller) == (failing_part == 0)

    assert raised_in_caller(a, b, c, "minimum", failing) == ["injected"]


def test_split_kernel_jump_error_reaches_caller():
    """An error in the round of pointer jumps, which runs in the caller once
    part 1's sweep is joined, is raised in the caller, with no thread left
    behind."""
    a, b, c = moves._move_tables(fam("B:10"))
    assert raised_in_caller(a, b, c, "take", lambda caller: True) == ["injected"]


def test_split_kernel_joined_step_error_reaches_caller():
    """An error in a joined step, which from the second sweep on runs in the
    caller once part 1's sweep is joined, is raised in the caller, with no
    thread left behind: on the sigma tables of D:12, whose joined steps
    hook."""
    a, b, c = _sigma_tables(fam("D:12"))
    watched = Watched()

    def failing(caller):
        return watched.alone and watched.submitted > 0

    with watched.watch():
        assert raised_in_caller(a, b, c, "minimum", failing) == ["injected"]


def test_split_kernel_one_join_per_sweep():
    """A two-part call builds one pool, submits part 1's sweep to it once
    per sweep and joins each.  The pointer jumps run only while every sweep
    is joined, and so do the joined steps: those that open the first sweep
    before any sweep is submitted, and later ones after a join."""
    a, b, c = moves._move_tables(fam("B:10"))
    watched = Watched()
    calls = []  # (ufunc, first argument, alone, before any submit)

    def recorded(name):
        ufunc = getattr(np, name)

        def call(*args, **kwargs):
            calls.append((name, args[0], watched.alone, not watched.submitted))
            return ufunc(*args, **kwargs)

        return call

    propagate = _kernel._propagate
    runs = []

    def counted(label, parts):
        runs.append((propagate(label, parts), parts))
        return runs[-1][0]

    with watched.watch(), split_kernel(), mock.patch.object(_kernel, "_propagate", counted), \
            mock.patch.multiple(np, take=recorded("take"), minimum=recorded("minimum"),
                                not_equal=recorded("not_equal")):
        _kernel.orbit_roots(1 << 10, a, b, c)
    [((sweeps, jumps, _), parts)] = runs
    joined = parts[-1]
    assert sweeps == 2 and jumps > 0 and joined
    assert watched.built == 1
    assert watched.submitted == watched.joins == sweeps
    assert all(alone for name, _, alone, _ in calls if name == "take")
    on_joined = [(alone, before) for name, x, alone, before in calls
                 if name != "take" and any(x is step[0] for step in joined)]
    # the joined steps' writes open the first sweep, and their comparisons
    # the second
    assert set(on_joined) == {(True, True), (True, False)}


def test_split_kernel_under_thread_contention():
    """Four callers at once, eight parts on this machine's cores, switching
    threads every microsecond: a race between the parts shows as a wrong root.
    The sigma moves of flower:9 give nine moves that flip the top bit."""
    tables = [moves._move_tables(fam(t)) for t in ("B:10", "flower:9", "affD:9")]
    tables.append(_sigma_tables(fam("flower:9")))
    want = [_kernel.orbit_roots(1 << len(a), a, b, c) for a, b, c in tables]
    got = [[] for _ in tables]

    def call(i):
        a, b, c = tables[i]
        for _ in range(5):
            got[i].append(_kernel.orbit_roots(1 << len(a), a, b, c))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with split_kernel():
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(tables))]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    for roots, runs in zip(want, got):
        assert len(runs) == 5
        assert all(np.array_equal(r, roots) for r in runs)


def relabeled_tree(n: int) -> Diagram:
    """An n-vertex E6 tree numbered by Pruefer decoding, which the kernel
    runs in a traversal layout, not in index order."""
    d = next(classifiers.random_e6_trees(1, max_vertices=n, min_vertices=n, seed=3))
    assert moves._layout(*moves._move_tables(d)) is not None
    return d


# few and many classes, and class ids transposed back from another layout
@pytest.mark.parametrize("target", ["B:16", "flower:14", "E6-tree:16"])
def test_ranking_peak_within_estimate(target):
    d = relabeled_tree(16) if target == "E6-tree:16" else fam(target)
    part = moves.enumerate_classes(d)
    n_states = 1 << len(part.diagram.free_vertices)
    tracemalloc.start()
    try:
        part.rep_states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= moves._RANK_BYTES_PER_STATE * n_states


def test_ranking_peak_within_class_charge():
    """Every state its own class: the per-class arrays are charged once the
    class count is known."""
    part = moves.enumerate_classes(parse_dsl("vertices 14"))
    n_states = 1 << 14
    assert part.class_count == n_states
    tracemalloc.start()
    try:
        part.rep_states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= moves._RANK_BYTES_PER_STATE * n_states + moves._RANK_BYTES_PER_CLASS * n_states


def test_ranking_fails_before_allocating(monkeypatch):
    part = moves.enumerate_classes(parse_dsl("vertices 14"))
    n_states = 1 << 14
    need = (moves._RANK_BYTES_PER_STATE + moves._RANK_BYTES_PER_CLASS) * n_states
    monkeypatch.setattr(moves, "available_memory", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="memory is available"):
            part.rep_states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_states  # not one byte per state
    monkeypatch.setattr(moves, "available_memory", lambda: need)
    assert len(part.rep_states) == n_states


def test_ranking_keeps_the_callers_cap(monkeypatch):
    part = moves.enumerate_classes(fam("A:12"), cap=12)
    monkeypatch.setenv("REEDER_MAX_VERTICES", "4")  # would refuse 12 free vertices
    assert len(part.rep_states) == 7


def test_kernel_refuses_states_past_int32_labels():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="int32"):
            _kernel.orbit_roots(1 << 32, [0], [0], [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_kernel_rejects_odd_overlap():
    # a & b = 0b01 has odd parity: the move is not an involution
    with pytest.raises(DiagramError, match="parity"):
        _kernel.orbit_roots(4, [0b11], [0b01], [0])
    # even overlap is allowed: parity(s & 0b111) reads the same at s ^ 0b011
    odd = [s for s in range(8) if bin(s).count("1") % 2]
    classes = [{1, 2}, {4, 7}] + [{s} for s in range(8) if s not in odd]
    # a & b != 0 keeps the move masked even when any width goes on sub-views
    with mock.patch.object(_kernel, "_MASK_BITS", 4):
        assert _kernel._masked(0b111, 0b011)
        check_kernels(8, [0b111], [0b011], [0], classes)


# -- bit layout --------------------------------------------------------------


def index_layout():
    """Run enumerate_classes' kernel in index order whatever the diagram."""
    return mock.patch.object(moves, "_layout", lambda a, b, c: None)


def test_families_keep_index_layout():
    """Every family is numbered in a connected-prefix order, or a traversal
    order would add strided runs (the flower), and so is its reduced game, so
    its roots are the index-order kernel's on the reduced tables, byte for
    byte."""
    for name, d in family_corpus(14):
        a, b, c = moves._move_tables(d)
        assert moves._layout(a, b, c) is None, name
        game = moves._reduced_game(d)
        assert moves._layout(*game.reduced) is None, name
        part = moves.enumerate_classes(d)
        assert (part._lift is None) == (not game.deleted), name
        want = _kernel.orbit_roots(1 << len(game.kept), *game.reduced)
        assert part._roots.tobytes() == want.tobytes(), name


def test_layout_rule_on_small_diagrams():
    # the path 0-2-1-3: bit 1 has no lower neighbour, so the tree is laid
    # out in postorder from the end farthest from bit 0, that end on the top
    # bit, and its views fix higher bits
    d = parse_dsl("vertices 4\nedge 0 2\nedge 2 1\nedge 1 3\n")
    a, b, c = moves._move_tables(d)
    order, tables = moves._layout(a, b, c)
    assert order == [0, 2, 1, 3]
    assert tables == moves._relabeled(order, a, b, c)
    assert moves._strided_runs(a, b, c) == 8 + 4 + 8 + 4
    assert moves._strided_runs(*tables) == 8 + 8 + 4 + 2
    # the path 1-2-0 fails the prefix test too, but its postorder lowers no
    # run count
    d = parse_dsl("vertices 3\nedge 1 2\nedge 0 2\n")
    a, b, c = moves._move_tables(d)
    assert moves._strided_runs(*moves._relabeled([0, 2, 1], a, b, c)) \
        == moves._strided_runs(a, b, c) == 4 + 2 + 4
    assert moves._layout(a, b, c) is None
    # DFS would fix a low bit for the flower's masked centre: index order stays
    d = fam("flower:17")
    a, b, c = moves._move_tables(d)
    order = [0, 17, *range(1, 17)]  # the DFS preorder
    assert (moves._strided_runs(a, b, c), moves._strided_runs(*moves._relabeled(order, a, b, c))) \
        == ((1 << 18) - 1, 19 << 16)
    assert moves._layout(a, b, c) is None


def kernel_order(part):
    """The free bits that a partition's kernel closed, in its layout."""
    if part._lift is None:
        return list(range(len(part.diagram.free_vertices)))
    k = len(part._roots).bit_length() - 1
    return [x.bit_length() - 1 for x in part._lift.basis[:k]]


def check_layout_invisible(d):
    """The partition read through every public array and export is the same
    whether the kernel ran in the chosen layout or in index order."""
    got = moves.enumerate_classes(d)
    with index_layout():
        want = moves.enumerate_classes(d)
    assert kernel_order(want) == sorted(kernel_order(want))
    assert got.class_count == want.class_count
    for read in (lambda p: p.class_id_array(), lambda p: p.rep_states, lambda p: p.sizes,
                 lambda p: p.component_histograms, lambda p: p.member_states):
        assert np.array_equal(read(got), read(want))
    assert got.to_json() == want.to_json()


@settings(deadline=None, max_examples=60)
@given(dsl_graphs())
def test_layout_invisible_on_random_graphs(d):
    check_layout_invisible(d)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_layout_invisible_on_relabeled_trees(n):
    d = relabeled_tree(n)
    assert moves._layout(*moves._reduced_game(d).reduced) is not None
    check_layout_invisible(d)


def test_layout_postorder_on_spider():
    """A spider numbered out of prefix order: centre 2, legs 2-5-0-7, 2-6-1,
    2-3 and 2-4.  The end farthest from bit 0 is 1; hung from it, the tree is
    laid out in postorder, heaviest subtree first, so the leg 5-0-7 takes
    the bottom bits, the equal legs 4 and 3 go larger bit first, and 1 takes
    the top bit."""
    edges = ((2, 5), (0, 5), (0, 7), (2, 6), (1, 6), (2, 3), (2, 4))
    d = Diagram(8, [Edge(u, v) for u, v in edges])
    a, b, c = moves._move_tables(d)
    order, tables = moves._layout(a, b, c)
    assert order == [7, 0, 5, 4, 3, 2, 6, 1]
    assert tables == moves._relabeled(order, a, b, c)
    assert (moves._strided_runs(a, b, c), moves._strided_runs(*tables)) == (608, 382)
    check_layout_invisible(d)


# forests numbered out of prefix order; the pinned leaf 7 gives its
# neighbour a pinned parity
TWO_TREES = ("vertices 10\nedge 3 7\nedge 0 7\nedge 7 9\nedge 5 9\n"
             "edge 1 4\nedge 1 8\nedge 2 8\nedge 6 8\n")
THREE_TREES = ("vertices 13\nedge 0 9\nedge 9 4\nedge 4 12\nedge 9 6\n"
               "edge 2 10\nedge 10 7\nedge 10 5\nedge 5 1\nedge 3 8\nedge 8 11\npin 7\n")


@pytest.mark.parametrize("text", [pytest.param(TWO_TREES, id="two-trees"),
                                  pytest.param(THREE_TREES, id="three-trees-pinned-leaf")])
def test_layout_invisible_on_forests(text):
    d = parse_dsl(text)
    assert moves._layout(*moves._move_tables(d)) is not None
    check_layout_invisible(d)


def test_layout_keeps_preorder_on_chorded_tree():
    """A graph with a cycle keeps the DFS preorder from the far end, children
    in increasing bit order."""
    d = chorded_tree(10, 2, seed=0)
    a, b, c = moves._move_tables(d)
    order, tables = moves._layout(a, b, c)
    assert order == [4, 6, 5, 2, 3, 0, 7, 8, 1, 9]
    assert tables == moves._relabeled(order, a, b, c)


@pytest.mark.parametrize("target", ["E6-tree:12", "E6-tree:16", "three-trees-pinned-leaf"])
def test_split_kernel_in_postorder_layout(target):
    """The two-part kernel, from 4 states on, in a tree's postorder layout:
    the far end's bit is the top bit, which the parts split on."""
    d = parse_dsl(THREE_TREES) if target == "three-trees-pinned-leaf" \
        else relabeled_tree(int(target.split(":")[1]))
    with split_kernel(4):
        check_layout_invisible(d)


def test_layout_lowers_sweeps_on_criterion_5_trees():
    """The 200 random E6 trees of acceptance criterion 5 take fewer kernel
    sweeps, and their first hook sweeps hook fewer pairs, in the chosen
    layout than in index order; the counts depend only on the move tables,
    so the totals are deterministic."""
    propagate = _kernel._propagate
    runs = []

    def counted(label, parts):
        runs.append(propagate(label, parts))
        return runs[-1]

    trees = list(classifiers.random_e6_trees(200, max_vertices=20, seed=12345))
    sweeps, hooked = [], []
    with mock.patch.object(_kernel, "_propagate", counted):
        for layout in (contextlib.nullcontext(), index_layout()):
            with layout:
                counts = [moves.enumerate_classes(t).class_count for t in trees]
            sweeps.append(sum(run[0] for run in runs))
            hooked.append(sum(run[2] for run in runs))
            runs.clear()
            assert counts == [(1 << t.adjacency_matrix().nullity()) + 2 for t in trees]
    assert sweeps[0] < sweeps[1], sweeps
    assert hooked[0] < hooked[1], hooked


# -- class count on the reduced game -----------------------------------------


def deletable(d):
    a, _, c = moves._move_tables(d)
    return moves._deletable(a, c)


def full_closure_count(d):
    """The class count of the kernel over all 2^f states, in index order."""
    a, b, c = moves._move_tables(d)
    return _kernel.orbit_count(_kernel.orbit_roots(1 << len(a), a, b, c))


@pytest.mark.parametrize("threshold", [_kernel._SPLIT_STATES, 4])
def test_count_classes_matches_enumeration_on_corpus(threshold):
    for name, d in family_corpus(14):
        want = full_closure_count(d)
        with split_kernel(threshold):
            assert moves.enumerate_classes(d).class_count == want, name
        if len(d.free_vertices) <= 8:
            assert want == len(oracle_classes(d)), name


@settings(deadline=None, max_examples=80)
@given(dsl_graphs())
def test_count_classes_matches_enumeration_on_random_graphs(d):
    count = moves.enumerate_classes(d).class_count
    assert count == full_closure_count(d)
    if len(d.free_vertices) <= 7:
        assert count == len(oracle_classes(d))


def test_count_classes_matches_enumeration_on_random_trees():
    import random

    for t in classifiers._random_e6_trees(200, 6, 14, random.Random(20261020)):
        assert moves.enumerate_classes(t).class_count == full_closure_count(t)


@pytest.mark.parametrize("targets, size", [
    ([f"B:{n}" for n in range(2, 21)] + [f"X:{n}" for n in range(1, 21)], 1),
    ([f"D:{n}" for n in range(5, 21)] + ["A:3"], 1),  # A:3's two ends are twins
    (["D:4"] + [f"affD:{n}" for n in range(5, 21)], 2),
    ([f"C:{n}" for n in range(3, 21)] + [f"A:{n}" for n in range(4, 21)], 0),
])
def test_deletable_on_families(targets, size):
    for target in targets:
        assert len(deletable(fam(target))) == size, target


def test_flower_closes_four_states(monkeypatch):
    for d in range(1, 21):
        assert len(deletable(fam(f"flower:{d}"))) == d - 1
    closed = []
    orbit_roots = _kernel.orbit_roots
    monkeypatch.setattr(_kernel, "orbit_roots", lambda n, *t: closed.append(n) or orbit_roots(n, *t))
    assert moves.enumerate_classes(fam("flower:19")).class_count == (1 << 18) + 1
    assert closed == [4]


def test_equal_rows_read_by_different_moves_are_not_clones(monkeypatch):
    """Bits 0 and 1 both read only bit 2, but the doubled edge 1 > 3 lets bit
    3 read bit 1 and not bit 0: translating by e_0 + e_1 changes bit 3's
    condition, so deleting bit 1 as a clone of 0 would miscount."""
    d = parse_dsl("vertices 5\nedge 0 2\nedge 1 2\nedge 1 3 mult=2 dir=1>3\nedge 3 4\n")
    a, _, c = moves._move_tables(d)
    assert (a[0], c[0]) == (a[1], c[1])
    assert deletable(d) == []
    assert moves.enumerate_classes(d).class_count == full_closure_count(d) == len(oracle_classes(d)) == 5
    monkeypatch.setattr(moves, "_deletable", lambda a, c: [1])
    assert moves.enumerate_classes(d).class_count != 5


@pytest.mark.parametrize("target", ["B:16", "X:14", "affD:15", "flower:14", "A:14"])
def test_count_classes_peak_within_its_charge(target, monkeypatch):
    """The reduced closure and the firing pass stay within what the gate
    charges, and that within the closure over all 2^f states that census
    charges its top."""
    d = fam(target)
    needs = []
    require = moves.require_states
    monkeypatch.setattr(moves, "require_states",
                        lambda f, need, *args: needs.append(need) or require(f, need, *args))
    tracemalloc.start()
    try:
        moves.enumerate_classes(d).class_count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [need] = needs
    assert peak <= need <= moves.closure_bytes(d)


def test_count_classes_fails_before_allocating(monkeypatch):
    d = fam("B:12")
    a, b, c = moves._move_tables(d)
    kept = [j for j in range(len(a)) if j not in moves._deletable(a, c)]
    reduced = moves._relabeled(kept, a, b, c)
    need = _kernel.kernel_bytes(1 << 11, *reduced[:2]) + 2 * (1 << 11)  # and the firing pass

    def no_kernel(*args):
        raise AssertionError("the kernel ran although memory is short")

    monkeypatch.setattr(_kernel, "orbit_roots", no_kernel)
    monkeypatch.setattr(moves, "available_memory", lambda: need - 1)
    with pytest.raises(ResourceError, match="enumerating 4096 states"):
        moves.enumerate_classes(d)
    with pytest.raises(ResourceError, match="12 free vertices exceed the cap of 11"):
        moves.enumerate_classes(d, cap=11)  # the cap reads f, not the reduced bits
    monkeypatch.undo()
    monkeypatch.setattr(moves, "available_memory", lambda: need)
    assert moves.enumerate_classes(d).class_count \
        == families.closed_form_count(families.parse_family("B:12"))


# -- class ids lifted from the reduced game ----------------------------------


def partition_digests(part):
    """sha256 of the count and of every array a partition's reader sees."""
    reads = [np.int64(part.class_count), part.class_id_array(), part.rep_states, part.sizes,
             part.component_histograms, part.member_states]
    return [hashlib.sha256(str(x.dtype).encode() + np.ascontiguousarray(x).tobytes()).hexdigest()
            for x in reads]


def check_lift_matches_full_closure(d):
    """The lifted partition against the partition of the kernel over all 2^f
    states in index order, in one part and with the two-part split from 4
    states on; and the member the lift gives each position, whose state is
    the XOR of the basis states at its bits, in that position's class."""
    a, b, c = moves._move_tables(d)
    roots = _kernel.orbit_roots(1 << len(a), a, b, c)
    want = partition_digests(moves.ClassPartition(d, roots.copy()))
    for threshold in (_kernel._SPLIT_STATES, 4):
        with split_kernel(threshold):
            assert partition_digests(moves.enumerate_classes(d)) == want, threshold
    members, basis = moves.enumerate_classes(d)._lifted()
    states = moves.span_states(0, basis)
    assert np.array_equal(roots[states], roots[states[members]])


def test_split_kernel_lift_matches_full_closure_on_corpus():
    for name, d in family_corpus(14):
        check_lift_matches_full_closure(d)


@settings(deadline=None, max_examples=80)
@given(dsl_graphs())
def test_split_kernel_lift_matches_full_closure_on_random_graphs(d):
    check_lift_matches_full_closure(d)


def test_split_kernel_lift_matches_full_closure_on_criterion_5_trees():
    trees = list(classifiers.random_e6_trees(200, max_vertices=20, seed=12345))
    assert sum(bool(deletable(t)) for t in trees) >= 100
    for t in trees:
        check_lift_matches_full_closure(t)


def test_split_kernel_lift_matches_full_closure_with_many_conditions():
    """Ten unread bits, each reading its own set of the path 0-1-2-3 through
    doubled edges: ten conditions, so the firing pass keeps a uint16 word."""
    lines = ["vertices 14", "edge 0 1", "edge 1 2", "edge 2 3"]
    for r, reads in enumerate(range(1, 11), start=4):
        lines += [f"edge {x} {r} mult=2 dir={x}>{r}" for x in range(4) if reads >> x & 1]
    d = parse_dsl("\n".join(lines))
    part = moves.enumerate_classes(d)
    assert deletable(d) == list(range(4, 14))
    assert part._lift.fired.dtype == np.uint16
    assert len(set(part._lift.conditions)) == 10
    check_lift_matches_full_closure(d)


def perfbench_dsl_graph(seed):
    """The cyclic DSL graph of perfbench's export workload for a seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while it is built
    with mock.patch.dict(sys.modules, {spec.name: workloads}):
        spec.loader.exec_module(workloads)
    return parse_dsl(workloads.cyclic_graph_dsl(seed))


def test_split_kernel_lift_matches_full_closure_on_perfbench_graphs():
    graphs = [perfbench_dsl_graph(seed) for seed in range(1, 21)]
    assert {len(deletable(d)) for d in graphs} >= {0, 1, 2}
    for d in graphs:
        check_lift_matches_full_closure(d)


@pytest.mark.parametrize("target", ["flower:14", "affD:15", "B:16", "edgeless-14"])
def test_lift_and_ranking_peak_within_their_charge(target, monkeypatch):
    """The lift holds the int32 members and blocks of _LIFT_BLOCK entries,
    and the ranking it opens stays within the charge of its gate."""
    d = parse_dsl("vertices 14\n") if target == "edgeless-14" else fam(target)
    n_states = 1 << len(d.free_vertices)
    part = moves.enumerate_classes(d)
    assert part._lift.conditions
    tracemalloc.start()
    try:
        part._lifted()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n_states + 16 * moves._LIFT_BLOCK
    needs = []
    require = moves.require_states
    monkeypatch.setattr(moves, "require_states",
                        lambda f, need, *args: needs.append(need) or require(f, need, *args))
    part = moves.enumerate_classes(d)
    needs.clear()
    tracemalloc.start()
    try:
        part.rep_states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [need] = needs
    assert peak <= need


@settings(deadline=None, max_examples=60)
@given(dsl_graphs())
def test_classes_translate_along_the_kernel_of_m(d):
    """Every v in ker M commutes with every move, so translating by v maps
    each class onto one class: class_id[s ^ v] is a function of
    class_id[s]."""
    ids = moves.enumerate_classes(d).class_id_array()
    states = np.arange(len(ids))
    for v in d.effective_system()[0].nullspace_basis():
        moved = ids[states ^ v]
        image = np.empty(ids.max() + 1, dtype=ids.dtype)
        image[ids] = moved
        assert np.array_equal(image[ids], moved), v
