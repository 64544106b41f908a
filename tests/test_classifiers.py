"""Invariant classifiers cross-validated against brute-force enumeration."""

import tracemalloc

import numpy as np
import pytest

from reeder import classifiers, families, moves
from reeder.classifiers import (
    classify_by_components,
    e6_tree_classify,
    flower_classify,
    parity,
    random_e6_trees,
    swallowing_check,
    tree_from_pruefer,
)
from reeder.diagram import Diagram, DiagramError, Edge, Labeling, ResourceError
from conftest import oracle_rank_gf2, same_partition


def fam(text):
    return families.construct(families.parse_family(text))


# -- path classifier -------------------------------------------------------


def test_classify_by_components_examples():
    d = fam("A:7")
    assert classify_by_components(d, Labeling.from_bits([1, 1, 0, 1, 0, 0, 0])) == 2
    assert classify_by_components(d, families.xi(2, 7)) == classify_by_components(
        d, families.eta(2, 7)
    )
    assert classify_by_components(d, Labeling(7, 0)) == 0


def test_classify_by_components_rejects_non_paths():
    with pytest.raises(DiagramError):
        classify_by_components(fam("D:4"), Labeling(4, 0))
    with pytest.raises(DiagramError):
        classify_by_components(fam("B:3"), Labeling(3, 0))
    with pytest.raises(DiagramError):
        classify_by_components(fam("Abox:3"), fam("Abox:3").labeling(0b1000))


@pytest.mark.parametrize("n", range(1, 11))
def test_path_classifier_induces_brute_partition(n):
    d = fam(f"A:{n}")
    part = moves.enumerate_classes(d)
    keys = moves.component_counts(d)
    assert same_partition(part.class_id_array(), keys)
    assert int(keys.max()) == -(-n // 2)  # maximal component count


# -- parity ----------------------------------------------------------------


def test_parity_examples():
    d = fam("A:5")
    assert parity(d, Labeling(5, 0)) == 0
    assert parity(d, Labeling(5, 0b00100)) == 1
    assert parity(d, Labeling(5, 0b00101)) == 0


def test_parity_rejects_cycles_and_multiedges():
    with pytest.raises(DiagramError):
        parity(fam("affA:5"), Labeling(6, 0))
    with pytest.raises(DiagramError):
        parity(fam("B:3"), Labeling(3, 0))


def test_parity_move_invariant_on_sample_trees():
    for target in ("D:6", "E7:7", "flower:5"):
        d = fam(target)
        n = d.n_vertices
        for bits in range(1 << n):
            a = Labeling(n, bits)
            p = parity(d, a)
            for i in range(n):
                assert parity(d, moves.apply_move(d, a, i)) == p


# -- branching-tree classifier --------------------------------------------


@pytest.mark.parametrize(
    "target,count", [("affE6:6", 4), ("affE7:7", 6), ("affE8:8", 4), ("E6:6", 3)]
)
def test_e6_tree_counts(target, count):
    d = fam(target)
    pred = e6_tree_classify(d)
    assert pred.class_count == count
    assert not pred.fallback and pred.warning is None
    assert pred.class_count == (1 << d.adjacency_matrix().nullity()) + 2


def test_e6_tree_membership_matches_enumeration():
    for target in ("E6:6", "affE6:6", "affE7:7", "E8:8"):
        d = fam(target)
        pred = e6_tree_classify(d)
        part = moves.enumerate_classes(d)
        assert same_partition(part.class_id_array(), pred.key_ids()), target


def test_e6_tree_class_key():
    d = fam("E6:6")
    pred = e6_tree_classify(d)
    assert pred.class_key(Labeling(6, 0)) == ("fixed", 0)
    assert pred.class_key(Labeling(6, 1)) == ("parity", 1)
    assert pred.class_key(Labeling(6, 0b000101)) == ("parity", 0)


def test_e6_tree_classify_preconditions():
    with pytest.raises(DiagramError):
        e6_tree_classify(fam("D:5"))
    with pytest.raises(DiagramError):
        e6_tree_classify(fam("A:8"))


def test_e6_tree_classify_fails_before_allocating(monkeypatch):
    """Classifying allocates nothing exponential, so it succeeds at 1 KB of
    memory; key_ids, the one pass over 2^n states, refuses before counting."""
    d = fam("E8:8")

    def no_counts(*args):
        raise AssertionError("component counts ran although memory is short")

    monkeypatch.setattr(moves, "component_counts", no_counts)
    monkeypatch.setattr(moves, "available_memory", lambda: 1 << 10)
    pred = e6_tree_classify(d)
    assert pred.class_count == 3 and not pred.fallback
    with pytest.raises(ResourceError, match="memory"):
        pred.key_ids()
    monkeypatch.undo()
    assert same_partition(moves.enumerate_classes(d).class_id_array(), pred.key_ids())


def test_e6_tree_classify_fallback(monkeypatch):
    """A failed guard falls back to enumeration under the caller's cap."""
    monkeypatch.setattr(classifiers, "_parities_reach_nonfixed", lambda d: False)
    for target in ("E6:6", "affE7:7", "E8:8"):
        d = fam(target)
        pred = e6_tree_classify(d)
        assert pred.class_count == moves.enumerate_classes(d).class_count, target
        assert pred.fallback and pred.warning, target
        with pytest.raises(ResourceError, match="exceed the cap"):
            e6_tree_classify(d, cap=d.n_vertices - 1)


def test_e6_tree_classify_guard_passes_on_every_accepted_tree():
    for d in random_e6_trees(50, max_vertices=40, seed=99):
        w1, u1, v, u2, w2 = d.e6_path()
        assert d.degree(v) >= 3
        for x, y in ((w1, u1), (u1, v), (v, u2), (u2, w2)):
            assert y in d.neighbors(x)
        assert classifiers._parities_reach_nonfixed(d)


def test_e6_tree_classify_peak():
    d = next(random_e6_trees(1, max_vertices=20, min_vertices=20, seed=3))
    tracemalloc.start()
    try:
        pred = e6_tree_classify(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not pred.fallback
    assert peak < 1 << 20


def test_e6_tree_classify_past_the_cap():
    d = next(random_e6_trees(1, max_vertices=120, min_vertices=100, seed=5))
    assert d.n_vertices > moves.DEFAULT_CAP
    pred = e6_tree_classify(d)
    nullity = d.n_vertices - oracle_rank_gf2(d.adjacency_matrix().to_lists())
    assert pred.class_count == (1 << nullity) + 2
    assert not pred.fallback and pred.warning is None


def test_key_ids_peak_within_charge(monkeypatch):
    d = next(random_e6_trees(1, max_vertices=16, min_vertices=16, seed=3))
    pred = e6_tree_classify(d)
    charged = []
    monkeypatch.setattr(moves, "require_states", lambda f, need, *args: charged.append(need))
    tracemalloc.start()
    try:
        ids = pred.key_ids()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) == 1 << 16
    assert peak <= charged[0]


def test_key_ids_past_the_count_width():
    """Nullity 7: the 128 fixed states take ids 2..129, past what the int8
    component counts hold; the ids still induce the brute-force partition."""
    arms = [Edge(0, 1), Edge(1, 2), Edge(0, 3), Edge(3, 4)]
    d = Diagram(13, arms + [Edge(0, leaf) for leaf in range(5, 13)])
    pred = e6_tree_classify(d)
    assert d.adjacency_matrix().nullity() == 7 and not pred.fallback
    ids = pred.key_ids()
    assert int(ids.max()) == 129
    assert same_partition(moves.enumerate_classes(d).class_id_array(), ids)


# -- flower classifier -----------------------------------------------------


@pytest.mark.parametrize("d_param,count", [(1, 2), (3, 5), (4, 9)])
def test_flower_counts(d_param, count):
    assert flower_classify(d_param).class_count == count
    assert moves.enumerate_classes(fam(f"flower:{d_param}")).class_count == count


@pytest.mark.parametrize("d_param", range(1, 11))
def test_flower_membership_matches_enumeration(d_param):
    pred = flower_classify(d_param)
    diagram = pred.diagram
    part = moves.enumerate_classes(diagram)
    key_to_id: dict = {}
    keys = np.empty(1 << diagram.n_vertices, dtype=np.int64)
    for bits in range(1 << diagram.n_vertices):
        key = pred.class_key(Labeling(diagram.n_vertices, bits))
        keys[bits] = key_to_id.setdefault(key, len(key_to_id))
    assert len(key_to_id) == pred.class_count
    assert same_partition(part.class_id_array(), keys)


def test_flower_rejects_bad_parameter():
    with pytest.raises(DiagramError):
        flower_classify(0)


# -- swallowing ------------------------------------------------------------


def _check_witness(d, tail_bits, witness):
    n = d.n_vertices
    start = d.labeling(tail_bits | 1 << (n - 1))
    end = moves.apply_sequence(d, start, witness)
    assert end.bits == tail_bits


def test_swallowing_short_tail():
    d = fam("B:5")
    # leftmost-only tail: the lit component must travel the whole path, so
    # the shortest witness (BFS is exhaustive) is 2*3+1 = 7 moves
    witness = swallowing_check(d, Labeling(5, 0b00001))
    assert witness == [1, 2, 3, 4, 3, 2, 1]
    _check_witness(d, 0b00001, witness)
    # a tail already adjacent to the short vertex swallows in one move
    assert swallowing_check(d, Labeling(5, 0b01000)) == [4]
    # past 63 vertices, where the tail and the short vertex are bits 68, 69
    assert swallowing_check(fam("B:70"), Labeling(70, 1 << 68)) == [69]


def test_swallowing_zero_tail_not_applicable():
    assert swallowing_check(fam("B:5"), Labeling(5, 0)) is None


def test_swallowing_general_tail():
    d = fam("B:5")
    tail = 0b1010  # printed tail 0101 read left to right
    witness = swallowing_check(d, Labeling(5, tail))
    assert witness is not None
    _check_witness(d, tail, witness)


def test_swallowing_every_tail_b6():
    d = fam("B:6")
    for tail in range(1, 1 << 5):
        _check_witness(d, tail, swallowing_check(d, Labeling(6, tail)))


def test_swallowing_requires_b_type():
    with pytest.raises(DiagramError):
        swallowing_check(fam("A:5"), Labeling(5, 1))
    with pytest.raises(DiagramError):
        swallowing_check(fam("C:5"), Labeling(5, 1))


# -- random tree corpus ----------------------------------------------------


def test_tree_from_pruefer_structure():
    seq = [3, 3, 0]
    t = tree_from_pruefer(seq, 5)
    assert t.is_tree
    assert len(t.edges) == 4
    for v in range(5):
        assert t.degree(v) == seq.count(v) + 1


def test_tree_from_pruefer_errors():
    with pytest.raises(DiagramError):
        tree_from_pruefer([], 1)
    with pytest.raises(DiagramError):
        tree_from_pruefer([0], 4)


def test_random_e6_trees_deterministic_and_valid():
    a = [t.edges for t in random_e6_trees(15, max_vertices=12, seed=7)]
    b = [t.edges for t in random_e6_trees(15, max_vertices=12, seed=7)]
    assert a == b
    for t in random_e6_trees(15, max_vertices=12, seed=7):
        assert t.contains_e6()
        assert 6 <= t.n_vertices <= 12


@pytest.mark.parametrize("seq, entry", [([5, 0], "entry 0 is 5"), ([-1, 0], "entry 0 is -1"),
                                        ([0, 4], "entry 1 is 4")], ids=["past-n", "negative", "second"])
def test_tree_from_pruefer_rejects_entries_out_of_range(seq, entry):
    with pytest.raises(DiagramError, match=f"{entry}, outside 0..3"):
        tree_from_pruefer(seq, 4)


@pytest.mark.parametrize("bounds, match", [
    ({"max_vertices": 5}, "at most 5 vertices contains E6"),
    ({"min_vertices": 9, "max_vertices": 8}, "min_vertices 9 exceeds max_vertices 8"),
], ids=["fewer-than-6", "empty-range"])
def test_random_e6_trees_rejects_ranges_without_trees(bounds, match):
    """Refused at the call, before the stream draws anything."""
    with pytest.raises(DiagramError, match=match):
        random_e6_trees(1, **bounds)
