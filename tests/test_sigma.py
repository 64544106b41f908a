"""Lit-only sigma game and its duality with the move engine."""

import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from reeder import families, moves, sigma
from reeder.cli import main
from reeder.diagram import Diagram, DiagramError, Edge, Labeling, parse_dsl
from reeder.f2 import F2Matrix
from conftest import check_kernels, oracle_classes


def fam(text):
    return families.construct(families.parse_family(text))


def oracle_sigma_orbits(d):
    """Closure under sigma moves by plain set BFS."""
    n = d.n_vertices
    nbr_masks = [sum(1 << k for k in d.neighbors(i)) for i in range(n)]
    unseen = set(range(1 << n))
    orbits = []
    while unseen:
        start = min(unseen)
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for i in range(n):
                if cur >> i & 1:
                    t = cur ^ nbr_masks[i]
                    if t not in orbit:
                        orbit.add(t)
                        frontier.append(t)
        orbits.append(frozenset(orbit))
        unseen -= orbit
    return orbits


# -- single sigma moves ----------------------------------------------------


def test_sigma_move_examples():
    a3 = fam("A:3")
    assert sigma.sigma_move(a3, Labeling.from_bits([0, 1, 0]), 1).to_tuple() == (
        1,
        1,
        1,
    )
    # unlit vertex: no-op
    assert sigma.sigma_move(a3, Labeling.from_bits([0, 1, 0]), 0).to_tuple() == (
        0,
        1,
        0,
    )
    a2 = fam("A:2")
    assert sigma.sigma_move(a2, Labeling.from_bits([1, 0]), 0).to_tuple() == (1, 1)


def test_sigma_move_preconditions():
    with pytest.raises(DiagramError):
        sigma.sigma_move(fam("B:3"), Labeling(3, 0), 0)
    with pytest.raises(DiagramError):
        sigma.sigma_move(fam("Abox:3"), fam("Abox:3").labeling(0b1000), 0)
    with pytest.raises(IndexError):
        sigma.sigma_move(fam("A:2"), Labeling(2, 0), 2)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 8), st.data())
def test_sigma_double_application_cancels(n, data):
    d = fam(f"A:{n}")
    bits = data.draw(st.integers(0, (1 << n) - 1))
    i = data.draw(st.integers(0, n - 1))
    a = Labeling(n, bits)
    assert sigma.sigma_move(d, sigma.sigma_move(d, a, i), i).bits == a.bits


def test_sigma_never_changes_its_own_bit(small_corpus):
    for name, d in small_corpus:
        if not d.is_simply_laced or d.pinned:
            continue
        lab = Labeling(d.n_vertices, (1 << d.n_vertices) - 1)
        for i in range(d.n_vertices):
            out = sigma.sigma_move(d, lab, i)
            assert out.bits >> i & 1 == lab.bits >> i & 1, name


# -- matrices --------------------------------------------------------------


def test_transpose_law_a2_explicit():
    d = fam("A:2")
    t0 = moves.move_matrix(d, 0)
    s0 = sigma.sigma_matrix(d, 0)
    assert t0.to_lists() == [[1, 1], [0, 1]]
    assert s0.to_lists() == [[1, 0], [1, 1]]
    assert s0 == t0.transpose()
    for bits in range(4):
        assert s0.mul_vec(bits) == sigma.sigma_move(d, Labeling(2, bits), 0).bits


def test_duality_check_corpus(small_corpus):
    for name, d in small_corpus:
        if not d.is_simply_laced or d.pinned:
            continue
        assert sigma.duality_check(d), name


def test_duality_check_e6():
    assert sigma.duality_check(fam("E6:6"))


# -- orbits and the bijection ----------------------------------------------


def test_sigma_orbits_match_oracle():
    for target in ("A:2", "A:3", "A:5", "D:4", "E6:6", "flower:3", "affA:4"):
        d = fam(target)
        roots = sigma.enumerate_sigma_orbits(d)
        got = {}
        for s, r in enumerate(roots):
            got.setdefault(int(r), set()).add(s)
        assert {frozenset(v) for v in got.values()} == set(
            oracle_sigma_orbits(d)
        ), target


def test_orbit_bijection_a2():
    report = sigma.orbit_bijection_check(fam("A:2"))
    assert report.det_A == 1
    assert report.applicable
    assert report.reeder_classes == report.sigma_orbits == 2
    assert report.bijection_verified is True


def test_orbit_bijection_a3_not_applicable():
    report = sigma.orbit_bijection_check(fam("A:3"))
    assert report.det_A == 0
    assert not report.applicable
    assert report.bijection_verified is None
    assert report.reeder_classes == 3


def test_report_json_shape():
    obj = json.loads(sigma.orbit_bijection_check(fam("A:2")).to_json())
    assert obj == {
        "reeder_classes": 2,
        "sigma_orbits": 2,
        "det_A": 1,
        "bijection_verified": True,
    }


def test_orbit_bijection_on_invertible_corpus(small_corpus):
    checked = 0
    for name, d in small_corpus:
        if not d.is_simply_laced or d.pinned or d.n_vertices > 12:
            continue
        report = sigma.orbit_bijection_check(d)
        if report.det_A == 1:
            assert report.bijection_verified is True, name
            checked += 1
        else:
            assert report.bijection_verified is None, name
    assert checked >= 5


def broken_map(break_it):
    """moves.span_states with its result passed through break_it, for the
    map a -> A a that orbit_bijection_check reads."""
    real = moves.span_states
    return lambda x0, vectors: break_it(real(x0, vectors))


def send_state_1_to_0(mapped):
    # on A:2 the classes and the orbits are {0} and {1, 2, 3}: state 1's
    # class now reaches both orbits, and both are still hit
    mapped[1] = 0
    return mapped


@pytest.mark.parametrize(
    "break_it",
    [send_state_1_to_0, np.zeros_like],  # every state to 0: one orbit hit
    ids=["not-well-defined", "not-onto"],
)
def test_orbit_bijection_refutes_a_broken_map(monkeypatch, break_it):
    monkeypatch.setattr(moves, "span_states", broken_map(break_it))
    report = sigma.orbit_bijection_check(fam("A:2"))
    assert (report.det_A, report.reeder_classes, report.sigma_orbits) == (1, 2, 2)
    assert report.bijection_verified is False
    res = CliRunner().invoke(main, ["duality", "A:2"])
    assert res.exit_code == 3
    assert json.loads(res.output)["bijection_verified"] is False


def test_orbit_bijection_in_small_blocks(monkeypatch, small_corpus):
    """The map A s, gathered eight states at a time from the span of A's
    three low columns XOR each span of its high columns, as when gathered
    whole."""
    monkeypatch.setattr(sigma._kernel, "_GATHER_BLOCK", 8)
    got = {name: sigma.orbit_bijection_check(d) for name, d in small_corpus
           if d.is_simply_laced and not d.pinned and 4 <= d.n_vertices <= 10}
    monkeypatch.undo()
    assert sum(report.det_A for report in got.values()) >= 5
    for name, d in small_corpus:
        if name in got:
            assert got[name] == sigma.orbit_bijection_check(d), name
            assert got[name].bijection_verified is (True if got[name].det_A else None), name


@pytest.mark.parametrize("target", ["A:16", "D:15"])  # det A = 1 and 0
def test_orbit_bijection_peak_within_its_one_charge(monkeypatch, target):
    needs = []
    gate = moves.require_states

    def record(f, need, *args):
        needs.append(need)
        gate(f, need, *args)

    monkeypatch.setattr(moves, "require_states", record)
    d = fam(target)
    tracemalloc.start()
    try:
        report = sigma.orbit_bijection_check(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.det_A == (target == "A:16")
    assert len(needs) == 1
    assert peak <= needs[0]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 10).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_duality_map_by_doubling(rows):
    """A s for every state s, doubled over the columns of A, against the
    parity of each row of A with s, on square matrices that need not be
    symmetric."""
    n = len(rows)
    adj = F2Matrix(n, n, tuple(rows))
    states = np.arange(1 << n, dtype=np.int64)
    want = np.zeros_like(states)
    for i, row in enumerate(rows):
        want |= (np.bitwise_count(states & row) & 1).astype(np.int64) << i
    got = moves.span_states(0, adj.transpose().rows)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def check_sigma_kernels(d):
    """The sigma move at i is the transvection a = 1 << i, b = neighbors."""
    n = d.n_vertices
    a = [1 << i for i in range(n)]
    b = [sum(1 << k for k in d.neighbors(i)) for i in range(n)]
    check_kernels(1 << n, a, b, [0] * n, oracle_sigma_orbits(d))


@pytest.mark.parametrize(
    "d",
    [
        fam("A:1"),  # f = 1, and its one move is the identity
        fam("A:10"),  # bits >= 8
        fam("flower:9"),
        Diagram(4, [Edge(0, 1), Edge(1, 2)]),  # vertex 3 is isolated: b = 0
    ],
    ids=["A:1", "A:10", "flower:9", "isolated"],
)
def test_sigma_kernels_match_oracle(d):
    check_sigma_kernels(d)


@st.composite
def simple_graphs(draw, max_vertices=9):
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"vertices {n}"] + [f"edge {u} {v}" for u, v in chosen]
    return parse_dsl("\n".join(lines))


@settings(deadline=None, max_examples=40)
@given(simple_graphs())
def test_sigma_kernels_match_oracle_on_random_graphs(d):
    check_sigma_kernels(d)


@settings(deadline=None, max_examples=60)
@given(simple_graphs())
def test_orbit_bijection_at_the_partition_positions(d):
    """The map a -> A a read at the Reeder partition's positions, in
    whatever layout its kernel ran and whichever bits it deleted: both
    counts are the oracles', and an invertible A verifies the bijection."""
    report = sigma.orbit_bijection_check(d)
    assert report.reeder_classes == len(oracle_classes(d))
    assert report.sigma_orbits == len(oracle_sigma_orbits(d))
    assert report.bijection_verified is (True if report.det_A else None)


def test_orbit_bijection_on_a_relabeled_tree():
    """A Pruefer-numbered tree with det A = 1, whose kernel runs in its
    postorder layout: the map is read at the layout's positions."""
    from reeder import classifiers

    trees = classifiers.random_e6_trees(200, max_vertices=12, min_vertices=12, seed=7)
    d = next(t for t in trees if t.adjacency_matrix().det()
             and moves._layout(*moves._move_tables(t)) is not None)
    report = sigma.orbit_bijection_check(d)
    assert report.bijection_verified is True
    assert report.reeder_classes == report.sigma_orbits == len(oracle_classes(d))


def test_sigma_cap():
    with pytest.raises(moves.ResourceError):
        sigma.enumerate_sigma_orbits(fam("A:8"), cap=4)
