"""Lit-only sigma game and its duality with the move engine."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reeder import families, moves, sigma
from reeder.diagram import Diagram, DiagramError, Edge, Labeling, parse_dsl
from reeder.f2 import F2Matrix
from conftest import check_kernels


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


def test_sigma_cap():
    with pytest.raises(moves.ResourceError):
        sigma.enumerate_sigma_orbits(fam("A:8"), cap=4)
