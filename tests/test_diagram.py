"""Diagram structure: edge forms, effective neighbors, components,
fixed labelings, and the text DSL."""

import pytest
from hypothesis import example, given, settings, strategies as st

from reeder import families, moves
from reeder.diagram import (
    Diagram,
    DiagramError,
    Edge,
    Labeling,
    disjoint_union,
    parse_dsl,
)
from conftest import oracle_effective_neighbors


def fam(text):
    return families.construct(families.parse_family(text))


# -- edge forms ------------------------------------------------------------


def test_edges_store_multiplicity_mod_2():
    # an odd edge has no direction, even when given one
    for mult, directed, stored in [(1, False, (1, False)), (3, False, (1, False)),
                                   (3, True, (1, False)), (2, True, (2, True)),
                                   (4, True, (2, True))]:
        e = Edge(0, 1, mult, directed)
        assert (e.multiplicity, e.directed) == stored, mult
        assert e == Edge(0, 1, *stored)


def test_corpus_edges_single_undirected_or_double_directed(small_corpus):
    for name, d in small_corpus:
        for e in d.edges:
            assert (e.multiplicity, e.directed) in ((1, False), (2, True)), name


def test_even_multiplicity_requires_direction():
    for mult in (2, 4):
        with pytest.raises(DiagramError, match="even multiplicity requires a direction"):
            Edge(0, 1, mult)


def test_construction_errors():
    with pytest.raises(DiagramError):
        Edge(1, 1)
    with pytest.raises(DiagramError):
        Edge(0, 1, 0)
    with pytest.raises(DiagramError):
        Diagram(3, [Edge(0, 1), Edge(1, 0)])
    with pytest.raises(DiagramError):
        Diagram(2, [Edge(0, 2)])
    with pytest.raises(DiagramError):
        Diagram(2, pinned={5})


# -- effective neighbors ---------------------------------------------------


def test_effective_neighbors_directed_pair():
    d = Diagram(2, [Edge(0, 1, 2, True)])  # 0 is longer, arrow at 1
    assert d.effective_neighbors(0) == frozenset()
    assert d.effective_neighbors(1) == frozenset({0})


def test_effective_neighbors_triple_edge_sees_both_ways():
    d = fam("G2:2")
    assert d.effective_neighbors(0) == frozenset({1})
    assert d.effective_neighbors(1) == frozenset({0})


def test_effective_neighbors_isolated():
    d = Diagram(3, [Edge(0, 1)])
    assert d.effective_neighbors(2) == frozenset()
    with pytest.raises(IndexError):
        d.effective_neighbors(3)


def test_effective_neighbors_match_oracle_and_symmetry(small_corpus):
    for _, d in small_corpus:
        oracle = oracle_effective_neighbors(d)
        for i in range(d.n_vertices):
            assert d.effective_neighbors(i) == frozenset(oracle[i])
        for e in d.edges:
            if not e.directed:
                assert e.u in d.effective_neighbors(e.v)
                assert e.v in d.effective_neighbors(e.u)


# -- components ------------------------------------------------------------


def test_count_components_path_example():
    d = fam("A:9")
    assert d.count_components(Labeling.from_bits([1, 1, 0, 1, 0, 0, 1, 1, 1])) == 3


def test_count_components_zero_and_full():
    d = fam("A:5")
    assert d.count_components(Labeling(5, 0)) == 0
    assert d.count_components(Labeling(5, 0b11111)) == 1


def test_count_components_includes_pinned_vertex():
    d = fam("Abox:4")  # path 1-2-3-4 with a pinned vertex after 4
    lab = d.labeling(0b1001 | 1 << 4)
    assert d.count_components(lab) == 2


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 10), st.data())
def test_count_components_invariant_under_path_reversal(n, data):
    d = fam(f"A:{n}")
    bits = data.draw(st.integers(0, (1 << n) - 1))
    rev = sum(((bits >> i) & 1) << (n - 1 - i) for i in range(n))
    assert d.count_components(Labeling(n, bits)) == d.count_components(
        Labeling(n, rev)
    )


def test_count_components_invariant_under_petal_permutation():
    import itertools

    d = fam("flower:3")
    for bits in range(1 << 4):
        base = d.count_components(Labeling(4, bits))
        for perm in itertools.permutations(range(3)):
            permuted = (bits >> 3 & 1) << 3
            for i in range(3):
                permuted |= ((bits >> i) & 1) << perm[i]
            assert d.count_components(Labeling(4, permuted)) == base


# -- fixed labelings -------------------------------------------------------


def fixed_labelings(d):
    """The labelings fixed by every move, in increasing integer order."""
    return [moves.decode_state(d, s) for s in moves.fixed_states(d).tolist()]


def test_is_fixed_path_examples():
    d = fam("A:5")
    assert d.is_fixed(Labeling.from_bits([1, 0, 1, 0, 1]))
    assert not d.is_fixed(Labeling.from_bits([1, 1, 0, 0, 0]))


def test_is_fixed_affine_e6_alternating():
    d = fam("affE6:6")
    assert d.is_fixed(d.labeling(1 << 0 | 1 << 2 | 1 << 4 | 1 << 6))


def test_fixed_labelings_cycle_even():
    d = fam("affA:4")
    assert [lab.bits for lab in fixed_labelings(d)] == [0, (1 << 5) - 1]


def test_fixed_labelings_cycle_odd():
    d = fam("affA:5")
    got = {lab.bits for lab in fixed_labelings(d)}
    # printed order (a0; a1..a5) = internal bits a1..a5 then a0 last
    alternating_0 = 0b010101  # (0; 1,0,1,0,1)
    alternating_1 = 0b101010  # (1; 0,1,0,1,0)
    assert len(got) == 4
    assert {alternating_0, alternating_1} <= got


def test_fixed_labelings_affine_e7():
    d = fam("affE7:7")
    fixed = fixed_labelings(d)
    assert len(fixed) == 4
    assert all(d.is_fixed(lab) for lab in fixed)
    assert [lab.bits for lab in fixed] == sorted(lab.bits for lab in fixed)


def test_fixed_count_is_two_to_nullity(small_corpus):
    for name, d in small_corpus:
        if d.pinned or not d.is_simply_laced:
            continue
        m, b = d.effective_system()
        assert b == 0
        assert m == d.adjacency_matrix()
        assert len(fixed_labelings(d)) == 1 << m.nullity(), name


def test_fixed_labelings_all_satisfy_is_fixed(small_corpus):
    for name, d in small_corpus:
        for lab in fixed_labelings(d):
            assert d.is_fixed(lab), name


# -- adjacency and shape predicates ---------------------------------------


def test_adjacency_matrix_examples():
    assert fam("A:2").adjacency_matrix().to_lists() == [[0, 1], [1, 0]]
    a3 = fam("A:3").adjacency_matrix().to_lists()
    assert a3 == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    flower = fam("flower:3").adjacency_matrix()
    assert sum(flower.to_lists()[3]) == 3  # the center row


def test_adjacency_ignores_direction_and_multiplicity():
    d = Diagram(2, [Edge(0, 1, 2, True)])
    assert d.adjacency_matrix().to_lists() == [[0, 1], [1, 0]]


def test_contains_e6_examples():
    assert not fam("D:5").contains_e6()
    assert fam("E6:6").contains_e6()
    assert fam("affE8:8").contains_e6()
    assert not fam("A:7").contains_e6()
    assert not fam("flower:5").contains_e6()
    with pytest.raises(DiagramError):
        fam("affA:5").contains_e6()  # cyclic
    with pytest.raises(DiagramError):
        fam("B:4").contains_e6()  # not simply laced


def test_shape_predicates():
    d5 = fam("D:5")
    assert d5.is_tree and d5.is_forest and d5.is_connected
    assert d5.max_degree == 3
    aff = fam("affA:4")
    assert not aff.is_forest and aff.n_independent_cycles == 1
    two = Diagram(4, [Edge(0, 1), Edge(2, 3)])
    assert two.is_forest and not two.is_tree and two.n_graph_components == 2
    assert not two.is_connected
    assert Diagram(0).is_connected and Diagram(1).is_connected


# -- labelings -------------------------------------------------------------


def test_labeling_accessors():
    lab = Labeling.from_bits([1, 0, 1])
    assert lab.bits == 0b101
    assert lab.to_tuple() == (1, 0, 1)
    assert lab[0] == 1 and lab[1] == 0
    assert lab.weight == 2
    assert lab.bitstring() == "101"
    assert lab.with_bit(1, 1).bits == 0b111
    assert lab.with_bit(0, 0).bits == 0b100
    with pytest.raises(IndexError):
        lab[3]
    with pytest.raises(DiagramError):
        Labeling(2, 5)


def test_diagram_labeling_validation():
    d = fam("Abox:3")
    with pytest.raises(DiagramError):
        d.labeling(Labeling(2, 0))  # wrong length
    with pytest.raises(DiagramError):
        d.labeling(0)  # pinned vertex labeled 0
    assert d.labeling(d.pinned_bits).bits == d.pinned_bits


def test_labeling_from_bits_takes_only_zeros_and_ones():
    assert Labeling.from_bits("10000").bits == 0b00001
    assert Labeling.from_bits([True, 0, "1"]).bits == 0b101
    for bits in ([2, 1], [0, -1], ["2"], ["01"], [1, None], ["", 0]):
        with pytest.raises(DiagramError, match="not 0 or 1"):
            Labeling.from_bits(bits)
    # a stray 2 was read as its low bit, 0, and named class 0
    with pytest.raises(DiagramError, match="entry 0 is 2"):
        moves.enumerate_classes(fam("A:3")).class_of([2, 0, 0])


def test_disjoint_union_shifts_indices():
    a = fam("Abox:2")
    b = fam("A:2")
    u = disjoint_union(a, b)
    assert u.n_vertices == a.n_vertices + b.n_vertices
    assert u.pinned == a.pinned
    assert Edge(a.n_vertices, a.n_vertices + 1) in u.edges


# -- DSL -------------------------------------------------------------------


def test_parse_dsl_roundtrip():
    text = """
    # a directed pair hanging off a path, one pinned vertex
    vertices 4
    edge 0 1
    edge 1 2 mult=2 dir=1>2
    pin 3
    """
    d = parse_dsl(text)
    assert d.n_vertices == 4
    assert d.pinned == frozenset({3})
    assert Edge(1, 2, 2, True) in d.edges
    assert [(e.multiplicity, e.directed) for e in d.edges] == [(1, False), (2, True)]


def test_parse_dsl_direction_orientation():
    d = parse_dsl("vertices 2\nedge 0 1 mult=2 dir=1>0\n")
    assert d.edges[0] == Edge(1, 0, 2, True)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("edge 0 1\n", "line 1"),
        ("vertices 2\nvertices 3\n", "line 2"),
        ("vertices 2\nedge 0 1 mult=2\n", "dir="),
        ("vertices 2\nedge 0 1 dir=0>2\n", "dir= must name"),
        # an arrow on an odd edge would be dropped
        ("vertices 2\nedge 0 1 dir=1>0\n", "line 2: edge 0 1: dir= needs an even multiplicity"),
        ("vertices 2\nedge 0 1 mult=3 dir=1>0\n",
         "line 2: edge 0 1: dir= needs an even multiplicity"),
        ("vertices 2\nedge 0 5\n", "out of range"),
        ("vertices 2\nedge 0 1\nedge 1 0\n", "duplicate"),
        ("vertices 3\nedge 1 5\n", "line 2: edge 1-5: endpoint out of range"),
        ("vertices 3\npin 7\n", "line 2: pinned vertex 7 out of range"),
        ("vertices 3\nedge 0 1\nedge 1 2\nedge 1 0\n", "line 4: duplicate edge between 0 and 1"),
        ("vertices 2\nfrob 1\n", "unknown"),
        ("vertices 2\nedge 0 1 mult=x\n", "multiplicity"),
        # checked before the parity, which would ask for dir=
        ("vertices 2\nedge 0 1 mult=0\n", "line 2: edge 0 1: multiplicity must be >= 1"),
        ("vertices 2\nedge 0 1 mult=-2 dir=1>0\n", "line 2: edge 0 1: multiplicity must be >= 1"),
        ("vertices 2\nedge 0 1 mult=-2\n", "line 2: edge 0 1: multiplicity must be >= 1"),
        ("", "missing 'vertices'"),
        # numbers are ASCII digits: str.isdigit takes '²' and '¹', which
        # int() refuses, and int() reads '٣', '１' and '+2'
        ("vertices ²\n", "^line 1: expected 'vertices N'"),
        ("vertices 2\nedge 0 ¹\n", "^line 2: expected 'edge U V"),
        ("vertices 2\nedge ¹ 0\n", "^line 2: expected 'edge U V"),
        ("vertices 2\npin ²\n", "^line 2: expected 'pin P'"),
        ("vertices 2\nedge 0 1 mult=2 dir=¹>0\n", "^line 2: expected dir=LONGER>SHORTER"),
        ("vertices ٣\n", "^line 1: expected 'vertices N'"),
        ("vertices 2\npin １\n", "^line 2: expected 'pin P'"),
        ("vertices 2\nedge 0 1 mult=+2 dir=1>0\n", "^line 2: bad multiplicity '\\+2'"),
        ("vertices 2\nedge 0 1 mult=٣\n", "^line 2: bad multiplicity"),
        # more digits than int() converts
        ("vertices " + "1" * 5000 + "\n", "^line 1: expected 'vertices N'"),
    ],
)
def test_parse_dsl_errors(text, needle):
    with pytest.raises(DiagramError, match=needle):
        parse_dsl(text)


_DSL_TOKENS = st.one_of(
    st.text("0123456789²¹٣１", min_size=1, max_size=3),
    st.sampled_from(["mult=", "dir=", ">", "-", "#", "=", "x", "vertices", "edge", "pin"]),
    st.text(max_size=4),
)
_DSL_LINES = st.builds(
    lambda kw, words: " ".join([kw] + words),
    st.sampled_from(["vertices", "edge", "pin"]),
    st.lists(st.lists(_DSL_TOKENS, min_size=1, max_size=4).map("".join), max_size=4),
)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([[], ["vertices 6"]]), st.lists(_DSL_LINES, max_size=6))
@example([], ["vertices ²"])
@example(["vertices 2"], ["edge 0 ¹"])
@example(["vertices 2"], ["edge ¹ 0"])
@example(["vertices 2"], ["pin ²"])
@example(["vertices 2"], ["edge 0 1 mult=2 dir=¹>0"])
def test_parse_dsl_returns_a_diagram_or_refuses(head, lines):
    """Any text parses to a Diagram or raises DiagramError, never another
    exception, such as int()'s ValueError on a non-ASCII digit."""
    try:
        d = parse_dsl("\n".join(head + lines))
    except DiagramError:
        return
    assert isinstance(d, Diagram)
