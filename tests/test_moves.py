"""Move application and class enumeration, cross-checked against a pure
Python BFS oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reeder import families, moves
from reeder.diagram import (
    Diagram,
    DiagramError,
    Edge,
    Labeling,
    ResourceError,
    parse_dsl,
)
from reeder.f2 import F2Matrix
from conftest import check_kernels, oracle_classes


def fam(text):
    return families.construct(families.parse_family(text))


def partition_as_sets(part):
    return {
        frozenset(m.bits for m in part.members(c)) for c in range(part.class_count)
    }


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


def test_encode_decode_roundtrip_with_pins():
    d = fam("Abox:6:ends=1")
    f = len(d.free_vertices)
    for s in range(1 << f):
        lab = moves.decode_state(d, s)
        assert lab.bits & d.pinned_bits == d.pinned_bits
        assert moves.encode_state(d, lab) == s


# -- vectorized component counts ------------------------------------------


@pytest.mark.parametrize(
    "target",
    ["A:6", "D:5", "affA:5", "affA:6", "B:5", "flower:4", "Abox:4", "Y:5"],
)
def test_component_counts_match_walker(target):
    d = fam(target)
    f = len(d.free_vertices)
    states = np.arange(1 << f, dtype=np.int64)
    got = moves.component_counts(d, states)
    for s in states:
        lab = moves.decode_state(d, int(s))
        assert got[s] == d.count_components(lab)


def test_component_counts_multicycle_fallback():
    # theta graph: two independent cycles, exercises the per-state walk
    d = Diagram(4, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 0), Edge(0, 2)])
    states = np.arange(1 << 4, dtype=np.int64)
    got = moves.component_counts(d, states)
    for s in states:
        assert got[s] == d.count_components(Labeling(4, int(s)))


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
        for member in part.members(c):
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
        assert singletons == {lab.bits for lab in d.fixed_labelings()}, name
        for s in part.summaries:
            assert s.is_singleton_fixed == (s.size == 1)
            assert sum(s.components.values()) == s.size


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
    need = moves.build_bytes(1 << 12, 12)

    def no_kernel(*args):
        raise AssertionError("the kernel ran although memory is short")

    monkeypatch.setattr(moves._kernel, "orbit_roots", no_kernel)
    monkeypatch.setattr(moves, "available_memory", lambda: need - 1)
    with pytest.raises(ResourceError, match="MB"):
        moves.enumerate_classes(d)
    monkeypatch.undo()
    monkeypatch.setattr(moves, "available_memory", lambda: need)
    assert moves.enumerate_classes(d).class_count == 7


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
    import json

    part = moves.enumerate_classes(fam("G2:2"))
    obj = json.loads(part.to_json())
    assert obj["class_count"] == 2
    assert obj["classes"][0] == {
        "size": 1,
        "min_representative": "00",
        "components": {"0": 1},
        "is_singleton_fixed": True,
    }


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
    a, b, c = moves._move_tables(d)
    classes = [
        {moves.encode_state(d, Labeling(d.n_vertices, bits)) for bits in cls}
        for cls in oracle_classes(d)
    ]
    check_kernels(1 << len(d.free_vertices), a, b, c, classes)


@pytest.mark.parametrize(
    "target",
    [
        "A:1",  # f = 1: the label array is one axis
        "B:10",  # double edges; f >= 9 puts moves at bits >= 8
        "C:10",
        "X:4",
        "affD:9",
        "flower:9",
        "Abox:6:ends=1",  # pinned neighbors
        "Bbox_1:4",
    ],
)
def test_kernels_match_oracle(target):
    d = fam(target)
    check_reeder_kernels(d)
    if d.pinned:
        assert any(moves._move_tables(d)[2])  # pinned neighbors give c = 1


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


@settings(deadline=None, max_examples=40)
@given(dsl_graphs())
def test_kernels_match_oracle_on_random_graphs(d):
    check_reeder_kernels(d)


def test_kernel_rejects_odd_overlap():
    from reeder import _kernel

    # a & b = 0b01 has odd parity: the move is not an involution
    with pytest.raises(DiagramError, match="parity"):
        _kernel.orbit_roots(4, [0b11], [0b01], [0])
    # even overlap is allowed: parity(s & 0b111) reads the same at s ^ 0b011
    odd = [s for s in range(8) if bin(s).count("1") % 2]
    classes = [{1, 2}, {4, 7}] + [{s} for s in range(8) if s not in odd]
    check_kernels(8, [0b111], [0b011], [0], classes)
