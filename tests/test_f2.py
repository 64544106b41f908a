"""GF(2) matrix layer, cross-checked against a dense elimination oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from reeder.f2 import F2Matrix, parity
from reeder import families
from conftest import oracle_rank_gf2

matrices = st.integers(1, 8).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(0, 1), min_size=c, max_size=c),
        min_size=1,
        max_size=8,
    )
)


def test_parity():
    assert parity(0) == 0
    assert parity(0b1011) == 1
    assert parity(0b1111) == 0


def test_roundtrip_and_entry():
    lists = [[1, 0, 1], [0, 1, 1]]
    m = F2Matrix.from_lists(lists)
    assert m.to_lists() == lists
    assert m.entry(0, 2) == 1
    assert m.entry(1, 0) == 0


def test_identity_zeros():
    assert F2Matrix.identity(3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert F2Matrix.zeros(2, 3).to_lists() == [[0, 0, 0], [0, 0, 0]]


def test_row_validation():
    with pytest.raises(ValueError):
        F2Matrix(2, 2, (0b11,))
    with pytest.raises(ValueError):
        F2Matrix(1, 2, (0b100,))


@settings(deadline=None, max_examples=150)
@given(matrices)
def test_rank_matches_oracle(lists):
    m = F2Matrix.from_lists(lists)
    assert m.rank() == oracle_rank_gf2(lists)
    assert m.rank() + m.nullity() == m.n_cols
    assert m.transpose().rank() == m.rank()


@settings(deadline=None, max_examples=100)
@given(matrices)
def test_nullspace_is_kernel_basis(lists):
    m = F2Matrix.from_lists(lists)
    basis = m.nullspace_basis()
    assert len(basis) == m.nullity()
    for v in basis:
        assert m.mul_vec(v) == 0
    # independence: the basis vectors span a space of full dimension
    span = {0}
    for v in basis:
        span |= {s ^ v for s in span}
    assert len(span) == 1 << len(basis)


@settings(deadline=None, max_examples=100)
@given(matrices, st.integers(0, (1 << 8) - 1))
def test_solve_consistent_systems(lists, xraw):
    m = F2Matrix.from_lists(lists)
    x = xraw & ((1 << m.n_cols) - 1)
    b = m.mul_vec(x)
    got = m.solve(b)
    assert got is not None
    assert m.mul_vec(got) == b


def test_solve_inconsistent():
    m = F2Matrix.from_lists([[1, 0], [1, 0]])
    assert m.solve(0b11) is not None  # equal rows, equal right-hand sides
    assert m.solve(0b01) is None  # equal rows, different right-hand sides


def test_det_square_only():
    assert F2Matrix.identity(4).det() == 1
    assert F2Matrix.zeros(2, 2).det() == 0
    with pytest.raises(ValueError):
        F2Matrix.zeros(2, 3).det()


@settings(deadline=None, max_examples=60)
@given(matrices)
def test_matmul_matches_listwise_product(lists):
    m = F2Matrix.from_lists(lists)
    t = m.transpose()
    prod = (m @ t).to_lists()
    a = m.to_lists()
    b = t.to_lists()
    want = [
        [sum(a[i][k] * b[k][j] for k in range(m.n_cols)) % 2 for j in range(m.n_rows)]
        for i in range(m.n_rows)
    ]
    assert prod == want


def test_affine_e6_e7_adjacency_nullity():
    # independent oracle values for the two branching affine diagrams whose
    # fixed-labeling counts (2 and 4) the nullity must explain
    e6 = families.construct(families.FamilySpec("affE6"))
    e7 = families.construct(families.FamilySpec("affE7"))
    for diagram, want in ((e6, 1), (e7, 2)):
        m = diagram.adjacency_matrix()
        assert oracle_rank_gf2(m.to_lists()) == m.n_cols - want
        assert m.nullity() == want


def test_zero_matrix_nullity():
    assert F2Matrix.zeros(3, 3).nullity() == 3
