"""Dense linear algebra over GF(2) with bit-packed rows.

Rows are stored as Python ints; bit j of ``rows[i]`` is the entry in row i,
column j.  All operations are pure and matrices are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass


def parity(x: int) -> int:
    return x.bit_count() & 1


def _rref(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot_columns)."""
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        p = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
    return rows, pivots


@dataclass(frozen=True)
class F2Matrix:
    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n_rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.n_cols) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row has bits beyond column count")

    @classmethod
    def from_lists(cls, lists) -> "F2Matrix":
        rows = tuple(
            sum((int(v) & 1) << j for j, v in enumerate(row)) for row in lists
        )
        n_cols = max((len(row) for row in lists), default=0)
        return cls(len(rows), n_cols, rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "F2Matrix":
        return cls(n_rows, n_cols, (0,) * n_rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def to_lists(self) -> list[list[int]]:
        return [[r >> j & 1 for j in range(self.n_cols)] for r in self.rows]

    def transpose(self) -> "F2Matrix":
        cols = [
            sum((r >> j & 1) << i for i, r in enumerate(self.rows))
            for j in range(self.n_cols)
        ]
        return F2Matrix(self.n_cols, self.n_rows, tuple(cols))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch")
        out = []
        for r in self.rows:
            acc = 0
            k = 0
            while r:
                if r & 1:
                    acc ^= other.rows[k]
                r >>= 1
                k += 1
            out.append(acc)
        return F2Matrix(self.n_rows, other.n_cols, tuple(out))

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector; vector bit j = coordinate j."""
        return sum(parity(r & v) << i for i, r in enumerate(self.rows))

    def rank(self) -> int:
        _, pivots = _rref(list(self.rows), self.n_cols)
        return len(pivots)

    def nullity(self) -> int:
        return self.n_cols - self.rank()

    def det(self) -> int:
        if self.n_rows != self.n_cols:
            raise ValueError("determinant of non-square matrix")
        return 1 if self.rank() == self.n_cols else 0

    def nullspace_basis(self) -> list[int]:
        """Basis of the right nullspace, vectors as column bitmasks.

        Ordered by increasing free-column index (pivot columns taken in
        increasing order by the elimination).
        """
        rows, pivots = _rref(list(self.rows), self.n_cols)
        pivot_set = set(pivots)
        basis = []
        for f in range(self.n_cols):
            if f in pivot_set:
                continue
            vec = 1 << f
            for r, c in enumerate(pivots):
                if rows[r] >> f & 1:
                    vec |= 1 << c
            basis.append(vec)
        return basis

    def solve(self, b: int) -> int | None:
        """One solution x of A x = b, or None if inconsistent."""
        aug = [r | ((b >> i & 1) << self.n_cols) for i, r in enumerate(self.rows)]
        rows, pivots = _rref(aug, self.n_cols)
        for i in range(len(pivots), len(rows)):
            if rows[i]:
                return None
        x = 0
        for r, c in enumerate(pivots):
            if rows[r] >> self.n_cols & 1:
                x |= 1 << c
        return x
