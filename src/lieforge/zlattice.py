"""Exact integer linear algebra: Hermite forms, kernels and lattice arithmetic.

Everything here is over Z with arbitrary-precision integers; there is no
floating point and no modular arithmetic anywhere.  A lattice (finitely
generated subgroup of Z^m) is always stored through its canonical row-style
Hermite basis, so two lattices are equal exactly when their representations
compare equal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return IntMatrix(len(data), cols, data)

    def transpose(self) -> "IntMatrix":
        e = self.entries
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(e[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )


def _first_nonzero(v, start: int) -> int:
    for j in range(start, len(v)):
        if v[j]:
            return j
    return -1


def _echelon_member(vec, rows, pivots, ambient: int) -> bool:
    """Whether vec lies in the Z-span of echelon rows with the given pivots."""
    v = [int(x) for x in vec]
    if len(v) != ambient:
        raise ValueError("vector has wrong dimension")
    for row, p in zip(rows, pivots):
        q, r = divmod(v[p], row[p])
        if r:
            return False
        if q:
            for t in range(p, ambient):
                v[t] -= q * row[t]
    return not any(v)


class LatticeBuilder:
    """Incrementally reduced row basis of a sublattice of Z^ambient.

    Rows are kept in echelon order (strictly increasing pivot columns).
    ``add`` reports whether the vector enlarged the lattice, which is the
    stopping signal used by spanning loops.
    """

    def __init__(self, ambient_dim: int):
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        self.ambient = ambient_dim
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec) -> bool:
        v = [int(x) for x in vec]
        if len(v) != self.ambient:
            raise ValueError("vector has wrong dimension")
        changed = False
        j = _first_nonzero(v, 0)
        while j >= 0:
            pos = bisect_left(self._pivots, j)
            if pos == len(self._pivots) or self._pivots[pos] != j:
                self._rows.insert(pos, v)
                self._pivots.insert(pos, j)
                return True
            row = self._rows[pos]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                if q == 1:
                    for t in range(j, self.ambient):
                        v[t] -= row[t]
                elif q == -1:
                    for t in range(j, self.ambient):
                        v[t] += row[t]
                else:
                    for t in range(j, self.ambient):
                        v[t] -= q * row[t]
            else:
                g, s, t = xgcd(a, b)
                qa, qb = a // g, b // g
                new_row = [0] * self.ambient
                new_v = [0] * self.ambient
                for t2 in range(j, self.ambient):
                    ra, vb = row[t2], v[t2]
                    new_row[t2] = s * ra + t * vb
                    new_v[t2] = qa * vb - qb * ra
                self._rows[pos] = new_row
                v = new_v
                changed = True
            j = _first_nonzero(v, j)
        return changed

    def contains(self, vec) -> bool:
        return _echelon_member(vec, self._rows, self._pivots, self.ambient)

    def hermite_rows(self) -> tuple[tuple[int, ...], ...]:
        rows = [list(r) for r in self._rows]
        for i in range(len(rows)):
            p = self._pivots[i]
            if rows[i][p] < 0:
                rows[i] = [-x for x in rows[i]]
            piv = rows[i][p]
            for k in range(i):
                q = rows[k][p] // piv
                if q:
                    rk, ri = rows[k], rows[i]
                    for t in range(p, self.ambient):
                        rk[t] -= q * ri[t]
        return tuple(tuple(r) for r in rows)

    def lattice(self) -> "IntLattice":
        basis = IntMatrix.from_rows(self.hermite_rows(), self.ambient)
        return IntLattice(self.ambient, basis)


@dataclass(frozen=True)
class IntLattice:
    ambient_dim: int
    basis: IntMatrix  # rows form the canonical Hermite basis

    @property
    def rank(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.basis.rows == 0

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(_first_nonzero(r, 0) for r in self.basis.entries)


def lattice_from_rows(rows, ambient_dim: int) -> IntLattice:
    b = LatticeBuilder(ambient_dim)
    for r in rows:
        b.add(r)
    return b.lattice()


def zero_lattice(ambient_dim: int) -> IntLattice:
    return IntLattice(ambient_dim, IntMatrix.from_rows((), ambient_dim))


def hermite_form(m: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form; zero rows removed, row span unchanged."""
    b = LatticeBuilder(m.cols)
    for r in m.entries:
        b.add(r)
    return IntMatrix.from_rows(b.hermite_rows(), m.cols)


def smith_rank(m: IntMatrix) -> int:
    """Rank of m over Q (the number of nonzero Smith invariants).

    Computed by fraction-free (Bareiss) elimination, a code path independent
    of the Hermite machinery above.
    """
    a = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = -1
        for i in range(row, nrows):
            if a[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                a[i][j] = (a[row][col] * a[i][j] - a[i][col] * a[row][j]) // prev
            a[i][col] = 0
        prev = a[row][col]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def kernel_basis(m: IntMatrix) -> IntLattice:
    """Saturated basis of {v in Z^cols : m v = 0}.

    The kernel of an integer matrix is automatically saturated; the point is
    that the returned rows span the full kernel, not a finite-index part.
    """
    r, c = m.rows, m.cols
    b = LatticeBuilder(r + c)
    e = m.entries
    for j in range(c):
        row = [e[i][j] for i in range(r)]
        row.extend(1 if t == j else 0 for t in range(c))
        b.add(row)
    kern = [row[r:] for row in b.hermite_rows() if not any(row[:r])]
    return lattice_from_rows(kern, c)


def lattice_member(v, lat: IntLattice) -> bool:
    return _echelon_member(v, lat.basis.entries, lat.pivots, lat.ambient_dim)


def lattice_sum(a: IntLattice, b: IntLattice) -> IntLattice:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return lattice_from_rows(a.basis.entries + b.basis.entries, a.ambient_dim)


def lattice_intersect(a: IntLattice, b: IntLattice) -> IntLattice:
    """Canonical basis of the intersection, by the kernel-of-stacked-bases method."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ra = a.basis.rows
    stacked = IntMatrix.from_rows(
        a.basis.entries + b.basis.entries, a.ambient_dim
    )
    left_kernel = kernel_basis(stacked.transpose())
    rows = []
    for k in left_kernel.basis.entries:
        vec = [0] * a.ambient_dim
        for t in range(ra):
            c = k[t]
            if c:
                arow = a.basis.entries[t]
                for j in range(a.ambient_dim):
                    vec[j] += c * arow[j]
        rows.append(vec)
    return lattice_from_rows(rows, a.ambient_dim)


def relations_among(vectors) -> IntLattice:
    """Integer relations {x : sum_t x_t v_t = 0} among the given vectors.

    Vectors may be sparse dicts {index: coeff} or dense sequences; they need
    not live in a common small ambient space, so the relation lattice is
    carved out condition-by-condition instead of through one huge matrix.
    """
    vecs = list(vectors)
    m = len(vecs)
    conditions: dict[int, list[tuple[int, int]]] = {}
    for t, v in enumerate(vecs):
        items = v.items() if isinstance(v, dict) else enumerate(v)
        for idx, c in items:
            if c:
                conditions.setdefault(idx, []).append((t, c))
    # Basis rows of the current relation lattice, starting from all of Z^m.
    basis = [[1 if t == i else 0 for t in range(m)] for i in range(m)]
    for idx in sorted(conditions):
        if not basis:
            break
        entries = conditions[idx]
        u = []
        for brow in basis:
            s = 0
            for t, c in entries:
                bt = brow[t]
                if bt:
                    s += c * bt
            u.append(s)
        if not any(u):
            continue
        kern = kernel_basis(IntMatrix.from_rows([u], len(basis)))
        new_basis = []
        for krow in kern.basis.entries:
            combo = [0] * m
            for i, ki in enumerate(krow):
                if ki:
                    bi = basis[i]
                    for t in range(m):
                        combo[t] += ki * bi[t]
            new_basis.append(combo)
        basis = new_basis
    return lattice_from_rows(basis, m)
