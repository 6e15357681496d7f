"""Exact integer linear algebra: echelon and Hermite forms, kernels and lattices.

Everything here is over Z with arbitrary-precision integers; there is no
floating point and no modular arithmetic anywhere.

Vectors are sparse: every function here takes a dict {index: coeff} (or a
dense sequence, converted at the boundary), and elimination works on sparse
rows keyed by pivot.  A lattice (finitely generated subgroup of Z^m) is
stored through the echelon rows that elimination leaves: one row per pivot
column, found by unimodular steps, so they form a basis.  Rank, membership,
sums, intersections and relations read only those rows.  The canonical
row-style Hermite basis, which decides equality, is built from them by
back-substitution the first time a caller compares, hashes or prints a
lattice, and the dense ``IntLattice.basis`` matrix only when a caller reads
it.

Every layer adds c times one sparse vector into another: lattice rows here,
Lie brackets, tensor expansions and derivation images in ``freelie`` and
``derivations``, and truncated series in ``magnus``.  They all call one
kernel, ``_sub_multiple`` (v -= q * row in place, cancelled keys dropped,
row only read), or ``combine`` built on it.  The kernel stays private, so a
profiler that wraps each public function does not time every accumulate.
Three loops of that shape stay apart because each does more per key:
``magnus._truncated_product`` (and ``freelie._tensor_commutator``) make
each key as the concatenation of two monomials, ``magnus._times_letter_power``
grows a key one letter at a time along a binomial row, and
``freelie.tensor_to_lyndon`` pushes each key it creates onto its heap.
"""

from __future__ import annotations

import heapq
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

    @staticmethod
    def from_sparse(rows, cols: int) -> "IntMatrix":
        """The dense matrix of sparse rows, each a sequence of (index, coeff)."""
        data = []
        for row in rows:
            dense = [0] * cols
            for j, x in row:
                dense[j] = x
            data.append(tuple(dense))
        return IntMatrix(len(data), cols, tuple(data))


def _sparse(vec, ambient: int) -> dict[int, int]:
    """A fresh {index: coeff} copy of vec, zeros dropped.

    vec is a dict {index: coeff} or a dense sequence of length ambient.
    """
    if isinstance(vec, dict):
        if any(not 0 <= j < ambient for j in vec):
            raise ValueError("vector has wrong dimension")
        return {j: int(c) for j, c in vec.items() if c}
    if len(vec) != ambient:
        raise ValueError("vector has wrong dimension")
    return {j: int(c) for j, c in enumerate(vec) if c}


def _sub_multiple(v: dict, q: int, row: dict) -> None:
    """v -= q * row in place, dropping entries that cancel; row is only read."""
    for t, x in row.items():
        nv = v.get(t, 0) - q * x
        if nv:
            v[t] = nv
        else:
            v.pop(t, None)


def _reduce(v: dict, rows: dict) -> dict:
    """Reduce v by echelon rows keyed by pivot, following v's own support.

    Stops at the first leading entry that no row's pivot divides; the result
    is empty exactly when v lies in the Z-span of the rows.
    """
    while v:
        j = min(v)
        row = rows.get(j)
        if row is None:
            return v
        q, r = divmod(v[j], row[j])
        if r:
            return v
        _sub_multiple(v, q, row)
    return v


def combine(coeffs, vectors) -> dict:
    """Sparse sum of c * vectors[t] over coeffs, a dict {t: c} or a sequence."""
    out: dict = {}
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    for t, c in items:
        if c:
            _sub_multiple(out, -c, vectors[t])
    return out


class LatticeBuilder:
    """Incrementally reduced row basis of a sublattice of Z^ambient.

    Rows are sparse dicts keyed by their pivot (leading) column.  ``add``
    reports whether the vector enlarged the lattice, which is the stopping
    signal used by spanning loops.
    """

    def __init__(self, ambient_dim: int):
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        self.ambient = ambient_dim
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec) -> bool:
        return self._insert(_sparse(vec, self.ambient))

    def _insert(self, v: dict[int, int]) -> bool:
        """Eliminate v, a sparse row that the builder may keep or modify."""
        rows = self._rows
        changed = False
        while _reduce(v, rows):
            j = min(v)
            row = rows.get(j)
            if row is None:
                rows[j] = v
                return True
            # the pivot does not divide v's leading entry: replace the row by
            # the gcd combination (a unimodular step) and keep reducing v
            a, b = row[j], v[j]
            g, s, t = xgcd(a, b)
            rows[j] = combine((s, t), (row, v))
            v = combine((a // g, -(b // g)), (v, row))
            changed = True
        return changed

    def contains(self, vec) -> bool:
        return not _reduce(_sparse(vec, self.ambient), self._rows)

    def lattice(self) -> "IntLattice":
        """The spanned lattice, through the current echelon rows.

        The builder never changes a row in place, so the lattice shares them.
        """
        return IntLattice(self.ambient, {p: self._rows[p] for p in sorted(self._rows)})


@dataclass(frozen=True, eq=False, repr=False)
class IntLattice:
    """A sublattice of Z^ambient_dim, stored through echelon rows.

    ``pivot_rows`` maps each pivot (leading) column, in increasing order, to
    a sparse row {index: coeff}; the rows form a basis, but the pivots may be
    negative and the entries above them are not reduced.  ``rows`` is the
    canonical Hermite basis, built on first access: positive pivots, the
    entries above each pivot in [0, pivot), each row a tuple of (index,
    coeff) pairs sorted by index, in pivot order.  Equality and hashing go
    through ``rows``, so equal lattices compare and hash equal.
    """

    ambient_dim: int
    pivot_rows: dict[int, dict[int, int]]

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def is_zero(self) -> bool:
        return not self.pivot_rows

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The canonical Hermite basis rows, in pivot order.

        Rows are finished from the largest pivot down; each is reduced only at
        the later pivot columns in its own support, smallest first, since a
        subtraction at column j changes nothing left of j.
        """
        done: dict[int, dict[int, int]] = {}
        for p in reversed(self.pivot_rows):
            row = self.pivot_rows[p]
            row = dict(row) if row[p] > 0 else {t: -x for t, x in row.items()}
            todo = [t for t in row if t in done]
            heapq.heapify(todo)
            while todo:
                j = heapq.heappop(todo)
                below = done[j]
                q = row.get(j, 0) // below[j]
                if q:
                    for t in below:
                        if t not in row and t in done:
                            heapq.heappush(todo, t)
                    _sub_multiple(row, q, below)
            done[p] = row
        return tuple(tuple(sorted(done[p].items())) for p in self.pivot_rows)

    @cached_property
    def basis(self) -> IntMatrix:
        """The canonical basis as a dense matrix, built on first access."""
        return IntMatrix.from_sparse(self.rows, self.ambient_dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntLattice):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.rank == other.rank
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"IntLattice(ambient_dim={self.ambient_dim!r}, rows={self.rows!r})"


def lattice_from_rows(rows, ambient_dim: int) -> IntLattice:
    b = LatticeBuilder(ambient_dim)
    for r in rows:
        b.add(r)
    return b.lattice()


def zero_lattice(ambient_dim: int) -> IntLattice:
    return IntLattice(ambient_dim, {})


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
    """Saturated basis of {v in Z^cols : m v = 0}: the relations among m's columns."""
    e = m.entries
    return relations_among(
        {i: e[i][j] for i in range(m.rows) if e[i][j]} for j in range(m.cols)
    )


def lattice_member(v, lat: IntLattice) -> bool:
    return not _reduce(_sparse(v, lat.ambient_dim), lat.pivot_rows)


def lattice_sum(a: IntLattice, b: IntLattice) -> IntLattice:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    rows = list(a.pivot_rows.values()) + list(b.pivot_rows.values())
    return lattice_from_rows(rows, a.ambient_dim)


def lattice_intersect(a: IntLattice, b: IntLattice) -> IntLattice:
    """The intersection, from the relations among both bases.

    A relation x with sum_t x_t a_t + sum_s x_s b_s = 0 gives the common
    element sum_t x_t a_t, and every common element arises this way.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    rows_a = list(a.pivot_rows.values())
    rel = relations_among(rows_a + list(b.pivot_rows.values()))
    return lattice_from_rows(
        (
            combine({t: c for t, c in x.items() if t < len(rows_a)}, rows_a)
            for x in rel.pivot_rows.values()
        ),
        a.ambient_dim,
    )


def relations_among(vectors) -> IntLattice:
    """Integer relations {x : sum_t x_t v_t = 0} among the given vectors.

    Vectors are dicts {key: coeff} with keys of any one sortable type, or
    dense sequences.  Their keys are relabelled as columns 0, 1, ... in
    sorted order, which keeps their order, and the rows go to the same
    elimination as every other caller's (_relations).
    """
    vecs = [v if isinstance(v, dict) else dict(enumerate(v)) for v in vectors]
    keys = sorted({key for v in vecs for key, c in v.items() if c})
    col = {key: i for i, key in enumerate(keys)}
    rows = ({col[key]: c for key, c in v.items() if c} for v in vecs)
    return _relations(rows, len(col), len(vecs))


def _relations(rows, width: int, m: int) -> IntLattice:
    """Integer relations among m sparse rows over the columns 0..width-1.

    rows may be any iterable, read once in order; each row is a dict
    {column: nonzero coeff} that the elimination takes over and changes.
    Row t is echelonized together with a unit marker e_t at column
    width + t, after every vector coordinate.  Every elimination step is
    unimodular, so the echelon rows whose vector part vanished, those with
    pivot at or after the markers, are a basis of the saturated relation
    lattice; shifted onto the markers they are its echelon rows as they stand.
    """
    b = LatticeBuilder(width + m)
    for t, row in enumerate(rows):
        row[width + t] = 1
        b._insert(row)
    return IntLattice(
        m,
        {
            p - width: {j - width: x for j, x in b._rows[p].items()}
            for p in sorted(b._rows)
            if p >= width
        },
    )
