"""Graded derivations of the free Lie ring.

A homogeneous derivation of degree k is stored through its images of the
generators X_1..X_n, which are homogeneous of degree k+1.  Tangential
derivations (X_i -> [X_i, t_i]) and the boundary evaluation delta ->
delta(X_1 + ... + X_n) carve out the braid-like ones; every rank and
intersection question becomes an integer-lattice question in generator-image
coordinates.

The free Lie ring is N^n-graded and the boundary evaluation respects that
grading, so its kernels and images are computed one multidegree at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .freelie import (
    LieElement,
    lie_add,
    lie_bracket,
    lie_coords,
    lie_from_coords,
    lie_from_word,
    lie_generator,
    lie_sub,
    lie_zero,
    lyndon_words,
    multidegree,
    positions_by_multidegree,
    standard_factorization,
    witt_rank,
    _basis_bracket,
)
from .zlattice import (
    IntLattice,
    IntMatrix,
    kernel_basis,
    lattice_from_rows,
)


@dataclass
class HomDerivation:
    """Homogeneous degree-k derivation, given by its generator images."""

    rank_n: int
    degree: int
    images: tuple
    _word_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.images) != self.rank_n:
            raise ValueError("need one image per generator")
        for img in self.images:
            if img.rank_n != self.rank_n:
                raise ValueError("image rank mismatch")
            if not img.is_zero() and img.degree() != self.degree + 1:
                raise ValueError("image has wrong degree")

    def image(self, i: int) -> LieElement:
        return self.images[i - 1]

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def apply_to_word(self, w: tuple[int, ...]) -> LieElement:
        cached = self._word_cache.get(w)
        if cached is not None:
            return cached
        if len(w) == 1:
            out = self.images[w[0] - 1]
        else:
            u, v = standard_factorization(w)
            out = lie_add(
                lie_bracket(self.apply_to_word(u), lie_from_word(self.rank_n, v)),
                lie_bracket(lie_from_word(self.rank_n, u), self.apply_to_word(v)),
            )
        self._word_cache[w] = out
        return out


def der_zero(n: int, k: int) -> HomDerivation:
    return HomDerivation(n, k, tuple(lie_zero(n) for _ in range(n)))


def apply_derivation(d: HomDerivation, a: LieElement) -> LieElement:
    """Leibniz extension of d from generators to an arbitrary element."""
    if d.rank_n != a.rank_n:
        raise ValueError("rank mismatch")
    n = d.rank_n
    out = lie_zero(n)
    for (k, p), c in a.coeffs.items():
        w = lyndon_words(n, k)[p]
        term = d.apply_to_word(w)
        if c != 1:
            term = LieElement(n, {kp: c * v for kp, v in term.coeffs.items()})
        out = lie_add(out, term)
    return out


def der_add(d1: HomDerivation, d2: HomDerivation) -> HomDerivation:
    if (d1.rank_n, d1.degree) != (d2.rank_n, d2.degree):
        raise ValueError("derivation mismatch")
    return HomDerivation(
        d1.rank_n,
        d1.degree,
        tuple(lie_add(a, b) for a, b in zip(d1.images, d2.images)),
    )


def der_scale(d: HomDerivation, c: int) -> HomDerivation:
    return HomDerivation(
        d.rank_n,
        d.degree,
        tuple(LieElement(d.rank_n, {kp: c * v for kp, v in img.coeffs.items()} if c else {})
              for img in d.images),
    )


def der_sub(d1: HomDerivation, d2: HomDerivation) -> HomDerivation:
    return der_add(d1, der_scale(d2, -1))


def der_bracket(d1: HomDerivation, d2: HomDerivation) -> HomDerivation:
    """Commutator of derivations: X_i -> d1(d2(X_i)) - d2(d1(X_i))."""
    if d1.rank_n != d2.rank_n:
        raise ValueError("rank mismatch")
    images = tuple(
        lie_sub(apply_derivation(d1, d2.images[i]), apply_derivation(d2, d1.images[i]))
        for i in range(d1.rank_n)
    )
    return HomDerivation(d1.rank_n, d1.degree + d2.degree, images)


def ev_boundary(d: HomDerivation) -> LieElement:
    """d(X_1) + ... + d(X_n), the evaluation on the boundary element."""
    out = lie_zero(d.rank_n)
    for img in d.images:
        out = lie_add(out, img)
    return out


def ad_derivation(x: LieElement) -> HomDerivation:
    """The inner derivation X_i -> [x, X_i]; tangential with every t_i = -x."""
    k = x.degree()
    if k is None:
        raise ValueError("ad of zero has no well-defined degree")
    n = x.rank_n
    return HomDerivation(
        n, k, tuple(lie_bracket(x, lie_generator(n, i)) for i in range(1, n + 1))
    )


@dataclass(frozen=True)
class TangentialData:
    """Tangent words (t_1..t_n) realizing the derivation X_i -> [X_i, t_i]."""

    rank_n: int
    degree: int
    tangents: tuple

    def derivation(self) -> HomDerivation:
        n = self.rank_n
        images = tuple(
            lie_bracket(lie_generator(n, i + 1), t) for i, t in enumerate(self.tangents)
        )
        return HomDerivation(n, self.degree, images)


@lru_cache(maxsize=None)
def tangential_coords(n: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Coordinate labels (i, u) for degree-k tangential derivations.

    At k = 1 the pairs with u = (i,) are dropped: they span the kernel of the
    tangent parametrization, and excluding them fixes a complement.
    """
    out = []
    for i in range(1, n + 1):
        for u in lyndon_words(n, k):
            if k == 1 and u == (i,):
                continue
            out.append((i, u))
    return tuple(out)


def tangential_rank_formula(n: int, k: int) -> int:
    return n * (n - 1) if k == 1 else n * witt_rank(n, k)


def braidlike_rank_formula(n: int, k: int) -> int:
    if k == 1:
        return n * (n - 1) // 2
    return n * witt_rank(n, k) - witt_rank(n, k + 1)


def tangential_basis(n: int, k: int) -> list[HomDerivation]:
    """Basis of degree-k tangential derivations matching tangential_coords."""
    out = []
    for i, u in tangential_coords(n, k):
        tangents = tuple(
            lie_from_word(n, u) if t == i else lie_zero(n) for t in range(1, n + 1)
        )
        out.append(TangentialData(n, k, tangents).derivation())
    return out


def _ev_blocks(n: int, k: int):
    """Boundary-evaluation matrix split into multidegree blocks.

    Yields (target_positions, cols, matrix_rows) per multidegree, where cols
    indexes into tangential_coords(n, k).
    """
    coords = tangential_coords(n, k)
    target_groups = positions_by_multidegree(n, k + 1)
    cols_by_md: dict[tuple[int, ...], list[int]] = {}
    for ci, (i, u) in enumerate(coords):
        md = list(multidegree(u, n))
        md[i - 1] += 1
        cols_by_md.setdefault(tuple(md), []).append(ci)
    all_mds = set(target_groups) | set(cols_by_md)
    for md in sorted(all_mds):
        tpos = target_groups.get(md, [])
        cols = cols_by_md.get(md, [])
        row_of = {p: r for r, p in enumerate(tpos)}
        rows = [[0] * len(cols) for _ in tpos]
        for c_local, ci in enumerate(cols):
            i, u = coords[ci]
            for p, v in _basis_bracket(n, (i,), u).items():
                rows[row_of[p]][c_local] = v
        yield tpos, cols, rows


@lru_cache(maxsize=None)
def braidlike_lattice(n: int, k: int) -> IntLattice:
    """Saturated kernel of the boundary evaluation, in tangential coordinates."""
    coords = tangential_coords(n, k)
    width = len(coords)
    out_rows = []
    for _tpos, cols, rows in _ev_blocks(n, k):
        if not cols:
            continue
        kern = kernel_basis(IntMatrix.from_rows(rows, len(cols)))
        for kr in kern.basis.entries:
            vec = [0] * width
            for c_local, val in enumerate(kr):
                vec[cols[c_local]] = val
            out_rows.append(vec)
    return lattice_from_rows(out_rows, width)


def ev_boundary_surjective(n: int, k: int) -> bool:
    """Whether degree-k tangential derivations evaluate onto all of degree k+1."""
    for tpos, cols, rows in _ev_blocks(n, k):
        if not tpos:
            continue
        cols_as_rows = [[rows[r][c] for r in range(len(tpos))] for c in range(len(cols))]
        image = lattice_from_rows(cols_as_rows, len(tpos))
        if image.rank != len(tpos):
            return False
        ident = tuple(
            tuple(1 if t == r else 0 for t in range(len(tpos)))
            for r in range(len(tpos))
        )
        if image.basis.entries != ident:
            return False
    return True


def image_dim(n: int, k: int) -> int:
    """Dimension of generator-image coordinates for degree-k derivations."""
    return n * witt_rank(n, k + 1)


def der_vector(d: HomDerivation) -> list[int]:
    """Generator-image coordinates: Lyndon coordinates of each image, concatenated."""
    out: list[int] = []
    for img in d.images:
        out.extend(lie_coords(img, d.degree + 1))
    return out


def der_from_vector(n: int, k: int, vec) -> HomDerivation:
    block = witt_rank(n, k + 1)
    images = tuple(
        lie_from_coords(n, k + 1, vec[i * block : (i + 1) * block]) for i in range(n)
    )
    return HomDerivation(n, k, images)


@lru_cache(maxsize=None)
def tangential_to_image_matrix(n: int, k: int):
    """Rows: image coordinates of each tangential basis derivation."""
    rows = []
    block = witt_rank(n, k + 1)
    for i, u in tangential_coords(n, k):
        vec = [0] * (n * block)
        for p, v in _basis_bracket(n, (i,), u).items():
            vec[(i - 1) * block + p] = v
        rows.append(vec)
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def braidlike_image_lattice(n: int, k: int) -> IntLattice:
    """The braid-like derivations of degree k, in generator-image coordinates."""
    tmat = tangential_to_image_matrix(n, k)
    width = image_dim(n, k)
    rows = []
    for tv in braidlike_lattice(n, k).basis.entries:
        vec = [0] * width
        for ci, c in enumerate(tv):
            if c:
                trow = tmat[ci]
                for j in range(width):
                    if trow[j]:
                        vec[j] += c * trow[j]
        rows.append(vec)
    return lattice_from_rows(rows, width)


@lru_cache(maxsize=None)
def ad_image_lattice(n: int, k: int) -> IntLattice:
    """Image coordinates of the inner derivations ad(x), x of degree k."""
    rows = [der_vector(ad_derivation(lie_from_word(n, w))) for w in lyndon_words(n, k)]
    return lattice_from_rows(rows, image_dim(n, k))
