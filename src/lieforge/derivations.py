"""Graded derivations of the free Lie ring.

A homogeneous derivation of degree k is stored through its images of the
generators X_1..X_n, which are homogeneous of degree k+1.  Tangential
derivations (X_i -> [X_i, t_i]) and the boundary evaluation delta ->
delta(X_1 + ... + X_n) carve out the braid-like ones; every rank and
intersection question becomes an integer-lattice question.  The braid-like
rank is read off the boundary evaluation's image by rank-nullity
(``braidlike_rank``); the tests keep the whole relation lattice as its oracle.

Two coordinate systems serve the lattices.  Generator-image coordinates
(``der_vector``) concatenate the Lyndon rows of the images X_i -> d(X_i);
they fit every derivation.  Tangential coordinates (``tangent_vector``,
labelled by ``tangential_coords``) concatenate the rows of the tangents
t_1..t_n, one degree lower (3,120 columns against 12,900 at n = 5, k = 5);
the map from them to images is injective, so a tangential derivation is
carried by its tangents and bracketed in them (``der_bracket``).  Either
way a vector is one sparse dict {index: coeff}, handed to the lattice layer
as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .freelie import (
    LieElement,
    lie_add,
    lie_bracket,
    lie_from_word,
    lie_generator,
    lie_neg,
    lie_scale,
    lie_zero,
    lyndon_words,
    standard_factorization,
    witt_rank,
    _fresh_bracket,
)
from .zlattice import (
    IntLattice,
    LatticeBuilder,
    combine,
    lattice_from_rows,
    _sub_multiple,
)


@dataclass
class HomDerivation:
    """Homogeneous degree-k derivation, given by its generator images.

    One built from tangents (``tangential_derivation``) keeps them in
    ``tangents``, which equality ignores; ``der_bracket`` needs them.
    """

    rank_n: int
    degree: int
    images: tuple
    tangents: tuple | None = field(default=None, compare=False, repr=False)
    _word_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.images) != self.rank_n:
            raise ValueError("need one image per generator")
        for img in self.images:
            if img.rank_n != self.rank_n:
                raise ValueError("image rank mismatch")
            if img.degree != self.degree + 1:
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
    return HomDerivation(n, k, tuple(lie_zero(n, k + 1) for _ in range(n)))


def apply_derivation(d: HomDerivation, a: LieElement) -> LieElement:
    """Leibniz extension of d from generators to an arbitrary element."""
    if d.rank_n != a.rank_n:
        raise ValueError("rank mismatch")
    n = d.rank_n
    words = lyndon_words(n, a.degree)
    out: dict[int, int] = {}
    for p, c in a.coeffs.items():
        _sub_multiple(out, -c, d.apply_to_word(words[p]).coeffs)
    return LieElement(n, a.degree + d.degree, out)


def der_add(d1: HomDerivation, d2: HomDerivation) -> HomDerivation:
    if (d1.rank_n, d1.degree) != (d2.rank_n, d2.degree):
        raise ValueError("derivation mismatch")
    return HomDerivation(
        d1.rank_n,
        d1.degree,
        tuple(lie_add(a, b) for a, b in zip(d1.images, d2.images)),
    )


def der_scale(d: HomDerivation, c: int) -> HomDerivation:
    return HomDerivation(d.rank_n, d.degree, tuple(lie_scale(img, c) for img in d.images))


def der_bracket(a: HomDerivation, s: tuple) -> tuple:
    """Tangents of the bracket [a, b] of two tangential derivations.

    With a(X_l) = [X_l, t_l] and b(X_l) = [X_l, s_l], Leibniz and Jacobi give
    [a, b](X_l) = [X_l, a(s_l) - b(t_l) + [t_l, s_l]].  a comes as a
    derivation built from its tangents t, so every a(s_l) reuses its word
    images; b comes as its tangents s alone.  b(t_l) is needed only where
    t_l != 0, and for a linear t_l it is one bracket [X_m, s_m] per letter,
    so b's image table is built only when some t_l has degree above one.
    """
    t, n = a.tangents, a.rank_n
    if t is None:
        raise ValueError("need a derivation built from its tangents")
    if len(s) != n or any(x.rank_n != n for x in s):
        raise ValueError("rank mismatch")
    b = None
    out = []
    for tl, sl in zip(t, s):
        u = apply_derivation(a, sl)
        if tl.coeffs:
            if tl.degree == 1:
                rows = {p: lie_bracket(lie_generator(n, p + 1), s[p]).coeffs for p in tl.coeffs}
                bt = combine(tl.coeffs, rows)
            else:
                if b is None:
                    b = tangential_derivation(n, sl.degree, s)
                bt = apply_derivation(b, tl).coeffs
            terms = (u.coeffs, bt, lie_bracket(tl, sl).coeffs)
            u = LieElement(n, u.degree, combine((1, -1, 1), terms))
        out.append(u)
    return tuple(out)


def ev_boundary(d: HomDerivation) -> LieElement:
    """d(X_1) + ... + d(X_n), the evaluation on the boundary element."""
    images = [img.coeffs for img in d.images]
    return LieElement(d.rank_n, d.degree + 1, combine([1] * d.rank_n, images))


def ad_derivation(x: LieElement) -> HomDerivation:
    """The inner derivation X_i -> [x, X_i]; tangential with every t_i = -x."""
    return tangential_derivation(x.rank_n, x.degree, (lie_neg(x),) * x.rank_n)


def tangential_derivation(n: int, k: int, tangents: tuple) -> HomDerivation:
    """The degree-k derivation X_i -> [X_i, t_i] of tangent elements (t_1..t_n)."""
    images = tuple(lie_bracket(lie_generator(n, i + 1), t) for i, t in enumerate(tangents))
    return HomDerivation(n, k, images, tuple(tangents))


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


def tangent_vector(n: int, k: int, tangents) -> dict[int, int]:
    """Tangential coordinates of the tangents (t_1..t_n), indexed like
    tangential_coords(n, k).

    At k = 1 the coordinate (i, (i,)) is skipped, so a tangent t_i with an
    X_i term has no coordinates and raises ValueError.
    """
    if len(tangents) != n:
        raise ValueError("need one tangent per generator")
    block = witt_rank(n, k) - (k == 1)
    out: dict[int, int] = {}
    for i, t in enumerate(tangents):
        if (t.rank_n, t.degree) != (n, k):
            raise ValueError("tangent has wrong rank or degree")
        for p, c in t.coeffs.items():
            if k == 1:
                if p == i:
                    raise ValueError("a degree-1 tangent t_i has no X_i coordinate")
                p -= p > i
            out[i * block + p] = c
    return out


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
            lie_from_word(n, u) if t == i else lie_zero(n, k) for t in range(1, n + 1)
        )
        out.append(tangential_derivation(n, k, tangents))
    return out


def _boundary_brackets(n: int, k: int):
    """The brackets [X_i, P_u] over tangential_coords(n, k), one at a time.

    Each is a new dict of degree-(k+1) Lyndon positions that the caller owns;
    none of them enters the bracket cache.
    """
    for i, u in tangential_coords(n, k):
        yield _fresh_bracket(n, (i,), u)


def _boundary_image(n: int, k: int) -> LatticeBuilder:
    """The boundary evaluation's image, the brackets eliminated as they come."""
    image = LatticeBuilder(witt_rank(n, k + 1))
    for row in _boundary_brackets(n, k):
        image._insert(row)
    return image


def braidlike_rank(n: int, k: int) -> int:
    """Rank of the degree-k braid-like derivations, by rank-nullity.

    They are the kernel of the boundary evaluation on tangential coordinates,
    so their rank is the coordinate count minus the rank of its image.
    """
    return len(tangential_coords(n, k)) - _boundary_image(n, k).rank


def ev_boundary_surjective(n: int, k: int) -> bool:
    """Whether degree-k tangential derivations evaluate onto all of degree k+1."""
    image = _boundary_image(n, k)
    dim = image.ambient
    return image.rank == dim and all(image.contains({p: 1}) for p in range(dim))


def image_dim(n: int, k: int) -> int:
    """Dimension of generator-image coordinates for degree-k derivations."""
    return n * witt_rank(n, k + 1)


def der_vector(d: HomDerivation) -> dict[int, int]:
    """Generator-image coordinates: Lyndon coordinates of each image, concatenated."""
    block = witt_rank(d.rank_n, d.degree + 1)
    out: dict[int, int] = {}
    for i, img in enumerate(d.images):
        for p, c in img.coeffs.items():
            out[i * block + p] = c
    return out


@lru_cache(maxsize=None)
def ad_image_lattice(n: int, k: int) -> IntLattice:
    """Image coordinates of the inner derivations ad(x), x of degree k."""
    rows = [der_vector(ad_derivation(lie_from_word(n, w))) for w in lyndon_words(n, k)]
    return lattice_from_rows(rows, image_dim(n, k))
