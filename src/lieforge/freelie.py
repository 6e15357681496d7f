"""The free Lie ring on n generators over Z, in the Lyndon basis.

Basis elements of degree k are the Lyndon words of length k over the
alphabet 1..n, each standing for its standard bracketing (recursing on the
longest proper Lyndon suffix).  Brackets of basis elements are normalized
by rewriting: for Lyndon words u < v the bracket [P_u, P_v] is P_uv when
the standard factorization of uv is (u, v), and otherwise the Jacobi
identity on u's standard factorization reduces it to shorter brackets
(Reutenauer, Free Lie Algebras, 1993).

Basis brackets are cached (_basis_bracket), and the cache holds only brackets
below the degree that a kernel is building.  A kernel's own degree, the
brackets [X_i, P_u] that one lattice eliminates once, is recomputed by the
same rewriting without the cache (_fresh_bracket) and never stored: at
n = 5 that degree is most of what the cache would otherwise hold.

Lie elements are homogeneous.  One of degree k keeps its coefficients as
{position: coeff} over lyndon_words(n, k), which is already the sparse row
the lattice layer takes, so no conversion sits between the two.

The tensor-algebra path is kept for extracting Lie classes from Magnus
series and as an independent oracle for the rewriting: the expansion of a
standard bracketing is its own word plus lexicographically larger terms,
which makes peeling a tensor back onto the Lyndon basis exact and makes
non-Lie tensors detectable (tensor_to_lyndon).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .zlattice import IntLattice, relations_among, _sub_multiple


# ---------------------------------------------------------------------------
# small number theory helpers


def divisors(k: int) -> list[int]:
    out = [d for d in range(1, k + 1) if k % d == 0]
    return out


def mobius(d: int) -> int:
    if d == 1:
        return 1
    m = d
    primes = 0
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            primes += 1
        else:
            p += 1
    if m > 1:
        primes += 1
    return -1 if primes % 2 else 1


def witt_rank(n: int, k: int) -> int:
    """Rank of the degree-k component of the free Lie ring on n generators."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    total = sum(mobius(s) * n ** (k // s) for s in divisors(k))
    assert total % k == 0
    return total // k


# ---------------------------------------------------------------------------
# Lyndon words


def is_lyndon(w: tuple[int, ...]) -> bool:
    return len(w) >= 1 and all(w < w[i:] for i in range(1, len(w)))


@lru_cache(maxsize=None)
def lyndon_words(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words of length exactly k over 1..n, in lexicographic order."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    out = []
    w = [0]
    while w:
        w[-1] += 1
        if len(w) == k:
            out.append(tuple(w))
        m = len(w)
        while len(w) < k:
            w.append(w[len(w) - m])
        while w and w[-1] == n:
            w.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def lyndon_position(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Position of each Lyndon word of length k in lyndon_words(n, k)."""
    return {w: p for p, w in enumerate(lyndon_words(n, k))}


@lru_cache(maxsize=None)
def standard_factorization(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word as (prefix, longest proper Lyndon suffix)."""
    if len(w) < 2:
        raise ValueError("needs length at least 2")
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise ValueError(f"{w} is not a Lyndon word")


# ---------------------------------------------------------------------------
# tensor expansion and triangular extraction


@lru_cache(maxsize=None)
def tensor_expand_word(w: tuple[int, ...]) -> dict:
    """Expansion of the standard bracketing of a Lyndon word in T(Z^n)."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    return _tensor_commutator(tensor_expand_word(u), tensor_expand_word(v))


def _tensor_commutator(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            k1 = wa + wb
            k2 = wb + wa
            out[k1] = out.get(k1, 0) + c
            out[k2] = out.get(k2, 0) - c
    return {k: v for k, v in out.items() if v}


def tensor_to_lyndon(n: int, tensor: dict) -> dict:
    """Coordinates of a homogeneous Lie tensor in the Lyndon basis.

    Raises ValueError if the tensor is not the expansion of a Lie element.
    """
    work = {k: v for k, v in tensor.items() if v}
    if not work:
        return {}
    degrees = {len(k) for k in work}
    if len(degrees) != 1:
        raise ValueError("tensor is not homogeneous")
    k = degrees.pop()
    pos = lyndon_position(n, k)
    out: dict[int, int] = {}
    # subtracting c * P_m only touches m and larger monomials, so visiting
    # keys in increasing order from a heap reaches each one once; keys that
    # cancelled before their turn are skipped
    heap = list(work)
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        if m not in pos:
            raise ValueError(f"tensor is not a Lie element (stray monomial {m})")
        out[pos[m]] = c
        for wu, cu in tensor_expand_word(m).items():
            old = work.get(wu, 0)
            nv = old - c * cu
            if nv:
                work[wu] = nv
                if not old:
                    heapq.heappush(heap, wu)
            else:
                work.pop(wu, None)
    return out


# ---------------------------------------------------------------------------
# Lie elements


@dataclass
class LieElement:
    """Homogeneous element of the free Lie ring on rank_n generators.

    coeffs maps a position in lyndon_words(rank_n, degree) to its nonzero
    coefficient: the element's row in Lyndon coordinates.  Zero has a degree.
    """

    rank_n: int
    degree: int
    coeffs: dict

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        words = lyndon_words(self.rank_n, self.degree)
        terms = (f"{c}*[{''.join(map(str, words[p]))}]" for p, c in sorted(self.coeffs.items()))
        return " + ".join(terms) or "0"


def lie_zero(n: int, k: int) -> LieElement:
    return LieElement(n, k, {})


def lie_from_word(n: int, word: tuple[int, ...]) -> LieElement:
    k = len(word)
    return LieElement(n, k, {lyndon_position(n, k)[word]: 1})


def lie_generator(n: int, i: int) -> LieElement:
    return lie_from_word(n, (i,))


def boundary_element(n: int) -> LieElement:
    """X_1 + ... + X_n."""
    return LieElement(n, 1, {i: 1 for i in range(n)})


def lie_add(a: LieElement, b: LieElement) -> LieElement:
    if (a.rank_n, a.degree) != (b.rank_n, b.degree):
        raise ValueError("rank or degree mismatch")
    out = dict(a.coeffs)
    _sub_multiple(out, -1, b.coeffs)
    return LieElement(a.rank_n, a.degree, out)


def lie_scale(a: LieElement, c: int) -> LieElement:
    return LieElement(a.rank_n, a.degree, {p: c * v for p, v in a.coeffs.items()} if c else {})


def lie_neg(a: LieElement) -> LieElement:
    return lie_scale(a, -1)


def _rewrite(n: int, wa: tuple[int, ...], wb: tuple[int, ...], same) -> dict:
    """One rewriting step of [P_wa, P_wb], as a fresh (position -> coeff) dict.

    For Lyndon words u < v, [P_u, P_v] = P_uv when u is a letter or u's
    right standard factor is >= v.  Otherwise, with (u1, u2) the standard
    factorization of u, Jacobi gives [P_u1, [P_u2, P_v]] - [P_u2, [P_u1, P_v]].
    The inner brackets have lower total degree and come from _basis_bracket;
    the outer ones, and the swap for v < u, keep the total degree and come
    from same.
    """
    if wa == wb:
        return {}
    if wb < wa:
        return {p: -c for p, c in same(n, wb, wa).items()}
    if len(wa) == 1 or standard_factorization(wa)[1] >= wb:
        return {lyndon_position(n, len(wa) + len(wb))[wa + wb]: 1}
    u1, u2 = standard_factorization(wa)
    out: dict[int, int] = {}
    for x, y, sign in ((u1, u2, 1), (u2, u1, -1)):
        words = lyndon_words(n, len(y) + len(wb))
        for p, c in _basis_bracket(n, y, wb).items():
            _sub_multiple(out, -sign * c, same(n, x, words[p]))
    return out


@lru_cache(maxsize=None)
def _basis_bracket(n: int, wa: tuple[int, ...], wb: tuple[int, ...]) -> dict:
    """Bracket of two basis bracketings, as a (position -> coeff) dict.

    The dict is the cache's own and must not be changed.  The cache keeps
    every bracket asked for here; a kernel builder asks only for brackets
    below the degree it builds, and takes that degree from _fresh_bracket,
    which is recomputed each time and never stored.
    """
    return _rewrite(n, wa, wb, _basis_bracket)


def _fresh_bracket(n: int, wa: tuple[int, ...], wb: tuple[int, ...]) -> dict:
    """_basis_bracket without storing its own degree: a new dict the caller owns."""
    return _rewrite(n, wa, wb, _fresh_bracket)


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    if a.rank_n != b.rank_n:
        raise ValueError("rank mismatch")
    n = a.rank_n
    words_a, words_b = lyndon_words(n, a.degree), lyndon_words(n, b.degree)
    out: dict[int, int] = {}
    for pa, ca in a.coeffs.items():
        wa = words_a[pa]
        for pb, cb in b.coeffs.items():
            _sub_multiple(out, -ca * cb, _basis_bracket(n, wa, words_b[pb]))
    return LieElement(n, a.degree + b.degree, out)


def to_tensor(a: LieElement) -> dict:
    """Expansion of a in the degree-k tensor component, k = a.degree."""
    words = lyndon_words(a.rank_n, a.degree)
    out: dict[tuple[int, ...], int] = {}
    for p, c in a.coeffs.items():
        _sub_multiple(out, -c, tensor_expand_word(words[p]))
    return out


def centralizer_of_linear(x: LieElement, k: int) -> IntLattice:
    """Lattice of degree-k elements commuting with a degree-1 element x.

    These are the relations among the brackets [x, b] over the degree-k
    basis words b.
    """
    if x.is_zero():
        raise ValueError("centralizer of zero is everything; refusing")
    if x.degree != 1:
        raise ValueError("x must have degree 1")
    n = x.rank_n
    return relations_among(
        lie_bracket(x, lie_from_word(n, w)).coeffs for w in lyndon_words(n, k)
    )
