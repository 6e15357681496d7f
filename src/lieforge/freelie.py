"""The free Lie ring on n generators over Z, in the Lyndon basis.

Basis elements of degree k are the Lyndon words of length k over the
alphabet 1..n, each standing for its standard bracketing (recursing on the
longest proper Lyndon suffix).  Brackets of basis elements are normalized
by rewriting: for Lyndon words u < v the bracket [P_u, P_v] is P_uv when
the standard factorization of uv is (u, v), and otherwise the Jacobi
identity on u's standard factorization reduces it to shorter brackets
(Reutenauer, Free Lie Algebras, 1993).

The tensor-algebra path is kept for extracting Lie classes from Magnus
series and as an independent oracle for the rewriting: the expansion of a
standard bracketing is its own word plus lexicographically larger terms,
which makes peeling a tensor back onto the Lyndon basis exact and makes
non-Lie tensors detectable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache

from .zlattice import IntLattice, relations_among


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


@dataclass(frozen=True)
class LyndonIndex:
    rank_n: int
    degree: int
    basis_words: tuple[tuple[int, ...], ...]
    position: dict = field(compare=False, repr=False, default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.basis_words)


@lru_cache(maxsize=None)
def lyndon_index(n: int, k: int) -> LyndonIndex:
    words = lyndon_words(n, k)
    idx = LyndonIndex(n, k, words)
    idx.position.update({w: p for p, w in enumerate(words)})
    return idx


@lru_cache(maxsize=None)
def standard_factorization(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word as (prefix, longest proper Lyndon suffix)."""
    if len(w) < 2:
        raise ValueError("needs length at least 2")
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise ValueError(f"{w} is not a Lyndon word")


def multidegree(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    md = [0] * n
    for a in word:
        md[a - 1] += 1
    return tuple(md)


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
    pos = lyndon_index(n, k).position
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
    """Graded element of the free Lie ring; coeffs maps (degree, position) -> int."""

    rank_n: int
    coeffs: dict

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> set[int]:
        return {k for k, _ in self.coeffs}

    def degree(self) -> int | None:
        """Degree if homogeneous (zero counts as homogeneous of any degree)."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise ValueError("element is not homogeneous")
        return ds.pop()

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for (k, p), c in sorted(self.coeffs.items()):
            w = lyndon_words(self.rank_n, k)[p]
            word = "".join(str(a) for a in w)
            bits.append(f"{c}*[{word}]")
        return " + ".join(bits)


def lie_zero(n: int) -> LieElement:
    return LieElement(n, {})


def lie_from_word(n: int, word: tuple[int, ...], c: int = 1) -> LieElement:
    if c == 0:
        return lie_zero(n)
    k = len(word)
    p = lyndon_index(n, k).position[word]
    return LieElement(n, {(k, p): c})


def lie_generator(n: int, i: int) -> LieElement:
    return lie_from_word(n, (i,))


def boundary_element(n: int) -> LieElement:
    """X_1 + ... + X_n."""
    return LieElement(n, {(1, i): 1 for i in range(n)})


def lie_add(a: LieElement, b: LieElement) -> LieElement:
    if a.rank_n != b.rank_n:
        raise ValueError("rank mismatch")
    out = dict(a.coeffs)
    for kp, c in b.coeffs.items():
        nv = out.get(kp, 0) + c
        if nv:
            out[kp] = nv
        else:
            out.pop(kp, None)
    return LieElement(a.rank_n, out)


def lie_scale(a: LieElement, c: int) -> LieElement:
    if c == 0:
        return lie_zero(a.rank_n)
    return LieElement(a.rank_n, {kp: c * v for kp, v in a.coeffs.items()})


def lie_neg(a: LieElement) -> LieElement:
    return lie_scale(a, -1)


def lie_sub(a: LieElement, b: LieElement) -> LieElement:
    return lie_add(a, lie_neg(b))


@lru_cache(maxsize=None)
def _basis_bracket(n: int, wa: tuple[int, ...], wb: tuple[int, ...]):
    """Bracket of two basis bracketings, as a (position -> coeff) dict.

    For Lyndon words u < v, [P_u, P_v] = P_uv when u is a letter or u's
    right standard factor is >= v.  Otherwise, with (u1, u2) the standard
    factorization of u, Jacobi gives [P_u1, [P_u2, P_v]] - [P_u2, [P_u1, P_v]].
    """
    if wa == wb:
        return {}
    if wb < wa:
        return {p: -c for p, c in _basis_bracket(n, wb, wa).items()}
    if len(wa) == 1 or standard_factorization(wa)[1] >= wb:
        return {lyndon_index(n, len(wa) + len(wb)).position[wa + wb]: 1}
    u1, u2 = standard_factorization(wa)
    out: dict[int, int] = {}
    for x, y, sign in ((u1, u2, 1), (u2, u1, -1)):
        words = lyndon_words(n, len(y) + len(wb))
        for p, c in _basis_bracket(n, y, wb).items():
            for q, v in _basis_bracket(n, x, words[p]).items():
                nv = out.get(q, 0) + sign * c * v
                if nv:
                    out[q] = nv
                else:
                    out.pop(q, None)
    return out


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    if a.rank_n != b.rank_n:
        raise ValueError("rank mismatch")
    n = a.rank_n
    words_a = lyndon_words
    out: dict[tuple[int, int], int] = {}
    for (ka, pa), ca in a.coeffs.items():
        wa = words_a(n, ka)[pa]
        for (kb, pb), cb in b.coeffs.items():
            wb = words_a(n, kb)[pb]
            c = ca * cb
            k = ka + kb
            for p, v in _basis_bracket(n, wa, wb).items():
                key = (k, p)
                nv = out.get(key, 0) + c * v
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
    return LieElement(n, out)


def to_tensor(a: LieElement) -> dict:
    """Expansion of a homogeneous element in the degree-k tensor component."""
    a.degree()  # raises on inhomogeneous input
    n = a.rank_n
    out: dict[tuple[int, ...], int] = {}
    for (k, p), c in a.coeffs.items():
        w = lyndon_words(n, k)[p]
        for m, v in tensor_expand_word(w).items():
            nv = out.get(m, 0) + c * v
            if nv:
                out[m] = nv
            else:
                out.pop(m, None)
    return out


def lie_coords(a: LieElement, k: int) -> dict[int, int]:
    """Coordinates {position: coeff} of the degree-k part in the Lyndon basis."""
    return {p: c for (kk, p), c in a.coeffs.items() if kk == k}


def centralizer_of_linear(x: LieElement, k: int) -> IntLattice:
    """Lattice of degree-k elements commuting with a degree-1 element x.

    These are the relations among the brackets [x, b] over the degree-k
    basis words b.
    """
    if x.is_zero():
        raise ValueError("centralizer of zero is everything; refusing")
    if x.degree() != 1:
        raise ValueError("x must be homogeneous of degree 1")
    n = x.rank_n
    return relations_among(
        lie_coords(lie_bracket(x, lie_from_word(n, w)), k + 1) for w in lyndon_words(n, k)
    )
