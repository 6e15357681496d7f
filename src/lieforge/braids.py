"""Concrete automorphism families of the free group.

Artin generators, pure braid generators, inner automorphisms, the central
braid xi_n, the curve twists C_j and the triangular / basis-conjugating
generators all live here, as formal invertible words over named symbols with
evaluation to generator-image tables.  The pure braid generators A(i,j) are
built in closed form from their reduced images, not as products of sigmas.

Convention: sigma_i sends x_i -> x_{i+1} and x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
and fixes the other generators.  This is the mirror of the other classical
choice; it is pinned down by the requirement that the central braid xi_n
evaluate to the inverse of conjugation by the boundary word x_1...x_n.

Each builder lists only the generators it moves; ``words._endo_from_images``
fixes the rest and forms the table.  ``quotient_table`` pushes images through
``words._word_image``, the letter-substitution loop behind ``endo_apply``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    EndoTable,
    ReducedWord,
    _endo_from_images,
    _word_image,
    endo_apply,
    endo_compose,
    endo_identity,
    endo_inner,
    exponent_sums,
    word_conjugate,
    word_from_pairs,
    word_gen,
    word_identity,
    word_inverse,
    word_is_conjugate,
    word_mul,
)

FAMILIES = ("Inn", "Pn", "IAnPlus", "FnPn")


@dataclass(frozen=True)
class AutSymbol:
    """A named automorphism generator.

    kind is one of sigma(i), a(i, j), inner(word), chi(k, i),
    tri(i, word, gamma), cj(j); unused fields stay at their defaults.
    """

    kind: str
    i: int = 0
    j: int = 0
    word: ReducedWord | None = None
    gamma: ReducedWord | None = None

    def label(self) -> str:
        if self.kind == "sigma":
            return f"s{self.i}"
        if self.kind == "a":
            return f"A({self.i},{self.j})"
        if self.kind == "inner":
            return f"inn({self.word})"
        if self.kind == "chi":
            return f"chi({self.i},{self.j})"
        if self.kind == "tri":
            return f"tri({self.i};{self.word};{self.gamma})"
        if self.kind == "cj":
            return f"C({self.j})"
        return self.kind


def sym_sigma(i: int) -> AutSymbol:
    return AutSymbol("sigma", i=i)


def sym_a(i: int, j: int) -> AutSymbol:
    if not i < j:
        raise ValueError("need i < j")
    return AutSymbol("a", i=i, j=j)


def sym_inner(w: ReducedWord) -> AutSymbol:
    return AutSymbol("inner", word=w)


def sym_chi(k: int, i: int) -> AutSymbol:
    if not i < k:
        raise ValueError("need i < k")
    return AutSymbol("chi", i=k, j=i)


def sym_tri(i: int, w: ReducedWord, gamma: ReducedWord) -> AutSymbol:
    for g, _ in w.letters:
        if g >= i:
            raise ValueError("conjugator must use generators below i")
    for g, _ in gamma.letters:
        if g >= i:
            raise ValueError("gamma must use generators below i")
    if any(exponent_sums(gamma)):
        raise ValueError("gamma must lie in the commutator subgroup")
    return AutSymbol("tri", i=i, word=w, gamma=gamma)


def sym_cj(j: int) -> AutSymbol:
    return AutSymbol("cj", j=j)


def _check_symbol(sym: AutSymbol, n: int):
    if sym.kind == "sigma" and not 1 <= sym.i <= n - 1:
        raise ValueError(f"sigma index {sym.i} out of range for rank {n}")
    if sym.kind == "a" and not 1 <= sym.i < sym.j <= n:
        raise ValueError(f"pure braid indices ({sym.i},{sym.j}) out of range for rank {n}")
    if sym.kind in ("chi", "tri") and sym.i > n:
        raise ValueError(f"index {sym.i} out of range for rank {n}")
    if sym.kind == "cj" and not 1 <= sym.j <= n - 1:
        raise ValueError(f"C index {sym.j} out of range for rank {n}")
    for w in (sym.word, sym.gamma):
        if w is not None and w.rank_n != n:
            raise ValueError("symbol word rank mismatch")


@dataclass(frozen=True)
class AutWord:
    """Formal product of signed automorphism symbols; invertible by reversal."""

    rank_n: int
    symbols: tuple[tuple[AutSymbol, int], ...]

    def __post_init__(self):
        for sym, sign in self.symbols:
            if sign not in (1, -1):
                raise ValueError("symbol sign must be +1 or -1")
            _check_symbol(sym, self.rank_n)

    def inverse(self) -> "AutWord":
        return AutWord(
            self.rank_n, tuple((s, -e) for s, e in reversed(self.symbols))
        )

    def label(self) -> str:
        if not self.symbols:
            return "id"
        bits = []
        for s, e in self.symbols:
            bits.append(s.label() if e > 0 else s.label() + "^-1")
        return ".".join(bits)


def aut_word(n: int, *symbols: AutSymbol) -> AutWord:
    return AutWord(n, tuple((s, 1) for s in symbols))


def aut_mul(*words: AutWord) -> AutWord:
    n = words[0].rank_n
    if any(w.rank_n != n for w in words):
        raise ValueError("rank mismatch")
    syms: tuple[tuple[AutSymbol, int], ...] = ()
    for w in words:
        syms = syms + w.symbols
    return AutWord(n, syms)


def aut_commutator(a: AutWord, b: AutWord) -> AutWord:
    return aut_mul(a, b, a.inverse(), b.inverse())


def sigma_table(i: int, n: int, sign: int = 1) -> EndoTable:
    """sigma_i, or its inverse for sign -1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"sigma index {i} out of range for rank {n}")
    xi, xi1 = word_gen(n, i), word_gen(n, i + 1)
    if sign > 0:
        return _endo_from_images(n, {i: xi1, i + 1: word_conjugate(word_inverse(xi1), xi)})
    return _endo_from_images(n, {i: word_conjugate(xi, xi1), i + 1: xi})


def pure_a_table(i: int, j: int, n: int, sign: int = 1) -> EndoTable:
    """A(i,j), or its inverse for sign -1, built in closed form.

    A(i,j) is (sigma_{j-1}...sigma_{i+1}) sigma_i^2 (sigma_{j-1}...sigma_{i+1})^-1
    (Artin 1947; Birman 1974, section 1.4).  Under the sigma convention above:

    * sign +1: x_i -> x_j^-1 x_i x_j, x_j -> (x_i x_j)^-1 x_j (x_i x_j), and
      x_t -> w x_t w^-1 for i < t < j, where w = x_j^-1 x_i^-1 x_j x_i;
    * sign -1: x_i -> (x_i x_j) x_i (x_i x_j)^-1, x_j -> x_i x_j x_i^-1, and
      x_t -> w x_t w^-1 for i < t < j, where w = x_i x_j x_i^-1 x_j^-1;

    and fixes the other generators.  Every image is freely reduced as written,
    so each is stored directly; tests check the table against the sigma product.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"pure braid indices ({i},{j}) out of range for rank {n}")
    if sign > 0:
        img_i = ((j, -1), (i, 1), (j, 1))
        img_j = ((j, -1), (i, -1), (j, 1), (i, 1), (j, 1))
        w = ((j, -1), (i, -1), (j, 1), (i, 1))
    else:
        img_i = ((i, 1), (j, 1), (i, 1), (j, -1), (i, -1))
        img_j = ((i, 1), (j, 1), (i, -1))
        w = ((i, 1), (j, 1), (i, -1), (j, -1))
    w_inv = tuple((g, -e) for g, e in reversed(w))
    moved = {i: ReducedWord(n, img_i), j: ReducedWord(n, img_j)}
    for t in range(i + 1, j):
        moved[t] = ReducedWord(n, w + ((t, 1),) + w_inv)
    return _endo_from_images(n, moved)


def boundary(n: int) -> ReducedWord:
    """The boundary word x_1 x_2 ... x_n."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return word_from_pairs(n, [(i, 1) for i in range(1, n + 1)])


def _range_word(n: int, lo: int, hi: int) -> ReducedWord:
    return word_from_pairs(n, [(i, 1) for i in range(lo, hi + 1)])


def c_j_table(j: int, n: int, sign: int = 1) -> EndoTable:
    """The curve-twist automorphism conjugating x_1..x_j by x_1...x_j and
    x_{j+1}..x_n by (x_{j+1}...x_n)^-1; both conjugators inverted for sign -1."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"C index {j} out of range for rank {n}")
    head = _range_word(n, 1, j)
    tail = word_inverse(_range_word(n, j + 1, n))
    if sign < 0:
        head, tail = word_inverse(head), word_inverse(tail)
    return _endo_from_images(
        n, {t: word_conjugate(head if t <= j else tail, word_gen(n, t)) for t in range(1, n + 1)}
    )


def chi_table(k: int, i: int, n: int, sign: int = 1) -> EndoTable:
    """chi_{ki}: x_k -> x_i^-1 x_k x_i, all other generators fixed."""
    if not (1 <= i < k <= n):
        raise ValueError("chi indices out of range")
    return _endo_from_images(n, {k: word_conjugate(word_gen(n, i, -sign), word_gen(n, k))})


def cki_table(k: int, i: int, n: int, sign: int = 1) -> EndoTable:
    """c_{ki}: x_t -> x_i^-1 x_t x_i for t <= k, other generators fixed."""
    if not (1 <= i <= k <= n):
        raise ValueError("partial inner indices out of range")
    conj = word_gen(n, i, -sign)
    return _endo_from_images(n, {t: word_conjugate(conj, word_gen(n, t)) for t in range(1, k + 1)})


def tri_table(i: int, w: ReducedWord, gamma: ReducedWord, n: int, sign: int = 1) -> EndoTable:
    """Triangular map x_i -> (x_i conjugated through w) gamma, others fixed."""
    xi = word_gen(n, i)
    if sign > 0:
        img = word_mul(word_conjugate(word_inverse(w), xi), gamma)
    else:
        img = word_conjugate(w, word_mul(xi, word_inverse(gamma)))
    return _endo_from_images(n, {i: img})


def symbol_table(sym: AutSymbol, n: int, sign: int = 1) -> EndoTable:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sym.kind == "sigma":
        return sigma_table(sym.i, n, sign)
    if sym.kind == "a":
        return pure_a_table(sym.i, sym.j, n, sign)
    if sym.kind == "inner":
        w = sym.word if sign > 0 else word_inverse(sym.word)
        if w.rank_n != n:
            raise ValueError("inner word rank mismatch")
        return endo_inner(w)
    if sym.kind == "chi":
        return chi_table(sym.i, sym.j, n, sign)
    if sym.kind == "tri":
        return tri_table(sym.i, sym.word, sym.gamma, n, sign)
    if sym.kind == "cj":
        return c_j_table(sym.j, n, sign)
    raise ValueError(f"unknown symbol kind {sym.kind!r}")


def evaluate(aw: AutWord) -> EndoTable:
    """Monoid-morphism evaluation; the leftmost symbol acts last."""
    if not aw.symbols:
        return endo_identity(aw.rank_n)
    (sym, sign), *rest = aw.symbols
    table = symbol_table(sym, aw.rank_n, sign)
    for sym, sign in rest:
        table = endo_compose(table, symbol_table(sym, aw.rank_n, sign))
    return table


def xi_word(n: int) -> AutWord:
    """The central pure braid as a formal product of pure braid generators."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    syms = []
    for m in range(n, 1, -1):
        for i in range(1, m):
            syms.append(sym_a(i, m))
    return aut_word(n, *syms)


def inner_word(w: ReducedWord) -> AutWord:
    return aut_word(w.rank_n, sym_inner(w))


def family_generators(family: str, n: int) -> list[AutWord]:
    """Finite generator lists for the named subgroup of IA automorphisms.

    The IAnPlus list is a documented sample of triangular maps (the
    basis-conjugating chi's together with commutator insertions), not a
    proven generating set.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    if family == "Inn":
        return [inner_word(word_gen(n, i)) for i in range(1, n + 1)]
    if family == "Pn":
        return [
            aut_word(n, sym_a(i, j))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
    if family == "IAnPlus":
        out = [
            aut_word(n, sym_chi(k, i))
            for k in range(2, n + 1)
            for i in range(1, k)
        ]
        for i in range(3, n + 1):
            for a in range(1, i):
                for b in range(a + 1, i):
                    gamma = word_from_pairs(n, [(a, 1), (b, 1), (a, -1), (b, -1)])
                    out.append(aut_word(n, sym_tri(i, word_identity(n), gamma)))
        return out
    if family == "FnPn":
        return family_generators("Inn", n) + family_generators("Pn", n)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def quotient_table(e: EndoTable) -> EndoTable:
    """Induced table on the quotient of F_n by the boundary word.

    Substitutes x_n -> (x_1...x_{n-1})^-1 in each image and restricts to the
    first n-1 generators.  The substitution is total; it computes the induced
    automorphism exactly when e fixes the conjugacy class of the boundary.
    """
    n = e.rank_n
    if n < 2:
        raise ValueError("rank must be at least 2 to form the quotient")
    m = n - 1
    subs = endo_identity(m).images + (word_inverse(_range_word(m, 1, m)),)
    return EndoTable(m, tuple(_word_image(subs, w, m) for w in e.images[:m]))


def braid_abelianize(aw: AutWord) -> list[int]:
    """Signed exponent sums per pure braid generator, pairs (i<j) in lex order."""
    n = aw.rank_n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {p: t for t, p in enumerate(pairs)}
    out = [0] * len(pairs)
    for sym, sign in aw.symbols:
        if sym.kind != "a":
            raise ValueError("abelianization needs a word in pure braid symbols")
        out[index[(sym.i, sym.j)]] += sign
    return out


def is_braid_table(e: EndoTable) -> bool:
    """Conjugates each generator and fixes the boundary word exactly."""
    n = e.rank_n
    for i in range(1, n + 1):
        if not word_is_conjugate(e.images[i - 1], word_gen(n, i)):
            return False
    bnd = boundary(n)
    return endo_apply(e, bnd) == bnd


def fixes_boundary_class(e: EndoTable) -> bool:
    bnd = boundary(e.rank_n)
    return word_is_conjugate(endo_apply(e, bnd), bnd)
