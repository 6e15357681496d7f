"""Freely reduced words in a free group F_n and endomorphisms on generators.

Words are stored in run-length form, a tuple of (generator, exponent) pairs
with generators numbered 1..n.  The textual syntax is ``x1 x2^-1 x1^3`` with
``1`` for the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class ReducedWord:
    rank_n: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 0
        for g, e in self.letters:
            if not 1 <= g <= self.rank_n:
                raise ValueError(f"generator x{g} out of range for rank {self.rank_n}")
            if e == 0:
                raise ValueError("zero exponent in reduced word")
            if g == prev:
                raise ValueError("adjacent letters share a generator")
            prev = g

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def __str__(self) -> str:
        return format_word(self)


def _reduce(pairs) -> tuple[tuple[int, int], ...]:
    stack: list[list[int]] = []
    for g, e in pairs:
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([g, e])
    return tuple((g, e) for g, e in stack)


def word_from_pairs(n: int, pairs) -> ReducedWord:
    return ReducedWord(n, _reduce(pairs))


def word_identity(n: int) -> ReducedWord:
    return ReducedWord(n, ())


def word_gen(n: int, i: int, e: int = 1) -> ReducedWord:
    if e == 0:
        return word_identity(n)
    return ReducedWord(n, ((i, e),))


def word_mul(a: ReducedWord, b: ReducedWord) -> ReducedWord:
    if a.rank_n != b.rank_n:
        raise ValueError("rank mismatch")
    return ReducedWord(a.rank_n, _reduce(a.letters + b.letters))


def word_inverse(a: ReducedWord) -> ReducedWord:
    return ReducedWord(a.rank_n, tuple((g, -e) for g, e in reversed(a.letters)))


def word_commutator(a: ReducedWord, b: ReducedWord) -> ReducedWord:
    """Reduced form of a b a^-1 b^-1; the four factors are reduced in one pass."""
    if a.rank_n != b.rank_n:
        raise ValueError("rank mismatch")
    letters = a.letters + b.letters + word_inverse(a).letters + word_inverse(b).letters
    return ReducedWord(a.rank_n, _reduce(letters))


def word_conjugate(w: ReducedWord, x: ReducedWord) -> ReducedWord:
    """The conjugate w x w^-1; the three factors are reduced in one pass."""
    if w.rank_n != x.rank_n:
        raise ValueError("rank mismatch")
    return ReducedWord(w.rank_n, _reduce(w.letters + x.letters + word_inverse(w).letters))


def exponent_sums(a: ReducedWord) -> list[int]:
    sums = [0] * a.rank_n
    for g, e in a.letters:
        sums[g - 1] += e
    return sums


def _atoms(w: ReducedWord) -> list[int]:
    # signed single-letter expansion, +g / -g
    out = []
    for g, e in w.letters:
        out.extend([g if e > 0 else -g] * abs(e))
    return out


def cyclic_reduce(w: ReducedWord) -> ReducedWord:
    letters = list(w.letters)
    while len(letters) > 1 and letters[0][0] == letters[-1][0]:
        g = letters[0][0]
        e = letters[0][1] + letters[-1][1]
        middle = letters[1:-1]
        if e == 0:
            letters = list(_reduce(middle))
        else:
            letters = list(_reduce(middle + [(g, e)]))
    return ReducedWord(w.rank_n, tuple(letters))


def word_is_conjugate(a: ReducedWord, b: ReducedWord) -> bool:
    """Conjugacy test in the free group, by cyclic reduction and rotation."""
    if a.rank_n != b.rank_n:
        raise ValueError("rank mismatch")
    ra, rb = _atoms(cyclic_reduce(a)), _atoms(cyclic_reduce(b))
    if len(ra) != len(rb):
        return False
    if not ra:
        return True
    doubled = ra + ra
    m = len(ra)
    return any(doubled[i : i + m] == rb for i in range(m))


_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_word(n: int, text: str) -> ReducedWord:
    text = text.strip()
    if text in ("", "1"):
        return word_identity(n)
    pairs = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        g = int(m.group(1))
        e = int(m.group(2)) if m.group(2) is not None else 1
        pairs.append((g, e))
    return word_from_pairs(n, pairs)


def format_word(w: ReducedWord) -> str:
    if w.is_identity():
        return "1"
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in w.letters)


@dataclass(frozen=True)
class EndoTable:
    rank_n: int
    images: tuple[ReducedWord, ...]

    def __post_init__(self):
        if len(self.images) != self.rank_n:
            raise ValueError("table needs one image per generator")
        if any(w.rank_n != self.rank_n for w in self.images):
            raise ValueError("image rank mismatch")

    def image(self, i: int) -> ReducedWord:
        return self.images[i - 1]


def endo_identity(n: int) -> EndoTable:
    return EndoTable(n, tuple(word_gen(n, i) for i in range(1, n + 1)))


def endo_inner(w: ReducedWord) -> EndoTable:
    """The inner endomorphism x -> w x w^-1."""
    n = w.rank_n
    return EndoTable(n, tuple(word_conjugate(w, word_gen(n, i)) for i in range(1, n + 1)))


def endo_apply(e: EndoTable, w: ReducedWord) -> ReducedWord:
    if e.rank_n != w.rank_n:
        raise ValueError("rank mismatch")
    inverses: dict[int, ReducedWord] = {}
    pairs: list[tuple[int, int]] = []
    for g, exp in w.letters:
        if exp > 0:
            img = e.images[g - 1]
            reps = exp
        else:
            img = inverses.get(g)
            if img is None:
                img = inverses[g] = word_inverse(e.images[g - 1])
            reps = -exp
        for _ in range(reps):
            pairs.extend(img.letters)
    return word_from_pairs(e.rank_n, pairs)


def endo_compose(f: EndoTable, g: EndoTable) -> EndoTable:
    """Table of f o g (apply g first, then f)."""
    if f.rank_n != g.rank_n:
        raise ValueError("rank mismatch")
    return EndoTable(f.rank_n, tuple(endo_apply(f, img) for img in g.images))


def endo_equal(f: EndoTable, g: EndoTable) -> bool:
    if f.rank_n != g.rank_n:
        raise ValueError("rank mismatch")
    return f.images == g.images
