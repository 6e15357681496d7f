"""Truncated Magnus expansion of free-group words.

Generators map to 1 + X_i in the ring of noncommutative power series
truncated at a cutoff degree D; inverses map through the truncated
geometric series.  The lowest surviving degree of mu(w) - 1 detects
membership of w in the lower central series, which is what every
degree computation here rests on.  A word's degree and Lie class are read
off one expansion (WordReadOff).  The degree and Johnson image of an
automorphism are read off its series table (SeriesEndo) once, from the
displacements phi(x_i) x_i^-1 (SeriesReadOff); word tables are expanded
first.

A truncated series (TruncSeries) is stored by degree: part k holds the
monomials of length k, so each operation indexes the degrees it needs and
none splits a series or joins one back.  Multiplying by one letter power
(1 + X_g)^e is done by a single kernel, _times_letter_power, in place over
the parts: a word is expanded letter by letter into one list of parts, and
a displacement S_i (1 + X_i)^-1 is formed on a copy of S_i's parts.  A
letter power adds only terms longer than the monomial it multiplies, so the
top part is never visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .derivations import HomDerivation
from .freelie import LieElement, tensor_to_lyndon
from .words import EndoTable, ReducedWord, endo_identity
from .zlattice import _sub_multiple


@dataclass(frozen=True)
class AboveCutoff:
    """Result of a degree computation that exceeded the truncation bound."""

    is_identity: bool = False

    def __repr__(self) -> str:
        return "AboveCutoff(identity)" if self.is_identity else "AboveCutoff"


Degree = int | AboveCutoff


def same_degree(a: Degree, b: Degree) -> bool:
    """Equality of degrees, with every AboveCutoff counting as infinite."""
    if isinstance(a, AboveCutoff) or isinstance(b, AboveCutoff):
        return isinstance(a, AboveCutoff) and isinstance(b, AboveCutoff)
    return a == b


@dataclass
class TruncSeries:
    """A noncommutative power series truncated beyond degree max_degree.

    parts[k], k = 0..max_degree, maps each monomial of length k (a tuple over
    1..rank_n) to its nonzero coefficient.
    """

    rank_n: int
    max_degree: int
    parts: list[dict]

    @property
    def coeffs(self) -> dict:
        """Every term in one dict {monomial: coeff}, built on each read."""
        return {m: c for part in self.parts for m, c in part.items()}

    def lowest_degree(self) -> int | None:
        """Smallest d >= 1 carrying a nonzero coefficient, None if there is none."""
        return next((k for k in range(1, self.max_degree + 1) if self.parts[k]), None)


def _unit_parts(d: int) -> list[dict]:
    """Parts of the series 1 truncated beyond degree d."""
    return [{(): 1}] + [{} for _ in range(d)]


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    if a.rank_n != b.rank_n or a.max_degree != b.max_degree:
        raise ValueError("series mismatch")
    d = a.max_degree
    return TruncSeries(a.rank_n, d, _truncated_product(a.parts, _by_degree(b.parts), d))


def _by_degree(parts: list[dict]) -> list[list[tuple[tuple[int, ...], int]]]:
    """parts as lists of (monomial, coeff) pairs, the right operand form of
    _truncated_product.  An operand used in many products is converted once."""
    return [list(part.items()) for part in parts]


def _truncated_product(a: list[dict], by_deg: list, d: int) -> list[dict]:
    """Parts of the product a*b, dropping monomials beyond degree d; a is
    given by its parts, b as _by_degree(b's parts)."""
    out: list[dict] = [{} for _ in range(d + 1)]
    for ka, part in enumerate(a):
        if not part:
            continue
        for kb in range(d - ka + 1):
            terms = by_deg[kb]
            dest = out[ka + kb]
            for ma, ca in part.items():
                for mb, cb in terms:
                    key = ma + mb
                    nv = dest.get(key, 0) + ca * cb
                    if nv:
                        dest[key] = nv
                    else:
                        del dest[key]
    return out


@lru_cache(maxsize=None)
def _letter_series_coeffs(e: int, d: int) -> tuple[int, ...]:
    """Binomial coefficients C(e, t) of (1 + X)^e for t = 0..d, valid for
    negative e too, cut after the last nonzero one (t = e when 0 < e < d)."""
    top = min(e, d) if e > 0 else d
    out = [1]
    num = 1
    den = 1
    for t in range(1, top + 1):
        num *= e - (t - 1)
        den *= t
        out.append(num // den)
    return tuple(out)


def _times_letter_power(parts: list[dict], g: int, e: int, d: int) -> None:
    """Multiply the series with these parts on the right by (1 + X_g)^e,
    truncated beyond degree d, in place.

    A monomial m of degree k keeps its coefficient c (t = 0) and adds
    c * C(e, t) at m + (g,)*t, in part k + t, for t = 1..d-k; for e > 0 every
    C(e, t) with t > e is zero, and the binomial row ends at t = e.  The
    parts are walked from degree d-1 down to 0, so each is read before any
    lower one writes into it, and the top part is never visited.
    """
    cs = _letter_series_coeffs(e, d)
    for k in range(d - 1, -1, -1):
        if not parts[k]:
            continue
        steps = list(zip(cs[1 : d - k + 1], parts[k + 1 :]))
        for m, c in parts[k].items():
            key = m
            for b, out in steps:
                key += (g,)
                nv = out.get(key, 0) + c * b
                if nv:
                    out[key] = nv
                else:
                    del out[key]


def magnus_expand(w: ReducedWord, d: int) -> TruncSeries:
    """Multiplicative expansion of w, truncated beyond total degree d."""
    if d < 1:
        raise ValueError("cutoff degree must be at least 1")
    parts = _unit_parts(d)
    for g, e in w.letters:
        _times_letter_power(parts, g, e, d)
    return TruncSeries(w.rank_n, d, parts)


class WordReadOff(NamedTuple):
    """A word's expansion mu(w) and its filtration degree, read off once.

    degree is the smallest degree <= d surviving in mu(w) - 1, else
    AboveCutoff, flagged as the identity exactly when the word is.
    """

    series: TruncSeries
    degree: Degree

    def lie_class(self) -> LieElement:
        """Leading graded class of the word, in Lyndon coordinates."""
        if isinstance(self.degree, AboveCutoff):
            raise ValueError("word has no class below the cutoff")
        return _slice_class(self.series, self.degree)


def word_read_off(w: ReducedWord, d: int) -> WordReadOff:
    """Expand w once, truncated beyond degree d, and read its degree off."""
    mu = magnus_expand(w, d)
    low = mu.lowest_degree()
    return WordReadOff(mu, AboveCutoff(is_identity=w.is_identity()) if low is None else low)


def gamma_degree(w: ReducedWord, d: int) -> Degree:
    """Smallest degree <= d surviving in mu(w) - 1, else AboveCutoff."""
    return word_read_off(w, d).degree


def lie_class(w: ReducedWord, d: int) -> LieElement:
    """Leading graded class of w in the free Lie ring, in Lyndon coordinates."""
    return word_read_off(w, d).lie_class()


def _slice_class(s: TruncSeries, k: int) -> LieElement:
    """The degree-k slice of s as a Lie element, in Lyndon coordinates
    (tensor_to_lyndon, which also checks that the slice is one)."""
    return LieElement(s.rank_n, k, tensor_to_lyndon(s.rank_n, s.parts[k]))


# ---------------------------------------------------------------------------
# truncated series tables of IA automorphisms
#
# Composing automorphisms of F_n on the word level blows up exponentially in
# nesting depth, but everything degree-like only depends on the images'
# expansions below the cutoff.  A SeriesEndo stores S_i = mu(phi(x_i)) and
# composes by substitution X_j -> S_j - 1, so nested commutators stay
# polynomial-sized no matter how long their reduced words would be.
#
# Substitution only does work where the cutoff leaves room.  When every S_j - 1
# is X_j plus terms of degree >= shift + 1 (shift >= 1), a monomial X_m of
# length L maps to X_m plus terms of degree >= L + shift, so every monomial
# longer than d - shift maps to itself below the cutoff d and is copied
# over without expanding it.  A table whose degree-1 part is not exactly
# X_j in some image (a non-IA table) gets no shortcut.  A SeriesSubstitution
# holds the S_j - 1 as product operands, that bound and the memo of prefix
# products; series_endo_compose builds one per call unless the caller passes
# one it keeps across a run of compositions with the same left table, and
# drops when the run ends.  Nothing is stored on the SeriesEndo itself.
#
# Substitution by a is a linear map A on series, and when a_inv is a's
# inverse below the cutoff, A(a_inv(x_i)) = (a o a^-1)(x_i) = 1 + X_i.  So
# the last step a o v of a commutator a b a^-1 b^-1, v = b a^-1 b^-1,
# is 1 + X_i + A(v_i - a_inv_i): only the difference of v from a^-1, which
# is sparse when b is IA, is substituted (series_endo_commutator).
#
# An IA table's inverse needs no second commutator.  Its substitution is
# C = I + N with N raising degree by at least shift, so C^-1 is the Neumann
# sum I - N + N^2 - ..., which ends after at most ceil((d-1)/shift) terms;
# series_endo_inverse applies it to 1 + X_i, and N only expands the
# monomials no longer than keep.  A table of degree k has shift k, so a
# commutator's sum has few terms over few short monomials, where the
# reversed commutator would compose three whole tables.
#
# Inner automorphisms need no table arithmetic at all.  inn(w) is carried by
# the expansion pair (mu(w), mu(w)^-1) of its word, and inner_series_endo
# builds its table from that pair.  Two inner ones have an inner commutator,
# [inn(x), inn(v)] = inn(x v x^-1 v^-1), whose pair pair_commutator forms
# from theirs by six products: no substitution and no series inverse.  The
# Johnson layers (suites._johnson_layers) screen candidates by their Lie
# bracket and compose only the kept ones, a kept one with both factors inner
# this way and any other with series_endo_commutator; a kept inner one goes
# to the next layer by its pair alone, any other with its
# series_endo_inverse (the top layer's go nowhere: nothing brackets against
# them).  Their randomized samples keep series_endo_commutator, so the two
# routes check each other on every run.


@dataclass
class SeriesEndo:
    rank_n: int
    max_degree: int
    images: tuple  # TruncSeries per generator, constant term 1


def endo_to_series(e: EndoTable, d: int) -> SeriesEndo:
    return SeriesEndo(
        e.rank_n, d, tuple(magnus_expand(w, d) for w in e.images)
    )


class SeriesSubstitution:
    """X_j -> S_j - 1 for the images S_j of one series table.

    keep is the longest monomial whose substitution can differ from itself
    below the cutoff; prefix(m) is the substituted monomial m, memoized
    together with all its prefixes.
    """

    def __init__(self, a: SeriesEndo):
        d = a.max_degree
        self.table = a
        self.shifted = [_by_degree([{}, *s.parts[1:]]) for s in a.images]
        shift = None  # lowest degree of (S_j - 1 - X_j) over j, minus one
        for j, by_deg in enumerate(self.shifted, start=1):
            if by_deg[1] != [((j,), 1)]:
                shift = 0
                break
            low = next((k for k in range(2, d + 1) if by_deg[k]), None)
            if low is not None and (shift is None or low - 1 < shift):
                shift = low - 1
        self.keep = 0 if shift is None else d - shift
        self.prefixes: dict[tuple[int, ...], list[dict]] = {(): _unit_parts(d)}

    def prefix(self, mono: tuple[int, ...]) -> list[dict]:
        got = self.prefixes.get(mono)
        if got is None:
            base = self.prefix(mono[:-1])
            got = _truncated_product(base, self.shifted[mono[-1] - 1], self.table.max_degree)
            self.prefixes[mono] = got
        return got


def _substitution_for(a: SeriesEndo, sub: SeriesSubstitution | None) -> SeriesSubstitution:
    if sub is None:
        return SeriesSubstitution(a)
    if sub.table is not a:
        raise ValueError("substitution was built for another table")
    return sub


def _substitute(sub: SeriesSubstitution, parts: list[dict]) -> list[dict]:
    """Parts of the substitution of the series with these parts: parts above
    sub.keep are copied, each monomial below adds its prefix product."""
    keep, prefix = sub.keep, sub.prefix
    out = [dict(part) if k > keep else {} for k, part in enumerate(parts)]
    for part in parts[: keep + 1]:
        for mono, c in part.items():
            for dest, terms in zip(out, prefix(mono)):
                if terms:
                    _sub_multiple(dest, -c, terms)
    return out


def series_endo_compose(
    a: SeriesEndo, b: SeriesEndo, sub: SeriesSubstitution | None = None
) -> SeriesEndo:
    """Series table of (a o b): substitute a's images into b's series.

    sub, when given, is a SeriesSubstitution of a kept by the caller so that
    its prefix products serve several compositions with the same a.
    """
    if (a.rank_n, a.max_degree) != (b.rank_n, b.max_degree):
        raise ValueError("series endo mismatch")
    sub = _substitution_for(a, sub)
    n, d = a.rank_n, a.max_degree
    images = tuple(TruncSeries(n, d, _substitute(sub, s.parts)) for s in b.images)
    return SeriesEndo(n, d, images)


def series_endo_commutator(
    a: SeriesEndo,
    a_inv: SeriesEndo,
    b: SeriesEndo,
    b_inv: SeriesEndo,
    *,
    a_sub: SeriesSubstitution | None = None,
    a_inv_sub: SeriesSubstitution | None = None,
) -> SeriesEndo:
    """Series table of the group commutator a b a^-1 b^-1.

    a_inv must be a's inverse below the cutoff, and b_inv b's.  The last
    step a o v, v = b a^-1 b^-1, substitutes only v - a^-1: its image of x_i
    is 1 + X_i + A(v_i - a_inv_i), A the substitution by a, because
    A(a_inv_i) = (a o a^-1)(x_i) = 1 + X_i.  The optional substitutions of
    a and a_inv are passed on to the steps that substitute those tables.
    """
    v = series_endo_compose(a_inv, b_inv, a_inv_sub)
    v = series_endo_compose(b, v)
    if (a.rank_n, a.max_degree) != (v.rank_n, v.max_degree):
        raise ValueError("series endo mismatch")
    a_sub = _substitution_for(a, a_sub)
    n, d = a.rank_n, a.max_degree
    images = []
    for i, (s, t) in enumerate(zip(v.images, a_inv.images), start=1):
        diff = [dict(p) for p in s.parts]
        for dest, terms in zip(diff, t.parts):
            _sub_multiple(dest, 1, terms)
        # both constant terms are 1, so A(v_i - a_inv_i) has none
        parts = _substitute(a_sub, diff)
        parts[0] = {(): 1}
        _sub_multiple(parts[1], -1, {(i,): 1})
        images.append(TruncSeries(n, d, parts))
    return SeriesEndo(n, d, tuple(images))


def _excess(sub: SeriesSubstitution, parts: list[dict], scale: int) -> list[dict]:
    """Parts of scale * N(s), N = C - I for the substitution C of an IA
    table, s the series with these parts: a monomial m of length L <= sub.keep
    adds its substituted monomial's parts above L (the part at L is X_m
    itself), and a longer one adds nothing."""
    out = [{} for _ in parts]
    for k, part in enumerate(parts[: sub.keep + 1]):
        for mono, c in part.items():
            for dest, terms in zip(out[k + 1 :], sub.prefix(mono)[k + 1 :]):
                if terms:
                    _sub_multiple(dest, -scale * c, terms)
    return out


def series_endo_inverse(se: SeriesEndo) -> SeriesEndo:
    """Series table of the inverse of an IA table se, by a Neumann sum.

    The substitution by se is C = I + N, N raising degree by at least
    shift >= 1 (SeriesSubstitution.keep = d - shift), and the inverse's image
    T_i solves C(T_i) = 1 + X_i.  N(1 + X_i) = Delta_i = S_i - 1 - X_i, so
    T_i = 1 + X_i - Delta_i + N(Delta_i) - N^2(Delta_i) + ..., each term
    shift degrees above the last; the sum ends when a term vanishes, after
    at most ceil((d - 1) / shift) applications of N.  Raises NonIAError,
    before any sum, when some image's degree-1 part is not X_i.
    """
    n, d = se.rank_n, se.max_degree
    for i, s in enumerate(se.images, start=1):
        if s.parts[1] != {(i,): 1}:
            raise NonIAError(f"endomorphism is not IA: image of x{i} shifts the abelianization")
    sub = SeriesSubstitution(se)
    images = []
    for i, s in enumerate(se.images, start=1):
        term = [{}, {}] + [{m: -c for m, c in part.items()} for part in s.parts[2:]]
        parts = [{(): 1}, {(i,): 1}] + [dict(part) for part in term[2:]]
        while any(term := _excess(sub, term, -1)):
            for dest, terms in zip(parts, term):
                _sub_multiple(dest, -1, terms)
        images.append(TruncSeries(n, d, parts))
    return SeriesEndo(n, d, tuple(images))


def series_inverse(s: TruncSeries) -> TruncSeries:
    """Inverse of a series with constant term 1, by the truncated Neumann sum."""
    if s.parts[0] != {(): 1}:
        raise ValueError("series must have constant term 1")
    n, d = s.rank_n, s.max_degree
    neg = [[]] + [[(m, -c) for m, c in part.items()] for part in s.parts[1:]]
    out = _unit_parts(d)
    power = _unit_parts(d)
    for _ in range(d):
        power = _truncated_product(power, neg, d)
        if not any(power):
            break
        for dest, terms in zip(out, power):
            _sub_multiple(dest, -1, terms)
    return TruncSeries(n, d, out)


def inner_series_endo(mu: TruncSeries, mu_inv: TruncSeries | None = None) -> SeriesEndo:
    """Series table of conjugation by a word w, from its expansion mu = mu(w).

    mu (1 + X_i) mu^-1 = 1 + (mu X_i) mu^-1, so only the product of mu X_i
    (each monomial of mu with room for it, followed by X_i) with mu^-1 is
    formed.  mu_inv, when given, must be mu^-1 below the cutoff; otherwise it
    is built here.
    """
    n, d = mu.rank_n, mu.max_degree
    mu_inv = _by_degree((series_inverse(mu) if mu_inv is None else mu_inv).parts)
    images = []
    for i in range(1, n + 1):
        mu_xi = [{}] + [{m + (i,): c for m, c in part.items()} for part in mu.parts[:d]]
        parts = _truncated_product(mu_xi, mu_inv, d)
        parts[0] = {(): 1}
        images.append(TruncSeries(n, d, parts))
    return SeriesEndo(n, d, tuple(images))


def pair_commutator(p: tuple, q: tuple) -> tuple:
    """Expansion pair of p q p^-1 q^-1 from the pairs (mu(p), mu(p)^-1) and
    (mu(q), mu(q)^-1): six products, no series inverse."""
    return (
        series_mul(series_mul(series_mul(p[0], q[0]), p[1]), q[1]),
        series_mul(q[0], series_mul(series_mul(p[0], q[1]), p[1])),
    )


class NonIAError(ValueError):
    """Raised when an endomorphism does not act trivially on the abelianization."""


class SeriesReadOff(NamedTuple):
    """A series table's displacements phi(x_i) x_i^-1 and its degree
    (series_a_degree), read off once."""

    rank_n: int
    degree: Degree
    displacements: tuple[TruncSeries, ...]

    def johnson_image(self) -> HomDerivation:
        """Degree-j derivation X_i -> class of phi(x_i) x_i^-1, j = self.degree."""
        j = self.degree
        if isinstance(j, AboveCutoff):
            raise ValueError("automorphism has no finite degree below the cutoff")
        images = tuple(_slice_class(disp, j + 1) for disp in self.displacements)
        return HomDerivation(self.rank_n, j, images)


def series_read_off(se: SeriesEndo) -> SeriesReadOff:
    """Read the displacements of se off once, for its degree and Johnson image."""
    n, d = se.rank_n, se.max_degree
    if d < 2:
        raise ValueError("cutoff degree must be at least 2")
    displacements = []
    for i, s in enumerate(se.images, start=1):
        parts = [dict(part) for part in s.parts]
        _times_letter_power(parts, i, -1, d)
        if parts[1]:
            raise NonIAError(
                f"endomorphism is not IA: image of x{i} shifts the abelianization"
            )
        displacements.append(TruncSeries(n, d, parts))
    lows = [low for disp in displacements if (low := disp.lowest_degree()) is not None]
    degree = min(lows) - 1 if lows else AboveCutoff()
    return SeriesReadOff(n, degree, tuple(displacements))


def series_a_degree(se: SeriesEndo) -> Degree:
    """One less than the lowest degree surviving in any displacement, else
    AboveCutoff; the cutoff is the table's max degree."""
    return series_read_off(se).degree


def series_johnson_image(se: SeriesEndo) -> HomDerivation:
    """Degree-j derivation X_i -> class of phi(x_i) x_i^-1, j = series_a_degree(se)."""
    return series_read_off(se).johnson_image()


def a_degree(e: EndoTable, d: int) -> Degree:
    """Largest j <= d-1 with all generator displacements of degree >= j+1.

    Displacement of x_i is e(x_i) x_i^-1, read off the series table of e.
    AboveCutoff means every displacement is trivial up to the cutoff;
    is_identity is set exactly when e is the identity table.
    """
    deg = series_a_degree(endo_to_series(e, d))
    if isinstance(deg, AboveCutoff) and e.images == endo_identity(e.rank_n).images:
        return AboveCutoff(is_identity=True)
    return deg


def johnson_image(e: EndoTable, d: int) -> HomDerivation:
    """Degree-j derivation X_i -> class of e(x_i) x_i^-1, j = a_degree(e, d)."""
    return series_johnson_image(endo_to_series(e, d))
