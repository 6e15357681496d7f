"""The Drinfeld-Kohno Lie ring realized inside the braid-like derivations.

The degree-one generators are the explicit derivations tau1(i, j); the
degree-k component is the lattice spanned by left-normed brackets of those
generators.  Every element is tangential, X_i -> [X_i, t_i], so it is
carried by its tangents t_1..t_n: brackets are taken in them
(``der_bracket``) and the component is eliminated incrementally in
tangential coordinates, labelled by ``tangential_coords``.  The
generator-image lattice is built from the spanning tangents when a caller
reads it.  The abstract presentation (infinitesimal braid relations) is
verified against the realization, never used as the data structure.

The greedy span itself, ``_tangential_layer``, takes any list of degree-1
tangential generators: the Johnson layers of ``suites`` run it on the
degree-1 images of each automorphism family (tau1 for P_n, ad(X_i) for
Inn(F_n), both for Inn.P_n) and compose only the brackets it keeps.

Also hosts the exact Bernoulli / power-sum arithmetic used by the rank
census.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial

from .derivations import (
    HomDerivation,
    braidlike_rank,
    braidlike_rank_formula,
    der_add,
    der_bracket,
    der_vector,
    der_zero,
    image_dim,
    tangent_vector,
    tangential_coords,
    tangential_derivation,
)
from .freelie import lie_add, lie_bracket, lie_generator, lie_zero, witt_rank
from .zlattice import (
    IntLattice,
    LatticeBuilder,
    combine,
    lattice_from_rows,
    lattice_member,
    relations_among,
    zero_lattice,
)


@lru_cache(maxsize=None)
def tau1(i: int, j: int, n: int) -> HomDerivation:
    """Degree-1 braid derivation: X_i -> [X_i, X_j], X_j -> [X_j, X_i], 0 else.

    Its tangents are X_j at i, X_i at j and 0 elsewhere.
    """
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n")
    images, tangents = [], []
    for l in range(1, n + 1):
        t = lie_generator(n, j) if l == i else lie_generator(n, i) if l == j else lie_zero(n, 1)
        images.append(lie_bracket(lie_generator(n, l), t))
        tangents.append(t)
    return HomDerivation(n, 1, tuple(images), tuple(tangents))


def tau1_sym(i: int, j: int, n: int) -> HomDerivation:
    """tau1 extended by the conventions t_ji = t_ij and t_ii = 0."""
    if i == j:
        return der_zero(n, 1)
    if i > j:
        i, j = j, i
    return tau1(i, j, n)


def dk_generator_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def der_bracket_of_generators(i: int, j: int, k: int, n: int) -> HomDerivation:
    """[tau1(t_ik), tau1(t_jk)], the degree-2 derivation of a generator triple."""
    return tangential_derivation(n, 2, der_bracket(tau1_sym(i, k, n), tau1_sym(j, k, n).tangents))


def xi_derivation(n: int) -> HomDerivation:
    """Sum of all degree-1 generators; the central element of the ring."""
    out = der_zero(n, 1)
    for i, j in dk_generator_pairs(n):
        out = der_add(out, tau1(i, j, n))
    return out


@dataclass(frozen=True)
class DKComponent:
    """A degree-k layer, through the left-normed brackets that span it.

    ``spanning`` holds the kept brackets by their tangents (t_1..t_n), each
    t_i of degree k; ``sources`` gives each one's (generator index, position
    in the previous layer's ``spanning``), the position None at k = 1, where
    the kept elements are generators.  ``tangent_lattice`` is their span in
    tangential coordinates, labelled by tangential_coords(n, k); ``rank``
    reads it.  ``lattice`` is the same span in generator-image coordinates,
    built from the spanning tangents on first read.
    """

    rank_n: int
    degree: int
    tangent_lattice: IntLattice
    spanning: tuple[tuple, ...]
    sources: tuple[tuple[int, int | None], ...]

    @property
    def rank(self) -> int:
        return self.tangent_lattice.rank

    @cached_property
    def lattice(self) -> IntLattice:
        n, k = self.rank_n, self.degree
        return lattice_from_rows(
            (der_vector(tangential_derivation(n, k, t)) for t in self.spanning), image_dim(n, k)
        )


def dk_rank_formula(n: int, k: int) -> int:
    """Sum over l < n of the free Lie ranks d(l, k)."""
    return sum(witt_rank(l, k) for l in range(1, n))


def _tangential_layer(gens, prev: DKComponent | None, n: int, k: int) -> DKComponent:
    """Degree-k layer spanned by the degree-1 tangential derivations gens.

    The candidates are the generators at k = 1 (prev is None) and, above,
    the brackets [g, c] of each generator g with each element c that prev
    keeps, in that order.  A candidate is kept when its tangent vector
    enlarges the lattice, so the kept list stays an integral spanning set
    while the candidate count per degree remains (number of generators) x
    (previous spanning size).  The tangent-to-image map is injective on
    tangential coordinates, so a candidate enlarges this lattice exactly
    when it enlarges the image one, and a zero bracket (degree above k)
    enlarges neither.

    On layer 2 every c is a kept generator g_a, and [g_b, g_a] with a <= b
    is skipped before its bracket, as it cannot enlarge the lattice: it is
    zero for a = b, or the negative of [g_a, g_b], scanned earlier, when g_b
    was kept; a g_b that was not is a Z-combination of kept g_j, j < b, and
    each [g_j, g_a] is zero, scanned earlier or minus one that was.
    """
    if prev is None:
        candidates = (((gi, None), g.tangents) for gi, g in enumerate(gens))
    else:
        candidates = (
            ((gi, pos), der_bracket(g, c))
            for gi, g in enumerate(gens)
            for pos, c in enumerate(prev.spanning)
            if not (k == 2 and prev.sources[pos][0] <= gi)
        )
    builder = LatticeBuilder(len(tangential_coords(n, k)))
    kept = [(src, t) for src, t in candidates if builder.add(tangent_vector(n, k, t))]
    spanning, sources = tuple(t for _, t in kept), tuple(src for src, _ in kept)
    return DKComponent(n, k, builder.lattice(), spanning, sources)


@lru_cache(maxsize=None)
def dk_component(n: int, k: int) -> DKComponent:
    """Degree-k component, spanned by left-normed brackets of the tau1."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    gens = [tau1(i, j, n) for i, j in dk_generator_pairs(n)]
    return _tangential_layer(gens, dk_component(n, k - 1) if k > 1 else None, n, k)


def check_dk_presentation(n: int) -> dict:
    """Verify the infinitesimal braid relations on the tau1 realization."""
    if n < 3:
        raise ValueError("need n >= 3")
    violations: list[str] = []
    checked = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                rhs = map(lie_add, tau1_sym(i, k, n).tangents, tau1_sym(k, j, n).tangents)
                lhs = der_bracket(tau1_sym(i, j, n), tuple(rhs))
                checked += 1
                if not all(t.is_zero() for t in lhs):
                    violations.append(f"[t({i},{j}), t({i},{k}) + t({k},{j})] != 0")
    for i, j in dk_generator_pairs(n):
        for k, l in dk_generator_pairs(n):
            if {i, j} & {k, l}:
                continue
            checked += 1
            if not all(t.is_zero() for t in der_bracket(tau1(i, j, n), tau1(k, l, n).tangents)):
                violations.append(f"[t({i},{j}), t({k},{l})] != 0")
    return {"n": n, "checked": checked, "violations": violations, "passed": not violations}


@lru_cache(maxsize=None)
def _central_sublattice(n: int, k: int) -> IntLattice:
    """Elements of the degree-k component commuting with every generator.

    They are the relations among the brackets [g, d] of the spanning d with
    the generators g, taken in tangential coordinates: the brackets have
    degree k + 1 >= 2, where tangents determine the derivation, so these are
    the relations among the derivations themselves.  Only the spanning
    elements that some relation uses are moved to image coordinates.
    """
    spanning = dk_component(n, k).spanning
    gens = [tau1(i, j, n) for i, j in dk_generator_pairs(n)]
    brackets = [
        {
            (gi, ci): c
            for gi, g in enumerate(gens)
            for ci, c in tangent_vector(n, k + 1, der_bracket(g, d)).items()
        }
        for d in spanning
    ]
    relations = list(relations_among(brackets).pivot_rows.values())
    vectors = {t: der_vector(tangential_derivation(n, k, spanning[t])) for x in relations for t in x}
    return lattice_from_rows((combine(x, vectors) for x in relations), image_dim(n, k))


def dk_center(n: int, max_degree: int) -> dict[int, IntLattice]:
    """Per-degree center of the ring, tested against the degree-1 generators."""
    if n < 2:
        raise ValueError("need n >= 2")
    return {k: _central_sublattice(n, k) for k in range(1, max_degree + 1)}


def dk_star_center(n: int, max_degree: int) -> dict[int, IntLattice]:
    """Per-degree center of the quotient by the span of the central element.

    A class is central in the quotient exactly when its brackets with the
    degree-1 generators vanish (the central span has no part in degree >= 2),
    so degree k >= 2 agrees with dk_center while degree 1 is reduced modulo
    the central generator.  Raises RuntimeError when the degree-1 center is
    not inside the span of that generator: the quotient's center would then
    need a reduction that is not computed here.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    out: dict[int, IntLattice] = {}
    centers = dk_center(n, max_degree)
    for k, lat in centers.items():
        if k != 1:
            out[k] = lat
            continue
        xi_vec = der_vector(xi_derivation(n))
        xi_lat = lattice_from_rows([xi_vec], image_dim(n, 1))
        if not all(lattice_member(row, xi_lat) for row in lat.pivot_rows.values()):
            raise RuntimeError(
                f"dk-star center (n = {n}): the degree-1 center is not inside span(xi)"
            )
        out[k] = zero_lattice(image_dim(n, 1))
    return out


# ---------------------------------------------------------------------------
# rank census


def dk_rank_closed_form_deg3(n: int) -> int:
    """A published closed form for the degree-3 rank; kept for comparison.

    Conflicts with the summation formula (and with the lattice computation);
    the census reports both and flags the disagreement.
    """
    return (n - 3) * (n - 2) * n * (n - 1) // 12


def cokernel_census(n: int, k: int) -> dict:
    """Exact ranks of braid-like versus braid derivations plus the gap."""
    rank_bl = braidlike_rank(n, k)
    rank_dk = dk_component(n, k).rank
    report = {
        "n": n,
        "degree": k,
        "rank_braidlike": rank_bl,
        "rank_braidlike_formula": braidlike_rank_formula(n, k),
        "rank_dk": rank_dk,
        "rank_dk_by_summation": dk_rank_formula(n, k),
        "gap": rank_bl - rank_dk,
    }
    if k == 3:
        variant = dk_rank_closed_form_deg3(n)
        report["rank_dk_variant_closed_form"] = variant
        report["variant_closed_form_agrees"] = variant == dk_rank_formula(n, k)
    b1 = bernoulli(1)
    alternate = b1 - 1  # B_1 under the z / (e^z - 1) convention
    report["power_sum_convention"] = {
        "b1": str(b1),
        "alternate_display_b1": str(alternate),
        "discrepancy_recorded": b1 != alternate,
    }
    return report


# ---------------------------------------------------------------------------
# Bernoulli numbers and power sums


@lru_cache(maxsize=None)
def _bernoulli_upto(j: int) -> tuple[Fraction, ...]:
    # series division of z e^z by e^z - 1, both divided through by z
    num = [Fraction(1, factorial(m)) for m in range(j + 1)]
    den = [Fraction(1, factorial(m + 1)) for m in range(j + 1)]
    f: list[Fraction] = []
    for m in range(j + 1):
        s = num[m] - sum(f[i] * den[m - i] for i in range(m))
        f.append(s / den[0])
    return tuple(f[m] * factorial(m) for m in range(j + 1))


def bernoulli(j: int) -> Fraction:
    """Bernoulli number under the z e^z / (e^z - 1) convention (B_1 = +1/2)."""
    if j < 0:
        raise ValueError("index must be nonnegative")
    return _bernoulli_upto(j)[j]


@dataclass(frozen=True)
class FaulhaberPoly:
    """Closed-form polynomial for the power sum 1^a + 2^a + ... + m^a."""

    exponent: int
    coefficients: tuple  # coefficient of m^(a+1-j) at index j

    def evaluate(self, m: int) -> Fraction:
        a = self.exponent
        total = Fraction(0)
        for j, c in enumerate(self.coefficients):
            total += c * m ** (a + 1 - j)
        return total


@lru_cache(maxsize=None)
def faulhaber_poly(alpha: int) -> FaulhaberPoly:
    if alpha < 0:
        raise ValueError("exponent must be nonnegative")
    coeffs = tuple(
        Fraction(comb(alpha + 1, j)) * bernoulli(j) / (alpha + 1)
        for j in range(alpha + 1)
    )
    return FaulhaberPoly(alpha, coeffs)


def faulhaber_sum(alpha: int, m: int) -> int:
    """Exact power sum over l = 1..m through the Bernoulli closed form."""
    if m < 0:
        raise ValueError("upper limit must be nonnegative")
    val = faulhaber_poly(alpha).evaluate(m)
    if val.denominator != 1:
        raise ArithmeticError("closed form did not produce an integer")
    return int(val)


def power_sum_direct(alpha: int, m: int) -> int:
    return sum(l**alpha for l in range(1, m + 1))
