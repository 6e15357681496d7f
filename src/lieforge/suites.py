"""End-to-end verification suites tying group computations to Lie lattices.

Each suite produces a SuiteReport with one record per check.  Reports are
deterministic for a fixed parameter set and seed: sampling uses string-seeded
generators derived from (seed, suite, stratum, index).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

from .braids import (
    AutWord,
    aut_commutator,
    aut_mul,
    aut_word,
    boundary,
    braid_abelianize,
    c_j_table,
    chi_table,
    cki_table,
    evaluate,
    family_generators,
    pure_a_table,
    quotient_table,
    sym_a,
    sym_chi,
    sym_tri,
    xi_word,
)
from .derivations import (
    HomDerivation,
    ad_derivation,
    ad_image_lattice,
    der_scale,
    der_vector,
    image_dim,
    tangential_derivation,
)
from .dk import (
    _tangential_layer,
    der_bracket_of_generators,
    dk_component,
    dk_rank_formula,
    xi_derivation,
)
from .freelie import (
    LieElement,
    boundary_element,
    centralizer_of_linear,
    lie_bracket,
    lie_generator,
    lyndon_words,
    witt_rank,
)
from .magnus import (
    AboveCutoff,
    SeriesEndo,
    SeriesSubstitution,
    endo_to_series,
    inner_series_endo,
    johnson_image,
    magnus_expand,
    pair_commutator,
    same_degree,
    series_a_degree,
    series_endo_commutator,
    series_endo_inverse,
    series_johnson_image,
    series_read_off,
    word_read_off,
)
from .words import (
    ReducedWord,
    endo_compose,
    endo_equal,
    endo_identity,
    endo_inner,
    word_commutator,
    word_from_pairs,
    word_gen,
    word_identity,
    word_inverse,
    word_mul,
)
from .zlattice import lattice_from_rows, lattice_intersect, lattice_member


@dataclass
class CheckRecord:
    description: str
    expected: str
    computed: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }


@dataclass
class SuiteReport:
    suite: str
    params: dict
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def check(self, description: str, expected, computed, ok: bool | None = None):
        if ok is None:
            ok = expected == computed
        self.records.append(CheckRecord(description, str(expected), str(computed), ok))
        return ok

    def failures(self) -> list:
        return [r for r in self.records if not r.passed]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "pass": self.passed,
            "records": [r.to_dict() for r in self.records],
        }


def _rng(seed, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _left_normed(n: int, letters):
    """[l1, [l2, [... [l_{w-1}, l_w]]]] for a list of signed generator indices."""
    words = [word_gen(n, abs(g), 1 if g > 0 else -1) for g in letters]
    out = words[-1]
    for w in reversed(words[:-1]):
        out = word_commutator(w, out)
    return out


def _sample_word(n: int, target: int, rng: random.Random, max_degree: int):
    """A random word of intended filtration degree `target`, with noise."""
    def rand_letters(count):
        return [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(count)]

    w = _left_normed(n, rand_letters(target))
    for _ in range(4):
        if not w.is_identity():
            break
        w = _left_normed(n, rand_letters(target))
    roll = rng.randrange(100)
    if roll < 50 and target + 1 <= max_degree:
        w = word_mul(w, _left_normed(n, rand_letters(target + 1)))
    elif roll < 65:
        w = word_mul(w, _left_normed(n, rand_letters(target)))
    return w


def verify_inner_equality(n: int, max_degree: int, samples: int, seed=42) -> SuiteReport:
    """Degree agreement between a word and the inner automorphism it induces."""
    if n < 2 or max_degree < 3:
        raise ValueError("need n >= 2 and max_degree >= 3")
    rep = SuiteReport(
        "inner-equality",
        {"n": n, "max_degree": max_degree, "samples": samples, "seed": seed},
    )
    strata = list(range(1, max_degree))
    for idx in range(samples):
        target = strata[idx % len(strata)]
        rng = _rng(seed, "inner", n, target, idx)
        w = _sample_word(n, target, rng, max_degree)
        wr = word_read_off(w, max_degree)
        dg = wr.degree
        if w.is_identity():
            da: object = AboveCutoff(is_identity=True)
        else:
            da = series_a_degree(inner_series_endo(wr.series))
        # a_degree resolves at most max_degree - 1 (displacements are only
        # expanded to max_degree), so a word of degree exactly max_degree
        # must come back as AboveCutoff on the automorphism side
        if not isinstance(dg, AboveCutoff) and dg >= max_degree:
            effective: object = AboveCutoff()
        else:
            effective = dg
        rep.check(
            f"sample {idx} (target degree {target}, word length {w.length()})",
            "a_degree(c_w) == gamma_degree(w)",
            f"gamma={dg}, a_degree={da}",
            same_degree(effective, da),
        )
    return rep


def verify_center_pn(n: int) -> SuiteReport:
    """The central braid: inverse of the boundary conjugation, commuting, primitive."""
    if not 2 <= n <= 6:
        raise ValueError("need 2 <= n <= 6")
    rep = SuiteReport("center-pn", {"n": n})
    xi = evaluate(xi_word(n))
    inner_b = endo_inner(boundary(n))
    rep.check(
        "xi_n composed with inner(boundary) is the identity",
        True,
        endo_equal(endo_compose(xi, inner_b), endo_identity(n))
        and endo_equal(endo_compose(inner_b, xi), endo_identity(n)),
    )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a = pure_a_table(i, j, n)
            rep.check(
                f"xi_n commutes with A({i},{j})",
                True,
                endo_equal(endo_compose(xi, a), endo_compose(a, xi)),
            )
    vec = braid_abelianize(xi_word(n))
    rep.check("abelianization of xi_n is the all-ones vector", [1] * len(vec), vec)
    rep.check("abelianization of xi_n is primitive (gcd 1)", 1, math.gcd(*vec))
    return rep


def verify_quotient_action(n: int) -> SuiteReport:
    """Quotient-action identities for the punctured-sphere action."""
    if not 3 <= n <= 6:
        raise ValueError("need 3 <= n <= 6")
    rep = SuiteReport("quotient-action", {"n": n})
    for j in range(1, n):
        q = quotient_table(c_j_table(j, n))
        expected = endo_inner(word_from_pairs(n - 1, [(t, 1) for t in range(1, j + 1)]))
        rep.check(
            f"quotient of C({j}) equals inner(x1...x{j}) on the smaller free group",
            True,
            endo_equal(q, expected),
        )
    q = quotient_table(evaluate(xi_word(n)))
    rep.check(
        "quotient of xi_n is the identity",
        True,
        endo_equal(q, endo_identity(n - 1)),
    )
    for i in range(1, n):
        for j in range(i + 1, n):
            section = pure_a_table(i, j, n)  # fixes x_n, so it is the section image
            rep.check(
                f"section round-trip for A({i},{j})",
                True,
                endo_equal(quotient_table(section), pure_a_table(i, j, n - 1)),
            )
    return rep


def _expected_family_rank(family: str, n: int, k: int) -> int:
    if family == "Inn":
        return witt_rank(n, k)
    if family == "Pn":
        return dk_rank_formula(n, k)
    if family == "FnPn":
        return witt_rank(n, k) + dk_rank_formula(n, k) - (1 if k == 1 else 0)
    raise ValueError(f"no rank prediction for family {family!r}")


@lru_cache(maxsize=None)
def _generator_series(family: str, n: int, d: int):
    """(series table, inverse series table) of each family generator, cutoff d."""
    return tuple(
        (endo_to_series(evaluate(g), d), endo_to_series(evaluate(g.inverse()), d))
        for g in family_generators(family, n)
    )


def _conjugating_word(g: AutWord) -> ReducedWord | None:
    """The word w with g = inn(w), read off g's symbols when every one is
    inner (the leftmost acts last, so inn(u) inn(v) = inn(uv)); else None."""
    w = word_identity(g.rank_n)
    for sym, sign in g.symbols:
        if sym.kind != "inner":
            return None
        w = word_mul(w, sym.word if sign > 0 else word_inverse(sym.word))
    return w


class _Tail(NamedTuple):
    """A kept commutator below the top layer, holding only what the next
    layer composes by: for an inner one, inn(v), its expansion pair
    (mu(v), mu(v)^-1) as conjugator, with None for both tables; for any
    other, its series table and inverse series table, with None as
    conjugator.  Its tangents are its layer's spanning entry."""

    table: SeriesEndo | None = None
    inverse: SeriesEndo | None = None
    conjugator: tuple | None = None

    def tables(self) -> tuple:
        """(table, inverse table), built from the pair for an inner tail:
        inn(v)^-1 = inn(v^-1), whose pair is v's reversed."""
        if self.conjugator is None:
            return self.table, self.inverse
        return inner_series_endo(*self.conjugator), inner_series_endo(*self.conjugator[::-1])


def _tangential(jd: HomDerivation) -> HomDerivation | None:
    """A degree-1 derivation rebuilt from its tangents X_i -> [X_i, t_i], or
    None when it is not tangential.

    [X_i, X_m] is P_im for i < m and -P_mi for m < i, so the degree-2 Lyndon
    coordinates of each image name the linear t_i (with no X_i term, the
    kernel of the parametrization); the rebuilt derivation equals jd exactly
    when jd is tangential.
    """
    n = jd.rank_n
    if jd.degree != 1:
        return None
    words = lyndon_words(n, 2)
    tangents = []
    for i, img in enumerate(jd.images, start=1):
        t = {}
        for p, c in img.coeffs.items():
            a, b = words[p]
            if a == i:
                t[b - 1] = c
            elif b == i:
                t[a - 1] = -c
        tangents.append(LieElement(n, 1, t))
    tau = tangential_derivation(n, 1, tuple(tangents))
    return tau if tau == jd else None


def _johnson_layers(family: str, n: int, max_degree: int):
    """Degree-k Johnson layers of weight-k left-normed commutators, yielded
    as (component, tails, scanned) for k = 1..max_degree.

    The Johnson map is a Lie morphism, tau_k([g, c]) = [tau_1(g),
    tau_{k-1}(c)] (Satoh 2016), so the layers' Lie side is
    dk._tangential_layer of the generators' degree-1 Johnson images, read
    off their series and required to be tangential.  component is the
    layer, with the (generator, tail) source of each spanning bracket;
    tails[i] is the commutator that witnesses component.spanning[i], and
    the top layer (k == max_degree) yields none, since nothing brackets
    against it.  scanned is (number of generators) x (previous spanning
    size).

    Only the kept commutators are composed, once, at the full cutoff
    max_degree+1 (word-level normal forms of nested braid commutators grow
    exponentially, their truncated series tables do not), and read with
    the checking tensor_to_lyndon: each must have degree k and its spanning
    bracket as its image, or RuntimeError is raised, as it is when a
    witness cannot be read at all (any ValueError of the read-off,
    NonIAError included).  The route depends only on the shape.  A
    generator is inner when all its symbols are (its word is read off them,
    never assumed from the family); an inner generator and an inner tail
    have an inner commutator, whose pair is pair_commutator of theirs and
    whose table is inner_series_endo of that pair.  Every other kept one is
    composed by series_endo_commutator, an inner tail by the tables
    _Tail.tables builds from its pair, and so is every randomized sample of
    verify_johnson_injectivity, so each run checks the two routes against
    each other.  A kept one below the top layer is inverted by
    series_endo_inverse, a Neumann sum over its own substitution, not
    composed again as [c, g]; a generator's inverse table stays the
    word-level one.

    For FnPn no kept candidate mixes an inner factor with a non-inner one.
    FnPn lists inn(x_1), ..., inn(x_n) before P_n's generators, and each
    kept list is in generator order, so the inner runs come first.  By
    induction on k, the inner runs keep only inner commutators, and these
    span ad(L_k).  An inner generator meets a tangential tail D, D(X_i) =
    [X_i, t_i], in [ad X_i, D] = -ad(D(X_i)) = -[ad X_i, ad t_i]: a
    combination of the [ad X_i, inner tails] its run scanned first.  A
    non-inner generator D meets an inner tail ad v in [D, ad v] =
    ad(D(v)), inside ad(L_k) = sum_i [ad X_i, ad L_{k-1}], which the inner
    runs already span.  Layer 2's mirror skip changes neither argument.
    Other generator orders do reach the mixed shapes, and the general route
    keeps them correct.
    """
    top = max_degree + 1
    gen_series = _generator_series(family, n, top)
    x_pairs = [
        None if (x := _conjugating_word(g)) is None
        else (magnus_expand(x, top), magnus_expand(word_inverse(x), top))
        for g in family_generators(family, n)
    ]
    taus = []
    for idx, g in enumerate(gen_series, start=1):
        tau = _tangential(series_johnson_image(g[0]))
        if tau is None:
            raise RuntimeError(
                f"{family} Johnson layer 1: the degree-1 Johnson image of generator "
                f"{idx} is not tangential"
            )
        taus.append(tau)
    comp, prev_tails = None, ()
    for k in range(1, max_degree + 1):
        scanned = len(taus) * (len(comp.spanning) if comp else 1)
        comp = _tangential_layer(taus, comp, n, k)
        tails = []
        for gi, run in groupby(zip(comp.sources, comp.spanning), key=lambda s: s[0][0]):
            g, x_pair = gen_series[gi], x_pairs[gi]
            # substitutions of g and g^-1 serve g's whole run of kept
            # commutators and are dropped when the run ends; layer 1
            # composes nothing
            if k > 1:
                subs = SeriesSubstitution(g[0]), SeriesSubstitution(g[1])
            else:
                subs = None, None
            for (_, pos), tangents in run:
                c = None if pos is None else prev_tails[pos]
                if c is None:
                    se, pair = g[0], x_pair
                elif x_pair is not None and c.conjugator is not None:
                    pair = pair_commutator(x_pair, c.conjugator)
                    se = inner_series_endo(*pair)
                else:
                    se = series_endo_commutator(
                        *g, *c.tables(), a_sub=subs[0], a_inv_sub=subs[1]
                    )
                    pair = None
                where = f"{family} Johnson layer {k}: the kept commutator with generator {gi + 1}"
                try:
                    ro = series_read_off(se)
                    if ro.degree != k:
                        raise RuntimeError(f"{where} has degree {ro.degree}, not {k}")
                    image = ro.johnson_image()
                except ValueError as e:
                    raise RuntimeError(f"{where} cannot be read off: {e}") from e
                if image != tangential_derivation(n, k, tangents):
                    raise RuntimeError(f"{where} has a Johnson image other than its Lie bracket")
                if k == max_degree:
                    continue
                if pair is not None:
                    tails.append(_Tail(conjugator=pair))
                elif c is None:
                    tails.append(_Tail(*g))
                else:
                    tails.append(_Tail(se, series_endo_inverse(se)))
        yield comp, tuple(tails), scanned
        prev_tails = tails


def _random_commutator_series(gen_series, rng, weight: int, inverse: bool = False):
    """Random bracketing shape of the given weight over the generators.

    Returns (series, inverse series).  The inverse of a commutator is built
    only when asked for, which a parent commutator does for both of its
    subtrees; otherwise it is None.  It is series_endo_inverse of the
    commutator's own table, so every internal node composes exactly one
    series_endo_commutator, and it draws nothing from rng.  A generator's
    inverse is its word-level table from gen_series.
    """
    if weight == 1:
        return gen_series[rng.randrange(len(gen_series))]
    split = rng.randint(1, weight - 1)
    a, a_inv = _random_commutator_series(gen_series, rng, split, inverse=True)
    b, b_inv = _random_commutator_series(gen_series, rng, weight - split, inverse=True)
    se = series_endo_commutator(a, a_inv, b, b_inv)
    return se, series_endo_inverse(se) if inverse else None


def verify_johnson_injectivity(family: str, n: int, max_degree: int, seed=42) -> SuiteReport:
    """Rank witnesses for the graded images of automorphism families."""
    if family not in ("Inn", "Pn", "FnPn"):
        raise ValueError("family must be one of Inn, Pn, FnPn")
    if n < 2 or max_degree < 1:
        raise ValueError("need n >= 2 and max_degree >= 1")
    rep = SuiteReport("johnson-injectivity", {"family": family, "n": n, "max_degree": max_degree})
    layers = {}
    for k, (comp, _, scanned) in enumerate(_johnson_layers(family, n, max_degree), start=1):
        layers[k] = comp
        rep.check(
            f"degree-{k} image lattice rank ({scanned} commutators scanned)",
            _expected_family_rank(family, n, k),
            comp.rank,
        )
    # randomized no-counterexample search: a sampled element whose filtration
    # degree is k must have its image inside the degree-k lattice
    gen_series = _generator_series(family, n, max_degree + 1)
    hits = 0
    attempt = 0
    while hits < 8 and attempt < 64:
        rng = _rng(seed, "johnson-sample", family, n, attempt)
        attempt += 1
        se, _ = _random_commutator_series(gen_series, rng, rng.randint(1, max_degree))
        ro = series_read_off(se)
        deg = ro.degree
        if isinstance(deg, AboveCutoff) or deg > max_degree:
            continue
        hits += 1
        rep.check(
            f"sampled element of degree {deg} lies in the degree-{deg} lattice "
            f"(attempt {attempt - 1})",
            True,
            lattice_member(der_vector(ro.johnson_image()), layers[deg].lattice),
        )
    if family == "Pn":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    word = aut_commutator(
                        aut_word(n, sym_a(i, k)), aut_word(n, sym_a(j, k))
                    )
                    jd = johnson_image(evaluate(word), 3)
                    ref = der_bracket_of_generators(i, j, k, n)
                    rep.check(
                        f"group bracket [A({i},{k}),A({j},{k})] maps to the "
                        f"derivation bracket",
                        True,
                        jd == ref,
                    )
    return rep


def verify_key_theorem_hypothesis(n: int, max_degree: int) -> SuiteReport:
    """Intersections of braid derivations with inner derivations, per degree."""
    if not 3 <= n <= 4 or max_degree > 4:
        raise ValueError("need 3 <= n <= 4 and max_degree <= 4")
    rep = SuiteReport("key-theorem-hypothesis", {"n": n, "max_degree": max_degree})
    for k in range(1, max_degree + 1):
        inter = lattice_intersect(dk_component(n, k).lattice, ad_image_lattice(n, k))
        if k == 1:
            ad_b = ad_derivation(boundary_element(n))
            expected = lattice_from_rows([der_vector(ad_b)], image_dim(n, 1))
            rep.check(
                "degree-1 intersection is spanned by ad(boundary)",
                True,
                inter == expected,
            )
            jd = johnson_image(endo_inner(boundary(n)), 3)
            rep.check(
                "degree-1 generator is the Johnson image of the boundary conjugation",
                True,
                lattice_member(der_vector(jd), inter) and inter.rank == 1,
            )
            rep.check(
                "central derivation is minus ad(boundary)",
                True,
                xi_derivation(n) == der_scale(ad_b, -1),
            )
        else:
            rep.check(f"degree-{k} intersection is zero", 0, inter.rank)
    return rep


def verify_triangular_degree1(n: int) -> SuiteReport:
    """Degree-1 hallmark of triangular automorphisms: they kill X_1."""
    if not 3 <= n <= 4:
        raise ValueError("need 3 <= n <= 4")
    rep = SuiteReport("triangular-degree1", {"n": n})
    for phi in family_generators("IAnPlus", n):
        table = evaluate(phi)
        jd = johnson_image(table, 4)
        rep.check(
            f"johnson image of {phi.label()} kills X1",
            True,
            jd.image(1).is_zero(),
        )
    cent = centralizer_of_linear(lie_generator(n, 1), 1)
    expected = lattice_from_rows([{0: 1}], n)
    rep.check(
        "inner derivations killing X1 come from multiples of X1",
        True,
        cent == expected,
    )
    chain = aut_mul(*[aut_word(n, sym_chi(k, 1)).inverse() for k in range(2, n + 1)])
    rep.check(
        "conjugation by x1 is a product of triangular generators",
        True,
        endo_equal(evaluate(chain), endo_inner(word_gen(n, 1))),
    )
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            lhs = endo_compose(cki_table(k, i, n), cki_table(k - 1, i, n, sign=-1))
            rep.check(
                f"partial inner quotient c({k},{i})c({k - 1},{i})^-1 equals chi({k},{i})",
                True,
                endo_equal(lhs, chi_table(k, i, n)),
            )
    for i in range(1, n + 1):
        rep.check(
            f"partial inner c({n},{i}) is conjugation by x{i}^-1",
            True,
            endo_equal(cki_table(n, i, n), endo_inner(word_gen(n, i, -1))),
        )
    gamma = word_from_pairs(n, [(1, 1), (2, 1), (1, -1), (2, -1)])
    phi = aut_word(n, sym_tri(3, word_identity(n), gamma))
    jd = johnson_image(evaluate(phi), 4)
    rep.check(
        "insertion of [x1,x2] on x3 has Johnson image X3 -> [X1,X2], X1 -> 0",
        True,
        jd.image(1).is_zero()
        and jd.image(3) == lie_bracket(lie_generator(n, 1), lie_generator(n, 2)),
    )
    return rep


def verify_all(n: int, max_degree: int, samples: int = 60, seed=42) -> list[SuiteReport]:
    """Run every suite applicable at rank n and collect the reports."""
    reports = [verify_inner_equality(n, max(3, max_degree), samples, seed)]
    if 2 <= n <= 6:
        reports.append(verify_center_pn(n))
    if 3 <= n <= 6:
        reports.append(verify_quotient_action(n))
    jd_deg = min(max_degree, 4)
    if n <= 4:
        for family in ("Inn", "Pn", "FnPn"):
            reports.append(verify_johnson_injectivity(family, n, jd_deg, seed))
    if 3 <= n <= 4:
        reports.append(verify_key_theorem_hypothesis(n, jd_deg))
        reports.append(verify_triangular_degree1(n))
    return reports
