import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from lieforge.derivations import HomDerivation
from lieforge.freelie import (
    LieElement,
    lie_bracket,
    lie_generator,
    lie_scale,
    lyndon_words,
    tensor_expand_word,
    tensor_to_lyndon,
    to_tensor,
)
from lieforge.magnus import (
    AboveCutoff,
    NonIAError,
    a_degree,
    endo_to_series,
    gamma_degree,
    inner_series_endo,
    johnson_image,
    lie_class,
    magnus_expand,
    same_degree,
    series_a_degree,
    SeriesEndo,
    SeriesSubstitution,
    TruncSeries,
    series_endo_commutator,
    series_endo_compose,
    series_endo_inverse,
    series_inverse,
    series_johnson_image,
    series_mul,
    series_read_off,
    word_read_off,
    _by_degree,
    _times_letter_power,
    _truncated_product,
)
from lieforge.words import (
    EndoTable,
    endo_apply,
    endo_compose,
    endo_identity,
    endo_inner,
    exponent_sums,
    parse_word,
    word_commutator,
    word_from_pairs,
    word_gen,
    word_identity,
    word_inverse,
    word_mul,
)
from lieforge.zlattice import lattice_member, lattice_from_rows


def trunc_series(n, d, coeffs):
    """The TruncSeries with the terms of a flat dict {monomial: coeff}."""
    parts = [{} for _ in range(d + 1)]
    for m, c in coeffs.items():
        parts[len(m)][m] = c
    return TruncSeries(n, d, parts)


def series_endo_identity(n, d):
    """Series table of the identity: x_i -> 1 + X_i."""
    return SeriesEndo(n, d, tuple(trunc_series(n, d, {(): 1, (i,): 1}) for i in range(1, n + 1)))


def _random_word(rng, n, letters=5):
    return word_from_pairs(
        n, [(rng.randint(1, n), rng.choice([-2, -1, 1, 2])) for _ in range(letters)]
    )


def test_expand_examples():
    s = magnus_expand(word_gen(2, 1), 3)
    assert s.coeffs == {(): 1, (1,): 1}
    s = magnus_expand(word_gen(2, 1, -1), 2)
    assert s.coeffs == {(): 1, (1,): -1, (1, 1): 1}
    s = magnus_expand(word_commutator(word_gen(2, 1), word_gen(2, 2)), 2)
    assert s.coeffs == {(): 1, (1, 2): 1, (2, 1): -1}
    assert magnus_expand(word_identity(3), 4).coeffs == {(): 1}


def test_expand_multiplicative():
    rng = random.Random(31)
    for _ in range(500):
        a = _random_word(rng, 3, 4)
        b = _random_word(rng, 3, 4)
        lhs = magnus_expand(word_mul(a, b), 5)
        rhs = series_mul(magnus_expand(a, 5), magnus_expand(b, 5))
        assert lhs.coeffs == rhs.coeffs


def test_gamma_degree_examples():
    assert gamma_degree(word_gen(2, 1), 4) == 1
    c = word_commutator(word_gen(2, 1), word_gen(2, 2))
    assert gamma_degree(c, 4) == 2
    assert gamma_degree(word_commutator(word_gen(2, 1), c), 4) == 3
    top = gamma_degree(word_identity(2), 4)
    assert isinstance(top, AboveCutoff) and top.is_identity


def test_gamma_strong_centrality():
    rng = random.Random(37)
    for _ in range(40):
        a = _random_word(rng, 2, 3)
        b = word_commutator(_random_word(rng, 2, 2), _random_word(rng, 2, 2))
        da, db = gamma_degree(a, 6), gamma_degree(b, 6)
        dc = gamma_degree(word_commutator(a, b), 6)
        if isinstance(da, AboveCutoff) or isinstance(db, AboveCutoff):
            continue
        if isinstance(dc, AboveCutoff):
            continue
        assert dc >= da + db


def test_lie_class_examples():
    assert lie_class(word_gen(2, 1), 3) == lie_generator(2, 1)
    c = word_commutator(word_gen(2, 1), word_gen(2, 2))
    b12 = lie_bracket(lie_generator(2, 1), lie_generator(2, 2))
    assert lie_class(c, 3) == b12
    c_rev = word_commutator(word_gen(2, 2), word_gen(2, 1))
    assert lie_class(c_rev, 3) == lie_scale(b12, -1)
    with pytest.raises(ValueError):
        lie_class(word_identity(2), 3)


def test_lie_class_is_lie_element_in_expansion_lattice():
    rng = random.Random(41)
    n = 3
    for _ in range(15):
        w = word_commutator(_random_word(rng, n, 2), _random_word(rng, n, 2))
        d = gamma_degree(w, 5)
        if isinstance(d, AboveCutoff) or d > 4:
            continue
        cls = lie_class(w, 5)
        slice_ = magnus_expand(w, d).parts[d]
        assert to_tensor(cls) == slice_
        # membership in the lattice spanned by expanded basis brackets
        monos = sorted({m for u in lyndon_words(n, d) for m in tensor_expand_word(u)})
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for u in lyndon_words(n, d):
            vec = [0] * len(monos)
            for m, c in tensor_expand_word(u).items():
                vec[index[m]] = c
            rows.append(vec)
        lat = lattice_from_rows(rows, len(monos))
        target = [0] * len(monos)
        for m, c in slice_.items():
            target[index[m]] = c
        assert lattice_member(target, lat)


def test_a_degree_examples():
    n = 2
    assert isinstance(a_degree(endo_identity(n), 4), AboveCutoff)
    assert a_degree(endo_inner(word_gen(n, 1)), 4) == 1
    c = word_commutator(word_gen(n, 1), word_gen(n, 2))
    assert a_degree(endo_inner(c), 5) == 2
    swap = EndoTable(n, (word_gen(n, 2), word_gen(n, 1)))
    with pytest.raises(NonIAError, match="x1"):
        a_degree(swap, 4)


def test_inner_degree_equality_sampled():
    rng = random.Random(43)
    for n in (2, 3, 4):
        for _ in range(25):
            depth = rng.randint(1, 4)
            w = _random_word(rng, n, 2)
            for _ in range(depth - 1):
                w = word_commutator(_random_word(rng, n, 1), w)
            dg = gamma_degree(w, 6)
            if w.is_identity():
                continue
            da = a_degree(endo_inner(w), 6)
            assert same_degree(dg, da), (n, w)


def test_full_filtration_sampled():
    # for phi of degree j and u of degree i, phi(u)u^-1 lands in degree >= i+j
    from lieforge.braids import chi_table, evaluate, xi_word

    rng = random.Random(47)
    n = 3
    phis = [
        endo_inner(word_commutator(word_gen(n, 1), word_gen(n, 2))),
        evaluate(xi_word(n)),
        chi_table(3, 1, n),
    ]
    for phi in phis:
        j = a_degree(phi, 5)
        assert not isinstance(j, AboveCutoff)
        for _ in range(20):
            u = _random_word(rng, n, 3)
            du = gamma_degree(u, 3)
            if isinstance(du, AboveCutoff) or du > 3:
                continue
            disp = word_mul(endo_apply(phi, u), word_inverse(u))
            dd = gamma_degree(disp, 6)
            assert isinstance(dd, AboveCutoff) or dd >= du + j


def test_johnson_examples():
    from lieforge.derivations import ad_derivation

    n = 3
    jd = johnson_image(endo_inner(word_gen(n, 1)), 3)
    assert jd == ad_derivation(lie_generator(n, 1))
    with pytest.raises(ValueError):
        johnson_image(endo_identity(n), 3)


# ---------------------------------------------------------------------------
# the degree read-off against the word-displacement path


def _read_off_by_words(e, d):
    """(degree, Johnson image or None) of e by expanding each displacement
    word e(x_i) x_i^-1; ("x<i>", None) for the first non-IA generator."""
    n = e.rank_n
    disps = [word_mul(e.images[i - 1], word_inverse(word_gen(n, i))) for i in range(1, n + 1)]
    for i, w in enumerate(disps, start=1):
        if any(exponent_sums(w)):
            return f"x{i}", None
    lows = [magnus_expand(w, d).lowest_degree() for w in disps]
    if all(low is None for low in lows):
        return AboveCutoff(is_identity=all(w.is_identity() for w in disps)), None
    j = min(low for low in lows if low is not None) - 1
    images = []
    for w in disps:
        tensor = magnus_expand(w, j + 1).parts[j + 1]
        coords = tensor_to_lyndon(n, tensor)
        images.append(LieElement(n, j + 1, coords))
    return j, HomDerivation(n, j, tuple(images))


@st.composite
def aut_exprs(draw):
    """(n, parse_aut_expr text): a product, P.P^-1 or a commutator of symbols."""
    n = draw(st.integers(2, 4))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1])
    gen = st.integers(1, n).map(lambda i: f"x{i}")
    symbol = st.one_of(
        pair.map(lambda p: f"A({p[0]},{p[1]})"),
        st.integers(1, n - 1).map(lambda j: f"C({j})"),
        st.just("xi"),
        st.lists(gen, min_size=1, max_size=2).map(lambda ws: f"inn({' '.join(ws)})"),
        st.integers(1, n - 1).map(lambda i: f"s{i}"),
    )
    factor = st.tuples(symbol, st.booleans())
    shape = draw(st.sampled_from(("product", "cancel", "commutator")))
    p = draw(st.lists(factor, min_size=1, max_size=3 if shape == "product" else 2))
    q = draw(st.lists(factor, min_size=1, max_size=2))

    def inverse(fs):
        return [(sym, not inv) for sym, inv in reversed(fs)]

    if shape == "cancel":
        p = p + inverse(p)
    elif shape == "commutator":
        p = p + q + inverse(p) + inverse(q)
    return n, ".".join(sym + ("^-1" if inv else "") for sym, inv in p)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(aut_exprs(), st.integers(2, 5))
def test_read_off_matches_word_displacements(case, d):
    from lieforge.braids import evaluate
    from lieforge.cli import parse_aut_expr

    n, text = case
    e = evaluate(parse_aut_expr(n, text))
    want, want_image = _read_off_by_words(e, d)
    if isinstance(want, str):
        for read_off in (a_degree, johnson_image):
            with pytest.raises(NonIAError, match=f"image of {want} shifts"):
                read_off(e, d)
        return
    got = a_degree(e, d)
    assert got == want and type(got) is type(want), text
    ro = series_read_off(endo_to_series(e, d))
    assert same_degree(ro.degree, want), text
    if isinstance(want, AboveCutoff):
        assert got.is_identity == want.is_identity
        with pytest.raises(ValueError, match="no finite degree"):
            johnson_image(e, d)
        with pytest.raises(ValueError, match="no finite degree"):
            ro.johnson_image()
    else:
        assert johnson_image(e, d) == want_image, text
        assert ro.johnson_image() == want_image, text


def test_read_off_identity_flag():
    n = 3
    assert a_degree(endo_identity(n), 3) == AboveCutoff(is_identity=True)
    # a commutator of degree 3 reads AboveCutoff, not identity, at cutoff 3
    c = word_commutator(word_gen(n, 1), word_commutator(word_gen(n, 2), word_gen(n, 3)))
    assert a_degree(endo_inner(c), 3) == AboveCutoff(is_identity=False)
    assert a_degree(endo_inner(c), 4) == 3
    with pytest.raises(ValueError, match="cutoff degree must be at least 2"):
        a_degree(endo_identity(n), 1)
    with pytest.raises(ValueError, match="cutoff degree must be at least 2"):
        johnson_image(endo_inner(word_gen(n, 1)), 1)


def test_series_endo_matches_table_composition():
    rng = random.Random(53)
    n = 3
    for _ in range(10):
        e1 = endo_inner(_random_word(rng, n, 2))
        e2 = endo_inner(_random_word(rng, n, 2))
        direct = endo_to_series(endo_compose(e1, e2), 4)
        composed = series_endo_compose(endo_to_series(e1, 4), endo_to_series(e2, 4))
        assert [s.coeffs for s in direct.images] == [s.coeffs for s in composed.images]


def test_series_inverse_and_inner_series():
    rng = random.Random(59)
    n = 2
    for _ in range(10):
        w = _random_word(rng, n, 3)
        mu = magnus_expand(w, 4)
        inv = series_inverse(mu)
        assert series_mul(mu, inv).coeffs == {(): 1}
        se = inner_series_endo(mu)
        table = endo_to_series(endo_inner(w), 4)
        assert [s.coeffs for s in se.images] == [s.coeffs for s in table.images]


@st.composite
def words_with_identity(draw, n_max=3):
    """A reduced word over at most 3 generators, possibly a commutator, possibly 1."""
    n = draw(st.integers(2, n_max))
    letters = st.tuples(st.integers(1, n), st.sampled_from((1, -1, 2, -2)))
    u = word_from_pairs(n, draw(st.lists(letters, max_size=4)))
    if draw(st.booleans()):
        v = word_from_pairs(n, draw(st.lists(letters, max_size=3)))
        u = word_commutator(u, v)
    return u


@settings(derandomize=True, deadline=None, max_examples=150)
@given(words_with_identity(), st.integers(1, 5))
def test_word_read_off_matches_separate_reads(w, d):
    wr = word_read_off(w, d)
    mu = magnus_expand(w, d)
    assert wr.series.coeffs == mu.coeffs
    dg = gamma_degree(w, d)
    assert same_degree(wr.degree, dg)
    assert repr(wr.degree) == repr(dg)
    assert isinstance(wr.degree, AboveCutoff) == (mu.lowest_degree() is None)
    if isinstance(wr.degree, AboveCutoff):
        # the identity flag is set exactly on the identity word
        assert wr.degree.is_identity == w.is_identity()
        with pytest.raises(ValueError, match="no class below the cutoff"):
            wr.lie_class()
        with pytest.raises(ValueError, match="no class below the cutoff"):
            lie_class(w, d)
    else:
        k = mu.lowest_degree()
        assert wr.degree == k
        expected = LieElement(w.rank_n, k, tensor_to_lyndon(w.rank_n, mu.parts[k]))
        assert wr.lie_class() == expected == lie_class(w, d)
    se = inner_series_endo(wr.series)
    table = endo_to_series(endo_inner(w), d)
    assert [s.coeffs for s in se.images] == [s.coeffs for s in table.images]


def test_series_johnson_matches_word_johnson():
    n = 3
    c = word_commutator(word_gen(n, 1), word_gen(n, 2))
    se = inner_series_endo(magnus_expand(c, 5))
    assert series_a_degree(se) == 2
    assert series_johnson_image(se) == johnson_image(endo_inner(c), 5)


def test_series_commutator_matches_group_commutator():
    n = 2
    a, b = word_gen(n, 1), word_gen(n, 2)
    sa, sb = inner_series_endo(magnus_expand(a, 4)), inner_series_endo(magnus_expand(b, 4))
    sa_i = inner_series_endo(magnus_expand(word_inverse(a), 4))
    sb_i = inner_series_endo(magnus_expand(word_inverse(b), 4))
    comm = series_endo_commutator(sa, sa_i, sb, sb_i)
    direct = inner_series_endo(magnus_expand(word_commutator(a, b), 4))
    assert [s.coeffs for s in comm.images] == [s.coeffs for s in direct.images]


def test_series_composition_matches_tables_for_braids():
    from lieforge.braids import c_j_table, evaluate, family_generators, xi_word

    n = 3
    tables = [evaluate(g) for g in family_generators("Pn", n)]
    tables += [c_j_table(1, n), c_j_table(2, n), evaluate(xi_word(n))]
    d = 4
    for a in tables[:4]:
        for b in tables[3:]:
            direct = endo_to_series(endo_compose(a, b), d)
            composed = series_endo_compose(endo_to_series(a, d), endo_to_series(b, d))
            assert [s.coeffs for s in direct.images] == [
                s.coeffs for s in composed.images
            ]


def test_series_commutator_matches_table_commutator_for_braids():
    from lieforge.braids import aut_commutator, aut_word, evaluate, sym_a

    n = 3
    d = 4
    w = aut_commutator(aut_word(n, sym_a(1, 3)), aut_word(n, sym_a(2, 3)))
    direct = endo_to_series(evaluate(w), d)
    a = endo_to_series(evaluate(aut_word(n, sym_a(1, 3))), d)
    ai = endo_to_series(evaluate(aut_word(n, sym_a(1, 3)).inverse()), d)
    b = endo_to_series(evaluate(aut_word(n, sym_a(2, 3))), d)
    bi = endo_to_series(evaluate(aut_word(n, sym_a(2, 3)).inverse()), d)
    comm = series_endo_commutator(a, ai, b, bi)
    assert [s.coeffs for s in direct.images] == [s.coeffs for s in comm.images]


# ---------------------------------------------------------------------------
# properties of the series layer

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def series_dicts(draw, n=3, d=4):
    """A coefficient dict over monomials in 1..n of degree at most d."""
    mono = st.lists(st.integers(1, n), max_size=d).map(tuple)
    return draw(st.dictionaries(mono, st.integers(-4, 4).filter(bool), max_size=8))


@PROPERTIES
@given(series_dicts(), series_dicts(), st.integers(0, 4))
def test_truncated_product_matches_naive(a, b, d):
    a = {m: c for m, c in a.items() if len(m) <= d}
    b = {m: c for m, c in b.items() if len(m) <= d}
    full: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            full[ma + mb] = full.get(ma + mb, 0) + ca * cb
    want = {m: c for m, c in full.items() if c and len(m) <= d}
    a, b = trunc_series(3, d, a), trunc_series(3, d, b)
    assert _truncated_product(a.parts, _by_degree(b.parts), d) == trunc_series(3, d, want).parts


def _family_tables(family, n, d):
    from lieforge.braids import evaluate, family_generators

    gens = family_generators(family, n)
    return [endo_to_series(evaluate(g), d) for g in gens] + [
        endo_to_series(evaluate(g.inverse()), d) for g in gens
    ]


ASSOC_TABLES = {
    family: _family_tables(family, 3, 4) for family in ("Inn", "Pn", "FnPn")
}


@PROPERTIES
@given(
    st.sampled_from(sorted(ASSOC_TABLES)),
    st.lists(st.integers(0, 11), min_size=3, max_size=3),
)
def test_series_endo_compose_associative(family, picks):
    tables = ASSOC_TABLES[family]
    a, b, c = (tables[i % len(tables)] for i in picks)
    lhs = series_endo_compose(series_endo_compose(a, b), c)
    rhs = series_endo_compose(a, series_endo_compose(b, c))
    assert [s.coeffs for s in lhs.images] == [s.coeffs for s in rhs.images]
    one = series_endo_identity(3, 4)
    assert series_endo_compose(a, one).images == a.images
    assert series_endo_compose(one, a).images == a.images


LETTER_PAIRS = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([-2, -1, 1, 2])), max_size=6
)


@PROPERTIES
@given(LETTER_PAIRS, LETTER_PAIRS, st.integers(1, 5))
def test_magnus_expand_multiplicative(u, v, d):
    u, v = word_from_pairs(3, u), word_from_pairs(3, v)
    lhs = magnus_expand(word_mul(u, v), d)
    rhs = series_mul(magnus_expand(u, d), magnus_expand(v, d))
    assert lhs.coeffs == rhs.coeffs


def _naive_compose(a, b):
    """(a o b) by expanding every monomial of b through X_j -> S_j - 1."""
    n, d = a.rank_n, a.max_degree
    shifted = [trunc_series(n, d, {m: c for m, c in s.coeffs.items() if m}) for s in a.images]
    images = []
    for s in b.images:
        out: dict = {}
        for mono, c in s.coeffs.items():
            sub = trunc_series(n, d, {(): 1})
            for j in mono:
                sub = series_mul(sub, shifted[j - 1])
            for m, v in sub.coeffs.items():
                out[m] = out.get(m, 0) + c * v
        images.append({m: v for m, v in out.items() if v})
    return images


# kinds of substituted tables: S_j - 1 is X_j plus terms from degree `low`
# on, or (non-IA) its degree-1 part is missing, doubled or has an extra letter
TABLE_KINDS = ("ia", "missing", "scaled", "extra")


@st.composite
def substitution_cases(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(TABLE_KINDS))
    low = draw(st.integers(2, 5))
    bad = draw(st.integers(1, n))
    images = []
    for j in range(1, n + 1):
        mono = st.lists(st.integers(1, n), min_size=min(low, d), max_size=d).map(tuple)
        coeffs = draw(st.dictionaries(mono, st.integers(-3, 3).filter(bool), max_size=6))
        coeffs = {m: c for m, c in coeffs.items() if len(m) >= low}
        coeffs[()] = 1
        coeffs[(j,)] = 1
        if j == bad and kind == "missing":
            del coeffs[(j,)]
        elif j == bad and kind == "scaled":
            coeffs[(j,)] = 2
        elif j == bad and kind == "extra" and n > 1:
            coeffs[(j % n + 1,)] = draw(st.sampled_from([-1, 1]))
        images.append(trunc_series(n, d, coeffs))
    b = [draw(series_dicts(n, d)) for _ in range(n)]
    return (
        kind,
        SeriesEndo(n, d, tuple(images)),
        SeriesEndo(n, d, tuple(trunc_series(n, d, s) for s in b)),
    )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(substitution_cases())
def test_series_endo_compose_shortcut_matches_naive(case):
    kind, a, b = case
    want = _naive_compose(a, b)
    assert [s.coeffs for s in series_endo_compose(a, b).images] == want
    # a substitution kept across compositions gives the same tables
    sub = SeriesSubstitution(a)
    for _ in range(2):
        assert [s.coeffs for s in series_endo_compose(a, b, sub).images] == want
    # the shortcut is taken exactly where the cutoff leaves room: monomials
    # longer than d - shift, shift = (lowest degree of S_j - 1 - X_j) - 1
    n, d = a.rank_n, a.max_degree
    ia = all(s.parts[1] == {(j,): 1} for j, s in enumerate(a.images, start=1))
    lows = [
        min(k for k in range(2, d + 1) if s.parts[k])
        for s in a.images
        if any(s.parts[2:])
    ]
    if not ia:
        assert kind != "ia" and sub.keep == d
    elif lows:
        assert sub.keep == d - (min(lows) - 1)
    else:
        assert sub.keep == 0


def test_series_substitution_belongs_to_its_table():
    a = series_endo_identity(2, 3)
    with pytest.raises(ValueError):
        series_endo_compose(series_endo_identity(2, 3), a, SeriesSubstitution(a))


def _commutator_by_compositions(a, a_inv, b, b_inv):
    """a b a^-1 b^-1 as three full substitutions, the oracle of the linear finish."""
    return series_endo_compose(a, series_endo_compose(b, series_endo_compose(a_inv, b_inv)))


@lru_cache(maxsize=None)
def _generator_pairs(family, n, d):
    from lieforge.braids import evaluate, family_generators

    return [
        (endo_to_series(evaluate(g), d), endo_to_series(evaluate(g.inverse()), d))
        for g in family_generators(family, n)
    ]


@st.composite
def commutator_operands(draw):
    """Two (table, inverse) pairs: generators of Inn, Pn or FnPn, or their
    commutator tails [g, h] with inverse [h, g]."""
    family = draw(st.sampled_from(("Inn", "Pn", "FnPn")))
    pairs = _generator_pairs(family, draw(st.integers(2, 4)), draw(st.integers(2, 5)))

    def operand():
        g = draw(st.sampled_from(pairs))
        if not draw(st.booleans()):
            return g
        h = draw(st.sampled_from(pairs))
        return _commutator_by_compositions(*g, *h), _commutator_by_compositions(*h, *g)

    return operand(), operand()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(commutator_operands())
def test_series_endo_commutator_matches_three_compositions(case):
    (a, a_inv), (b, b_inv) = case
    want = _commutator_by_compositions(a, a_inv, b, b_inv).images
    assert series_endo_commutator(a, a_inv, b, b_inv).images == want
    subs = {
        "a_sub": SeriesSubstitution(a),
        "a_inv_sub": SeriesSubstitution(a_inv),
    }
    for _ in range(2):
        assert series_endo_commutator(a, a_inv, b, b_inv, **subs).images == want


# ---------------------------------------------------------------------------
# inverse tables by the Neumann sum


@pytest.mark.parametrize("family, n", [(f, n) for f in ("Inn", "Pn", "FnPn") for n in (2, 3, 4)])
def test_series_endo_inverse_of_generators_is_word_level(family, n):
    for d in range(2, 7):
        for g, g_inv in _generator_pairs(family, n, d):
            assert series_endo_inverse(g).images == g_inv.images
            assert series_endo_inverse(g_inv).images == g.images


@pytest.mark.parametrize("d", range(3, 8))
def test_series_endo_inverse_composes_to_the_identity(d):
    # products of generators raise degree by one under substitution, so
    # their sums run longest; commutators raise it by two or more
    rng = random.Random(d)
    one = series_endo_identity(3, d).images
    for family in ("Inn", "Pn", "FnPn"):
        pairs = _generator_pairs(family, 3, d)
        tables = [t for pair in pairs for t in pair]
        cases = list(tables)
        for _ in range(3):
            a, b, c = (rng.choice(tables) for _ in range(3))
            cases.append(series_endo_compose(a, series_endo_compose(b, c)))
            g, h = rng.choice(pairs), rng.choice(pairs)
            gh = _commutator_by_compositions(*g, *h), _commutator_by_compositions(*h, *g)
            cases.append(gh[0])
            cases.append(_commutator_by_compositions(*rng.choice(pairs), *gh))
        for se in cases:
            inv = series_endo_inverse(se)
            assert series_endo_compose(se, inv).images == one
            assert series_endo_compose(inv, se).images == one


def test_series_endo_inverse_rejects_non_ia_tables():
    from lieforge.braids import aut_word, evaluate, sym_sigma

    s1 = endo_to_series(evaluate(aut_word(3, sym_sigma(1))), 4)
    with pytest.raises(NonIAError):
        series_endo_inverse(s1)
    # x1 -> x1^2 has 2 X_1 in degree 1, so N raises no degree and the sum
    # would never end
    square = SeriesEndo(2, 3, tuple(magnus_expand(word_gen(2, i, 3 - i), 3) for i in (1, 2)))
    with pytest.raises(NonIAError):
        series_endo_inverse(square)


# ---------------------------------------------------------------------------
# the per-degree storage format


def _assert_parts(s):
    """s has one part per degree 0..max_degree, part k holding nonzero
    coefficients of length-k monomials only."""
    assert len(s.parts) == s.max_degree + 1
    for k, part in enumerate(s.parts):
        assert all(len(m) == k for m in part), (k, part)
        assert 0 not in part.values(), (k, part)


def _series_endo_truncate(se, d):
    """se with every monomial beyond degree d dropped, sharing se's kept parts."""
    n = se.rank_n
    return SeriesEndo(n, d, tuple(TruncSeries(n, d, s.parts[: d + 1]) for s in se.images))


def _snapshot(*tables):
    return [[dict(part) for part in s.parts] for t in tables for s in t.images]


@PROPERTIES
@given(words_with_identity(), st.integers(1, 5), commutator_operands(), st.integers(1, 5))
def test_series_ops_keep_per_degree_parts(w, d, case, cut):
    mu = magnus_expand(w, d)
    _assert_parts(mu)
    before = [dict(part) for part in mu.parts]
    for s in (series_inverse(mu), *inner_series_endo(mu).images):
        _assert_parts(s)
    assert mu.parts == before
    (a, a_inv), (b, b_inv) = case
    inputs = (a, a_inv, b, b_inv)
    before = _snapshot(*inputs)
    composed = series_endo_compose(a, b)
    comm = series_endo_commutator(a, a_inv, b, b_inv)
    inverse = series_endo_inverse(comm)
    # truncation shares its parts with a, so reading it off must not touch a
    truncated = _series_endo_truncate(a, min(cut, a.max_degree))
    tables = (composed, comm, inverse, truncated)
    for s in (s for t in tables for s in t.images):
        _assert_parts(s)
    assert _snapshot(*inputs) == before
    inputs += tables
    before = _snapshot(*inputs)
    for t in (a, comm, truncated):
        if t.max_degree >= 2:
            for disp in series_read_off(t).displacements:
                _assert_parts(disp)
    assert _snapshot(*inputs) == before


# ---------------------------------------------------------------------------
# the letter-power kernel


def _letter_oracle(n, g, e, d):
    """(1 + X_g)^e truncated beyond degree d: |e| factors 1 + X_g, or of its
    inverse 1 - X_g + X_g^2 - ..., multiplied by series_mul."""
    if e > 0:
        factor = {(): 1, (g,): 1}
    else:
        factor = {(g,) * t: (-1) ** t for t in range(d + 1)}
    out = trunc_series(n, d, {(): 1})
    for _ in range(abs(e)):
        out = series_mul(out, trunc_series(n, d, factor))
    return out


def _expand_oracle(w, d):
    """mu(w) letter by letter through series_mul."""
    out = trunc_series(w.rank_n, d, {(): 1})
    for g, e in w.letters:
        out = series_mul(out, _letter_oracle(w.rank_n, g, e, d))
    return out


EXPONENTS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def letter_power_cases(draw):
    """(d, g, e, a): a sparse series a over 1..3 and a letter power; half the
    time a = b (1 + X_g)^-e, so that multiplying by (1 + X_g)^e cancels."""
    d = draw(st.integers(1, 6))
    g = draw(st.integers(1, 3))
    e = draw(EXPONENTS)
    a = draw(series_dicts(d=d))
    if draw(st.booleans()):
        a = series_mul(trunc_series(3, d, a), _letter_oracle(3, g, -e, d)).coeffs
    return d, g, e, a


@settings(derandomize=True, deadline=None, max_examples=300)
@given(letter_power_cases())
def test_letter_power_kernel_matches_series_mul(case):
    d, g, e, a = case
    parts = trunc_series(3, d, a).parts
    _times_letter_power(parts, g, e, d)
    got = TruncSeries(3, d, parts).coeffs
    letter = magnus_expand(word_gen(3, g, e), d)
    assert letter.coeffs == _letter_oracle(3, g, e, d).coeffs
    assert got == series_mul(trunc_series(3, d, a), letter).coeffs
    assert 0 not in got.values()
    assert all(len(m) == k for k, part in enumerate(parts) for m in part)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.tuples(st.integers(1, 3), EXPONENTS), max_size=8), st.integers(1, 6))
def test_magnus_expand_matches_letter_by_letter_oracle(pairs, d):
    w = word_from_pairs(3, pairs)
    assert magnus_expand(w, d).coeffs == _expand_oracle(w, d).coeffs
    for g, e in w.letters:
        assert magnus_expand(word_gen(3, g, e), d).coeffs == _letter_oracle(3, g, e, d).coeffs


def _first_non_ia(oracle):
    return next((i for i, disp in enumerate(oracle, start=1)
                 if disp.parts[1]), None)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(aut_exprs(), st.integers(2, 6))
def test_read_off_displacements_match_series_mul(case, d):
    from lieforge.braids import evaluate
    from lieforge.cli import parse_aut_expr

    n, text = case
    se = endo_to_series(evaluate(parse_aut_expr(n, text)), d)
    # _letter_oracle(n, i, -1, d) is magnus_expand(x_i^-1, d), formed without the kernel
    oracle = [series_mul(s, _letter_oracle(n, i, -1, d))
              for i, s in enumerate(se.images, start=1)]
    bad = _first_non_ia(oracle)
    if bad is not None:
        with pytest.raises(NonIAError, match=f"image of x{bad} shifts the abelianization"):
            series_read_off(se)
        return
    ro = series_read_off(se)
    assert [disp.coeffs for disp in ro.displacements] == [disp.coeffs for disp in oracle], text


def test_read_off_of_sigma_tables_names_the_generator():
    from lieforge.braids import sigma_table

    for n in (2, 3, 4):
        for i in range(1, n):
            for sign in (1, -1):
                se = endo_to_series(sigma_table(i, n, sign), 4)
                oracle = [series_mul(s, _letter_oracle(n, k, -1, 4))
                          for k, s in enumerate(se.images, start=1)]
                bad = _first_non_ia(oracle)
                assert bad == i
                with pytest.raises(NonIAError, match=f"image of x{bad} shifts the abelianization"):
                    series_read_off(se)



# ---------------------------------------------------------------------------
# the images of words under a table, by one substitution each


def _substitution_tables(n):
    """IA tables (pure braids and inner automorphisms) and non-IA ones
    (sigma_i), each with a name for failure messages."""
    from lieforge.braids import pure_a_table, sigma_table

    tables = [(f"A({i},{j})^{s}", pure_a_table(i, j, n, s), True)
              for i in range(1, n + 1) for j in range(i + 1, n + 1) for s in (1, -1)]
    tables += [(f"inn({text})", endo_inner(parse_word(n, text)), True)
               for text in ("x1", "x2^-1 x1^2", "x1 x3^-1 x2")]
    tables += [(f"sigma{i}^{s}", sigma_table(i, n, s), False)
               for i in range(1, n) for s in (1, -1)]
    return tables


SUBSTITUTED_WORDS = ("x1", "x2^-1", "x1^3 x3^-2", "x2 x1^-1 x3^2 x1", "x3^-1 x2^-2 x1 x2")


@pytest.mark.parametrize("d", range(2, 7))
def test_series_endo_compose_is_the_image_of_the_words(d):
    # each substituted word is the image of x_1 in a table b, so the images
    # of a o b are the expansions of the words' images under a
    n = 3
    for name, e, ia in _substitution_tables(n):
        se = endo_to_series(e, d)
        sub = SeriesSubstitution(se)
        # the shortcut above the cutoff is on for IA tables and off otherwise
        assert (sub.keep < d) == ia, name
        for text in SUBSTITUTED_WORDS:
            b = EndoTable(n, (parse_word(n, text), *endo_identity(n).images[1:]))
            want = tuple(magnus_expand(endo_apply(e, w), d) for w in b.images)
            sb = endo_to_series(b, d)
            assert series_endo_compose(se, sb).images == want, (name, text, d)
            assert series_endo_compose(se, sb, sub).images == want, (name, text, d)
