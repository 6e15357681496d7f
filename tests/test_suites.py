import pytest
from hypothesis import given, settings, strategies as st

from lieforge.suites import (
    SuiteReport,
    verify_all,
    verify_center_pn,
    verify_inner_equality,
    verify_johnson_injectivity,
    verify_key_theorem_hypothesis,
    verify_quotient_action,
    verify_triangular_degree1,
)


def trunc_series(n, d, coeffs):
    """The TruncSeries with the terms of a flat dict {monomial: coeff}."""
    from lieforge.magnus import TruncSeries

    parts = [{} for _ in range(d + 1)]
    for m, c in coeffs.items():
        parts[len(m)][m] = c
    return TruncSeries(n, d, parts)


def series_endo_identity(n, d):
    """Series table of the identity: x_i -> 1 + X_i."""
    from lieforge.magnus import SeriesEndo

    return SeriesEndo(n, d, tuple(trunc_series(n, d, {(): 1, (i,): 1}) for i in range(1, n + 1)))


def test_report_shape():
    rep = verify_center_pn(2)
    d = rep.to_dict()
    assert d["suite"] == "center-pn"
    assert d["pass"] is True
    assert all(set(r) == {"description", "expected", "computed", "pass"} for r in d["records"])


def test_inner_equality_small():
    rep = verify_inner_equality(2, 4, 30, seed=7)
    assert rep.passed
    assert len(rep.records) == 30


def test_inner_equality_many_seeds():
    for seed in range(8):
        rep = verify_inner_equality(2, 5, 20, seed=seed)
        assert rep.passed, (seed, [r.to_dict() for r in rep.failures()][:2])


def test_inner_equality_cutoff_boundary():
    # a word of degree exactly max_degree resolves as AboveCutoff on the
    # automorphism side; the suite must treat that as agreement
    from lieforge.magnus import AboveCutoff, a_degree, gamma_degree
    from lieforge.words import endo_inner, word_commutator, word_gen

    w = word_commutator(
        word_gen(2, 1),
        word_commutator(word_gen(2, 1), word_commutator(word_gen(2, 1), word_gen(2, 2))),
    )
    assert gamma_degree(w, 4) == 4
    assert isinstance(a_degree(endo_inner(w), 4), AboveCutoff)


def test_inner_equality_deterministic():
    a = verify_inner_equality(3, 5, 24, seed=11)
    b = verify_inner_equality(3, 5, 24, seed=11)
    assert a.to_dict() == b.to_dict()
    c = verify_inner_equality(3, 5, 24, seed=12)
    assert c.passed
    assert c.params["seed"] == 12
    assert len(c.records) == len(a.records) == 24
    # another seed samples other words (the description records each length)
    assert [r.description for r in c.records] != [r.description for r in a.records]


def test_center_pn_all_ranks():
    for n in range(2, 7):
        assert verify_center_pn(n).passed, n
    with pytest.raises(ValueError):
        verify_center_pn(7)


def test_quotient_action():
    for n in (3, 4, 5):
        assert verify_quotient_action(n).passed, n
    with pytest.raises(ValueError):
        verify_quotient_action(2)


def test_johnson_small():
    for family in ("Inn", "Pn", "FnPn"):
        rep = verify_johnson_injectivity(family, 3, 3)
        assert rep.passed, (family, rep.failures())
    with pytest.raises(ValueError):
        verify_johnson_injectivity("Sigma", 3, 2)


# (scanned, kept, rank) per layer k = 1..4 at n = 3, recorded when every
# candidate still built both commutator orders; the top layer yields no
# tails, so its kept count shows only in its rank
JOHNSON_LAYERS_N3_D4 = {
    "Pn": [(3, 3, 3), (9, 1, 1), (3, 2, 2), (6, 3, 3)],
    "FnPn": [(6, 5, 5), (30, 4, 4), (24, 10, 10), (60, 21, 21)],
}


def assert_layer_triples(family, triples):
    """(scanned, tails yielded, rank) per layer against JOHNSON_LAYERS_N3_D4."""
    want = JOHNSON_LAYERS_N3_D4[family]
    assert [(s, r) for s, _, r in triples] == [(s, r) for s, _, r in want]
    assert [t for _, t, _ in triples] == [t for _, t, _ in want[:-1]] + [0]


@pytest.mark.parametrize("family", sorted(JOHNSON_LAYERS_N3_D4))
def test_johnson_layer_tails_and_inverses(family):
    from lieforge.derivations import der_vector, tangential_derivation
    from lieforge.magnus import series_endo_compose, series_mul
    from lieforge.suites import _johnson_layers
    from lieforge.zlattice import lattice_member

    n, top = 3, 4
    one = series_endo_identity(n, top + 1).images
    triples = []
    for k, (comp, tails, scanned) in enumerate(_johnson_layers(family, n, top), start=1):
        triples.append((scanned, len(tails), comp.rank))
        assert len(tails) == (len(comp.spanning) if k < top else 0)
        for tangents in comp.spanning:
            assert lattice_member(der_vector(tangential_derivation(n, k, tangents)), comp.lattice)
        for tail in tails:
            if tail.conjugator is not None:
                mu, mu_inv = tail.conjugator
                assert (tail.table, tail.inverse) == (None, None)
                assert series_mul(mu, mu_inv).coeffs == {(): 1}
                assert series_mul(mu_inv, mu).coeffs == {(): 1}
                continue
            assert series_endo_compose(tail.table, tail.inverse).images == one
            assert series_endo_compose(tail.inverse, tail.table).images == one
    assert_layer_triples(family, triples)


def _layer_summaries(family, n, top):
    from lieforge.suites import _johnson_layers

    out = []
    for comp, tails, scanned in _johnson_layers(family, n, top):
        series = [
            (tangents, tail.conjugator or (tail.table.images, tail.inverse.images))
            for tail, tangents in zip(tails, comp.spanning)
        ]
        out.append(((scanned, len(tails), comp.rank), series))
    return out


@pytest.mark.parametrize("family", sorted(JOHNSON_LAYERS_N3_D4))
def test_johnson_layer_substitution_reuse_changes_nothing(family, monkeypatch):
    import gc

    from lieforge import suites
    from lieforge.magnus import SeriesEndo, SeriesSubstitution

    n, top = 3, 4
    reused = _layer_summaries(family, n, top)
    # the per-generator substitutions are gone once the layers return: none
    # is left alive, and no cached generator table or tail carries one
    gc.collect()
    assert not any(isinstance(o, SeriesSubstitution) for o in gc.get_objects())
    tables = [t for g in suites._generator_series(family, n, top + 1) for t in g]
    for _, tails, _ in suites._johnson_layers(family, n, top):
        tables += [t for tail in tails for t in (tail.table, tail.inverse) if t]
    assert all(set(vars(t)) == {"rank_n", "max_degree", "images"} for t in tables)
    # nor are the tails: once the suite returns, the only series tables
    # left are the cached generator tables (and any held before the call)
    del tables
    gc.collect()
    held = [o for o in gc.get_objects() if isinstance(o, (SeriesEndo, suites._Tail))]
    assert verify_johnson_injectivity(family, n, top).passed
    held += [t for g in suites._generator_series(family, n, top + 1) for t in g]
    gc.collect()
    left = [o for o in gc.get_objects() if isinstance(o, (SeriesEndo, suites._Tail))]
    assert not [o for o in left if not any(o is h for h in held)]
    with monkeypatch.context() as m:
        m.setattr(suites, "SeriesSubstitution", lambda table: None)
        fresh = _layer_summaries(family, n, top)
    assert_layer_triples(family, [triple for triple, _ in reused])
    assert reused == fresh


def _commutator_by_compositions(a, a_inv, b, b_inv):
    from lieforge.magnus import series_endo_compose

    return series_endo_compose(a, series_endo_compose(b, series_endo_compose(a_inv, b_inv)))


def _full_cutoff_layers(family, n, top):
    """The Johnson layers with every candidate composed at the full cutoff
    top + 1 and commutators as three compositions: the oracle of the layers
    screened by Lie brackets."""
    from lieforge.derivations import der_vector, image_dim
    from lieforge.magnus import AboveCutoff, series_read_off
    from lieforge.suites import _generator_series
    from lieforge.zlattice import LatticeBuilder

    gens = _generator_series(family, n, top + 1)
    prev, layers = (None,), []
    for k in range(1, top + 1):
        builder, tails = LatticeBuilder(image_dim(n, k)), []
        for g in gens:
            for c in prev:
                se = g[0] if c is None else _commutator_by_compositions(*g, *c)
                ro = series_read_off(se)
                if isinstance(ro.degree, AboveCutoff) or ro.degree != k:
                    continue
                if builder.add(der_vector(ro.johnson_image())):
                    if k == top:
                        se_inv = None
                    else:
                        se_inv = g[1] if c is None else _commutator_by_compositions(*c, *g)
                    tails.append((se, se_inv))
        layers.append((builder.lattice(), tuple(tails), len(gens) * len(prev)))
        prev = tails
    return layers


# FnPn at (3, 5) and (4, 4) carries inner tails of degree 3 and above
@pytest.mark.parametrize(
    "family, n, top",
    [(f, n, top) for f in ("Inn", "Pn", "FnPn") for n, top in ((3, 4), (4, 3))]
    + [("FnPn", 3, 5), ("FnPn", 4, 4)],
)
def test_johnson_layers_match_full_cutoff_oracle(family, n, top):
    from lieforge.derivations import tangential_derivation
    from lieforge.magnus import inner_series_endo, series_read_off
    from lieforge.suites import _johnson_layers

    want = _full_cutoff_layers(family, n, top)
    got = list(_johnson_layers(family, n, top))
    assert len(got) == len(want) == top
    for k, ((lattice, tails, scanned), (comp, got_tails, got_scanned)) in enumerate(
        zip(want, got), start=1
    ):
        assert got_scanned == scanned
        assert comp.lattice.rows == lattice.rows
        if k == top:
            # nothing brackets against the top layer, so it keeps no tails
            assert got_tails == ()
            continue
        assert len(got_tails) == len(tails) == len(comp.spanning)
        for tail, tangents, (se, se_inv) in zip(got_tails, comp.spanning, tails):
            assert tangential_derivation(n, k, tangents) == series_read_off(se).johnson_image()
            if tail.conjugator is None:
                assert (tail.table, tail.inverse) == (se, se_inv)
            else:
                # an inner tail is its expansion pair alone
                assert (tail.table, tail.inverse) == (None, None)
                assert inner_series_endo(*tail.conjugator) == se
                assert inner_series_endo(*reversed(tail.conjugator)) == se_inv


@pytest.mark.parametrize("n", [3, 4])
def test_johnson_layers_equal_the_lie_side_lattices(n):
    # the Johnson map is a Lie morphism, so each family's layer is its Lie
    # side: ad(L_k) for Inn, the braid Lie ring for Pn, and their sum for
    # Inn.P_n, the paper's step of adding inner automorphisms to P_n
    from lieforge.derivations import ad_image_lattice
    from lieforge.dk import dk_component
    from lieforge.suites import _johnson_layers
    from lieforge.zlattice import lattice_sum

    top = 4
    layers = {
        family: [comp for comp, _, _ in _johnson_layers(family, n, top)]
        for family in ("Inn", "Pn", "FnPn")
    }
    for k in range(1, top + 1):
        ad, dk = ad_image_lattice(n, k), dk_component(n, k)
        assert layers["Inn"][k - 1].lattice == ad, (n, k)
        assert layers["Pn"][k - 1].lattice == dk.lattice, (n, k)
        assert layers["FnPn"][k - 1].lattice == lattice_sum(ad, dk.lattice), (n, k)
        # the Pn layer is read off the generator series, dk from tau1
        assert layers["Pn"][k - 1].tangent_lattice == dk.tangent_lattice, (n, k)
        assert layers["Pn"][k - 1].spanning == dk.spanning, (n, k)


@pytest.mark.parametrize("family", ["Inn", "Pn", "FnPn"])
def test_johnson_layers_read_off_only_kept_witnesses(family, monkeypatch):
    # a candidate is screened by its Lie bracket, so only those that enlarge
    # a lattice are composed and read off on the group side
    from lieforge import suites

    calls = []
    read_off = suites.series_read_off

    def recorded(se):
        calls.append(se.max_degree)
        return read_off(se)

    monkeypatch.setattr(suites, "series_read_off", recorded)
    layers = list(suites._johnson_layers(family, 3, 4))
    assert len(calls) == sum(comp.rank for comp, _, _ in layers)
    assert len(calls) < sum(scanned for _, _, scanned in layers)
    assert set(calls) == {5}


@pytest.mark.parametrize("family, n", [(f, n) for f in ("Inn", "Pn", "FnPn") for n in (3, 4)])
def test_generator_tangents_match_the_lie_side(family, n):
    # inn(x_i) maps to ad(X_i) and A(i,j) to tau1(i, j)
    from lieforge.derivations import ad_derivation, tangent_vector
    from lieforge.dk import tau1
    from lieforge.freelie import lie_generator
    from lieforge.magnus import series_johnson_image
    from lieforge.suites import _generator_series, _tangential

    inner = [ad_derivation(lie_generator(n, i)) for i in range(1, n + 1)] if family != "Pn" else []
    pure = [tau1(i, j, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pure = pure if family != "Inn" else []
    got = [_tangential(series_johnson_image(g[0])) for g in _generator_series(family, n, 3)]
    assert got == inner + pure
    # no t_l read off has an X_l term (tangent_vector raises on one), so
    # tau1's tangents, which have none, come back exactly
    for tau in got:
        tangent_vector(n, 1, tau.tangents)
    assert [tau.tangents for tau in got[len(inner) :]] == [ref.tangents for ref in pure]


def test_tangential_refuses_what_is_not_tangential():
    from lieforge.derivations import HomDerivation, der_zero
    from lieforge.dk import tau1
    from lieforge.freelie import lie_add, lie_bracket, lie_generator
    from lieforge.suites import _tangential

    n = 3
    tau = tau1(1, 2, n)
    assert _tangential(tau) == tau
    x1 = lie_add(tau.image(1), lie_bracket(lie_generator(n, 2), lie_generator(n, 3)))
    assert _tangential(HomDerivation(n, 1, (x1, *tau.images[1:]))) is None
    assert _tangential(der_zero(n, 2)) is None


def _plus_lie_term(se, i, word):
    """se with the expansion of the basis bracket P_word added to the image of
    x_i: a Lie term of degree len(word), so the degree-(len(word)-1) Johnson
    image of se gains P_word in its i-th image."""
    from lieforge.freelie import tensor_expand_word
    from lieforge.magnus import SeriesEndo, TruncSeries

    images = list(se.images)
    parts = [dict(p) for p in images[i - 1].parts]
    for m, c in tensor_expand_word(word).items():
        parts[len(m)][m] = parts[len(m)].get(m, 0) + c
    parts = [{m: c for m, c in p.items() if c} for p in parts]
    images[i - 1] = TruncSeries(se.rank_n, se.max_degree, parts)
    return SeriesEndo(se.rank_n, se.max_degree, tuple(images))


def test_johnson_layer_witness_image_mismatch_is_an_internal_error(monkeypatch):
    from lieforge import suites

    commutator = suites.series_endo_commutator
    corrupted = []

    def extra_term(*args, **kwargs):
        # the first commutator composed is the one kept witness of layer 2;
        # its image of X_1 gains P_122
        se = commutator(*args, **kwargs)
        if corrupted:
            return se
        corrupted.append(se)
        return _plus_lie_term(se, 1, (1, 2, 2))

    monkeypatch.setattr(suites, "series_endo_commutator", extra_term)
    with pytest.raises(
        RuntimeError,
        match=r"^Pn Johnson layer 2: the kept commutator with generator \d+ has a Johnson "
        r"image other than its Lie bracket$",
    ):
        for _ in suites._johnson_layers("Pn", 3, 4):
            pass
    assert len(corrupted) == 1


def test_johnson_layer_witness_degree_mismatch_is_an_internal_error(monkeypatch, capsys):
    from lieforge import suites
    from lieforge.cli import main

    family, n, top = "FnPn", 3, 4
    route = suites.pair_commutator
    corrupted = []

    def unit_pair(p, q):
        # the first inner witness, on layer 2, comes back as conjugation by
        # the empty word: the identity, of no degree below the cutoff
        pair = route(p, q)
        if corrupted:
            return pair
        corrupted.append(pair)
        one = trunc_series(n, top + 1, {(): 1})
        return one, one

    monkeypatch.setattr(suites, "pair_commutator", unit_pair)
    with pytest.raises(
        RuntimeError,
        match=r"^FnPn Johnson layer 2: the kept commutator with generator \d+ has degree "
        r"AboveCutoff, not 2$",
    ):
        for _ in suites._johnson_layers(family, n, top):
            pass
    assert len(corrupted) == 1
    corrupted.clear()
    code = main(["verify", "johnson", "--family", family, "--n", str(n), "--max-degree", str(top)])
    out = capsys.readouterr()
    assert len(corrupted) == 1
    assert code == 3
    assert out.out == ""
    assert out.err.startswith("internal error: FnPn Johnson layer 2: the kept commutator")


def test_johnson_layer_non_tangential_generator_is_an_internal_error(monkeypatch):
    from lieforge import suites
    from lieforge.derivations import HomDerivation
    from lieforge.freelie import lie_add, lie_bracket, lie_generator

    image = suites.series_johnson_image
    n = 3

    def with_bracket(se):
        # generator 2's degree-1 image of X_1 gains [X_2, X_3], which no
        # tangent t_1 brackets X_1 into
        jd = image(se)
        if se is not suites._generator_series("FnPn", n, 4)[1][0]:
            return jd
        x1 = lie_add(jd.image(1), lie_bracket(lie_generator(n, 2), lie_generator(n, 3)))
        return HomDerivation(n, 1, (x1, *jd.images[1:]))

    monkeypatch.setattr(suites, "series_johnson_image", with_bracket)
    with pytest.raises(
        RuntimeError,
        match=r"^FnPn Johnson layer 1: the degree-1 Johnson image of generator 2 is not "
        r"tangential$",
    ):
        next(suites._johnson_layers("FnPn", n, 3))


def test_conjugating_word_is_read_off_inner_symbols():
    from lieforge.braids import aut_mul, aut_word, family_generators, inner_word, sym_a
    from lieforge.suites import _conjugating_word
    from lieforge.words import parse_word

    n = 3
    u, v = parse_word(n, "x1 x2^-1"), parse_word(n, "x3^2")
    assert _conjugating_word(inner_word(u)) == u
    assert _conjugating_word(inner_word(u).inverse()) == parse_word(n, "x2 x1^-1")
    uv = aut_mul(inner_word(u), inner_word(v))
    assert _conjugating_word(uv) == parse_word(n, "x1 x2^-1 x3^2")
    assert _conjugating_word(aut_mul(inner_word(u), aut_word(n, sym_a(1, 2)))) is None
    words = [_conjugating_word(g) for g in family_generators("FnPn", n)]
    assert words == [parse_word(n, f"x{i}") for i in range(1, n + 1)] + [None] * 3


@st.composite
def inner_commutator_cases(draw):
    """(n, cutoff, text of a, x, w, shape): a is a product of A(i,j)^+-1, C(j)^+-1
    and inner symbols, x and w words, shape the commutator to build."""
    n = draw(st.integers(2, 4))
    letters = st.tuples(st.integers(1, n), st.sampled_from([-2, -1, 1, 2]))
    word = st.lists(letters, max_size=3).map(
        lambda ps: " ".join(f"x{g}^{e}" for g, e in ps) or "1"
    )
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1])
    symbol = st.one_of(
        pair.map(lambda p: f"A({p[0]},{p[1]})"),
        st.integers(1, n - 1).map(lambda j: f"C({j})"),
        word.map(lambda w: f"inn({w})"),
    )
    factors = st.lists(st.tuples(symbol, st.booleans()), min_size=1, max_size=3)
    a = ".".join(sym + ("^-1" if inv else "") for sym, inv in draw(factors))
    shape = draw(st.sampled_from(("[a,inn(w)]", "[inn(x),inn(w)]")))
    return n, draw(st.integers(3, 6)), a, draw(word), draw(word), shape


@settings(derandomize=True, deadline=None, max_examples=80)
@given(inner_commutator_cases())
def test_inner_route_matches_general_commutator(case):
    # [inn(x), inn(w)] by pair_commutator, and [a, inn(w)] by the general
    # commutator over the tables an inner tail builds from its pair, against
    # the general commutator of the word-level tables
    from lieforge.braids import evaluate
    from lieforge.cli import parse_aut_expr
    from lieforge.magnus import (
        endo_to_series,
        inner_series_endo,
        magnus_expand,
        pair_commutator,
        series_endo_commutator,
        series_mul,
    )
    from lieforge.suites import _Tail
    from lieforge.words import endo_inner, parse_word, word_inverse

    n, d, a_text, x_text, w_text, shape = case
    x, w = parse_word(n, x_text), parse_word(n, w_text)

    def inner(u):
        tables = tuple(endo_to_series(endo_inner(t), d) for t in (u, word_inverse(u)))
        return tables, tuple(magnus_expand(t, d) for t in (u, word_inverse(u)))

    c_tables, w_pair = inner(w)
    if shape == "[a,inn(w)]":
        a_word = parse_aut_expr(n, a_text)
        g = endo_to_series(evaluate(a_word), d), endo_to_series(evaluate(a_word.inverse()), d)
        from_pair = _Tail(conjugator=w_pair).tables()
        assert [t.images for t in from_pair] == [t.images for t in c_tables], case
        got = series_endo_commutator(*g, *from_pair)
    else:
        g, x_pair = inner(x)
        mu, mu_inv = pair_commutator(x_pair, w_pair)
        assert series_mul(mu, mu_inv).coeffs == {(): 1}
        assert inner_series_endo(mu).images == inner_series_endo(mu, mu_inv).images, case
        got = inner_series_endo(mu, mu_inv)
    assert got.images == series_endo_commutator(*g, *c_tables).images, case


def _route_counts(family, n, top, monkeypatch):
    """The Johnson layers of the family, with the number of kept candidates
    composed by pair_commutator and by series_endo_commutator, and the
    number of inner tails whose tables were built from their pairs."""
    from lieforge import suites

    counts = {"pair": 0, "general": 0, "tables from pair": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name != "tables from pair" or args[0].conjugator is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        m.setattr(suites, "pair_commutator", counted("pair", suites.pair_commutator))
        m.setattr(
            suites, "series_endo_commutator", counted("general", suites.series_endo_commutator)
        )
        m.setattr(suites._Tail, "tables", counted("tables from pair", suites._Tail.tables))
        layers = [comp for comp, _, _ in suites._johnson_layers(family, n, top)]
    return layers, counts


def test_johnson_route_counts_by_shape(monkeypatch):
    # FnPn lists its inner generators first, so no kept candidate mixes an
    # inner factor with a non-inner one: both are inner, or neither is
    _, counts = _route_counts("FnPn", 4, 4, monkeypatch)
    assert counts == {"pair": 86, "general": 35, "tables from pair": 0}


@pytest.mark.parametrize("n, top", [(3, 5), (4, 4)])
def test_johnson_layers_in_reversed_generator_order(n, top, monkeypatch):
    # with P_n's generators first, inner tails meet non-inner generators, and
    # the general route over tables built from their pairs keeps the layers
    from lieforge import suites

    want, _ = _route_counts("FnPn", n, top, monkeypatch)
    generators = suites.family_generators

    def reversed_generators(family, rank):
        return generators(family, rank)[::-1]

    suites._generator_series.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(suites, "family_generators", reversed_generators)
            got, counts = _route_counts("FnPn", n, top, monkeypatch)
    finally:
        suites._generator_series.cache_clear()
    assert [c.tangent_lattice for c in got] == [c.tangent_lattice for c in want]
    assert [c.lattice for c in got] == [c.lattice for c in want]
    assert counts["tables from pair"] > 0


def test_random_commutator_inverse_is_built_on_request():
    from lieforge.magnus import series_endo_compose
    from lieforge.suites import _generator_series, _random_commutator_series, _rng

    gens = _generator_series("Pn", 3, 4)
    one = series_endo_identity(3, 4).images
    for attempt in range(6):
        plain, with_inv = _rng(0, "t", attempt), _rng(0, "t", attempt)
        se, none = _random_commutator_series(gens, plain, 3)
        se2, se_inv = _random_commutator_series(gens, with_inv, 3, inverse=True)
        assert none is None and se.images == se2.images
        assert plain.getstate() == with_inv.getstate()
        assert series_endo_compose(se, se_inv).images == one


def test_key_theorem():
    rep = verify_key_theorem_hypothesis(3, 4)
    assert rep.passed, rep.failures()
    with pytest.raises(ValueError):
        verify_key_theorem_hypothesis(5, 3)


def test_triangular():
    for n in (3, 4):
        rep = verify_triangular_degree1(n)
        assert rep.passed, rep.failures()


def test_verify_all_passes():
    reports = verify_all(3, 3, samples=20, seed=42)
    assert reports and all(r.passed for r in reports)
    names = {r.suite for r in reports}
    assert "inner-equality" in names and "center-pn" in names


def test_failure_is_recorded_not_raised():
    rep = SuiteReport("demo", {})
    rep.check("always fails", 1, 2)
    assert not rep.passed
    assert rep.failures()[0].description == "always fails"


@pytest.mark.parametrize(
    "family, n, top",
    [(f, 3, top) for f in ("Inn", "Pn", "FnPn") for top in range(3, 7)]
    + [(f, 4, 4) for f in ("Inn", "Pn", "FnPn")],
)
def test_johnson_tail_inverses_match_reversed_commutators(family, n, top, monkeypatch):
    # a kept tail [g, c] above layer 1 is inverted by a Neumann sum; it must
    # equal [c, g] composed from the same factors the other way round
    from lieforge import suites
    from lieforge.magnus import series_endo_commutator

    witnesses = []

    def recorded(*args, **kwargs):
        out = series_endo_commutator(*args, **kwargs)
        witnesses.append((out, args))
        return out

    monkeypatch.setattr(suites, "series_endo_commutator", recorded)
    checked = 0
    for k, (_, tails, _) in enumerate(suites._johnson_layers(family, n, top), start=1):
        for tail in tails:
            if k == 1 or tail.table is None:
                continue  # a generator's inverse is word-level; an inner tail has no table
            ((a, a_inv, b, b_inv),) = [args for out, args in witnesses if out is tail.table]
            assert tail.inverse.images == series_endo_commutator(b, b_inv, a, a_inv).images
            checked += 1
    # every Inn tail is inner
    assert (checked > 0) == (family != "Inn")


@pytest.mark.parametrize("family", ["Inn", "Pn", "FnPn"])
def test_johnson_composes_one_commutator_per_witness_and_sample_node(family, monkeypatch):
    # series_endo_commutator composes the kept witnesses with no inner
    # factor and the sample nodes, never an inverse
    from lieforge import suites

    n, top = 3, 4
    # the kept set of a layer does not depend on the top degree, so a run one
    # layer deeper yields the top layer's kept witnesses as tails too
    deeper = [
        sum(t.table is not None for t in tails)
        for _, tails, _ in suites._johnson_layers(family, n, top + 1)
    ]
    calls = []
    commutator = suites.series_endo_commutator

    def counted(*args, **kwargs):
        calls.append(args)
        return commutator(*args, **kwargs)

    monkeypatch.setattr(suites, "series_endo_commutator", counted)
    per_layer = []
    for _ in suites._johnson_layers(family, n, top):
        per_layer.append(len(calls))
        calls.clear()
    # layer 1 composes nothing: its witnesses are the generators
    assert per_layer == [0] + deeper[1:top]
    gen_series = suites._generator_series(family, n, top + 1)
    for weight in range(1, 7):
        for seed in range(3):
            calls.clear()
            suites._random_commutator_series(gen_series, suites._rng(seed, weight), weight)
            # a bracketing of weight leaves has weight - 1 internal nodes
            assert len(calls) == weight - 1
