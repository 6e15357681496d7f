import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from lieforge.braids import (
    AutWord,
    aut_identity,
    aut_mul,
    aut_word,
    boundary,
    braid_abelianize,
    c_j_table,
    cki_table,
    chi_table,
    evaluate,
    family_generators,
    fixes_boundary_class,
    inner_word,
    is_braid_table,
    pure_a_table,
    quotient_table,
    sigma_table,
    sym_a,
    sym_chi,
    sym_cj,
    sym_inner,
    sym_sigma,
    sym_tri,
    symbol_table,
    xi_word,
)
from lieforge.words import (
    EndoTable,
    endo_apply,
    endo_compose,
    endo_equal,
    endo_identity,
    endo_inner,
    parse_word,
    word_from_pairs,
    word_gen,
    word_identity,
    word_inverse,
    word_is_conjugate,
    word_mul,
)


def test_sigma_fixes_boundary_and_inverts():
    for n in range(2, 7):
        for i in range(1, n):
            s = sigma_table(i, n)
            assert endo_apply(s, boundary(n)) == boundary(n)
            assert endo_equal(endo_compose(s, sigma_table(i, n, -1)), endo_identity(n))
            assert endo_equal(endo_compose(sigma_table(i, n, -1), s), endo_identity(n))
    with pytest.raises(ValueError):
        sigma_table(2, 2)
    with pytest.raises(ValueError):
        sigma_table(0, 3, sign=-1)


def test_sigma_permutes_conjugacy_classes():
    n = 3
    s = sigma_table(1, n)
    assert word_is_conjugate(s.image(1), word_gen(n, 2))
    assert word_is_conjugate(s.image(2), word_gen(n, 1))
    assert s.image(3) == word_gen(n, 3)


def test_pure_a_tables_are_braid_tables():
    for n in range(2, 5):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                t = pure_a_table(i, j, n)
                assert is_braid_table(t), (n, i, j)
                assert endo_equal(
                    endo_compose(t, pure_a_table(i, j, n, sign=-1)), endo_identity(n)
                )
    # the inverse builder checks its indices like the forward one
    for i, j, n in ((2, 1, 3), (1, 1, 3), (1, 4, 3), (0, 2, 3)):
        with pytest.raises(ValueError):
            pure_a_table(i, j, n, sign=-1)


def sigma_product_a_table(i: int, j: int, n: int, sign: int = 1):
    """A(i,j)^sign as (sigma_{j-1}...sigma_{i+1}) sigma_i^(2 sign) (sigma_{j-1}...sigma_{i+1})^-1:
    the oracle for the closed form."""
    conj = list(range(j - 1, i, -1))
    table = endo_identity(n)
    for t in conj:
        table = endo_compose(table, sigma_table(t, n))
    table = endo_compose(table, sigma_table(i, n, sign))
    table = endo_compose(table, sigma_table(i, n, sign))
    for t in reversed(conj):
        table = endo_compose(table, sigma_table(t, n, -1))
    return table


def test_pure_a_closed_form_matches_sigma_product():
    for n in range(2, 8):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for sign in (1, -1):
                    got = pure_a_table(i, j, n, sign)
                    assert got.images == sigma_product_a_table(i, j, n, sign).images, (
                        n, i, j, sign,
                    )


def test_a12_is_inverse_boundary_conjugation():
    t = pure_a_table(1, 2, 2)
    assert endo_equal(t, endo_inner(word_inverse(boundary(2))))
    assert not endo_equal(t, endo_inner(boundary(2)))
    assert endo_apply(t, boundary(2)) == boundary(2)


def test_a13_conjugates_middle_generator():
    t = pure_a_table(1, 3, 3)
    assert word_is_conjugate(t.image(2), word_gen(3, 2))


def test_boundary_examples():
    assert boundary(1) == word_gen(1, 1)
    assert boundary(3) == parse_word(3, "x1 x2 x3")


def test_xi_against_inner_boundary():
    for n in range(2, 7):
        xi = evaluate(xi_word(n))
        assert endo_equal(endo_compose(xi, endo_inner(boundary(n))), endo_identity(n))


def test_xi_word_shape():
    assert xi_word(1).symbols == ()
    assert [s.label() for s, e in xi_word(2).symbols] == ["A(1,2)"]
    assert [s.label() for s, e in xi_word(3).symbols] == ["A(1,3)", "A(2,3)", "A(1,2)"]


def test_autword_formal_inverse():
    w = aut_mul(aut_word(3, sym_a(1, 3)), inner_word(word_gen(3, 2)).inverse())
    assert endo_equal(
        endo_compose(evaluate(w), evaluate(w.inverse())), endo_identity(3)
    )


def test_cj_examples():
    n = 3
    c1 = c_j_table(1, n)
    assert c1.image(1) == word_gen(n, 1)
    assert c1.image(2) == parse_word(n, "x3^-1 x2 x3")
    assert c1.image(3) == parse_word(n, "x3^-1 x2^-1 x3 x2 x3")
    assert is_braid_table(c1)
    assert endo_apply(c1, boundary(n)) == boundary(n)
    assert endo_equal(endo_compose(c1, c_j_table(1, n, sign=-1)), endo_identity(n))
    with pytest.raises(ValueError):
        c_j_table(3, 3)
    for j in (0, 3):
        with pytest.raises(ValueError):
            c_j_table(j, 3, sign=-1)


def test_quotient_examples():
    n = 3
    assert endo_equal(quotient_table(endo_identity(n)), endo_identity(n - 1))
    assert endo_equal(
        quotient_table(evaluate(xi_word(n))), endo_identity(n - 1)
    )
    q = quotient_table(c_j_table(1, n))
    assert endo_equal(q, endo_inner(word_gen(n - 1, 1)))


def test_quotient_multiplicative_on_braids():
    rng = random.Random(61)
    n = 4
    pool = [evaluate(g) for g in family_generators("Pn", n)]
    pool += [c_j_table(j, n) for j in range(1, n)]
    pool.append(evaluate(xi_word(n)))
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        assert fixes_boundary_class(a) and fixes_boundary_class(b)
        assert endo_equal(
            quotient_table(endo_compose(a, b)),
            endo_compose(quotient_table(a), quotient_table(b)),
        )


def test_abelianize():
    assert braid_abelianize(aut_word(2, sym_a(1, 2))) == [1]
    w = aut_mul(aut_word(2, sym_a(1, 2)), aut_word(2, sym_a(1, 2)).inverse())
    assert braid_abelianize(w) == [0]
    assert braid_abelianize(xi_word(3)) == [1, 1, 1]
    with pytest.raises(ValueError):
        braid_abelianize(inner_word(word_gen(2, 1)))


def test_family_generators():
    inn = family_generators("Inn", 2)
    assert [g.label() for g in inn] == ["inn(x1)", "inn(x2)"]
    pn = family_generators("Pn", 3)
    assert [g.label() for g in pn] == ["A(1,2)", "A(1,3)", "A(2,3)"]
    fnpn = family_generators("FnPn", 3)
    inn3 = family_generators("Inn", 3)
    assert [g.label() for g in fnpn] == [g.label() for g in inn3 + pn]
    with pytest.raises(ValueError):
        family_generators("Nope", 3)


def test_partial_inner_identities():
    # c_{ni} is conjugation by x_i^-1, and c_{ki} c_{k-1,i}^-1 = chi_{ki}
    n = 4
    for i in range(1, n + 1):
        assert endo_equal(cki_table(n, i, n), endo_inner(word_gen(n, i, -1)))
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            lhs = endo_compose(cki_table(k, i, n), cki_table(k - 1, i, n, sign=-1))
            assert endo_equal(lhs, chi_table(k, i, n))


def test_triangular_generators_fix_x1():
    for n in (3, 4):
        for g in family_generators("IAnPlus", n):
            t = evaluate(g)
            assert t.image(1) == word_gen(n, 1), g.label()


def test_triangular_validation():
    with pytest.raises(ValueError):
        sym_tri(2, word_gen(3, 3), word_identity(3))  # conjugator uses x3 >= x2
    with pytest.raises(ValueError):
        sym_tri(3, word_identity(3), word_gen(3, 1))  # gamma not in commutator subgroup
    with pytest.raises(ValueError):
        sym_chi(2, 2)


def test_tri_inverse():
    n = 3
    gamma = word_from_pairs(n, [(1, 1), (2, 1), (1, -1), (2, -1)])
    sym = sym_tri(3, word_gen(n, 1), gamma)
    w = aut_word(n, sym)
    assert endo_equal(
        endo_compose(evaluate(w), evaluate(w.inverse())), endo_identity(n)
    )


def test_evaluate_one_symbol_is_its_table():
    n = 3
    gamma = word_from_pairs(n, [(1, 1), (2, 1), (1, -1), (2, -1)])
    symbols = [
        sym_sigma(1),
        sym_a(1, n),
        sym_inner(parse_word(n, "x1 x2^-1")),
        sym_chi(2, 1),
        sym_tri(3, word_gen(n, 1), gamma),
        sym_cj(1),
    ]
    for sym in symbols:
        for sign in (1, -1):
            got = evaluate(AutWord(n, ((sym, sign),)))
            assert got == symbol_table(sym, n, sign), (sym.label(), sign)


def test_evaluate_empty_word_is_identity():
    for n in range(1, 5):
        assert evaluate(aut_identity(n)) == endo_identity(n)


PROPERTIES = settings(derandomize=True, deadline=None, max_examples=80)


@st.composite
def aut_words(draw):
    """A random product of at most 4 signed A/C/xi/inn/s factors at rank n <= 4."""
    n = draw(st.integers(2, 4))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1])
    letters = st.lists(
        st.tuples(st.integers(1, n), st.sampled_from((-1, 1))), min_size=1, max_size=3
    )
    factor = st.one_of(
        pair.map(lambda p: aut_word(n, sym_a(*p))),
        st.integers(1, n - 1).map(lambda j: aut_word(n, sym_cj(j))),
        st.just(xi_word(n)),
        letters.map(lambda ls: aut_word(n, sym_inner(word_from_pairs(n, ls)))),
        st.integers(1, n - 1).map(lambda i: aut_word(n, sym_sigma(i))),
    )
    factors = draw(st.lists(st.tuples(factor, st.booleans()), max_size=4))
    return aut_mul(aut_identity(n), *(f.inverse() if inv else f for f, inv in factors))


@PROPERTIES
@given(aut_words())
def test_evaluate_is_left_fold_from_identity(aw):
    n = aw.rank_n
    tables = [symbol_table(sym, n, sign) for sym, sign in aw.symbols]
    assert evaluate(aw) == reduce(endo_compose, tables, endo_identity(n)), aw.label()


def stepwise_quotient_table(e: EndoTable) -> EndoTable:
    """The quotient substitution pushed one word_mul per substituted letter."""
    m = e.rank_n - 1
    last = word_inverse(word_from_pairs(m, [(t, 1) for t in range(1, m + 1)]))
    subs = [word_gen(m, t) for t in range(1, m + 1)] + [last]
    images = []
    for w in e.images[:m]:
        out = word_identity(m)
        for g, exp in w.letters:
            img = subs[g - 1] if exp > 0 else word_inverse(subs[g - 1])
            for _ in range(abs(exp)):
                out = word_mul(out, img)
        images.append(out)
    return EndoTable(m, tuple(images))


@st.composite
def endo_tables(draw):
    """A table of random words at rank n <= 5, heavy in x_n so the substitution cancels."""
    n = draw(st.integers(2, 5))
    letter = st.tuples(
        st.one_of(st.just(n), st.integers(1, n)), st.integers(-3, 3).filter(bool)
    )
    images = draw(st.lists(st.lists(letter, max_size=8), min_size=n, max_size=n))
    return EndoTable(n, tuple(word_from_pairs(n, ls) for ls in images))


@PROPERTIES
@given(endo_tables())
def test_quotient_push_matches_stepwise_products(e):
    assert quotient_table(e) == stepwise_quotient_table(e)

