import random

import pytest

from lieforge.braids import (
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
    sym_tri,
    xi_word,
)
from lieforge.words import (
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
