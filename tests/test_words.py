import random

import pytest
from hypothesis import given, settings, strategies as st

from lieforge.words import (
    EndoTable,
    ReducedWord,
    cyclic_reduce,
    endo_apply,
    endo_compose,
    endo_equal,
    endo_identity,
    endo_inner,
    exponent_sums,
    format_word,
    parse_word,
    word_commutator,
    word_conjugate,
    word_from_pairs,
    word_gen,
    word_identity,
    word_inverse,
    word_is_conjugate,
    word_mul,
)


def word_pow(a: ReducedWord, e: int) -> ReducedWord:
    """a^e by repeated multiplication: the oracle for exponents in words."""
    if e == 0:
        return word_identity(a.rank_n)
    base = a if e > 0 else word_inverse(a)
    out = base
    for _ in range(abs(e) - 1):
        out = word_mul(out, base)
    return out


def test_reduction_invariants():
    w = word_from_pairs(2, [(1, 2), (1, -2), (2, 1)])
    assert w.letters == ((2, 1),)
    with pytest.raises(ValueError):
        ReducedWord(2, ((1, 0),))
    with pytest.raises(ValueError):
        ReducedWord(2, ((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        ReducedWord(2, ((3, 1),))


def test_word_mul_examples():
    x1, x2 = word_gen(2, 1), word_gen(2, 2)
    assert word_mul(x1, word_inverse(x1)).is_identity()
    lhs = word_mul(word_mul(x1, x2), word_mul(word_inverse(x2), x1))
    assert lhs == word_from_pairs(2, [(1, 2)])
    assert word_mul(x1, x2).letters == ((1, 1), (2, 1))
    with pytest.raises(ValueError):
        word_mul(word_gen(2, 1), word_gen(3, 1))


def test_commutator_examples():
    x1, x2 = word_gen(2, 1), word_gen(2, 2)
    assert word_commutator(x1, x1).is_identity()
    assert word_commutator(x1, x2) == parse_word(2, "x1 x2 x1^-1 x2^-1")
    # [x1x2, x2] reduces back to [x1, x2]
    assert word_commutator(word_mul(x1, x2), x2) == word_commutator(x1, x2)


def test_commutator_and_conjugate_check_rank():
    with pytest.raises(ValueError):
        word_commutator(word_gen(2, 1), word_gen(3, 1))
    with pytest.raises(ValueError):
        word_conjugate(word_gen(2, 1), word_gen(3, 1))


PROPERTIES = settings(derandomize=True, deadline=None, max_examples=100)

reduced_words = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-2, 2)), max_size=6
).map(lambda pairs: word_from_pairs(3, pairs))


@PROPERTIES
@given(reduced_words, reduced_words)
def test_commutator_and_conjugate_match_stepwise_products(a, b):
    # the oracle multiplies one factor at a time, reducing after each step
    ai, bi = word_inverse(a), word_inverse(b)
    assert word_commutator(a, b) == word_mul(word_mul(word_mul(a, b), ai), bi)
    assert word_conjugate(a, b) == word_mul(word_mul(a, b), ai)


def test_associativity_random():
    rng = random.Random(5)
    for _ in range(100):
        ws = [
            word_from_pairs(3, [(rng.randint(1, 3), rng.choice([-2, -1, 1, 2])) for _ in range(4)])
            for _ in range(3)
        ]
        a, b, c = ws
        assert word_mul(word_mul(a, b), c) == word_mul(a, word_mul(b, c))


def test_parse_format_roundtrip():
    for text in ("1", "x1", "x2^-1", "x1 x2^-1 x1^3"):
        w = parse_word(3, text)
        assert parse_word(3, format_word(w)) == w
    with pytest.raises(ValueError):
        parse_word(2, "y1")


def test_exponent_sums_and_pow():
    w = parse_word(2, "x1 x2^-1 x1^3")
    assert exponent_sums(w) == [4, -1]
    assert word_pow(word_gen(2, 1), 3).letters == ((1, 3),)
    assert word_pow(w, 0).is_identity()
    assert word_mul(word_pow(w, 2), word_pow(w, -2)).is_identity()


def test_conjugacy():
    x1, x2 = word_gen(2, 1), word_gen(2, 2)
    assert word_is_conjugate(word_conjugate(word_mul(x1, x2), x1), x1)
    assert not word_is_conjugate(x1, x2)
    assert word_is_conjugate(word_identity(2), word_identity(2))
    assert not word_is_conjugate(word_identity(2), x1)
    assert cyclic_reduce(word_conjugate(x2, x1)) == x1
    # cyclic words equal up to rotation
    a = parse_word(2, "x1 x2 x1^-1 x2^-1")
    b = parse_word(2, "x2 x1^-1 x2^-1 x1")
    assert word_is_conjugate(a, b)


def test_endo_apply_examples():
    n = 2
    ident = endo_identity(n)
    w = parse_word(n, "x1 x2^-1")
    assert endo_apply(ident, w) == w
    swap = EndoTable(n, (word_gen(n, 2), word_gen(n, 1)))
    assert endo_apply(swap, w) == parse_word(n, "x2 x1^-1")
    inner1 = endo_inner(word_gen(n, 1))
    assert endo_apply(inner1, word_gen(n, 2)) == parse_word(n, "x1 x2 x1^-1")


def test_endo_compose_examples():
    n = 2
    swap = EndoTable(n, (word_gen(n, 2), word_gen(n, 1)))
    assert endo_equal(endo_compose(swap, swap), endo_identity(n))
    f = endo_inner(word_gen(n, 1))
    assert endo_equal(endo_compose(f, endo_identity(n)), f)
    # c_{x1} o c_{x2} = c_{x1 x2}
    g = endo_inner(word_gen(n, 2))
    both = endo_inner(word_mul(word_gen(n, 1), word_gen(n, 2)))
    assert endo_equal(endo_compose(f, g), both)
    assert not endo_equal(endo_identity(n), swap)


def test_endo_apply_is_homomorphism():
    rng = random.Random(9)
    e = EndoTable(
        3,
        (
            parse_word(3, "x1 x2"),
            parse_word(3, "x3^-1"),
            parse_word(3, "x2 x1 x2^-1"),
        ),
    )
    for _ in range(60):
        a = word_from_pairs(3, [(rng.randint(1, 3), rng.choice([-1, 1, 2])) for _ in range(4)])
        b = word_from_pairs(3, [(rng.randint(1, 3), rng.choice([-1, 1, 2])) for _ in range(4)])
        assert endo_apply(e, word_mul(a, b)) == word_mul(endo_apply(e, a), endo_apply(e, b))
