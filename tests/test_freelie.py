import random

import pytest
from hypothesis import given, settings, strategies as st

from lieforge.freelie import (
    LieElement,
    _basis_bracket,
    _fresh_bracket,
    _tensor_commutator,
    boundary_element,
    centralizer_of_linear,
    is_lyndon,
    lie_add,
    lie_bracket,
    lie_generator,
    lie_scale,
    lie_zero,
    lyndon_words,
    mobius,
    standard_factorization,
    tensor_expand_word,
    tensor_to_lyndon,
    to_tensor,
    witt_rank,
)
from lieforge.zlattice import LatticeBuilder


def multidegree(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """How often each of the letters 1..n occurs in word."""
    md = [0] * n
    for a in word:
        md[a - 1] += 1
    return tuple(md)


def test_mobius():
    assert [mobius(d) for d in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_witt_values():
    assert witt_rank(2, 1) == 2
    assert witt_rank(3, 2) == 3
    assert witt_rank(3, 3) == 8
    assert witt_rank(3, 4) == 18
    assert [witt_rank(n, 2) for n in (2, 3, 4, 5)] == [1, 3, 6, 10]
    assert [witt_rank(4, k) for k in range(1, 6)] == [4, 6, 20, 60, 204]


def test_lyndon_counts_match_witt():
    for n in range(1, 6):
        for k in range(1, 8):
            assert len(lyndon_words(n, k)) == witt_rank(n, k), (n, k)


def test_lyndon_structure():
    for w in lyndon_words(3, 4):
        assert is_lyndon(w)
        assert all(w < w[i:] for i in range(1, len(w)))
    words = lyndon_words(2, 5)
    assert list(words) == sorted(words)
    u, v = standard_factorization((1, 1, 2, 2))
    assert u == (1,) and v == (1, 2, 2)
    u, v = standard_factorization((1, 2, 2))
    assert u == (1, 2) and v == (2,)


def test_bracket_examples():
    X1, X2 = lie_generator(2, 1), lie_generator(2, 2)
    assert lie_bracket(X1, X1).is_zero()
    assert lie_bracket(X2, X1) == lie_scale(lie_bracket(X1, X2), -1)
    inner = lie_bracket(X1, X2)
    assert lie_bracket(inner, X1) == lie_scale(lie_bracket(X1, inner), -1)
    with pytest.raises(ValueError):
        lie_add(X1, inner)


def test_tensor_examples():
    X1, X2 = lie_generator(2, 1), lie_generator(2, 2)
    assert to_tensor(X1) == {(1,): 1}
    assert to_tensor(lie_bracket(X1, X2)) == {(1, 2): 1, (2, 1): -1}
    nested = lie_bracket(X1, lie_bracket(X1, X2))
    assert to_tensor(nested) == {(1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1}


def test_jacobi_random():
    rng = random.Random(17)
    n = 3

    def rnd(k):
        dim = witt_rank(n, k)
        return LieElement(
            n, k, {p: rng.randint(-3, 3) for p in range(dim) if rng.random() < 0.6}
        )

    for _ in range(40):
        ka, kb, kc = rng.choice([(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 2)])
        a, b, c = rnd(ka), rnd(kb), rnd(kc)
        total = lie_add(
            lie_bracket(a, lie_bracket(b, c)),
            lie_add(lie_bracket(b, lie_bracket(c, a)), lie_bracket(c, lie_bracket(a, b))),
        )
        assert total.is_zero()


@st.composite
def lie_elements(draw, n):
    """A homogeneous element of degree 1-3: an integer combination of basis words."""
    k = draw(st.integers(1, 3))
    dim = witt_rank(n, k)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    return LieElement(n, k, {p: c for p, c in enumerate(coeffs) if c})


@st.composite
def lie_triples(draw):
    n = draw(st.integers(2, 3))
    return tuple(draw(lie_elements(n)) for _ in range(3))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lie_triples())
def test_jacobi_and_antisymmetry_property(triple):
    a, b, c = triple
    total = lie_add(
        lie_bracket(a, lie_bracket(b, c)),
        lie_add(lie_bracket(b, lie_bracket(c, a)), lie_bracket(c, lie_bracket(a, b))),
    )
    assert total.is_zero()
    assert lie_add(lie_bracket(a, b), lie_bracket(b, a)).is_zero()
    assert lie_bracket(a, a).is_zero()
    for x, y in ((a, b), (b, c), (a, a)):
        assert lie_bracket(x, y).degree == x.degree + y.degree


def _peeled_bracket(n, a, b):
    """The bracket of two basis words by tensor expansion and peeling."""
    return tensor_to_lyndon(n, _tensor_commutator(tensor_expand_word(a), tensor_expand_word(b)))


@st.composite
def lyndon_pairs(draw):
    """(n, a, b): Lyndon words over 1..n, n <= 4, of total length at most 7."""
    n = draw(st.integers(2, 4))
    ka = draw(st.integers(1, 6))
    kb = draw(st.integers(1, 7 - ka))
    a = draw(st.sampled_from(lyndon_words(n, ka)))
    b = draw(st.sampled_from(lyndon_words(n, kb)))
    return n, a, b


@settings(derandomize=True, deadline=None, max_examples=300)
@given(lyndon_pairs())
def test_basis_bracket_rewriting_matches_tensor_peel(pair):
    n, a, b = pair
    rewritten = _basis_bracket.__wrapped__(n, a, b)
    assert rewritten == _peeled_bracket(n, a, b)
    assert _basis_bracket(n, a, b) == rewritten
    assert _fresh_bracket(n, a, b) == rewritten


def test_basis_bracket_rewriting_exhaustive_n3():
    # _fresh_bracket's dict is the caller's: the kernel builders add a
    # relation marker to it, which must not reach _basis_bracket's cache
    n = 3
    for ka in range(1, 6):
        for kb in range(1, 7 - ka):
            marker = witt_rank(n, ka + kb)
            for a in lyndon_words(n, ka):
                for b in lyndon_words(n, kb):
                    want = _peeled_bracket(n, a, b)
                    assert _basis_bracket(n, a, b) == want, (a, b)
                    fresh = _fresh_bracket(n, a, b)
                    assert fresh == want, (a, b)
                    fresh[marker] = 1
                    assert _basis_bracket(n, a, b) == want, (a, b)


def test_bracket_agrees_with_tensor_commutator():
    rng = random.Random(29)
    n = 2
    for _ in range(30):
        ka, kb = rng.choice([(1, 2), (2, 3), (1, 4), (3, 2)])
        a = LieElement(n, ka, {p: rng.randint(-2, 2) for p in range(witt_rank(n, ka))})
        b = LieElement(n, kb, {p: rng.randint(-2, 2) for p in range(witt_rank(n, kb))})
        ta, tb = to_tensor(a), to_tensor(b)
        comm = {}
        for wa, ca in ta.items():
            for wb, cb in tb.items():
                comm[wa + wb] = comm.get(wa + wb, 0) + ca * cb
                comm[wb + wa] = comm.get(wb + wa, 0) - ca * cb
        comm = {k: v for k, v in comm.items() if v}
        assert to_tensor(lie_bracket(a, b)) == comm


def test_to_tensor_injective_by_rank():
    # expansions of the degree-k basis span a rank-d(n,k) lattice; the
    # expansion of a basis word stays inside one multidegree block
    for n in range(2, 5):
        for k in range(1, 7):
            if n == 4 and k > 6:
                continue
            groups: dict = {}
            for w in lyndon_words(n, k):
                groups.setdefault(multidegree(w, n), []).append(w)
            total = 0
            for md, ws in groups.items():
                monos = sorted({m for w in ws for m in tensor_expand_word(w)})
                index = {m: i for i, m in enumerate(monos)}
                builder = LatticeBuilder(len(monos))
                for w in ws:
                    vec = [0] * len(monos)
                    for m, c in tensor_expand_word(w).items():
                        vec[index[m]] = c
                    builder.add(vec)
                total += builder.rank
            assert total == witt_rank(n, k), (n, k)


def test_tensor_to_lyndon_detects_non_lie():
    with pytest.raises(ValueError):
        tensor_to_lyndon(2, {(1, 2): 1})  # X1X2 alone is not a Lie element
    with pytest.raises(ValueError):
        tensor_to_lyndon(2, {(1,): 1, (1, 2): 1})  # inhomogeneous


def test_centralizer_examples():
    x = lie_add(lie_generator(2, 1), lie_generator(2, 2))
    assert centralizer_of_linear(x, 1).basis.entries == ((1, 1),)
    scaled = lie_add(lie_scale(lie_generator(2, 1), 2), lie_scale(lie_generator(2, 2), 4))
    assert centralizer_of_linear(scaled, 1).basis.entries == ((1, 2),)
    assert centralizer_of_linear(boundary_element(3), 2).rank == 0
    with pytest.raises(ValueError):
        centralizer_of_linear(lie_zero(2, 1), 1)
    with pytest.raises(ValueError):
        centralizer_of_linear(lie_bracket(lie_generator(2, 1), lie_generator(2, 2)), 1)


def test_coords_roundtrip():
    n = 3
    elt = lie_bracket(lie_generator(n, 1), lie_bracket(lie_generator(n, 2), lie_generator(n, 3)))
    assert elt.degree == 3
    vec = elt.coeffs
    assert all(0 <= p < witt_rank(n, 3) for p in vec)
    assert all(vec.values())
