import random

import pytest
from hypothesis import given, settings, strategies as st

from braidlike_oracle import braidlike_image_lattice, braidlike_lattice
from lieforge.derivations import (
    HomDerivation,
    ad_derivation,
    ad_image_lattice,
    apply_derivation,
    braidlike_rank,
    braidlike_rank_formula,
    der_add,
    der_bracket,
    der_scale,
    der_vector,
    der_zero,
    ev_boundary,
    ev_boundary_surjective,
    image_dim,
    tangent_vector,
    tangential_coords,
    tangential_derivation,
    tangential_rank_formula,
)
from lieforge import freelie
from lieforge.dk import tau1
from lieforge.freelie import (
    LieElement,
    _basis_bracket,
    boundary_element,
    centralizer_of_linear,
    lie_add,
    lie_bracket,
    lie_from_word,
    lie_generator,
    lie_neg,
    lie_scale,
    lie_zero,
    lyndon_words,
    witt_rank,
)
from lieforge.zlattice import relations_among


def image_bracket(d1: HomDerivation, d2: HomDerivation) -> HomDerivation:
    """Commutator in image form, X_i -> d1(d2(X_i)) - d2(d1(X_i)): the oracle
    for der_bracket, which brackets tangents."""
    images = tuple(
        lie_add(
            apply_derivation(d1, d2.images[i]), lie_neg(apply_derivation(d2, d1.images[i]))
        )
        for i in range(d1.rank_n)
    )
    return HomDerivation(d1.rank_n, d1.degree + d2.degree, images)


def bracket(a: HomDerivation, b: HomDerivation) -> HomDerivation:
    """der_bracket of two tangential derivations, a of degree one, back in
    image form."""
    return tangential_derivation(a.rank_n, a.degree + b.degree, der_bracket(a, b.tangents))


def test_apply_examples():
    n = 3
    ad1 = ad_derivation(lie_generator(n, 1))
    assert apply_derivation(ad1, lie_generator(n, 2)) == lie_bracket(
        lie_generator(n, 1), lie_generator(n, 2)
    )
    t12 = tau1(1, 2, n)
    assert apply_derivation(t12, lie_generator(n, 3)).is_zero()
    b13 = lie_bracket(lie_generator(n, 1), lie_generator(n, 3))
    expect = lie_bracket(
        lie_bracket(lie_generator(n, 1), lie_generator(n, 2)), lie_generator(n, 3)
    )
    assert apply_derivation(t12, b13) == expect


def test_leibniz_random():
    rng = random.Random(67)
    n = 3

    def rnd(k):
        dim = witt_rank(n, k)
        return LieElement(
            n, k, {p: rng.randint(-2, 2) for p in range(dim) if rng.random() < 0.7}
        )

    size = len(tangential_coords(n, 1))
    basis1 = [
        _tangential_from_vector(n, 1, [int(t == s) for t in range(size)]) for s in range(size)
    ]
    for _ in range(25):
        d = basis1[rng.randrange(len(basis1))]
        ka, kb = rng.choice([(1, 1), (1, 2), (2, 2), (2, 3)])
        a, b = rnd(ka), rnd(kb)
        lhs = apply_derivation(d, lie_bracket(a, b))
        rhs = lie_add(
            lie_bracket(apply_derivation(d, a), b), lie_bracket(a, apply_derivation(d, b))
        )
        assert lhs == rhs


def test_der_bracket_examples():
    n = 4
    t12, t34 = tau1(1, 2, n), tau1(3, 4, n)
    assert all(t.is_zero() for t in der_bracket(t12, t12.tangents))
    assert all(t.is_zero() for t in der_bracket(t12, t34.tangents))
    with pytest.raises(ValueError, match="tangents"):
        der_bracket(HomDerivation(n, 1, t12.images), t34.tangents)
    with pytest.raises(ValueError, match="degree-1"):
        der_bracket(bracket(t12, t34), t34.tangents)
    n = 3
    d = bracket(tau1(1, 3, n), tau1(2, 3, n))
    X = [None] + [lie_generator(n, t) for t in (1, 2, 3)]
    assert d.image(1) == lie_bracket(X[1], lie_bracket(X[2], X[3]))
    assert d.image(2) == lie_bracket(X[2], lie_bracket(X[3], X[1]))
    assert d.image(3) == lie_bracket(X[3], lie_bracket(X[1], X[2]))
    assert ev_boundary(d).is_zero()


@st.composite
def tangential_combinations(draw, n=3, max_degree=2):
    """A random integer combination of a degree-k tangential basis, k <= max_degree."""
    k = draw(st.integers(1, max_degree))
    size = len(tangential_coords(n, k))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return _tangential_from_vector(n, k, coeffs)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    tangential_combinations(max_degree=1),
    tangential_combinations(max_degree=1),
    tangential_combinations(max_degree=1),
)
def test_der_bracket_jacobi(a, b, c):
    jacobi = der_add(
        der_add(bracket(a, bracket(b, c)), bracket(b, bracket(c, a))),
        bracket(c, bracket(a, b)),
    )
    assert jacobi.degree == a.degree + b.degree + c.degree
    assert jacobi.is_zero()
    assert der_add(bracket(a, b), bracket(b, a)).is_zero()


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    st.sampled_from((3, 4)).flatmap(
        lambda n: st.tuples(tangential_combinations(n, 1), tangential_combinations(n, 3))
    )
)
def test_der_bracket_matches_image_oracle(pair):
    a, b = pair
    assert bracket(a, b) == image_bracket(a, b)


def test_tangent_vector_indexes_tangential_coords():
    for n in range(2, 6):
        for k in range(1, 5):
            for idx, (i, u) in enumerate(tangential_coords(n, k)):
                tangents = tuple(
                    lie_scale(lie_from_word(n, u), 3) if t == i else lie_zero(n, k)
                    for t in range(1, n + 1)
                )
                assert tangent_vector(n, k, tangents) == {idx: 3}, (n, k, i, u)
    n = 3
    diagonal = (lie_zero(n, 1), lie_generator(n, 2), lie_zero(n, 1))
    with pytest.raises(ValueError):
        tangent_vector(n, 1, diagonal)
    with pytest.raises(ValueError):
        tangent_vector(n, 2, (lie_zero(n, 2),) * 2)


def test_ev_boundary_examples():
    n = 3
    assert ev_boundary(tau1(1, 2, n)).is_zero()
    tang = tangential_derivation(n, 1, (lie_generator(n, 2), lie_zero(n, 1), lie_zero(n, 1)))
    assert ev_boundary(tang) == lie_bracket(lie_generator(n, 1), lie_generator(n, 2))


def test_tangential_basis_counts():
    assert len(tangential_coords(3, 1)) == 6
    assert len(tangential_coords(2, 2)) == 2
    assert len(tangential_coords(3, 2)) == 9
    for n, k in [(2, 1), (3, 2), (4, 3)]:
        assert len(tangential_coords(n, k)) == tangential_rank_formula(n, k)


def test_braidlike_ranks():
    expected = {(3, 1): 3, (3, 2): 1, (3, 3): 6}
    for (n, k), want in expected.items():
        assert braidlike_lattice(n, k).rank == want
    for n in range(2, 6):
        for k in range(1, 5):
            assert braidlike_lattice(n, k).rank == braidlike_rank_formula(n, k)
            assert ev_boundary_surjective(n, k)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in range(1, 6)] + [(4, 6)])
def test_braidlike_lattice_matches_relations_among(n, k):
    # the oracle is the kernel built as the relations among cached brackets;
    # the streamed build must leave the same echelon rows, pivots in order
    want = relations_among(_basis_bracket(n, (i,), u) for i, u in tangential_coords(n, k))
    got = braidlike_lattice(n, k)
    assert list(got.pivot_rows) == list(want.pivot_rows)
    assert got.pivot_rows == want.pivot_rows
    assert got.ambient_dim == want.ambient_dim


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(2, 6) for k in range(1, 6)] + [(4, 6), (6, 4)]
)
def test_braidlike_rank_matches_the_relation_lattice(n, k):
    # rank-nullity against the saturated kernel that keeps every relation
    assert braidlike_rank(n, k) == braidlike_lattice(n, k).rank
    assert braidlike_rank(n, k) == braidlike_rank_formula(n, k)


def test_kernel_degree_stays_out_of_the_bracket_cache(monkeypatch):
    # every call into the bracket cache goes through the module attribute,
    # so a recorder there sees them all: building a degree-5 kernel may
    # cache brackets of degree up to 5, never its own degree 6
    cached = freelie._basis_bracket
    degrees = []

    def recorder(n, wa, wb):
        degrees.append(len(wa) + len(wb))
        return cached(n, wa, wb)

    monkeypatch.setattr(freelie, "_basis_bracket", recorder)
    builds = (braidlike_rank, braidlike_lattice.__wrapped__, ev_boundary_surjective,
              braidlike_image_lattice.__wrapped__)
    for build in builds:
        cached.cache_clear()
        degrees.clear()
        build(4, 5)
        assert degrees and max(degrees) < 6, build.__name__


def test_braidlike_members_kill_boundary():
    n, k = 3, 2
    coords = tangential_coords(n, k)
    for row in braidlike_lattice(n, k).basis.entries:
        tangents = [lie_zero(n, k) for _ in range(n)]
        for (i, u), c in zip(coords, row):
            if c:
                tangents[i - 1] = lie_add(tangents[i - 1], LieElement(n, k, {lyndon_words(n, k).index(u): c}))
        d = tangential_derivation(n, k, tuple(tangents))
        assert ev_boundary(d).is_zero()


def test_ad_examples():
    n = 3
    x1 = lie_generator(n, 1)
    assert apply_derivation(ad_derivation(x1), x1).is_zero()
    bnd = boundary_element(n)
    assert ev_boundary(ad_derivation(bnd)).is_zero()
    b12 = lie_bracket(x1, lie_generator(n, 2))
    assert apply_derivation(ad_derivation(b12), lie_generator(n, 3)) == lie_bracket(
        b12, lie_generator(n, 3)
    )
    for k in (1, 2, 3):
        assert ad_derivation(lie_zero(n, k)) == der_zero(n, k)


def test_inner_cap_examples():
    # degree-k elements x with ad(x) braid-like: the centralizer of the boundary
    assert centralizer_of_linear(boundary_element(3), 1).basis.entries == ((1, 1, 1),)
    assert centralizer_of_linear(boundary_element(3), 2).rank == 0
    assert centralizer_of_linear(boundary_element(2), 1).basis.entries == ((1, 1),)


def test_ad_boundary_central_among_braidlike():
    # [d, ad(boundary)] = 0 for braid-like d, and bracketing any d against an
    # inner derivation stays inner: [d, ad(x)] = ad(d(x))
    for n in (2, 3):
        bnd = boundary_element(n)
        for k in range(1, 5):
            ad_b = ad_derivation(bnd)
            for tv in braidlike_lattice(n, k).basis.entries:
                d = _tangential_from_vector(n, k, tv)
                assert image_bracket(d, ad_b).is_zero()
                for w in lyndon_words(n, 2):
                    x = lie_from_word(n, w)
                    got = image_bracket(d, ad_derivation(x))
                    dx = apply_derivation(d, x)
                    want = der_zero(n, k + 2) if dx.is_zero() else ad_derivation(dx)
                    assert got == want


def _tangential_from_vector(n, k, tv):
    coords = tangential_coords(n, k)
    tangents = [lie_zero(n, k) for _ in range(n)]
    for (i, u), c in zip(coords, tv):
        if c:
            tangents[i - 1] = lie_add(tangents[i - 1], lie_scale(lie_from_word(n, u), c))
    return tangential_derivation(n, k, tuple(tangents))


def der_from_vector(n: int, k: int, vec: dict) -> HomDerivation:
    """The derivation whose der_vector is vec, the oracle for that layout."""
    block = witt_rank(n, k + 1)
    coeffs: list[dict] = [{} for _ in range(n)]
    for j, c in vec.items():
        if c:
            coeffs[j // block][j % block] = int(c)
    return HomDerivation(n, k, tuple(LieElement(n, k + 1, c) for c in coeffs))


def test_vector_roundtrip():
    n, k = 3, 2
    d = bracket(tau1(1, 2, n), tau1(1, 3, n))
    vec = der_vector(d)
    assert all(0 <= j < image_dim(n, k) for j in vec)
    assert der_from_vector(n, k, vec) == d


def test_der_arithmetic():
    n = 3
    a, b = tau1(1, 2, n), tau1(1, 3, n)
    assert der_add(der_add(a, b), der_scale(b, -1)) == a
    assert der_scale(a, 0) == der_zero(n, 1)
    with pytest.raises(ValueError):
        der_add(a, bracket(a, b))
    with pytest.raises(ValueError, match="wrong degree"):
        HomDerivation(n, 1, (lie_zero(n, 3),) + a.images[1:])


def test_braidlike_image_lattice_contains_ad_boundary():
    from lieforge.zlattice import lattice_member

    for n in (2, 3, 4):
        lat = braidlike_image_lattice(n, 1)
        assert lattice_member(der_vector(ad_derivation(boundary_element(n))), lat)


def test_braidlike_image_lattice_rank():
    # a derivation is determined by its generator images, so moving the
    # kernel to image coordinates must preserve the rank
    for n in (2, 3, 4):
        for k in range(1, 5):
            assert braidlike_image_lattice(n, k).rank == braidlike_rank_formula(n, k)


def test_ad_image_lattice_rank():
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        assert ad_image_lattice(n, k).rank == witt_rank(n, k)
