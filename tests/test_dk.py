from fractions import Fraction
from functools import lru_cache

import pytest

from braidlike_oracle import braidlike_image_lattice, braidlike_lattice
from lieforge.derivations import (
    ad_derivation,
    der_bracket,
    der_scale,
    der_vector,
    ev_boundary,
    image_dim,
    tangential_derivation,
)
from lieforge.dk import (
    FaulhaberPoly,
    _central_sublattice,
    bernoulli,
    check_dk_presentation,
    cokernel_census,
    dk_center,
    dk_component,
    dk_generator_pairs,
    dk_rank_closed_form_deg3,
    dk_rank_formula,
    dk_star_center,
    faulhaber_poly,
    faulhaber_sum,
    power_sum_direct,
    tau1,
    tau1_sym,
    xi_derivation,
)
from lieforge.freelie import boundary_element, lie_bracket, lie_generator
from lieforge.zlattice import (
    LatticeBuilder,
    combine,
    lattice_from_rows,
    lattice_member,
    relations_among,
)
from test_derivations import image_bracket


@lru_cache(maxsize=None)
def greedy_image_component(n, k):
    """The greedy builder in generator-image coordinates, the oracle for
    dk_component: image-form brackets of every generator with every
    previously kept element, eliminated by der_vector.

    Returns (lattice, sources, spanning derivations), sources in the
    (generator index, previous position) form of DKComponent.sources.
    """
    gens = [tau1(i, j, n) for i, j in dk_generator_pairs(n)]
    if k == 1:
        candidates = [((gi, None), g) for gi, g in enumerate(gens)]
    else:
        prev_spanning = greedy_image_component(n, k - 1)[2]
        candidates = [
            ((gi, pos), image_bracket(g, d))
            for gi, g in enumerate(gens)
            for pos, d in enumerate(prev_spanning)
        ]
    builder = LatticeBuilder(image_dim(n, k))
    kept = [(src, d) for src, d in candidates if builder.add(der_vector(d))]
    return builder.lattice(), tuple(src for src, _ in kept), tuple(d for _, d in kept)


def image_central_sublattice(n, k):
    """The degree-k center from image-form brackets of the oracle's spanning list."""
    spanning = greedy_image_component(n, k)[2]
    gens = [tau1(i, j, n) for i, j in dk_generator_pairs(n)]
    brackets = [
        {
            (gi, ci): c
            for gi, g in enumerate(gens)
            for ci, c in der_vector(image_bracket(d, g)).items()
        }
        for d in spanning
    ]
    vectors = [der_vector(d) for d in spanning]
    rows = (combine(x, vectors) for x in relations_among(brackets).pivot_rows.values())
    return lattice_from_rows(rows, image_dim(n, k))


def test_tau1_table():
    n = 2
    t = tau1(1, 2, n)
    b12 = lie_bracket(lie_generator(n, 1), lie_generator(n, 2))
    assert t.image(1) == b12
    assert t.image(2) == lie_bracket(lie_generator(n, 2), lie_generator(n, 1))
    assert ev_boundary(t).is_zero()
    for n in (3, 4):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert ev_boundary(tau1(i, j, n)).is_zero()


def test_tau1_sym_conventions():
    n = 3
    assert tau1_sym(2, 1, n) == tau1(1, 2, n)
    assert tau1_sym(1, 1, n).is_zero()


def test_xi_derivation_is_minus_ad_boundary():
    for n in (2, 3, 4, 5):
        assert xi_derivation(n) == der_scale(ad_derivation(boundary_element(n)), -1)


def test_presentation_relations():
    for n in (3, 4, 5):
        rep = check_dk_presentation(n)
        assert rep["passed"], rep["violations"]
    with pytest.raises(ValueError):
        check_dk_presentation(2)


def test_dk_ranks_match_summation():
    for n in range(2, 5):
        for k in range(1, 5):
            assert dk_component(n, k).rank == dk_rank_formula(n, k), (n, k)


def test_dk_rank_spot_values():
    assert dk_component(3, 1).rank == 3
    assert dk_component(4, 1).rank == 6
    assert dk_component(4, 2).rank == 4
    assert dk_component(3, 3).rank == 2


def test_dk_inside_braidlike():
    for n in (2, 3, 4):
        for k in range(1, 4):
            bl = braidlike_image_lattice(n, k)
            for row in dk_component(n, k).lattice.basis.entries:
                assert lattice_member(row, bl)


def test_dk_equals_braidlike_in_low_degrees():
    for n in range(2, 5):
        for k in (1, 2):
            assert dk_component(n, k).lattice == braidlike_image_lattice(n, k)


def test_dk_strict_in_degree_three():
    for n in (3, 4):
        assert dk_component(n, 3).rank < braidlike_image_lattice(n, 3).rank


def test_dk_component_matches_image_oracle():
    for n, top in ((4, 5), (5, 4)):
        for k in range(1, top + 1):
            comp = dk_component(n, k)
            lattice, sources, spanning = greedy_image_component(n, k)
            assert comp.sources == sources, (n, k)
            assert len(comp.spanning) == len(spanning) == comp.rank, (n, k)
            assert comp.lattice == lattice, (n, k)
            for tangents, d in zip(comp.spanning, spanning):
                assert tangential_derivation(n, k, tangents) == d


def test_dk_tangent_rows_lie_in_braidlike_lattice():
    # both lattices are in tangential coordinates: no image round trip
    for n in range(2, 6):
        for k in range(1, 6):
            bl = braidlike_lattice(n, k)
            comp = dk_component(n, k)
            assert comp.tangent_lattice.ambient_dim == bl.ambient_dim
            for row in comp.tangent_lattice.pivot_rows.values():
                assert lattice_member(row, bl), (n, k)
            if k <= 2:
                assert comp.tangent_lattice == bl, (n, k)


def test_bracket_sources():
    # each kept element is the bracket of the generator and the previous
    # layer's element that its source names
    n = 3
    gens = [tau1(i, j, n) for i, j in dk_generator_pairs(n)]
    first = dk_component(n, 1)
    assert first.sources == tuple((gi, None) for gi in range(len(gens)))
    assert first.spanning == tuple(g.tangents for g in gens)
    for k in (2, 3):
        comp, prev = dk_component(n, k), dk_component(n, k - 1)
        assert comp.sources
        assert len(comp.sources) == len(comp.spanning)
        for (gi, pos), tangents in zip(comp.sources, comp.spanning):
            assert tangents == der_bracket(gens[gi], prev.spanning[pos])


def test_dk_center():
    for n in (2, 3, 4):
        centers = dk_center(n, 3)
        xi_lat = lattice_from_rows([der_vector(xi_derivation(n))], image_dim(n, 1))
        assert centers[1] == xi_lat
        assert centers[2].rank == 0 and centers[3].rank == 0


def test_dk_star_center():
    for n in (3, 4):
        stars = dk_star_center(n, 3)
        assert all(lat.rank == 0 for lat in stars.values())
    with pytest.raises(ValueError):
        dk_star_center(2, 2)


def test_census_values():
    c = cokernel_census(3, 3)
    assert (c["rank_braidlike"], c["rank_dk"], c["gap"]) == (6, 2, 4)
    c = cokernel_census(4, 3)
    assert (c["rank_braidlike"], c["rank_dk"], c["gap"]) == (20, 10, 10)
    assert c["rank_dk_variant_closed_form"] == dk_rank_closed_form_deg3(4) == 2
    assert c["variant_closed_form_agrees"] is False
    assert c["power_sum_convention"]["b1"] == "1/2"
    # b1 is B_1 of z e^z / (e^z - 1); the alternate display is B_1 of
    # z / (e^z - 1), the z-coefficient of 1 / (1 + z/2! + z^2/3! + ...)
    conv = c["power_sum_convention"]
    assert Fraction(conv["b1"]) == bernoulli(1)
    assert Fraction(conv["alternate_display_b1"]) == -Fraction(1, 2)
    assert conv["discrepancy_recorded"] is (conv["b1"] != conv["alternate_display_b1"])
    c2 = cokernel_census(3, 2)
    assert c2["gap"] == 0


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_generating_function():
    # partial sums of B_j z^j / j! reproduce z e^z / (e^z - 1) up to order 8
    order = 8
    import math

    # series of e^z - 1 divided by z, and of e^z
    den = [Fraction(1, math.factorial(m + 1)) for m in range(order + 1)]
    num = [Fraction(1, math.factorial(m)) for m in range(order + 1)]
    f = [bernoulli(j) / math.factorial(j) for j in range(order + 1)]
    for m in range(order + 1):
        conv = sum(f[i] * den[m - i] for i in range(m + 1))
        assert conv == num[m]


def test_faulhaber():
    assert faulhaber_sum(2, 3) == 14
    assert faulhaber_sum(1, 10) == 55
    assert faulhaber_sum(3, 4) == 100
    for a in range(0, 11):
        for m in range(0, 21):
            assert faulhaber_sum(a, m) == power_sum_direct(a, m)


def test_faulhaber_poly_structure():
    p = faulhaber_poly(2)
    assert isinstance(p, FaulhaberPoly)
    assert p.evaluate(3) == Fraction(14)
    assert p.coefficients[0] == Fraction(1, 3)


def test_central_sublattice_matches_image_oracle():
    for n, top in ((4, 4), (5, 3)):
        for k in range(1, top + 1):
            assert _central_sublattice.__wrapped__(n, k) == image_central_sublattice(n, k), (n, k)


def test_central_sublattice_cache():
    for n in range(3, 6):
        for k in range(1, 4):
            cached = _central_sublattice(n, k)
            assert cached == _central_sublattice.__wrapped__(n, k)
            assert _central_sublattice(n, k) is cached
            rows, digest = cached.rows, hash(cached)
            # the center printer reads the dense basis of the cached lattice
            assert cached.basis.rows == cached.rank
            assert cached.rows == rows and hash(cached) == digest
            assert _central_sublattice(n, k) == _central_sublattice.__wrapped__(n, k)


def test_dk_star_center_refuses_a_center_outside_span_xi(monkeypatch, capsys):
    import lieforge.dk as dk
    from lieforge.cli import main
    from lieforge.zlattice import zero_lattice

    def center_outside_xi(n, max_degree):
        outside = lattice_from_rows([der_vector(tau1(1, 2, n))], image_dim(n, 1))
        higher = {k: zero_lattice(image_dim(n, k)) for k in range(2, max_degree + 1)}
        return {1: outside, **higher}

    monkeypatch.setattr(dk, "dk_center", center_outside_xi)
    with pytest.raises(RuntimeError, match="not inside span"):
        dk_star_center(3, 2)
    assert main(["center", "--object", "dk-star", "--n", "3", "--max-degree", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("internal error: dk-star center (n = 3)")
