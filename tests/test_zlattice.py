import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lieforge.zlattice import (
    IntMatrix,
    IntLattice,
    LatticeBuilder,
    combine,
    lattice_from_rows,
    lattice_intersect,
    lattice_member,
    lattice_sum,
    relations_among,
    smith_rank,
    xgcd,
    zero_lattice,
)


def _sparse_row(row) -> dict[int, int]:
    return {j: x for j, x in enumerate(row) if x}


def hermite_form(m: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form; zero rows removed, row span unchanged."""
    lat = lattice_from_rows(map(_sparse_row, m.entries), m.cols)
    return IntMatrix.from_sparse(lat.rows, m.cols)


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-3, -9)]:
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0


def test_hermite_examples():
    assert hermite_form(IntMatrix(2, 2, ((2, 4), (1, 3)))).entries == ((1, 1), (0, 2))
    ident = IntMatrix(3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert hermite_form(ident) == ident
    assert hermite_form(IntMatrix(2, 2, ((0, 0), (0, 0)))).entries == ()


def test_hermite_idempotent_and_span_preserving():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        h = hermite_form(IntMatrix(len(rows), 5, rows))
        assert hermite_form(h) == h
        lat = lattice_from_rows(map(_sparse_row, h.entries), 5)
        # mutual membership of basis rows decides span equality
        assert all(lattice_member(_sparse_row(r), lat) for r in rows)
        lat0 = lattice_from_rows(map(_sparse_row, rows), 5)
        assert all(lattice_member(_sparse_row(r), lat0) for r in h.entries)


def test_smith_rank_examples():
    assert smith_rank(IntMatrix(2, 2, ((2, 0), (0, 3)))) == 2
    assert smith_rank(IntMatrix(2, 2, ((1, 2), (2, 4)))) == 1
    assert smith_rank(IntMatrix(1, 1, ((0,),))) == 0


def test_smith_rank_agrees_with_hermite():
    rng = random.Random(11)
    for _ in range(60):
        rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(rng.randint(1, 5))]
        m = IntMatrix(len(rows), 4, rows)
        assert smith_rank(m) == hermite_form(m).rows


def test_hermite_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(3)
    for _ in range(25):
        rows = [[rng.randint(-7, 7) for _ in range(4)] for _ in range(4)]
        ours = hermite_form(IntMatrix(4, 4, rows))
        lat = lattice_from_rows(map(_sparse_row, ours.entries), 4)
        # sympy's is column-style; transpose in and out to compare row spans
        sm = Matrix(rows).T
        try:
            h = hermite_normal_form(sm)
        except Exception:
            continue
        sympy_rows = [list(col) for col in h.T.tolist()]
        assert all(lattice_member(_sparse_row(r), lat) for r in sympy_rows)
        lat2 = lattice_from_rows(map(_sparse_row, sympy_rows), 4)
        assert all(lattice_member(_sparse_row(r), lat2) for r in ours.entries)


def test_kernel_examples():
    # the kernel of a matrix is the lattice of relations among its columns
    assert relations_among([{0: 1}, {0: 1}]).basis.entries == ((1, -1),)
    assert relations_among([{0: 1}, {1: 1}]).rank == 0
    assert relations_among([{0: 2}, {0: 4}]).basis.entries == ((2, -1),)


def test_kernel_rank_and_saturation():
    rng = random.Random(19)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(rng.randint(1, 4))]
        k = relations_among(_sparse_row(col) for col in zip(*rows))
        assert k.rank == 6 - smith_rank(IntMatrix(len(rows), 6, rows))
        for v in k.basis.entries:
            assert all(sum(r[j] * v[j] for j in range(6)) == 0 for r in rows)
        # saturation: v/p is not integral-and-in-lattice unless v/p already there
        for v in k.basis.entries:
            for p in primes:
                if all(x % p == 0 for x in v):
                    assert lattice_member(_sparse_row([x // p for x in v]), k)


def test_intersection_examples():
    a = lattice_from_rows([{0: 1}], 2)
    b = lattice_from_rows([{1: 1}], 2)
    assert lattice_intersect(a, b).rank == 0
    full = lattice_from_rows([{0: 1}, {1: 1}], 2)
    diag = lattice_from_rows([{0: 1, 1: 1}], 2)
    assert lattice_intersect(full, diag) == diag
    two = lattice_from_rows([{0: 2}], 2)
    three = lattice_from_rows([{0: 3}], 2)
    assert lattice_intersect(two, three).basis.entries == ((6, 0),)


def test_intersection_properties():
    rng = random.Random(23)

    def random_lattice():
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        return lattice_from_rows(map(_sparse_row, rows), 4)

    for _ in range(25):
        a, b = random_lattice(), random_lattice()
        ab = lattice_intersect(a, b)
        ba = lattice_intersect(b, a)
        assert ab == ba
        assert ab.rank <= min(a.rank, b.rank)
        for v in map(dict, ab.rows):
            assert lattice_member(v, a) and lattice_member(v, b)


def test_intersection_dimension_mismatch():
    with pytest.raises(ValueError):
        lattice_intersect(zero_lattice(2), zero_lattice(3))


def test_membership_examples():
    assert lattice_member({0: 2, 1: 2}, lattice_from_rows([{0: 1, 1: 1}], 2))
    assert not lattice_member({0: 1}, lattice_from_rows([{0: 2}], 2))
    assert lattice_member({}, zero_lattice(2))
    assert lattice_member({}, lattice_from_rows([{0: 5, 1: 3}], 2))


def test_builder_contains():
    b = LatticeBuilder(2)
    b.add({0: 2})
    b.add({1: 3})
    lat = b.lattice()
    for v, member in (({0: 4, 1: 3}, True), ({}, True), ({0: 1}, False), ({0: 2, 1: 1}, False)):
        assert b.contains(v) is member
        assert lattice_member(v, lat) is member
    with pytest.raises(ValueError):
        b.contains({2: 1})


def test_lattice_sum():
    a = lattice_from_rows([{0: 2}], 2)
    b = lattice_from_rows([{0: 3}], 2)
    assert lattice_sum(a, b).basis.entries == ((1, 0),)


def test_builder_change_reporting():
    b = LatticeBuilder(3)
    assert b.add({0: 2}) is True
    assert b.add({0: 4}) is False
    assert b.add({0: 3}) is True  # refines the index without raising rank
    assert b.rank == 1
    assert b.add({1: 1, 2: 5}) is True
    assert b.rank == 2


def test_relations_among():
    # 2*(1,1) + 1*(-2,-2) = 0 and the third vector is independent
    rel = relations_among([{0: 1, 1: 1}, {0: -2, 1: -2}, {0: 5}])
    assert rel.basis.entries == ((2, 1, 0),)
    none = relations_among([{0: 1}, {1: 1}])
    assert none.rank == 0


def test_relations_among_zero_vectors_is_everything():
    assert relations_among([{}, {0: 0}, {1: 0}]).basis.entries == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_combine():
    vecs = [{0: 1, 3: 2}, {0: 2, 1: 5}]
    assert combine([2, -1], vecs) == {1: -5, 3: 4}
    assert combine({1: 3}, vecs) == {0: 6, 1: 15}
    assert combine([0, 0], vecs) == {}


def test_sparse_keys_outside_ambient_are_rejected():
    b = LatticeBuilder(3)
    b.add({0: 1})
    lat = b.lattice()
    for bad in ({3: 1}, {-1: 1}, {5: 0}):
        with pytest.raises(ValueError):
            b.add(bad)
        with pytest.raises(ValueError):
            b.contains(bad)
        with pytest.raises(ValueError):
            lattice_member(bad, lat)


# ---------------------------------------------------------------------------
# properties on random sparse matrices

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=80)


@st.composite
def sparse_matrices(draw, max_cols=6, max_rows=6):
    """(cols, rows): up to max_rows sparse dict rows over cols columns."""
    cols = draw(st.integers(1, max_cols))
    entries = st.dictionaries(st.integers(0, cols - 1), st.integers(-6, 6), max_size=3)
    return cols, draw(st.lists(entries, max_size=max_rows))


def _dense(row: dict, cols: int) -> list[int]:
    return [row.get(j, 0) for j in range(cols)]


def _saturated(lat: IntLattice) -> bool:
    """Whether Z^m / lat is torsion-free: the maximal minors have gcd 1."""
    from sympy import Matrix

    if lat.rank == 0:
        return True
    basis = Matrix(lat.basis.entries)
    g = 0
    for cols in combinations(range(lat.ambient_dim), lat.rank):
        g = gcd(g, int(basis[:, list(cols)].det()))
    return g == 1


@PROPERTIES
@given(sparse_matrices(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_builder_and_membership_agree(case, coeffs):
    cols, rows = case
    builder = LatticeBuilder(cols)
    for r in rows:
        builder.add(r)
    lat = builder.lattice()
    assert lat == lattice_from_rows(rows, cols)
    member = combine(coeffs[: len(rows)], rows)
    probes = [member, {j: 2 * c + 1 for j, c in member.items()}, {cols - 1: 1}]
    for v in probes:
        assert builder.contains(v) is lattice_member(v, lat)
    assert lattice_member(member, lat)


@PROPERTIES
@given(sparse_matrices())
def test_hermite_basis_against_sympy(case):
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    cols, rows = case
    ours = lattice_from_rows(rows, cols)
    basis = ours.basis.entries
    # canonical shape: positive pivots in increasing columns, entries above
    # each pivot reduced into [0, pivot)
    pivots = [next(j for j, x in enumerate(r) if x) for r in basis]
    assert pivots == sorted(set(pivots))
    for i, (r, p) in enumerate(zip(basis, pivots)):
        assert r[p] > 0
        assert all(0 <= above[p] < r[p] for above in basis[:i])
    assert lattice_from_rows(reversed(rows), cols) == ours
    assert hermite_form(ours.basis) == ours.basis
    if rows:
        m = Matrix([_dense(r, cols) for r in rows])
        assert ours.rank == m.rank()
        # sympy's column-style form of the column-reversed transpose is the
        # same canonical basis read backwards
        h = hermite_normal_form(m[:, ::-1].T).T.tolist()
        assert basis == tuple(tuple(int(x) for x in r[::-1]) for r in reversed(h))


@PROPERTIES
@given(sparse_matrices(max_cols=5))
def test_relations_among_properties(case):
    cols, vectors = case
    m = len(vectors)
    rel = relations_among(vectors)
    assert rel.ambient_dim == m
    for x in rel.basis.entries:
        assert combine(x, vectors) == {}
    if m:
        assert rel.rank == m - smith_rank(IntMatrix(m, cols, [_dense(v, cols) for v in vectors]))
    assert _saturated(rel)
    # tuple keys, as the center computation uses, give the same relations
    relabelled = [{(j % 2, -j): c for j, c in v.items()} for v in vectors]
    assert relations_among(relabelled) == rel


@PROPERTIES
@given(sparse_matrices(max_cols=4, max_rows=4), sparse_matrices(max_cols=4, max_rows=4))
def test_intersection_and_kernel_properties(a_case, b_case):
    cols = a_case[0]
    b_rows = [{j % cols: c for j, c in r.items()} for r in b_case[1]]
    a, b = lattice_from_rows(a_case[1], cols), lattice_from_rows(b_rows, cols)
    inter = lattice_intersect(a, b)
    assert inter == lattice_intersect(b, a)
    assert all(lattice_member(v, a) and lattice_member(v, b) for v in map(dict, inter.rows))
    # rank of the intersection: rank a + rank b - rank (a + b)
    assert inter.rank == a.rank + b.rank - lattice_sum(a, b).rank
    if a_case[1]:
        # the kernel of a's rows as a matrix: the relations among its columns
        dense = [_dense(r, cols) for r in a_case[1]]
        kern = relations_among(_sparse_row(col) for col in zip(*dense))
        assert kern.rank == cols - smith_rank(IntMatrix(len(dense), cols, dense))
        assert _saturated(kern)


# ---------------------------------------------------------------------------
# sparse storage and the lazily built dense basis


@PROPERTIES
@given(sparse_matrices(), st.integers(0, 6))
def test_sparse_rows_and_dense_basis_agree(case, cut):
    cols, rows = case
    lat = lattice_from_rows(rows, cols)
    assert "rows" not in lat.__dict__ and "basis" not in lat.__dict__
    assert lat.rank == len(lat.pivot_rows)
    assert lat.is_zero() == (lat.rank == 0)
    assert list(lat.pivot_rows) == sorted(lat.pivot_rows)
    for p, echelon in lat.pivot_rows.items():
        assert min(echelon) == p and all(echelon.values())
    basis = lat.basis
    assert "rows" in lat.__dict__ and "basis" in lat.__dict__
    assert lat.rank == len(lat.rows)
    assert (basis.rows, basis.cols) == (lat.rank, cols)
    for row, (p, echelon), dense in zip(lat.rows, lat.pivot_rows.items(), basis.entries):
        assert list(row) == sorted(row) and all(x for _, x in row)
        # the echelon and canonical rows share pivot columns; the canonical
        # pivot is the echelon one made positive
        assert row[0][0] == p and row[0][1] == abs(echelon[p])
        assert dense == tuple(dict(row).get(j, 0) for j in range(cols))
    # each basis lies in the lattice the other spans
    canonical = lattice_from_rows([dict(row) for row in lat.rows], cols)
    assert all(lattice_member(echelon, canonical) for echelon in lat.pivot_rows.values())
    assert all(lattice_member(dict(row), lat) for row in lat.rows)
    # equality and hash follow the dense canonical bases
    other = lattice_from_rows(rows[:cut], cols)
    assert (lat == other) == (lat.basis == other.basis)
    if lat == other:
        assert hash(lat) == hash(other)
    from_dense = lattice_from_rows(map(_sparse_row, basis.entries), cols)
    assert lat == from_dense and hash(lat) == hash(from_dense)


@st.composite
def respelled_row_sets(draw):
    """(cols, rows, respelled): respelled adds duplicated and scaled copies of
    rows to rows and reorders them, so both span the same lattice."""
    cols, rows = draw(sparse_matrices(max_cols=5, max_rows=5))
    copies = []
    if rows:
        picks = st.tuples(st.integers(0, len(rows) - 1), st.integers(-3, 3))
        for t, c in draw(st.lists(picks, max_size=4)):
            copies.append({j: c * x for j, x in rows[t].items()})
    return cols, rows, draw(st.permutations(rows + copies))


@PROPERTIES
@given(respelled_row_sets(), sparse_matrices(max_cols=5, max_rows=5))
def test_echelon_first_lattices_against_canonical_oracles(case, other_case):
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    cols, rows, respelled = case
    lat, same = lattice_from_rows(rows, cols), lattice_from_rows(respelled, cols)
    # equality and hash agree with comparing the canonical rows
    other = lattice_from_rows(other_case[1], other_case[0])
    for a, b in ((lat, same), (lat, other), (same, other)):
        canonical_equal = (a.ambient_dim, a.rows) == (b.ambient_dim, b.rows)
        assert (a == b) is canonical_equal
        if canonical_equal:
            assert hash(a) == hash(b)
    assert lat == same
    if rows:
        dense = [_dense(r, cols) for r in respelled]
        m = Matrix(dense)
        assert same.rank == smith_rank(IntMatrix(len(dense), cols, dense))
        # sympy's column-style form of the column-reversed transpose is the
        # canonical basis read backwards
        h = hermite_normal_form(m[:, ::-1].T).T.tolist()
        want = tuple(
            tuple((cols - 1 - j, int(x)) for j, x in reversed(list(enumerate(r))) if x)
            for r in reversed(h)
        )
        assert same.rows == want
    else:
        assert same.rank == 0 and same.rows == ()
    # the relation rows are already a canonical-equivalent basis: eliminating
    # them again, as relations were once returned, gives the same lattice
    rel = relations_among(respelled)
    again = lattice_from_rows(rel.pivot_rows.values(), len(respelled))
    assert rel == again and hash(rel) == hash(again)
    assert rel.rank == again.rank and rel.rows == again.rows


def test_rank_leaves_the_dense_basis_unbuilt(monkeypatch):
    from functools import lru_cache

    from braidlike_oracle import braidlike_lattice
    from lieforge import cli, dk as dk_module
    from lieforge.derivations import braidlike_rank_formula
    from lieforge.dk import dk_center, dk_component, dk_rank_formula, dk_star_center

    # no rank, center, sum or intersection path reads the canonical rows or
    # the dense basis: they all run with both unavailable
    def unavailable(lat):
        raise AssertionError("canonical basis read")

    monkeypatch.setattr(IntLattice, "rows", property(unavailable))
    monkeypatch.setattr(IntLattice, "basis", property(unavailable))

    def unbuilt(lat):
        return "rows" not in lat.__dict__ and "basis" not in lat.__dict__

    for k in range(1, 5):
        bl = braidlike_lattice.__wrapped__(4, k)
        comp = dk_component.__wrapped__(4, k)
        dk = comp.tangent_lattice
        assert (bl.rank, dk.rank) == (braidlike_rank_formula(4, k), dk_rank_formula(4, k))
        assert unbuilt(bl) and unbuilt(dk) and "lattice" not in vars(comp)
    # a fresh component cache, so the commands below build every component
    # they use; none of them may build the image-coordinate lattice
    components = lru_cache(maxsize=None)(dk_module.dk_component.__wrapped__)
    monkeypatch.setattr(dk_module, "dk_component", components)
    for obj in ("dk", "der-t-boundary"):
        assert cli.main(["ranks", "--object", obj, "--n", "4", "--max-degree", "4"]) == 0
    assert cli.main(["census", "--n-range", "3..5", "--degree", "3"]) == 0
    built = components.cache_info().misses
    cells = [(4, 4)] + [(n, k) for n in (3, 4, 5) for k in (1, 2, 3)]
    assert all("lattice" not in vars(components(n, k)) for n, k in cells)
    assert components.cache_info().misses == built
    # a fresh cache, so the centers are computed here and not read from
    # lattices another caller may have printed
    fresh = lru_cache(maxsize=None)(dk_module._central_sublattice.__wrapped__)
    monkeypatch.setattr(dk_module, "_central_sublattice", fresh)
    center, star = dk_center(4, 3), dk_star_center(4, 3)
    assert [lat.rank for lat in center.values()] == [1, 0, 0]
    assert [lat.rank for lat in star.values()] == [0, 0, 0]
    assert all(unbuilt(lat) for lat in (*center.values(), *star.values()))
    a = lattice_from_rows([{0: 2, 3: 1}, {1: 3}], 4)
    b = lattice_from_rows([{0: 4, 3: 2}, {1: 1, 2: 1}], 4)
    inter, total = lattice_intersect(a, b), lattice_sum(a, b)
    assert (inter.rank, total.rank) == (1, 3)
    assert all(unbuilt(lat) for lat in (a, b, inter, total))


def test_canonical_shape_of_larger_lattices():
    # back-substitution chains through several pivots, which the small random
    # matrices above rarely produce
    from braidlike_oracle import braidlike_lattice
    from lieforge.dk import dk_component

    for lat in (braidlike_lattice(4, 5), dk_component(4, 5).lattice):
        pivots = {row[0][0]: row[0][1] for row in lat.rows}
        assert all(x > 0 for x in pivots.values())
        for row in lat.rows:
            assert all(0 <= x < pivots[j] for j, x in row[1:] if j in pivots)


def test_sub_multiple_never_writes_into_its_row():
    """The one accumulate kernel only reads its row: cached basis brackets
    and tensor expansions pass through it as rows, so any write would
    corrupt every later bracket that reads them."""
    import copy

    from lieforge.dk import dk_component
    from lieforge.freelie import (
        LieElement,
        _basis_bracket,
        lie_add,
        lie_bracket,
        lie_neg,
        lyndon_words,
        tensor_expand_word,
        to_tensor,
    )

    n = 4
    dk_component.__wrapped__(4, 3)
    elements = [
        LieElement(n, k, {p: (-1) ** p * (p + 1) for p in range(len(lyndon_words(n, k)))})
        for k in (1, 2, 3)
    ]
    tensors = [to_tensor(a) for a in elements]
    words = [w for k in (1, 2, 3) for w in lyndon_words(n, k)]
    brackets = {
        (u, v): _basis_bracket(n, u, v) for u in words for v in words if len(u) + len(v) <= 4
    }
    expansions = {w: tensor_expand_word(w) for w in words}
    before = copy.deepcopy((brackets, expansions))
    for a in elements:
        # [a, a] cancels term by term, [a, b] + [b, a] as a whole
        assert lie_bracket(a, a).is_zero()
        for b in elements:
            if a.degree + b.degree <= 4:
                assert lie_add(lie_bracket(a, b), lie_bracket(b, a)).is_zero()
        assert to_tensor(lie_add(a, lie_neg(a))) == {}
    assert [to_tensor(a) for a in elements] == tensors
    assert (brackets, expansions) == before
    assert all(_basis_bracket(n, *key) is row for key, row in brackets.items())
    assert all(tensor_expand_word(w) is row for w, row in expansions.items())
