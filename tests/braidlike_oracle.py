"""The braid-like derivations as whole lattices, the oracle for their rank.

``lieforge.derivations.braidlike_rank`` eliminates only the images of the
boundary evaluation and reads the rank by rank-nullity.  The tests check it,
and the lattices they compare with, against the saturated kernel built here:
the relations among the boundary brackets, each eliminated with a unit
marker column.
"""

from functools import lru_cache

from lieforge.derivations import _boundary_brackets, image_dim, tangential_coords
from lieforge.freelie import witt_rank
from lieforge.zlattice import IntLattice, combine, lattice_from_rows, _relations


@lru_cache(maxsize=None)
def braidlike_lattice(n: int, k: int) -> IntLattice:
    """Saturated kernel of the boundary evaluation, in tangential coordinates.

    The coordinate (i, u) evaluates to [X_i, u], so the kernel is the
    relations among those brackets.  Their Lyndon positions are already
    columns 0..witt_rank(n, k+1)-1, so the brackets go into the elimination
    as they are made, one at a time, and none is kept or cached.
    """
    rows = _boundary_brackets(n, k)
    return _relations(rows, witt_rank(n, k + 1), len(tangential_coords(n, k)))


@lru_cache(maxsize=None)
def braidlike_image_lattice(n: int, k: int) -> IntLattice:
    """The braid-like derivations of degree k, in generator-image coordinates."""
    block = witt_rank(n, k + 1)
    images = [
        {(i - 1) * block + p: v for p, v in row.items()}
        for (i, _), row in zip(tangential_coords(n, k), _boundary_brackets(n, k))
    ]
    rows = (combine(tv, images) for tv in braidlike_lattice(n, k).pivot_rows.values())
    return lattice_from_rows(rows, image_dim(n, k))
