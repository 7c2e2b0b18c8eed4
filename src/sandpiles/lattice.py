"""Finite lattice geometry and exact toppling matrices.

A lattice here is a finite subset of Z^d with nearest-neighbour adjacency
restricted to the subset; neighbours outside the subset are lost mass
(open boundary). Site order is frozen at construction (row-major for a
box), so configuration arrays, matrices and files produced elsewhere in
the package line up deterministically.
"""

from dataclasses import dataclass
from fractions import Fraction
import functools
import itertools
import math

import numpy as np

from . import btw
from .errors import DomainError, GeometryError


class Lattice:
    """Immutable finite subset of Z^d with in-set adjacency tables.

    Every table but the cached `recurrent` set is O(n) in the number of sites.

    Attributes:
        d: ambient dimension.
        dims: box side lengths if built from a box, else None. A lattice
            given `dims` holds exactly that box in row-major order
            (GeometryError otherwise), so `stabilize_many` relaxes its
            replicas as grids of that shape.
        sites: tuple of coordinate tuples, in the order given, frozen.
        n_sites: number of sites.
        adjacency: tuple of tuples of ints; adjacency[i] lists the
            indices of the in-set nearest neighbours of site i.
        width: a bound on the narrowest side of each connected
            component's bounding box, computed on first read: min(dims) on
            a box, else the narrowest side of the lattice's bounding box or
            n_sites, whichever is less (a component spans at most its size).
        boundary_degree: int array; boundary_degree[i] counts the nearest
            neighbours of site i that fall outside the set (mass lost per
            toppling through those bonds).
        neighbour_table: read-only (k, n) intp array, k the largest
            in-set degree (0 for a lattice with no bonds), built on first
            read; row j holds each site's j-th in-set neighbour, or n where
            the site has fewer than j + 1, so that a gather from an array
            of length n + 1 whose last entry is 0 treats missing bonds as
            the sink.
    """

    def __init__(self, d, sites, dims=None):
        d = btw._integer(d, "dimension", 1, error=GeometryError)
        pts = []
        for s in sites:
            p = tuple([btw._integer(c, "site coordinate", error=GeometryError) for c in s])
            if len(p) != d:
                raise GeometryError(f"site {s!r} does not have {d} coordinates")
            pts.append(p)
        if not pts:
            raise GeometryError("lattice needs at least one site")
        if len(set(pts)) != len(pts):
            raise GeometryError("duplicate sites")
        if dims is not None:
            dims = tuple(btw._integer(n, "box side", error=GeometryError) for n in dims)
            if pts != list(itertools.product(*map(range, dims))):
                raise GeometryError(f"sites are not the box {dims} in row-major order")
        self.d = d
        self.dims = dims
        self.sites = tuple(pts)
        self.n_sites = len(pts)
        index = {p: i for i, p in enumerate(pts)}

        adjacency = []
        boundary = np.zeros(self.n_sites, dtype=np.int64)
        for i, p in enumerate(pts):
            nbrs = []
            for axis in range(d):
                for step in (-1, 1):
                    q = list(p)
                    q[axis] += step
                    j = index.get(tuple(q))
                    if j is None:
                        boundary[i] += 1
                    else:
                        nbrs.append(j)
            adjacency.append(tuple(sorted(nbrs)))
        self.adjacency = tuple(adjacency)
        self.boundary_degree = boundary
        boundary.setflags(write=False)

    @functools.cached_property
    def neighbour_table(self):
        """Padded (k, n) neighbour table, built on first read."""
        rows = list(itertools.zip_longest(*self.adjacency, fillvalue=self.n_sites))
        table = np.array(rows, dtype=np.intp).reshape(len(rows), self.n_sites)
        table.setflags(write=False)
        return table

    @functools.cached_property
    def width(self):
        if self.dims is not None:
            return min(self.dims)
        return min(self.n_sites, int(np.ptp(self.sites, axis=0).min()) + 1)

    @functools.cached_property
    def recurrent(self):
        """Read-only (count, n) int64 recurrent set for every sampler, scanned on
        first read and kept; past the scan's cap each read raises CapacityError."""
        table = btw.enumerate_recurrent(self)
        table.setflags(write=False)
        return table

    @functools.cached_property
    def group_zero(self):
        """Read-only int64 eps = 2m - stab(2m), m the maximal stable
        configuration: Delta times an odometer, so zero in the sandpile
        group, and at least m at every site. Built on first read (the
        first inverse addition that needs it) and kept."""
        twice = 2 * btw.max_stable(self)
        eps = twice - btw.btw_stabilize(self, twice)[0]
        eps.setflags(write=False)
        return eps

    @property
    def threshold(self):
        """Number of grains shed per toppling (2d)."""
        return 2 * self.d

    def __repr__(self):
        if self.dims is not None:
            return f"Lattice(box {'x'.join(map(str, self.dims))} in Z^{self.d})"
        return f"Lattice({self.n_sites} sites in Z^{self.d})"


def build_lattice(dims):
    """Build the box lattice {0..n1-1} x ... x {0..nd-1}.

    Site order is row-major (last coordinate varies fastest). Each side
    is an integer other than a bool (GeometryError otherwise).
    """
    dims = tuple(btw._integer(n, "box side", 1, error=GeometryError) for n in dims)
    if len(dims) == 0:
        raise GeometryError("dims must be non-empty")
    sites = list(itertools.product(*(range(n) for n in dims)))
    return Lattice(len(dims), sites, dims=dims)


@dataclass
class TopplingMatrix:
    """Exact toppling matrix of a lattice.

    entries[i][j] are Fractions. variant "integer" is the grain matrix
    (2d on the diagonal, -1 across each in-set bond); variant "continuous"
    is the mass matrix (1 on the diagonal, -1/2d across each bond). The
    two are exact scalar multiples: integer = 2d * continuous.
    """

    variant: str
    d: int
    entries: list


def toppling_matrix(lat, variant="continuous"):
    """Exact toppling matrix of `lat` as Fractions.

    variant: "continuous" (threshold-1 mass form) or "integer" (grain form).
    """
    if variant not in ("continuous", "integer"):
        raise DomainError(f"unknown variant {variant!r}")
    two_d = 2 * lat.d
    diag = Fraction(two_d) if variant == "integer" else Fraction(1)
    off = Fraction(-1) if variant == "integer" else Fraction(-1, two_d)
    entries = []
    for i in range(lat.n_sites):
        row = [Fraction(0)] * lat.n_sites
        row[i] = diag
        for j in lat.adjacency[i]:
            row[j] = off
        entries.append(row)
    return TopplingMatrix(variant=variant, d=lat.d, entries=entries)


def determinant_exact(matrix):
    """Exact determinant of a TopplingMatrix, as a Fraction.

    `entries` must be n lists of n values (DomainError otherwise). Each
    row's denominators are cleared, then `btw._bareiss` eliminates in
    integers only. For the integer variant the result is an
    integer-valued Fraction equal to the number of recurrent
    configurations; for the continuous variant it equals the total volume
    of the stable-allowed region. An empty matrix has determinant 1.
    """
    n = len(matrix.entries)
    if any(len(row) != n for row in matrix.entries):
        raise DomainError(f"entries must be {n} rows of {n} values")
    rows = [[Fraction(v) for v in row] for row in matrix.entries]
    lcms = [math.lcm(*(v.denominator for v in row)) for row in rows]
    det, _ = btw._bareiss([{j: int(v * m) for j, v in enumerate(row) if v}
                           for row, m in zip(rows, lcms)])
    return Fraction(det, math.prod(lcms))
