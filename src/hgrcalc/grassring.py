"""Presentations of quaternionic Grassmannian cohomology rings.

A presentation A(pt)[p_1..p_r]/(h_{n-r+1},..,h_n) carries the Schur basis
indexed by partitions in the r x (n-r) box; every element has a unique
normal form over that basis.  Restrictions between presentations act as
box truncation on Schur coordinates.  The inverse-limit rings are
polynomials in `symfun.elementary_ring(r)` truncated at a weight.  Elements
of both are `polynomial.Combination`s.
"""

from math import comb

from . import HgrcalcError
from .coeffs import INTEGERS
from .polynomial import Combination, Poly
from . import symfun
from .symfun import Partition, EMPTY, enumerate_box_partitions, sort_key


class ParameterError(HgrcalcError):
    pass


class GrassRing:
    """The ring A(HGr(r,n)): Z- (or GW-) combinations of box Schur classes."""

    def __init__(self, r, n, coeff=INTEGERS):
        if r < 0 or n < 0 or r > n:
            raise ParameterError("need 0 <= r <= n, got r=%s n=%s" % (r, n))
        self.r = r
        self.n = n
        self.coeff = coeff
        self.basis = enumerate_box_partitions(r, n - r)
        self.basis_index = {lam: i for i, lam in enumerate(self.basis)}
        self.ideal_gens = [symfun.complete_from_elementary(k, r)
                           for k in range(n - r + 1, n + 1)]

    # bidegree bookkeeping: Pontryagin weight w sits in bidegree (4w, 2w)
    @staticmethod
    def bidegree_of_weight(w):
        return (4 * w, 2 * w)

    def poly_ring(self):
        return symfun.elementary_ring(self.r)

    def rank(self):
        return comb(self.n, self.r)

    def __repr__(self):
        return "GrassRing(r=%d, n=%d, coeff=%s)" % (self.r, self.n, self.coeff)

    def __eq__(self, other):
        return (isinstance(other, GrassRing) and self.r == other.r
                and self.n == other.n and self.coeff == other.coeff)

    def __hash__(self):
        return hash((self.r, self.n, self.coeff))

    # -- element constructors ---------------------------------------------

    def zero(self):
        return GrassElement(self, {})

    def one(self):
        return GrassElement(self, {EMPTY: self.coeff.one()})

    def p(self, i):
        """The Pontryagin generator p_i = e_i = s_(1^i)."""
        if not 1 <= i <= self.r:
            raise ParameterError("p_%d is not a generator of rank %d" % (i, self.r))
        return self.normal_form(self.poly_ring().gen(i - 1))

    def schur(self, lam):
        if not isinstance(lam, Partition):
            lam = Partition(lam)
        if lam not in self.basis_index:
            return self.normal_form(symfun.schur_in_elementary(lam, self.r))
        return GrassElement(self, {lam: self.coeff.one()})

    def normal_form(self, poly):
        """Normal form of a polynomial in e_1..e_r over the box Schur basis."""
        coords = symfun.poly_to_schur_coords(poly, self.r, self.n - self.r)
        return GrassElement(self, {lam: self.coeff.coerce(c)
                                   for lam, c in coords.items()})

    def to_json(self):
        return {
            "r": self.r,
            "n": self.n,
            "coeff": self.coeff.name,
            "ideal": [symfun.poly_json(h) for h in self.ideal_gens],
            "basis": [lam.to_json() for lam in self.basis],
        }


def present(r, n, coeff=INTEGERS):
    """The presentation A(pt)[p_1..p_r]/(h_{n-r+1},..,h_n)."""
    return GrassRing(r, n, coeff)


class GrassElement(Combination):
    """Coefficient vector over the Schur basis of a GrassRing; `coords`
    names the same dict as `terms`."""

    __slots__ = ()

    @property
    def coords(self):
        return self.terms

    def _scalar(self, c):
        return self.ring.coeff.coerce(c)

    def __mul__(self, other):
        if not isinstance(other, GrassElement):
            return self.scale(other)
        self._coerce(other)
        rows, cols = self.ring.r, self.ring.n - self.ring.r
        return self._new(symfun.lr_multiply(self.terms, other.terms,
                                            rows, cols))

    def sorted_coords(self):
        return sorted(self.terms.items(), key=lambda t: sort_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam, c in self.sorted_coords():
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = "(%s)" % cs
            bits.append("%s*s%s" % (cs, lam))
        return " + ".join(bits)


class RestrictionMap:
    """Schur-coordinate restriction along alpha (n+1 -> n) or beta (r+1,n+1 -> r,n).

    Fixes the coordinates of partitions in the target box and kills the rest.
    """

    def __init__(self, source, target, kind):
        if kind not in ("alpha", "beta"):
            raise ParameterError("kind must be 'alpha' or 'beta'")
        if source.coeff != target.coeff:
            raise ParameterError("restriction requires matching coefficients")
        if kind == "alpha":
            ok = source.r == target.r and source.n == target.n + 1
        else:
            ok = source.r == target.r + 1 and source.n == target.n + 1
        if source == target:
            ok = True
        if not ok:
            raise ParameterError(
                "%s does not restrict from (r=%d,n=%d) to (r=%d,n=%d)"
                % (kind, source.r, source.n, target.r, target.n))
        self.source = source
        self.target = target
        self.kind = kind

    def __call__(self, x):
        if x.ring != self.source:
            raise ValueError("element does not live in the source ring")
        box_rows, box_cols = self.target.r, self.target.n - self.target.r
        out = {}
        for lam, c in x.coords.items():
            if lam.fits_in_box(box_rows, box_cols):
                out[lam] = c
        return GrassElement(self.target, out)

    def matrix(self):
        """Sparse 0/1 coordinate matrix over the two Schur bases."""
        entries = {}
        for j, lam in enumerate(self.source.basis):
            if lam in self.target.basis_index:
                entries[(self.target.basis_index[lam], j)] = 1
        return entries

    def kernel_basis(self):
        return [lam for lam in self.source.basis
                if lam not in self.target.basis_index]

    def to_json(self):
        return {
            "kind": self.kind,
            "source": {"r": self.source.r, "n": self.source.n},
            "target": {"r": self.target.r, "n": self.target.n},
            "matrix": [[i, j] for (i, j) in sorted(self.matrix())],
        }


def restriction(source, target, kind):
    return RestrictionMap(source, target, kind)


# ---------------------------------------------------------------------------
# The inverse-limit rings, truncated at a weight.
# ---------------------------------------------------------------------------


class LimitRing:
    """lim_n A(HGr(r, n)) up to weight W: polynomials in p_1..p_r, which are
    the e_1..e_r of `symfun.elementary_ring(r)` with deg p_i = i.

    An element is a Poly there; `truncate` drops its terms of weight
    above W, and `project` reads it in a finite presentation.
    """

    def __init__(self, r, truncation):
        if truncation < 0:
            raise ParameterError("truncation weight must be nonnegative")
        self.r = r
        self.W = truncation
        self.ring = symfun.elementary_ring(r)

    def p(self, i):
        if not 1 <= i <= self.r:
            raise ParameterError("generator p_%d out of range" % i)
        return self.truncate(self.ring.gen(i - 1))

    def truncate(self, x):
        """x without its terms of weight above W."""
        if x.ring != self.ring:
            raise ValueError("series from a different limit ring")
        weight_of, W = self.ring.weight_of, self.W
        return Poly(self.ring, {e: c for e, c in x.terms.items()
                                if weight_of(e) <= W})

    def project(self, ring):
        """Cone projection onto a finite presentation present(r', n)."""
        width = ring.r

        def proj(x):
            # p_i restricts to zero when i > r'
            terms = {(e + (0,) * width)[:width]: c
                     for e, c in self.truncate(x).terms.items()
                     if not any(e[width:])}
            return ring.normal_form(Poly(ring.poly_ring(), terms))
        return proj


def limit_ring(r, truncation):
    """The inverse-limit ring in p_1..p_r, truncated at the given weight."""
    return LimitRing(r, truncation)
