"""Presentations of quaternionic Grassmannian cohomology rings.

A presentation A(pt)[p_1..p_r]/(h_{n-r+1},..,h_n) carries the Schur basis
indexed by partitions in the r x (n-r) box; every element has a unique
normal form over that basis.  Restrictions between presentations act as
box truncation on Schur coordinates.  The module also provides truncated
homogeneous power series (the inverse-limit rings) and a free
eps-commutative bigraded algebra used as a sign-rule harness.
"""

from math import comb

from . import HgrcalcError
from .coeffs import GWElement, GW_EPS, GW_ONE, INTEGERS
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

    def scalar(self, c):
        c = self.coeff.coerce(c)
        return GrassElement(self, {EMPTY: c} if c else {})

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


class GrassElement:
    """Coefficient vector over the Schur basis of a GrassRing."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = {lam: c for lam, c in coords.items() if c}

    def is_zero(self):
        return not self.coords

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        if isinstance(other, GrassElement):
            return self.ring == other.ring and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coords.items(),
                                             key=lambda t: sort_key(t[0])))))

    def __add__(self, other):
        self._check(other)
        res = dict(self.coords)
        for lam, c in other.coords.items():
            s = res.get(lam, self.ring.coeff.zero()) + c
            if s:
                res[lam] = s
            else:
                res.pop(lam, None)
        return GrassElement(self.ring, res)

    def __neg__(self):
        return GrassElement(self.ring, {l: -c for l, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.ring.coeff.coerce(c)
        return GrassElement(self.ring, {l: c * v for l, v in self.coords.items()})

    def __mul__(self, other):
        if not isinstance(other, GrassElement):
            return self.scale(other)
        self._check(other)
        rows, cols = self.ring.r, self.ring.n - self.ring.r
        zero = self.ring.coeff.zero()
        res = {}
        for lam, a in self.coords.items():
            for mu, b in other.coords.items():
                ab = a * b
                for nu, c in symfun.lr_multiply(lam, mu, rows, cols).items():
                    res[nu] = res.get(nu, zero) + ab * c
        return GrassElement(self.ring, res)

    def __rmul__(self, other):
        return self.scale(other)

    def coordinate(self, lam):
        if not isinstance(lam, Partition):
            lam = Partition(lam)
        return self.coords.get(lam, self.ring.coeff.zero())

    def sorted_coords(self):
        return sorted(self.coords.items(), key=lambda t: sort_key(t[0]))

    def __repr__(self):
        if not self.coords:
            return "0"
        bits = []
        for lam, c in self.sorted_coords():
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = "(%s)" % cs
            bits.append("%s*s%s" % (cs, lam))
        return " + ".join(bits)

    def to_json(self):
        return [{"partition": lam.to_json(), "coeff": str(c)}
                for lam, c in self.sorted_coords()]

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("elements of different Grassmannian rings")


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
# Homogeneous power series: the inverse limit rings.
# ---------------------------------------------------------------------------


class PowerSeriesRing:
    """Truncated homogeneous power series in p_1..p_r (or countably many).

    Countably many generators are truncated at index W as well: p_i with
    i > W cannot appear in weight <= W.
    """

    def __init__(self, r, truncation, coeff=INTEGERS):
        if truncation < 0:
            raise ParameterError("truncation weight must be nonnegative")
        self.countable = r is None
        self.W = truncation
        self.r = truncation if r is None else r
        self.coeff = coeff

    def __eq__(self, other):
        return (isinstance(other, PowerSeriesRing)
                and (self.countable, self.W, self.r, self.coeff)
                == (other.countable, other.W, other.r, other.coeff))

    def __hash__(self):
        return hash((self.countable, self.W, self.r, self.coeff))

    def __repr__(self):
        gens = "p1..p%d" % self.r if not self.countable else "p1,p2,..."
        return "PowerSeriesRing(%s; weight <= %d)" % (gens, self.W)

    def weight_of(self, exps):
        return sum((i + 1) * e for i, e in enumerate(exps))

    def zero(self):
        return PowerSeries(self, {})

    def one(self):
        return self.scalar(self.coeff.one())

    def scalar(self, c):
        c = self.coeff.coerce(c)
        return PowerSeries(self, {(0,) * self.r: c} if c else {})

    def p(self, i):
        if not 1 <= i <= self.r:
            raise ParameterError("generator p_%d out of range" % i)
        if i > self.W:
            return self.zero()  # too heavy for the truncation
        e = [0] * self.r
        e[i - 1] = 1
        return PowerSeries(self, {tuple(e): self.coeff.one()})

    def project(self, ring):
        """Cone projection onto a finite presentation present(r', n)."""
        def proj(x):
            if x.ring is not self and x.ring != self:
                raise ValueError("series from a different limit ring")
            poly_ring = ring.poly_ring()
            acc = poly_ring.zero()
            for exps, c in x.terms.items():
                mono = poly_ring.one()
                skip = False
                for i, e in enumerate(exps):
                    if not e:
                        continue
                    if i >= ring.r:
                        skip = True  # p_i restricts to zero when i > r'
                        break
                    mono = mono * poly_ring.gen(i, e)
                if not skip:
                    acc = acc + c * mono
            return ring.normal_form(acc)
        return proj


class PowerSeries:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items()
                      if c and ring.weight_of(e) <= ring.W}

    def __eq__(self, other):
        return (isinstance(other, PowerSeries) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, self.ring.coeff.zero()) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return PowerSeries(self.ring, res)

    def __neg__(self):
        return PowerSeries(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries(self.ring,
                               {e: c * other for e, c in self.terms.items()})
        res = {}
        W = self.ring.W
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if self.ring.weight_of(e) > W:
                    continue
                s = res.get(e, self.ring.coeff.zero()) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        return PowerSeries(self.ring, res)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (self.ring.weight_of(t), t)):
            c = self.terms[e]
            mono = "*".join("p%d^%d" % (i + 1, x) if x > 1 else "p%d" % (i + 1)
                            for i, x in enumerate(e) if x)
            bits.append("%s%s" % (c, "*" + mono if mono else ""))
        return " + ".join(bits)


def limit_ring(r, truncation, coeff=INTEGERS):
    """Homogeneous power series ring truncated at the given weight.

    Pass r=None for countably many generators.
    """
    return PowerSeriesRing(r, truncation, coeff)


# ---------------------------------------------------------------------------
# Free eps-commutative bigraded algebra: the sign-rule harness.
# ---------------------------------------------------------------------------


class EpsAlgebra:
    """Free eps-commutative algebra over GWBase on bigraded generators.

    Homogeneous generators a, b of bidegrees (p,q), (p',q') satisfy
    a*b = (-1)^{pp'} eps^{qq'} b*a with eps^2 = 1.  Generators of odd
    first degree square to zero, so normal-ordered monomials form a basis.

    Bidegrees with p even and q odd are rejected: the sign rule forces
    (1-eps)-torsion on the square of such a generator, so no free algebra
    with a monomial basis exists for them.
    """

    def __init__(self, generators):
        self.names = tuple(name for name, _ in generators)
        self.bidegrees = tuple(tuple(bd) for _, bd in generators)
        self.index = {name: i for i, name in enumerate(self.names)}
        for name, (p, q) in zip(self.names, self.bidegrees):
            if p % 2 == 0 and q % 2 == 1:
                raise ParameterError(
                    "generator %s has bidegree (even, odd); its square would be "
                    "(1-eps)-torsion, breaking the monomial basis" % name)

    def __eq__(self, other):
        return (isinstance(other, EpsAlgebra) and self.names == other.names
                and self.bidegrees == other.bidegrees)

    def __hash__(self):
        return hash((self.names, self.bidegrees))

    def zero(self):
        return EpsElement(self, {})

    def one(self):
        return EpsElement(self, {(): GW_ONE})

    def scalar(self, c):
        if isinstance(c, int):
            c = GWElement.from_int(c)
        return EpsElement(self, {(): c} if c else {})

    def gen(self, name):
        i = self.index[name]
        return EpsElement(self, {((i, 1),): GW_ONE})

    def swap_sign(self, i, j):
        """The GWBase scalar (-1)^{p_i p_j} eps^{q_i q_j} for one transposition."""
        p1, q1 = self.bidegrees[i]
        p2, q2 = self.bidegrees[j]
        sign = GWElement.from_int(-1 if (p1 * p2) % 2 else 1)
        if (q1 * q2) % 2:
            sign = sign * GW_EPS
        return sign

    def _mono_mul(self, m1, m2):
        """Normal-order the concatenation m1 * m2; returns (monomial, sign) or None."""
        factors = list(m1)
        sign = GW_ONE
        for g, e in m2:
            # bubble (g, e) left past factors with larger generator index
            pos = len(factors)
            while pos > 0 and factors[pos - 1][0] > g:
                gi, ei = factors[pos - 1]
                if (e * ei) % 2:  # swap signs square to 1
                    sign = sign * self.swap_sign(g, gi)
                pos -= 1
            if pos > 0 and factors[pos - 1][0] == g:
                ge, ee = factors[pos - 1]
                newe = ee + e
                p, _q = self.bidegrees[g]
                if p % 2 and newe >= 2:
                    return None  # odd generators square to zero
                factors[pos - 1] = (g, newe)
            else:
                p, _q = self.bidegrees[g]
                if p % 2 and e >= 2:
                    return None
                factors.insert(pos, (g, e))
        return tuple(factors), sign


class EpsElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    def __eq__(self, other):
        return (isinstance(other, EpsElement)
                and self.algebra == other.algebra and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, GWElement()) + c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return EpsElement(self.algebra, res)

    def __neg__(self):
        return EpsElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, EpsElement):
            return self.scale(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = self.algebra._mono_mul(m1, m2)
                if prod is None:
                    continue
                mono, sign = prod
                s = res.get(mono, GWElement()) + c1 * c2 * sign
                if s:
                    res[mono] = s
                else:
                    res.pop(mono, None)
        return EpsElement(self.algebra, res)

    def scale(self, c):
        if isinstance(c, int):
            c = GWElement.from_int(c)
        return EpsElement(self.algebra, {m: c * v for m, v in self.terms.items()})

    __rmul__ = scale

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "*".join(
                "%s^%d" % (self.algebra.names[i], e) if e > 1 else self.algebra.names[i]
                for i, e in m)
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = "(%s)" % cs
            bits.append(cs if not mono else "%s*%s" % (cs, mono))
        return " + ".join(bits)
