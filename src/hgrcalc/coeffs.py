"""Ring descriptors and the coefficient rings of the Grassmannian calculus.

A presentation takes one of three descriptors: the integers, the rationals,
or GWBase, the model Grothendieck-Witt coefficient ring Z[eps]/(eps^2 - 1)
extended by a formal invertible periodicity generator b8 of bidegree (8,4).
Pontryagin weight w corresponds to bidegree (4w, 2w) throughout.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from . import HgrcalcError


class GWElement:
    """Element of Z[eps]/(eps^2-1)[b8, b8^-1].

    Stored as a dict mapping the b8-power to a pair (a, b) meaning a + b*eps.
    eps*eps = 1; b8 is central and invertible.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, (a, b) in terms.items():
                if a or b:
                    self.terms[k] = (a, b)

    @classmethod
    def from_int(cls, n):
        return cls({0: (n, 0)})

    @classmethod
    def scalar(cls, a, b=0, beta_power=0):
        return cls({beta_power: (a, b)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _as_gw(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        other = _as_gw(other)
        if other is None:
            return NotImplemented
        res = dict(self.terms)
        for k, (a, b) in other.terms.items():
            a0, b0 = res.get(k, (0, 0))
            res[k] = (a0 + a, b0 + b)
        return GWElement(res)

    __radd__ = __add__

    def __neg__(self):
        return GWElement({k: (-a, -b) for k, (a, b) in self.terms.items()})

    def __sub__(self, other):
        other = _as_gw(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_gw(other) - self

    def __mul__(self, other):
        other = _as_gw(other)
        if other is None:
            return NotImplemented
        res = {}
        for k1, (a1, b1) in self.terms.items():
            for k2, (a2, b2) in other.terms.items():
                k = k1 + k2
                # (a1 + b1 e)(a2 + b2 e) with e^2 = 1
                a = a1 * a2 + b1 * b2
                b = a1 * b2 + b1 * a2
                a0, b0 = res.get(k, (0, 0))
                res[k] = (a0 + a, b0 + b)
        return GWElement(res)

    __rmul__ = __mul__

    def exact_div(self, other):
        """Exact division by an integer or a single-term unit; None if not exact."""
        other = _as_gw(other)
        if other is None or not other:
            return None
        if len(other.terms) == 1:
            k, (a, b) = next(iter(other.terms.items()))
            if b == 0 and a != 0:
                res = {}
                for k1, (a1, b1) in self.terms.items():
                    if a1 % a or b1 % a:
                        return None
                    res[k1 - k] = (a1 // a, b1 // a)
                return GWElement(res)
        return None

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            a, b = self.terms[k]
            if b == 0:
                body = str(a)
            elif a == 0:
                body = "%d*eps" % b if b not in (1, -1) else ("eps" if b == 1 else "-eps")
            else:
                body = "%d%+d*eps" % (a, b)
            if k:
                if ("+" in body[1:]) or ("-" in body[1:]):
                    body = "(%s)" % body
                body += "*b8^%d" % k
            parts.append(body)
        return " + ".join(parts)


def _as_gw(x):
    if isinstance(x, GWElement):
        return x
    if isinstance(x, int):
        return GWElement.from_int(x)
    return None


GW_ONE = GWElement.from_int(1)
GW_EPS = GWElement.scalar(0, 1)
GW_H = GW_ONE + GW_EPS          # hyperbolic class <1> + <-1>
GW_BETA8 = GWElement.scalar(1, 0, beta_power=1)


class CoeffError(HgrcalcError):
    """A value a ring cannot hold, or a square class it cannot compute."""


# Every ring descriptor has `name`; one that carries elements also has
# zero(), one() and coerce(x).  Beyond that a descriptor defines only what
# its callers use: inv, square_class and is_square for fields; quo, gcd_all,
# is_unit and unit_inverse for Euclidean rings; has_half and
# unit_square_classes, one representative per class of R^x/R^x2, for the
# rings KO_1 is computed over.


class IntegerRing:
    """The integers, as Grassmannian coefficients and as a Euclidean ring."""

    has_half = False

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise CoeffError("cannot coerce %r into the integers" % (x,))

    def quo(self, a, b):
        return a // b

    def gcd_all(self, xs):
        return gcd(*xs)

    def is_unit(self, x):
        return x in (1, -1)

    def unit_inverse(self, x):
        return x  # +-1 are self-inverse


# Squarefree parts are found by trial division up to the cube root, so
# |numerator * denominator| is capped to keep that loop short.
SQUARE_CLASS_BOUND = 10 ** 21


class RationalsField:
    """The rationals, as Grassmannian coefficients and as a field."""

    name = "Rationals"

    def __repr__(self):
        return self.name

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def inv(self, x):
        return 1 / Fraction(x)

    def square_class(self, x):
        """Canonical representative: the squarefree integer a*b of x = a/b."""
        x = Fraction(x)
        if x == 0:
            raise CoeffError("zero has no square class")
        n = x.numerator * x.denominator
        sign = -1 if n < 0 else 1
        n = abs(n)
        if n >= SQUARE_CLASS_BOUND:
            raise CoeffError("square class: |numerator * denominator| is "
                             "not below %d" % SQUARE_CLASS_BOUND)
        out = 1
        d = 2
        while d * d * d <= n:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
            d += 1 if d == 2 else 2
        # n has no prime factor below d and n < d^3, so n is 1, p, p^2 or
        # p*q: squarefree unless it is a square
        if isqrt(n) ** 2 == n:
            n = 1
        return Fraction(sign * out * n)

    def is_square(self, x):
        return self.square_class(x) == 1


def primitive_integers(xs):
    """The coprime integers c*x for the least positive rational c that
    clears the denominators of the rationals xs (zeros stay zero)."""
    den = lcm(*(x.denominator for x in xs))
    ints = [int(x * den) for x in xs]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


class GWBase:
    """The coefficients GW(S)[b8^{+-1}], modelled by GWElement."""

    name = "GWBase"

    def __repr__(self):
        return self.name

    def zero(self):
        return GWElement()

    def one(self):
        return GWElement.from_int(1)

    def coerce(self, x):
        g = _as_gw(x)
        if g is None:
            raise CoeffError("cannot coerce %r into GWBase" % (x,))
        return g


INTEGERS = IntegerRing("Integers")
RATIONALS = RationalsField()
GWBASE = GWBase()
