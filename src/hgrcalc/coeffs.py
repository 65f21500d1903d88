"""Coefficient rings for the Grassmannian calculus.

Three descriptors are supported: the integers, the rationals, and GWBase,
the model Grothendieck-Witt coefficient ring Z[eps]/(eps^2 - 1) extended by
a formal invertible periodicity generator b8 of bidegree (8,4).  Pontryagin
weight w corresponds to bidegree (4w, 2w) throughout.
"""

from fractions import Fraction


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
            a0, b0 = a0 + a, b0 + b
            if a0 or b0:
                res[k] = (a0, b0)
            else:
                res.pop(k, None)
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
                a0, b0 = a0 + a, b0 + b
                if a0 or b0:
                    res[k] = (a0, b0)
                else:
                    res.pop(k, None)
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


class CoeffRing:
    """Descriptor for the coefficient ring of a Grassmannian presentation."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, CoeffRing) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def zero(self):
        if self.name == "GWBase":
            return GWElement()
        if self.name == "Rationals":
            return Fraction(0)
        return 0

    def one(self):
        if self.name == "GWBase":
            return GWElement.from_int(1)
        if self.name == "Rationals":
            return Fraction(1)
        return 1

    def coerce(self, x):
        if self.name == "GWBase":
            g = _as_gw(x)
            if g is None:
                raise TypeError("cannot coerce %r into GWBase" % (x,))
            return g
        if self.name == "Rationals":
            return Fraction(x)
        if isinstance(x, int):
            return x
        raise TypeError("cannot coerce %r into the integers" % (x,))

    def coeff_str(self, c):
        return str(c)


INTEGERS = CoeffRing("Integers")
RATIONALS = CoeffRing("Rationals")
GWBASE = CoeffRing("GWBase")
