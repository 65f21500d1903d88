"""Pontryagin-class calculus for symplectic bundles.

The quaternionic projective bundle module has basis 1, t, .., t^{n-1} with
t^n reduced by the characteristic equation
    t^n - p_1 t^{n-1} + p_2 t^{n-2} - ... + (-1)^n p_n = 0,
the Cartan sum formula convolves Pontryagin coefficient lists, and the
universal element arithmetic produces (p_1 + i*h) * b8^k in the rank-n
presentations over the GW coefficient ring.
"""

from functools import lru_cache

from .coeffs import GWBASE, GWElement, GW_H
from .grassring import ParameterError, present
from .polynomial import PolyRing
from .classcalc import FormalClass
from .symfun import EMPTY, Partition


@lru_cache(maxsize=None)
def pontryagin_ring(n):
    """Z[p_1..p_n] with deg(p_i) = i: generic Pontryagin coefficients."""
    return PolyRing(tuple("p%d" % i for i in range(1, n + 1)),
                    tuple(range(1, n + 1)))


class QPBModule:
    """Free module over the coefficient ring with basis 1, t, .., t^{n-1}.

    Coefficients default to the generic Pontryagin symbols p_1..p_n; any
    list of elements of a common ring works.
    """

    def __init__(self, n, ps=None):
        if n < 1:
            raise ParameterError("module rank must be at least 1")
        self.n = n
        if ps is None:
            ring = pontryagin_ring(n)
            ps = [ring.gen(i) for i in range(n)]
            self.ring = ring
        else:
            ps = list(ps)
            if len(ps) != n:
                raise ParameterError("need exactly n Pontryagin coefficients")
            self.ring = getattr(ps[0], "ring", None)
        self.ps = ps

    def zero_coeff(self):
        if self.ring is not None:
            return self.ring.zero()
        return 0

    def one_coeff(self):
        if self.ring is not None:
            return self.ring.one()
        return 1

    def char_coeffs(self):
        """Little-endian coefficients of the monic characteristic polynomial."""
        # t^n - p1 t^{n-1} + ... + (-1)^n p_n
        coeffs = []
        for i in range(self.n, 0, -1):
            sign = -1 if i % 2 else 1
            coeffs.append(sign * self.ps[i - 1])
        coeffs.append(self.one_coeff())
        return coeffs


def char_reduce(power, module):
    """Normal form of t^power over the basis 1, t, .., t^{n-1}.

    Repeatedly substitutes t^n = p_1 t^{n-1} - p_2 t^{n-2} + ... - (-1)^n p_n.
    Returns the coefficient list [c_0, .., c_{n-1}] with t^power = sum c_k t^k.
    """
    if power < 0:
        raise ParameterError("power must be nonnegative")
    n = module.n
    zero, one = module.zero_coeff(), module.one_coeff()
    if power < n:
        return [one if k == power else zero for k in range(n)]
    # coefficients of t^n in the basis: [(-1)^{n+1} p_n, .., +p_1]
    top = [(-1 if (n - k) % 2 == 0 else 1) * module.ps[n - 1 - k]
           for k in range(n)]
    state = [one if k == n - 1 else zero for k in range(n)]  # t^{n-1}
    for _ in range(power - (n - 1)):
        lead = state[n - 1]
        shifted = [zero] + state[:-1]
        state = [shifted[k] + lead * top[k] for k in range(n)]
    return state


class FormalSymplecticBundle:
    """Either a split sum of rank-2 pieces with named roots, or an abstract
    bundle with declared Pontryagin coefficients."""

    def __init__(self, rank, ps, roots=None):
        if rank % 2:
            raise ParameterError("symplectic bundles have even rank")
        self.rank = rank
        self.roots = None if roots is None else list(roots)
        self.ps = list(ps)

    @classmethod
    def split(cls, roots):
        """Formal sum of rank-2 bundles with the given first Pontryagin roots."""
        roots = list(roots)
        ring = roots[0].ring if roots else None
        ps = elementary_in(roots, ring)
        return cls(2 * len(roots), ps, roots=roots)

    @classmethod
    def abstract(cls, rank, ps):
        return cls(rank, ps)

    def p(self, i):
        """p_i with the boundary conventions p_0 = 1, p_i = 0 out of range."""
        if i == 0:
            return 1 if not self.ps else _one_like(self.ps[0])
        if i < 0 or i > len(self.ps):
            return 0 if not self.ps else _zero_like(self.ps[0])
        return self.ps[i - 1]


def _one_like(x):
    ring = getattr(x, "ring", None)
    return ring.one() if ring is not None else 1


def _zero_like(x):
    ring = getattr(x, "ring", None)
    return ring.zero() if ring is not None else 0


def elementary_in(values, ring=None):
    """Elementary symmetric polynomials e_1..e_m of the given values."""
    m = len(values)
    one = ring.one() if ring is not None else 1
    zero = ring.zero() if ring is not None else 0
    # iterative Newton-free expansion of prod (1 + v_i T)
    coeffs = [one]
    for v in values:
        nxt = [one]
        for k in range(1, len(coeffs) + 1):
            prev = coeffs[k] if k < len(coeffs) else zero
            nxt.append(prev + v * coeffs[k - 1])
        coeffs = nxt
    return coeffs[1:]


def cartan_sum(e, f):
    """Pontryagin coefficients of the direct sum: p_k = sum p_i(E) p_j(F).

    Only the supplied coefficients are convolved, since p_i = 0 past them;
    the list is padded with zeros to half the total rank.
    """
    pe = [e.p(0)] + e.ps
    pf = [f.p(0)] + f.ps
    total_half = (e.rank + f.rank) // 2
    out = []
    for k in range(1, min(total_half, len(pe) + len(pf) - 2) + 1):
        acc = None
        for i in range(max(0, k - len(pf) + 1), min(k, len(pe) - 1) + 1):
            term = pe[i] * pf[k - i]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out + [e.p(-1) * f.p(-1)] * (total_half - len(out))


def p1_of_class(rank, name, trivial="H"):
    """First Pontryagin class of a rank-2r symplectic bundle as a formal class.

    Under the sign-corrected identification of the degree-(4,2) group the
    class of [F, psi] is [F] - r[trivial]; the bidegree tag rides along.
    """
    if rank % 2:
        raise ParameterError("symplectic bundles have even rank")
    r = rank // 2
    cls = FormalClass.of(name) - r * FormalClass.of(trivial)
    return TaggedClass(cls, bidegree=(4, 2))


class TaggedClass:
    """A formal class remembering the bidegree of the group it lands in."""

    __slots__ = ("value", "bidegree")

    def __init__(self, value, bidegree):
        self.value = value
        self.bidegree = bidegree

    def __eq__(self, other):
        if isinstance(other, TaggedClass):
            return self.value == other.value and self.bidegree == other.bidegree
        if isinstance(other, FormalClass):
            return self.value == other
        return NotImplemented

    def __repr__(self):
        return "%r @ %s" % (self.value, (self.bidegree,))


def tau_element(k, i, n):
    """The universal element (p_1 + i*h) * b8^k in present(n, 2n) over GWBase.

    The half-rank term evaluates to i on the component indexed by i; h is
    the hyperbolic class 1 + eps and b8 the invertible periodicity generator.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    if k < 0:
        raise ParameterError("negative periodicity powers are not produced here")
    ring = present(n, 2 * n, GWBASE)
    beta_k = GWElement.scalar(1, 0, beta_power=k)
    coords = {Partition((1,)): beta_k}
    if i:
        coords[EMPTY] = GWElement.from_int(i) * GW_H * beta_k
    from .grassring import GrassElement
    return GrassElement(ring, coords)
