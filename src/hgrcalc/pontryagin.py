"""Pontryagin-class calculus for symplectic bundles.

The Cartan sum formula convolves Pontryagin coefficient lists, and the
universal element arithmetic produces (p_1 + i*h) * b8^k in the rank-n
presentations over the GW coefficient ring.
"""

from .coeffs import GWBASE, GWElement, GW_H
from .grassring import GrassElement, ParameterError
from .symfun import EMPTY, Partition


class FormalSymplecticBundle:
    """A symplectic bundle of even rank with the Pontryagin coefficients
    p_1, p_2, .., at most rank/2 of them; `split` builds them from the
    roots of a sum of rank-2 pieces."""

    def __init__(self, rank, ps):
        if rank < 0 or rank % 2:
            raise ParameterError("symplectic bundles have even nonnegative "
                                 "rank")
        self.rank = rank
        self.ps = list(ps)
        if len(self.ps) > rank // 2:
            raise ParameterError("a bundle of rank %d has no p_%d"
                                 % (rank, rank // 2 + 1))

    @classmethod
    def split(cls, roots):
        """Formal sum of rank-2 bundles with the given first Pontryagin roots."""
        roots = list(roots)
        ring = getattr(roots[0], "ring", None) if roots else None
        ps = elementary_in(roots, ring)
        return cls(2 * len(roots), ps)

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


def tau_element(k, i, ring):
    """The universal element (p_1 + i*h) * b8^k of ring = present(n, 2n)
    over GWBase.

    The half-rank term evaluates to i on the component indexed by i; h is
    the hyperbolic class 1 + eps and b8 the invertible periodicity generator.
    """
    if ring.r < 1 or ring.coeff != GWBASE:
        raise ParameterError("need a presentation of rank >= 1 over GWBase")
    if k < 0:
        raise ParameterError("negative periodicity powers are not produced here")
    beta_k = GWElement.scalar(1, 0, beta_power=k)
    coords = {Partition((1,)): beta_k}
    if i:
        coords[EMPTY] = GWElement.from_int(i) * GW_H * beta_k
    return GrassElement(ring, coords)
