"""The cancellation invariant of every sparse element type.

An element stores only nonzero coefficients: a difference of equal
elements stores no term, and a sum or product whose terms cancel keeps no
zero coefficient.  Each type is checked on seeded random elements and on a
product built to cancel.
"""

import random
from fractions import Fraction
from operator import mul

import pytest

from hgrcalc.classcalc import FormalClass
from hgrcalc.coeffs import GWBASE, GWElement, GW_EPS, GW_ONE, INTEGERS, RATIONALS
from hgrcalc.grassring import limit_ring, present
from hgrcalc.polynomial import PolyRing

XY = PolyRing(("x", "y"))
LIMIT = limit_ring(3, 4)


def gw(rng):
    return GWElement({k: (rng.randint(-2, 2), rng.randint(-2, 2))
                      for k in rng.sample(range(-1, 2), 2)})


def random_poly(rng, coeff):
    return sum((XY.monomial((rng.randrange(3), rng.randrange(3)), coeff(rng))
                for _ in range(4)), XY.zero())


def random_grass(ring, coeff):
    def make(rng):
        x = ring.zero()
        for lam in rng.sample(ring.basis, 3):
            x = x + ring.schur(lam).scale(coeff(rng))
        return x
    return make


def random_formal(rng):
    return FormalClass({tuple(rng.choice("AB") for _ in range(rng.randrange(1, 3))):
                        rng.randint(-2, 2) for _ in range(3)})


def random_limit(rng):
    p = [LIMIT.p(i) for i in (1, 2, 3)]
    x = LIMIT.ring.const(rng.randint(-2, 2))
    for _ in range(3):
        x = x + rng.randint(-2, 2) * rng.choice(p) * rng.choice(p)
    return LIMIT.truncate(x)


def ints(rng):
    return rng.randint(-3, 3)


def rationals(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


# name -> (random element, multiply)
TYPES = {
    "poly-integers": (lambda rng: random_poly(rng, ints), mul),
    "poly-gwbase": (lambda rng: random_poly(rng, gw), mul),
    "grass-integers": (random_grass(present(2, 4), ints), mul),
    "grass-rationals": (random_grass(present(2, 4, RATIONALS), rationals), mul),
    "grass-gwbase": (random_grass(present(2, 4, GWBASE), gw), mul),
    "formal": (random_formal, lambda x, y: x.tensor(y)),
    "gw": (gw, mul),
    "limit": (random_limit, lambda x, y: LIMIT.truncate(x * y)),
}


def stores_no_zero(x):
    if isinstance(x, GWElement):
        return all(a or b for a, b in x.terms.values())
    return all(x.terms.values())


@pytest.mark.parametrize("name", sorted(TYPES))
def test_seeded_sums_differences_and_products(name):
    make, mul = TYPES[name]
    rng = random.Random("cancellation:" + name)
    for _ in range(40):
        x, y = make(rng), make(rng)
        assert (x - x).terms == {}
        assert (x + y) - y == x
        assert x + (-x) == x - x
        for z in (x + y, x - y, mul(x, y), mul(x, y) - mul(y, x)):
            assert stores_no_zero(z), (x, y)


def _cancelling_products():
    x, y = XY.gen(0), XY.gen(1)
    yield "poly-integers", (x + y) * (x - y), x * x - y * y
    e = XY.const(GW_EPS)
    yield "poly-gwbase", (x + e) * (x - e), x * x - 1
    for coeff in (INTEGERS, RATIONALS, GWBASE):
        # s_1^2 leaves the 1 x 1 box, so only the cross terms remain, and cancel
        ring = present(1, 2, coeff)
        s1, one = ring.p(1), ring.one()
        yield "grass-" + coeff.name, (s1 + one) * (s1 - one), -one
    a, aa, ab, b = (FormalClass.of(*w) for w in ("A", "AA", "AB", "B"))
    yield ("formal", (a + aa).tensor(ab - b),
           FormalClass.of(*"AAAB") - FormalClass.of(*"AB"))
    yield "gw", (GW_ONE + GW_EPS) * (GW_ONE - GW_EPS), GWElement()
    p1, p2 = LIMIT.p(1), LIMIT.p(2)
    yield "limit", LIMIT.truncate((p1 + p2) * (p1 - p2)), p1 * p1 - p2 * p2


@pytest.mark.parametrize("name, got, want", list(_cancelling_products()),
                         ids=[case[0] for case in _cancelling_products()])
def test_product_that_cancels(name, got, want):
    assert got == want
    assert stores_no_zero(got)
    assert len(got.terms) == len(want.terms)
