from itertools import combinations

import pytest

from deadline import alarm
from hgrcalc.coeffs import GWElement, GW_H, GWBASE
from hgrcalc.grassring import present, restriction
from hgrcalc.polynomial import PolyRing
from hgrcalc.pontryagin import FormalSymplecticBundle, cartan_sum, tau_element
from hgrcalc.symfun import EMPTY, Partition


def root_ring(n):
    """Z[a_1..a_n], the ring of generic first Pontryagin roots."""
    return PolyRing(tuple("a%d" % i for i in range(1, n + 1)))


class TestCartanSum:
    def test_rank_two_pair(self):
        ring = root_ring(2)
        a, b = ring.gen(0), ring.gen(1)
        e = FormalSymplecticBundle.split([a])
        f = FormalSymplecticBundle.split([b])
        ps = cartan_sum(e, f)
        assert ps == [a + b, a * b]

    def test_rank_zero_identity(self):
        ring = root_ring(3)
        e = FormalSymplecticBundle.split([ring.gen(0), ring.gen(1)])
        empty = FormalSymplecticBundle.split([])
        assert cartan_sum(e, empty) == e.ps

    def test_large_rank_convolves_only_the_supplied_coefficients(self):
        # p_i = 0 past the list, so the work is len(p) products, whatever
        # the rank; the zeros up to half the total rank stay in the list
        e = FormalSymplecticBundle(200000, [1, 2])
        f = FormalSymplecticBundle(2, [3])
        with alarm(2):
            got = cartan_sum(e, f)
        assert got[:3] == [4, 5, 6]
        assert len(got) == 100001 and not any(got[3:])

    def test_commutative(self):
        ring = root_ring(4)
        e = FormalSymplecticBundle.split([ring.gen(0), ring.gen(1)])
        f = FormalSymplecticBundle.split([ring.gen(2), ring.gen(3)])
        assert cartan_sum(e, f) == cartan_sum(f, e)

    @pytest.mark.parametrize("split_sizes", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_splitting_oracle(self, split_sizes):
        # Cartan sum of split bundles = elementary symmetric polynomials of
        # the union of the root multisets
        na, nb = split_sizes
        ring = root_ring(na + nb)
        roots = [ring.gen(i) for i in range(na + nb)]
        e = FormalSymplecticBundle.split(roots[:na])
        f = FormalSymplecticBundle.split(roots[na:])
        got = cartan_sum(e, f)
        m = na + nb
        for k in range(1, m + 1):
            acc = ring.zero()
            for subset in combinations(range(m), k):
                term = ring.one()
                for idx in subset:
                    term = term * roots[idx]
                acc = acc + term
            assert got[k - 1] == acc, k

    def test_boundary_conventions(self):
        ring = root_ring(2)
        e = FormalSymplecticBundle.split([ring.gen(0), ring.gen(1)])
        assert e.p(0) == ring.one()
        assert e.p(3) == ring.zero()
        assert e.p(-1) == ring.zero()


class TestTauElement:
    def test_base_component(self):
        ring = present(2, 4, GWBASE)
        tau = tau_element(0, 0, ring)
        assert tau == ring.p(1)

    def test_component_two(self):
        tau = tau_element(0, 2, present(1, 2, GWBASE))
        assert tau.coords[EMPTY] == GWElement.from_int(2) * GW_H
        assert tau.coords[Partition((1,))] == GWElement.from_int(1)

    def test_periodicity_twist(self):
        tau = tau_element(1, 0, present(1, 2, GWBASE))
        beta = GWElement.scalar(1, 0, beta_power=1)
        assert tau.coords[Partition((1,))] == beta
        assert EMPTY not in tau.coords

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("i", [-1, 0, 3])
    def test_tower_compatibility(self, k, i):
        # restricting along beta then alpha sends tau(n) to tau(n-1)
        for n in (2, 3):
            big = tau_element(k, i, present(n, 2 * n, GWBASE))
            small = tau_element(k, i, present(n - 1, 2 * n - 2, GWBASE))
            mid = present(n - 1, 2 * n - 1, GWBASE)
            rho1 = restriction(big.ring, mid, "beta")
            rho2 = restriction(mid, small.ring, "alpha")
            assert rho2(rho1(big)) == small, (k, i, n)
