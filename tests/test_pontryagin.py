from itertools import combinations

import pytest

from deadline import alarm
from hgrcalc.classcalc import FormalClass
from hgrcalc.coeffs import GWElement, GW_H, GWBASE
from hgrcalc.grassring import ParameterError, present, restriction
from hgrcalc.pontryagin import (FormalSymplecticBundle, QPBModule, cartan_sum,
                                char_reduce, p1_of_class, pontryagin_ring,
                                tau_element)
from hgrcalc.symfun import EMPTY, Partition

import oracles


class TestCharReduce:
    def test_rank_one(self):
        m = QPBModule(1)
        assert char_reduce(1, m) == [m.ps[0]]

    def test_rank_two_square(self):
        m = QPBModule(2)
        p1, p2 = m.ps
        got = char_reduce(2, m)
        assert got == [-p2, p1]  # t^2 = p1 t - p2

    def test_low_powers_are_basis_vectors(self):
        m = QPBModule(3)
        assert char_reduce(0, m) == [m.ring.one(), m.ring.zero(), m.ring.zero()]
        assert char_reduce(2, m) == [m.ring.zero(), m.ring.zero(), m.ring.one()]

    def test_rank_three_fourth_power(self):
        m = QPBModule(3)
        p1, p2, p3 = m.ps
        got = char_reduce(4, m)
        # t^3 = p1 t^2 - p2 t + p3, so
        # t^4 = p1 t^3 - p2 t^2 + p3 t = (p1^2 - p2) t^2 + (p3 - p1 p2) t + p1 p3
        assert got[2] == p1 * p1 - p2
        assert got[1] == p3 - p1 * p2
        assert got[0] == p1 * p3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_generic_division_oracle(self, n):
        m = QPBModule(n)
        ring = m.ring
        char = m.char_coeffs()
        for power in range(0, 9):
            got = char_reduce(power, m)
            num = [ring.zero()] * power + [ring.one()]
            _, rem = oracles.poly_div_univariate(num, char)
            rem = rem + [ring.zero()] * (n - len(rem))
            assert got == rem, (n, power)

    def test_negative_power_rejected(self):
        with pytest.raises(ParameterError):
            char_reduce(-1, QPBModule(2))

    def test_grassring_base(self):
        # the module also runs over a Grassmannian presentation: take the
        # quaternionic projective bundle of a rank-4 bundle with p-classes
        # p1, p2 living in present(2, 4)
        ring = present(2, 4)
        mod = QPBModule(2, ps=[ring.p(1), ring.p(2)])
        got = char_reduce(2, mod)  # t^2 = p1 t - p2
        assert got == [-ring.p(2), ring.p(1)]
        got3 = char_reduce(3, mod)
        # t^3 = p1 t^2 - p2 t = (p1^2 - p2) t - p1 p2
        assert got3[1] == ring.p(1) * ring.p(1) - ring.p(2)
        assert got3[0] == -(ring.p(1) * ring.p(2))


class TestCartanSum:
    def test_rank_two_pair(self):
        ring = pontryagin_ring(2)
        a, b = ring.gen(0), ring.gen(1)
        e = FormalSymplecticBundle.split([a])
        f = FormalSymplecticBundle.split([b])
        ps = cartan_sum(e, f)
        assert ps == [a + b, a * b]

    def test_rank_zero_identity(self):
        ring = pontryagin_ring(3)
        e = FormalSymplecticBundle.split([ring.gen(0), ring.gen(1)])
        empty = FormalSymplecticBundle.split([])
        assert cartan_sum(e, empty) == e.ps

    def test_large_rank_convolves_only_the_supplied_coefficients(self):
        # p_i = 0 past the list, so the work is len(p) products, whatever
        # the rank; the zeros up to half the total rank stay in the list
        e = FormalSymplecticBundle.abstract(200000, [1, 2])
        f = FormalSymplecticBundle.abstract(2, [3])
        with alarm(2):
            got = cartan_sum(e, f)
        assert got[:3] == [4, 5, 6]
        assert len(got) == 100001 and not any(got[3:])

    def test_commutative(self):
        ring = pontryagin_ring(4)
        e = FormalSymplecticBundle.split([ring.gen(0), ring.gen(1)])
        f = FormalSymplecticBundle.split([ring.gen(2), ring.gen(3)])
        assert cartan_sum(e, f) == cartan_sum(f, e)

    @pytest.mark.parametrize("split_sizes", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_splitting_oracle(self, split_sizes):
        # Cartan sum of split bundles = elementary symmetric polynomials of
        # the union of the root multisets
        na, nb = split_sizes
        ring = pontryagin_ring(na + nb)
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
        ring = pontryagin_ring(2)
        e = FormalSymplecticBundle.split([ring.gen(0), ring.gen(1)])
        assert e.p(0) == ring.one()
        assert e.p(3) == ring.zero()
        assert e.p(-1) == ring.zero()


class TestP1OfClass:
    def test_trivial_bundle_vanishes(self):
        got = p1_of_class(2, "H")
        assert got.value == FormalClass.zero()

    def test_tautological(self):
        n = 3
        got = p1_of_class(2 * n, "U")
        assert got.value == FormalClass.of("U") - n * FormalClass.of("H")
        assert got.bidegree == (4, 2)

    def test_odd_rank_rejected(self):
        with pytest.raises(ParameterError):
            p1_of_class(3, "X")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tau_consistency(self, n):
        # p_1(U_{n,2n}) + i*h = [U] + (i-n)[H] as formal classes
        for i in range(-n, n + 1):
            lhs = p1_of_class(2 * n, "U").value + i * FormalClass.of("H")
            rhs = FormalClass.of("U") + (i - n) * FormalClass.of("H")
            assert lhs == rhs, (n, i)


class TestTauElement:
    def test_base_component(self):
        tau = tau_element(0, 0, 2)
        ring = present(2, 4, GWBASE)
        assert tau == ring.p(1)

    def test_component_two(self):
        tau = tau_element(0, 2, 1)
        assert tau.coordinate(EMPTY) == GWElement.from_int(2) * GW_H
        assert tau.coordinate(Partition((1,))) == GWElement.from_int(1)

    def test_periodicity_twist(self):
        tau = tau_element(1, 0, 1)
        beta = GWElement.scalar(1, 0, beta_power=1)
        assert tau.coordinate(Partition((1,))) == beta
        assert not tau.coordinate(EMPTY)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("i", [-1, 0, 3])
    def test_tower_compatibility(self, k, i):
        # restricting along beta then alpha sends tau(n) to tau(n-1)
        for n in (2, 3):
            big = tau_element(k, i, n)
            small = tau_element(k, i, n - 1)
            mid = present(n - 1, 2 * n - 1, GWBASE)
            rho1 = restriction(big.ring, mid, "beta")
            rho2 = restriction(mid, small.ring, "alpha")
            assert rho2(rho1(big)) == small, (k, i, n)
