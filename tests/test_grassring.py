import random
from math import comb

import pytest

import oracles
from deadline import alarm
from hgrcalc.coeffs import GWElement, GW_EPS, GW_H, GW_ONE, GWBASE, INTEGERS
from hgrcalc.grassring import ParameterError, limit_ring, present, restriction
from hgrcalc.symfun import Partition, EMPTY


def P(*parts):
    return Partition(parts)


_LR = {}


def _lr(lam, mu, nu):
    if (lam, mu, nu) not in _LR:
        _LR[lam, mu, nu] = oracles.lr_coefficient(lam, mu, nu)
    return _LR[lam, mu, nu]


def _random_coeff(rng, coeff):
    if coeff is INTEGERS:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return GWElement({rng.randint(-1, 1): (rng.randint(-3, 3), rng.choice((-1, 1)))})


class TestPresent:
    def test_projective_line_case(self):
        r = present(1, 2)
        assert [h.pretty() for h in r.ideal_gens] == ["e1^2"]
        assert r.basis == [EMPTY, P(1)]

    def test_projective_space_case(self):
        r = present(1, 3)
        assert [h.pretty() for h in r.ideal_gens] == ["e1^3"]
        assert r.basis == [EMPTY, P(1), P(2)]
        assert r.rank() == 3

    def test_two_four(self):
        r = present(2, 4)
        assert r.rank() == comb(4, 2) == 6
        assert len(r.basis) == 6
        # ideal (h_3, h_4) from the recurrence
        ring = r.poly_ring()
        e1, e2 = ring.gen(0), ring.gen(1)
        assert r.ideal_gens[0] == e1 ** 3 - 2 * e1 * e2
        assert r.ideal_gens[1] == e1 ** 4 - 3 * e1 ** 2 * e2 + e2 * e2

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            present(3, 2)
        with pytest.raises(ParameterError):
            present(-1, 2)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_rank_criterion(self, n):
        for r in range(n + 1):
            ring = present(r, n)
            assert len(ring.basis) == comb(n, r)

    def test_ideal_generators_reduce_to_zero(self):
        for (r, n) in [(1, 2), (1, 4), (2, 4), (2, 5), (3, 6)]:
            ring = present(r, n)
            for h in ring.ideal_gens:
                assert ring.normal_form(h).is_zero(), (r, n, h)


class TestNormalForm:
    def test_constant(self):
        r = present(2, 4)
        one = r.normal_form(r.poly_ring().one())
        assert one.coords == {EMPTY: 1}

    def test_top_relation_small(self):
        r = present(1, 2)
        p1sq = r.poly_ring().gen(0, 2)
        assert r.normal_form(p1sq).is_zero()

    def test_below_top_relation(self):
        r = present(1, 3)
        p1sq = r.poly_ring().gen(0, 2)
        assert r.normal_form(p1sq).coords == {P(2): 1}

    def test_idempotent_and_ring_hom(self):
        rng = random.Random(11)
        ring = present(2, 5)
        pring = ring.poly_ring()

        def random_poly():
            acc = pring.zero()
            for _ in range(rng.randrange(1, 5)):
                exps = (rng.randrange(0, 3), rng.randrange(0, 3))
                acc = acc + pring.monomial(exps, rng.randrange(-3, 4))
            return acc

        for _ in range(40):
            x, y = random_poly(), random_poly()
            nx, ny = ring.normal_form(x), ring.normal_form(y)
            # idempotence: reducing a reduced element changes nothing
            assert ring.normal_form(oracles.to_poly(nx)) == nx
            # homomorphism: NF(xy) == NF(NF(x) * NF(y))
            assert ring.normal_form(x * y) == nx * ny

    def test_multiplication_agrees_with_poly_route(self):
        ring = present(2, 4)
        a = ring.p(1)
        b = ring.p(2)
        prod = a * b
        direct = ring.normal_form(ring.poly_ring().gen(0) * ring.poly_ring().gen(1))
        assert prod == direct

    def test_weight_one_thousand(self):
        # one recursion frame per e-factor overflowed the stack here
        ring = present(1, 1200)
        assert ring.normal_form(ring.poly_ring().gen(0, 1000)).coords == {P(1000): 1}

    @pytest.mark.parametrize("coeff, g", [
        (INTEGERS, 2), (GWBASE, GWElement({0: (2, -1), 1: (0, 3)}))],
        ids=["Integers", "GWBase"])
    def test_products_match_lr_tableaux(self, coeff, g):
        for n in range(8):
            for r in range(n + 1):
                ring = present(r, n, coeff)
                box = oracles.brute_force_partitions_in_box(r, n - r)
                for lam in ring.basis:
                    for mu in ring.basis:
                        want = {}
                        for nu in box:
                            c = _lr(lam.parts, mu.parts, nu)
                            if c:
                                want[Partition(nu)] = g * coeff.coerce(c)
                        got = ring.schur(lam).scale(g) * ring.schur(mu)
                        assert got.coords == want, (r, n, lam, mu)

    @pytest.mark.parametrize("coeff", [INTEGERS, GWBASE], ids=["Integers", "GWBase"])
    def test_products_match_polynomial_round_trip(self, coeff):
        # the e-polynomial route, kept as the reference for the LR engine
        rng = random.Random(6)
        for n in range(10):
            for r in range(n + 1):
                ring = present(r, n, coeff)

                def element(terms):
                    x = ring.zero()
                    for lam in rng.sample(ring.basis, min(terms, len(ring.basis))):
                        x = x + ring.schur(lam).scale(_random_coeff(rng, coeff))
                    return x

                for terms in (1, 1, 1, 1, 3, 3, 5):
                    x, y = element(terms), element(terms)
                    want = ring.normal_form(oracles.to_poly(x)
                                            * oracles.to_poly(y))
                    assert x * y == want, (r, n, x, y)

    def test_large_boxes(self):
        # through e-polynomials these take seconds in (6, 14), minutes in (7, 16)
        with alarm(10):
            ring = present(6, 14)
            x, y = ring.schur(P(7, 7, 4, 4, 2)), ring.schur(P(7, 7, 5, 2, 2, 1))
            assert (x * y).is_zero()
            ring = present(7, 16)
            lam, mu = P(8, 7, 5, 4, 2, 1, 1), P(8, 8, 6, 4, 1, 1, 1)
            got = ring.schur(lam) * ring.schur(mu)
        want = {}
        for nu in ring.basis:
            if nu.weight() == lam.weight() + mu.weight():
                c = oracles.lr_coefficient(lam.parts, mu.parts, nu.parts)
                if c:
                    want[nu] = c
        assert len(want) == 6
        assert got.coords == want

    def test_large_component_product(self):
        # 94 x 103 terms: one pass for the whole product, where one pass
        # per pair of terms needs more than the alarm allows
        rng = random.Random(14)
        ring = present(6, 14)
        x, y = _component(rng, ring, 16), _component(rng, ring, 17)
        with alarm(5):
            got = x * y
        assert got == _sum_over_strips(x, y)

    def test_parts_that_are_not_ints_refused(self):
        # int() read the part 1.9 as 1, and schur((1.9,)) returned s(1)
        ring = present(2, 4)
        for parts in ((1.9,), (True,), ("3",), (2.0, 1)):
            with pytest.raises(ValueError, match="must be positive integers"):
                ring.schur(parts)

    def test_gw_coefficients(self):
        ring = present(1, 2, GWBASE)
        x = ring.one().scale(GW_H)
        assert x.coords[EMPTY] == GW_H
        assert (x + x).coords[EMPTY] == GW_H + GW_H
        assert (x * ring.p(1)).coords[P(1)] == GW_H


def _component(rng, ring, degree):
    """The full homogeneous component of this degree, seeded coefficients."""
    return sum((ring.schur(lam).scale(_random_coeff(rng, ring.coeff))
                for lam in ring.basis if lam.weight() == degree), ring.zero())


def _sum_over_strips(x, y):
    """sum_mu y_mu (x s_mu): x whole, one strip partition at a time."""
    ring = x.ring
    return sum(((x * ring.schur(mu)).scale(b) for mu, b in y.coords.items()),
               ring.zero())


def _sum_over_bases(x, y):
    """sum_lam x_lam (s_lam y): one base partition at a time, y whole."""
    ring = x.ring
    return sum(((ring.schur(lam) * y).scale(a) for lam, a in x.coords.items()),
               ring.zero())


def _sum_over_pairs(x, y):
    """sum x_lam y_mu (s_lam s_mu), one product per pair of terms."""
    ring = x.ring
    return sum(((ring.schur(lam) * ring.schur(mu)).scale(a * b)
                for lam, a in x.coords.items() for mu, b in y.coords.items()),
               ring.zero())


class TestCombinationProducts:
    """A product of combinations regrouped: the strip partitions one at a
    time (states merged over every base partition, no trie), or the base
    partitions one at a time (a trie over every strip partition)."""

    @pytest.mark.parametrize("coeff", [INTEGERS, GWBASE], ids=["Integers", "GWBase"])
    @pytest.mark.parametrize("r, n", [(4, 9), (5, 10), (4, 11)])
    def test_components_regroup(self, r, n, coeff):
        rng = random.Random(r * 100 + n)
        ring = present(r, n, coeff)
        for d in (3, 5, 7, 9, 11):
            x, y = _component(rng, ring, d), _component(rng, ring, d + 1)
            got = x * y
            assert got == _sum_over_strips(x, y), (r, n, d)
            assert got == _sum_over_bases(x, y), (r, n, d)
            assert got == y * x, (r, n, d)

    def test_cancelling_terms_leave_no_zero(self):
        # s_2 s_1 and s_11 s_1 both reach s_21, with opposite signs
        ring = present(3, 6)
        x = ring.schur(P(2)) - ring.schur(P(1, 1))
        got = x * ring.schur(P(1))
        assert got.coords == {P(3): 1, P(1, 1, 1): -1}
        # in the 2 x 2 box nothing else survives
        ring = present(2, 4)
        x = ring.schur(P(2)) - ring.schur(P(1, 1))
        assert (x * ring.schur(P(1))).coords == {}

    @pytest.mark.parametrize("coeff", [INTEGERS, GWBASE], ids=["Integers", "GWBase"])
    def test_mixed_weights(self, coeff):
        rng = random.Random(9)
        ring = present(4, 9, coeff)
        for _ in range(20):
            x, y = ring.zero(), ring.zero()
            for lam in rng.sample(ring.basis, 6):
                x = x + ring.schur(lam).scale(_random_coeff(rng, coeff))
            for mu in rng.sample(ring.basis, 5):
                y = y + ring.schur(mu).scale(_random_coeff(rng, coeff))
            want = _sum_over_pairs(x, y)
            assert x * y == want
            assert y * x == want

    @pytest.mark.parametrize("coeff", [INTEGERS, GWBASE], ids=["Integers", "GWBase"])
    def test_zero_and_one(self, coeff):
        rng = random.Random(3)
        ring = present(3, 7, coeff)
        x = _component(rng, ring, 4) + _component(rng, ring, 6)
        zero, one = ring.zero(), ring.one()
        assert (x * zero).coords == {} and (zero * x).coords == {}
        assert x * one == x and one * x == x
        assert (zero * zero).coords == {} and one * one == one


def _by_tableaux(x, y):
    """The coordinates of x * y by the tableau count, zeros dropped."""
    ring = x.ring
    want = {}
    for nu in ring.basis:
        c = ring.coeff.zero()
        for lam, a in x.coords.items():
            for mu, b in y.coords.items():
                n = _lr(lam.parts, mu.parts, nu.parts)
                if n:
                    c = c + a * b * n
        if c:
            want[nu] = c
    return want


class TestBothPaths:
    """Products near the top of the box, which run through the complements,
    and strips that end in one-cell rows, against the tableau count."""

    @pytest.mark.parametrize("coeff", [INTEGERS, GWBASE], ids=["Integers", "GWBase"])
    @pytest.mark.parametrize("r, n", [(2, 6), (3, 7), (3, 8), (4, 8)])
    def test_both_sides_of_the_complement_boundary(self, r, n, coeff):
        # components of weights a and b, the lighter of weight m, leave
        # f = r(n - r) - a - b cells free: f = m - 1 takes the complements,
        # f = m does not
        rng = random.Random(r * 100 + n)
        ring = present(r, n, coeff)
        room = r * (n - r)
        for m in range(2, room // 3 + 1):
            for f in (m - 1, m):
                b = room - f - m
                if b < m:
                    continue
                x, y = _component(rng, ring, m), _component(rng, ring, b)
                want = _by_tableaux(x, y)
                assert want, (r, n, m, f)
                assert (x * y).coords == want, (r, n, m, f)
                assert (y * x).coords == want, (r, n, m, f)

    @pytest.mark.parametrize("coeff", [INTEGERS, GWBASE], ids=["Integers", "GWBase"])
    def test_hooks_sharing_one_path(self, coeff):
        # (3,1), (3,1,1) and (3,1,1,1) share the path 3, 1, 1, 1 and two end
        # in its middle; columns share the path from the root
        rng = random.Random(11)
        ring = present(5, 9, coeff)
        x = _component(rng, ring, 5)
        for parts in (((3, 1), (3, 1, 1), (3, 1, 1, 1)),
                      ((1,), (1, 1, 1), (1, 1, 1, 1)), ((2, 2, 1), (2, 1, 1))):
            y = ring.zero()
            for mu in parts:
                y = y + ring.schur(Partition(mu)).scale(_random_coeff(rng, coeff))
            want = _by_tableaux(x, y)
            assert (x * y).coords == want, parts
            assert (y * x).coords == want, parts


class TestRestriction:
    def test_alpha_small(self):
        src, tgt = present(1, 3), present(1, 2)
        rho = restriction(src, tgt, "alpha")
        assert rho(src.schur(EMPTY)) == tgt.schur(EMPTY)
        assert rho(src.schur(P(1))) == tgt.schur(P(1))
        assert rho(src.schur(P(2))).is_zero()

    def test_identity_map(self):
        ring = present(2, 4)
        rho = restriction(ring, ring, "alpha")
        for lam in ring.basis:
            assert rho(ring.schur(lam)) == ring.schur(lam)

    def test_two_five_to_two_four(self):
        src, tgt = present(2, 5), present(2, 4)
        rho = restriction(src, tgt, "alpha")
        kernel = rho.kernel_basis()
        assert len(src.basis) == 10 and len(tgt.basis) == 6
        assert sorted(k.parts for k in kernel) == \
            [(3,), (3, 1), (3, 2), (3, 3)]

    def test_non_embeddable_pairs(self):
        with pytest.raises(ParameterError):
            restriction(present(1, 3), present(1, 1), "alpha")
        with pytest.raises(ParameterError):
            restriction(present(2, 4), present(2, 3), "beta")

    @pytest.mark.parametrize("kind,delta", [("alpha", (0, 1)), ("beta", (1, 1))])
    def test_ring_map_against_polynomials(self, kind, delta):
        # restriction of NF(f) equals NF of f pushed into the target ring
        dr, dn = delta
        rng = random.Random(5)
        for (r, n) in [(1, 3), (2, 4), (2, 5), (3, 5)]:
            sr, sn = r + dr, n + dn
            src, tgt = present(sr, sn), present(r, n)
            rho = restriction(src, tgt, kind)
            spring, tpring = src.poly_ring(), tgt.poly_ring()
            for _ in range(12):
                exps = tuple(rng.randrange(0, 3) for _ in range(sr))
                f = spring.monomial(exps, rng.randrange(-2, 3) or 1)
                image = rho(src.normal_form(f))
                # push f down: e_{r+1} -> 0 under beta, unchanged under alpha
                if any(exps[i] for i in range(r, sr)):
                    pushed = tgt.zero()
                else:
                    pushed = tgt.normal_form(tpring.monomial(exps[:r],
                                                             f.terms[exps]))
                assert image == pushed, (kind, r, n, exps)

    def test_composition(self):
        a = present(1, 5)
        b = present(1, 4)
        c = present(1, 3)
        ab = restriction(a, b, "alpha")
        bc = restriction(b, c, "alpha")
        ac_direct = [bc(ab(a.schur(lam))) for lam in a.basis]
        for lam, image in zip(a.basis, ac_direct):
            expect = c.schur(lam) if lam.fits_in_box(1, 2) else c.zero()
            assert image == expect

    def test_surjectivity(self):
        src, tgt = present(2, 6), present(2, 5)
        rho = restriction(src, tgt, "alpha")
        hit = {lam for lam in src.basis if rho(src.schur(lam))}
        assert {next(iter(rho(src.schur(l)).coords)) for l in hit} == set(tgt.basis)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_box_truncation_criterion(self, n):
        # acceptance shape: kills exactly the coordinates outside the box
        for r in range(1, n):
            src = present(r, n + 1)
            tgt = present(r, n)
            rho = restriction(src, tgt, "alpha")
            for lam in src.basis:
                img = rho(src.schur(lam))
                if lam.fits_in_box(tgt.r, tgt.n - tgt.r):
                    assert img == tgt.schur(lam)
                else:
                    assert img.is_zero()


class TestLimitRing:
    def test_truncation_in_products(self):
        ps = limit_ring(1, 3)
        p1 = ps.p(1)
        assert ps.truncate(p1 * p1 * p1 * p1).terms == {}
        assert ps.truncate(p1 * p1 * p1).terms != {}

    def test_cone_property(self):
        # projecting to present(r, n) then restricting equals projecting directly
        W = 3
        ps = limit_ring(1, W)
        x = ps.p(1) * ps.p(1) + 2 * ps.p(1)
        for n in (3, 4, 5):
            big, small = present(1, n + 1), present(1, n)
            rho = restriction(big, small, "alpha")
            assert rho(ps.project(big)(x)) == ps.project(small)(x)

    def test_tower_eventually_constant(self):
        # each weight of present(1, n) stabilizes as n grows
        W = 4
        ps = limit_ring(1, W)
        x = ps.p(1) * ps.p(1)
        for n in range(W + 2, W + 5):
            ring = present(1, n)
            proj = ps.project(ring)(x)
            assert proj.coords == {P(2): 1}


def test_eps_squares_to_one():
    assert GW_EPS * GW_EPS == GW_ONE


def test_beta8_invertible():
    from hgrcalc.coeffs import GW_BETA8
    beta_inv = GWElement.scalar(1, 0, beta_power=-1)
    assert GW_BETA8 * beta_inv == GW_ONE
    assert beta_inv * GW_BETA8 * GW_BETA8 == GW_BETA8
