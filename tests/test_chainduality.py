from fractions import Fraction

import pytest

from hgrcalc.chainduality import (ChainError, FreeComplex, SymmetricComplex,
                                  contracting_homotopy, koszul,
                                  koszul_tensor_isometry, swap_sign,
                                  tensor_pair, transport_sign)
from hgrcalc.polynomial import PolyRing, mat_transpose


def dual(cx):
    """The dual complex: degreewise transpose with the sign (-1)^k."""
    ranks = {-k: r for k, r in cx.ranks.items()}
    diffs = {k: [[-x if k % 2 else x for x in row]
                 for row in mat_transpose(cx.diff(1 - k))]
             for k in ranks if cx.rank(1 - k)}
    return FreeComplex(cx.ring, ranks, diffs)


def shift(cx, n):
    """X[n]: (X[n])_k = X_{k-n}, differentials scaled by (-1)^n."""
    ranks = {k + n: r for k, r in cx.ranks.items()}
    diffs = {k + n: [[-x if n % 2 else x for x in row] for row in m]
             for k, m in cx.diffs.items()}
    return FreeComplex(cx.ring, ranks, diffs)


def two_term_x():
    ring = PolyRing(("x",))
    return FreeComplex(ring, {0: 1, 1: 1}, {1: [[ring.gen(0)]]})


def unit_complex():
    """The rank-one symmetric complex <1> in degree zero (no variables)."""
    ring = PolyRing(())
    cx = FreeComplex(ring, {0: 1}, {})
    return SymmetricComplex(cx, 0, {0: [[ring.one()]]})


def gap_complex():
    """Ranks {0: 1, 2: 1}, no differential, the degree-2 form (1, 1)."""
    ring = PolyRing(("y",))
    cx = FreeComplex(ring, {0: 1, 2: 1}, {})
    return SymmetricComplex(cx, 2, {0: [[ring.one()]], 2: [[ring.one()]]})


class TestFreeComplex:
    def test_d_squared_rejected(self):
        ring = PolyRing(("x",))
        x = ring.gen(0)
        with pytest.raises(ChainError):
            FreeComplex(ring, {0: 1, 1: 1, 2: 1}, {1: [[x]], 2: [[x]]})

    def test_zero_complex(self):
        ring = PolyRing(("x",))
        cx = FreeComplex(ring, {}, {})
        assert dual(cx) == cx

    def test_single_module_self_dual(self):
        ring = PolyRing(())
        cx = FreeComplex(ring, {0: 2}, {})
        assert dual(cx).ranks == {0: 2}

    def test_two_term_dual(self):
        cx = two_term_x()
        dx = dual(cx)
        assert dx.ranks == {0: 1, -1: 1}
        # (d^v)_0 = (-1)^0 (d_1)^T = x
        assert dx.diff(0)[0][0] == cx.ring.gen(0)
        dx.validate()

    def test_double_dual_negates_differentials(self):
        # with the dual sign (-1)^k the double dual is X with d -> -d,
        # identified with X via (-1)^k, not the identity
        cx = two_term_x()
        dd = dual(dual(cx))
        assert dd.ranks == cx.ranks
        assert dd.diff(1)[0][0] == -cx.ring.gen(0)

    def test_shift(self):
        cx = two_term_x()
        sh = shift(cx, 1)
        assert sh.ranks == {1: 1, 2: 1}
        assert sh.diff(2)[0][0] == -cx.ring.gen(0)
        assert shift(cx, 2).diff(3)[0][0] == cx.ring.gen(0)


class TestKoszul:
    def test_rank_one_display(self):
        # the pinned normalization: ranks (1,1), differential (x),
        # form components (-1, 1)
        k = koszul(1)
        assert k.complex.ranks == {0: 1, 1: 1}
        assert k.complex.diff(1)[0][0] == k.complex.ring.gen(0)
        assert k.form(1)[0][0] == k.complex.ring.const(-1)
        assert k.form(0)[0][0] == k.complex.ring.one()

    def test_rank_one_shifted_dual_differential(self):
        # the target K^v[1] carries the differential -x
        k = koszul(1)
        target = shift(dual(k.complex), 1)
        assert target.ranks == {0: 1, 1: 1}
        assert target.diff(1)[0][0] == -k.complex.ring.gen(0)

    def test_binomial_ranks(self):
        k = koszul(3)
        assert [k.complex.rank(i) for i in range(4)] == [1, 3, 3, 1]

    def test_h0_cokernel_row(self):
        # H_0 presents the quotient by (x_1..x_n): d_1 = (x_1 .. x_n)
        for n in (1, 2, 3):
            k = koszul(n)
            d1 = k.complex.diff(1)
            assert len(d1) == 1
            assert [e.pretty() for e in d1[0]] == \
                ["x%d" % i for i in range(1, n + 1)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_theta_symmetric(self, n):
        k = koszul(n)  # the constructor verifies chain + symmetry
        assert k.is_symmetric()
        assert k.chain_defect() is None
        assert k.is_nondegenerate()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_d_squared_zero(self, n):
        koszul(n).complex.validate()

    def test_asymmetric_form_rejected(self):
        k = koszul(1)
        bad = {0: k.form(0), 1: [[k.complex.ring.one()]]}  # +1 instead of -1
        with pytest.raises(ChainError):
            SymmetricComplex(k.complex, 1, bad)


class TestContractingHomotopy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_variables(self, n):
        k = koszul(n)
        for i in range(1, n + 1):
            contracting_homotopy(k, i)  # raises when ds + sd != id

    def test_explicit_rank_one(self):
        k = koszul(1)
        h = contracting_homotopy(k, 1)
        entry = h[0][0][0]
        assert entry.terms == {(-1,): Fraction(1)}

    def test_bad_variable_index(self):
        with pytest.raises(ChainError):
            contracting_homotopy(koszul(2), 3)


class TestTensor:
    def test_unit_is_identity(self):
        k = koszul(2)
        t = tensor_pair(k, unit_complex())
        assert t.degree == 2
        assert t.complex.ranks == k.complex.ranks
        for deg in k.complex.ranks:
            assert t.form(deg) == k.form(deg)

    def test_koszul_merge_one_one(self):
        t, merged, merge = koszul_tensor_isometry(1, 1)
        assert t.degree == 2
        assert merged.complex.ranks == {0: 1, 1: 2, 2: 1}
        # merged is koszul(2) in its own ring; merge is the label map
        assert merged.complex.ring.gens == ("x1", "x2")
        assert merge((1, 0, 1, 0)) == (frozenset({1, 2}), 1)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3),
                                     (3, 1)])
    def test_koszul_merge_general(self, a, b):
        # koszul_tensor_isometry raises unless the canonical merge is a
        # verified isometry of symmetric complexes
        koszul_tensor_isometry(a, b)

    def test_tensor_form_is_symmetric_structure(self):
        t = tensor_pair(koszul(1), koszul(2))
        assert t.is_symmetric()
        assert t.chain_defect() is None

    def test_gap_in_degree_against_rank_one_koszul(self):
        t = tensor_pair(gap_complex(), koszul(1))
        cx = t.complex
        assert cx.ring.gens == ("y", "x1")
        assert t.degree == 3
        assert cx.ranks == {0: 1, 1: 1, 2: 1, 3: 1}
        assert cx.labels == {0: [(0, 0, 0, 0)], 1: [(0, 0, 1, 0)],
                             2: [(2, 0, 0, 0)], 3: [(2, 0, 1, 0)]}
        x = cx.ring.gen(1)
        # d(m@n) = dm@n + (-1)^|m| m@dn; the gap leaves d_2 = 0
        assert cx.diff(1) == [[x]] and cx.diff(3) == [[x]]
        assert cx.diff(2)[0][0].is_zero()
        cx.validate()
        assert t.is_symmetric()
        assert t.chain_defect() is None
        # nu(p, q) = (-1)^{q(r-p)} is +1 on every block (r - p is even), so
        # the form is (1) @ Theta(1) = (1, -1, 1, -1) by degree
        assert [t.form(k)[0][0] for k in range(4)] == [1, -1, 1, -1]

    def test_gap_survives_the_unit(self):
        t = tensor_pair(gap_complex(), unit_complex())
        assert t.complex.ranks == {0: 1, 2: 1}
        assert t.complex.labels == {0: [(0, 0, 0, 0)], 1: [],
                                    2: [(2, 0, 0, 0)]}
        assert t.is_symmetric() and t.is_nondegenerate()

    def test_associativity_on_rank_one_koszuls(self):
        k = koszul(1)
        kk = tensor_pair(k, k)
        left = tensor_pair(kk, k)
        right = tensor_pair(k, kk)
        assert left.complex.ring.gens == right.complex.ring.gens
        inner = kk.complex.labels

        def reassociate(label):
            # (m_p @ m_q) @ m_r -> m_p @ (m_q @ m_r), no signs
            pq, ij, r, c = label
            p, i, q, j = inner[pq][ij]
            return (p, i, q + r, inner[q + r].index((q, j, r, c))), 1

        assert transport_sign(left, right, reassociate,
                              {i: i for i in range(3)}) == 1


@pytest.mark.parametrize("r, s", [(r, s) for r in range(4) for s in range(4)])
def test_swap_sign(r, s):
    # degree 0 is the unit complex <1>, degree n > 0 the Koszul form
    def thom(n):
        return koszul(n) if n else unit_complex()

    assert swap_sign(thom(r), thom(s)) == (-1) ** (r * s)


def _swap(signed):
    """The factor swap of K(1) @ K(1), with or without its sign (-1)^{pq},
    and the generator map that exchanges the two variables."""
    def image(label):
        p, i, q, j = label
        return (q, j, p, i), (-1) ** (p * q) if signed else 1

    return image, {0: 1, 1: 0}


def test_transport_sign_names_the_degree_the_form_fails_at():
    # against the doubled form the pullback is neither plus nor minus the
    # form, from the first degree on
    t = tensor_pair(koszul(1), koszul(1))
    doubled = SymmetricComplex(t.complex, t.degree,
                               {k: [[x + x for x in row] for row in m]
                                for k, m in t.phi.items()})
    with pytest.raises(ChainError, match="form at degree 0$"):
        transport_sign(t, doubled, *_swap(signed=True))


def test_transport_sign_names_the_degree_it_is_no_chain_map_at():
    # without (-1)^{pq} the swap misses the Koszul sign of d(m_1 @ n_1)
    t = tensor_pair(koszul(1), koszul(1))
    with pytest.raises(ChainError, match="not a chain map at degree 2$"):
        transport_sign(t, t, *_swap(signed=False))
    assert transport_sign(t, t, *_swap(signed=True)) == -1
