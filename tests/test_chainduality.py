from fractions import Fraction

import pytest

from hgrcalc.chainduality import (ChainError, FreeComplex, SymmetricComplex,
                                  contracting_homotopy, koszul,
                                  koszul_tensor_isometry, swap_sign,
                                  tensor_pair, transport_sign)
from hgrcalc.forms import FiniteField
from hgrcalc.polynomial import Poly, PolyRing, bareiss_det, mat_transpose

import oracles


def dual(cx):
    """The dual complex: degreewise transpose with the sign (-1)^k."""
    ranks = {-k: r for k, r in cx.ranks.items()}
    diffs = {k: [[-x if k % 2 else x for x in row]
                 for row in mat_transpose(cx.diffs[1 - k])]
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
        assert dx.diff(0).rows[0][0] == cx.ring.gen(0)
        dx.validate()

    def test_double_dual_negates_differentials(self):
        # with the dual sign (-1)^k the double dual is X with d -> -d,
        # identified with X via (-1)^k, not the identity
        cx = two_term_x()
        dd = dual(dual(cx))
        assert dd.ranks == cx.ranks
        assert dd.diff(1).rows[0][0] == -cx.ring.gen(0)

    def test_shift(self):
        cx = two_term_x()
        sh = shift(cx, 1)
        assert sh.ranks == {1: 1, 2: 1}
        assert sh.diff(2).rows[0][0] == -cx.ring.gen(0)
        assert shift(cx, 2).diff(3).rows[0][0] == cx.ring.gen(0)


class TestKoszul:
    def test_rank_one_display(self):
        # the pinned normalization: ranks (1,1), differential (x),
        # form components (-1, 1)
        k = koszul(1)
        assert k.complex.ranks == {0: 1, 1: 1}
        assert k.complex.diff(1).rows[0][0] == k.complex.ring.gen(0)
        assert k.form(1).rows[0][0] == k.complex.ring.const(-1)
        assert k.form(0).rows[0][0] == k.complex.ring.one()

    def test_rank_one_shifted_dual_differential(self):
        # the target K^v[1] carries the differential -x
        k = koszul(1)
        target = shift(dual(k.complex), 1)
        assert target.ranks == {0: 1, 1: 1}
        assert target.diff(1).rows[0][0] == -k.complex.ring.gen(0)

    def test_binomial_ranks(self):
        k = koszul(3)
        assert [k.complex.rank(i) for i in range(4)] == [1, 3, 3, 1]

    def test_h0_cokernel_row(self):
        # H_0 presents the quotient by (x_1..x_n): d_1 = (x_1 .. x_n)
        for n in (1, 2, 3):
            k = koszul(n)
            d1 = k.complex.diffs[1]
            assert len(d1) == 1
            assert [e.pretty() for e in d1[0]] == \
                ["x%d" % i for i in range(1, n + 1)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_theta_symmetric(self, n):
        k = koszul(n)  # the constructor verifies chain + symmetry
        assert k.is_symmetric()
        assert k.chain_defect() is None
        assert k.is_nondegenerate()

    def test_nondegenerate_means_invertible(self):
        # [[x]] and [[1+x]] have nonzero determinants but are no units of
        # Q[x], so phi is no isomorphism; [[2]] is
        ring = PolyRing(("x",))
        cx = FreeComplex(ring, {0: 1}, {})
        x, one = ring.gen(0), ring.one()
        for entry, want in ((x, False), (one + x, False), (2 * one, True)):
            assert SymmetricComplex(cx, 0, {0: [[entry]]}).is_nondegenerate() \
                is want, entry

    @pytest.mark.parametrize("q", [7, 9])
    def test_nondegenerate_over_finite_fields(self, q):
        # a unit block over GF(q) used to invert as Fraction(1) / c, a
        # TypeError for an FFElement, and a block off the relabelling met
        # the same in Bareiss's exact division; both now divide in GF(q).
        # With a, b, c the elements of base-p digits 3, 1, 4, a*c - b*b is
        # 4 in GF(7) and 1 + t in GF(9) = GF(3)[t]
        field = FiniteField(q)
        ring = PolyRing(("x",))
        a, b, c = (ring.const(field._element(n)) for n in (3, 1, 4))
        zero = ring.zero()
        cx = FreeComplex(ring, {0: 2}, {})
        for m, want in (([[a, zero], [zero, b]], True),  # <3, 1>
                        ([[zero, c], [c, zero]], True),
                        ([[a, b], [b, c]], True),  # det a*c - b*b != 0
                        ([[a, a], [a, a]], False),
                        ([[a, zero], [zero, zero]], False)):
            assert SymmetricComplex(cx, 0, {0: m}).is_nondegenerate() is want
        # the unit block of degree 0 passes; phi_1 : X_1 -> X_{-1}^v is the
        # zero block
        cx3 = FreeComplex(ring, {0: 1, 1: 1, -1: 1}, {})
        phi = SymmetricComplex(cx3, 0, {0: [[a]]})
        assert not phi.is_nondegenerate()

    def test_nondegenerate_blocks_agree_with_bareiss(self):
        # a block with one constant in each row and column is certified by
        # its inverse, any other by its determinant: both rules agree with
        # the determinant being a unit
        ring = PolyRing(("x",))
        x, one, zero = ring.gen(0), ring.one(), ring.zero()
        cx1, cx2 = (FreeComplex(ring, {0: r}, {}) for r in (1, 2))
        for m, want in (([[2 * one]], True), ([[x]], False),
                        ([[one + x]], False),
                        ([[zero, -one], [-one, zero]], True),
                        ([[one, one], [one, 2 * one]], True),
                        ([[one, zero], [zero, zero]], False),
                        ([[zero, x], [x, zero]], False)):
            got = SymmetricComplex(cx1 if len(m) == 1 else cx2, 0,
                                   {0: m}).is_nondegenerate()
            det = bareiss_det(m, zero=zero, one=one)
            assert got is want is (bool(det) and not any(any(e)
                                                         for e in det.terms))

    def test_small_blocks_off_the_relabelling(self):
        # [[0,1],[1,0]] is certified by its inverse, [[1,1],[1,2]] by its
        # determinant 1, and [[1,1],[1,1]] is singular
        ring = PolyRing(())
        cx = FreeComplex(ring, {0: 2}, {})
        one, zero = ring.one(), ring.zero()
        for m, want in (([[zero, one], [one, zero]], True),
                        ([[one, one], [one, 2 * one]], True),
                        ([[one, one], [one, one]], False)):
            assert SymmetricComplex(cx, 0, {0: m}).is_nondegenerate() is want

    @pytest.mark.parametrize("make", [
        lambda: koszul(3), lambda: koszul(4),
        lambda: tensor_pair(koszul(1), koszul(2)),
        lambda: tensor_pair(koszul(2), koszul(2))])
    def test_relabelling_and_generic_products_agree(self, make):
        # every product chain_defect takes with a block of a Koszul form or
        # of a tensor of two, a signed relabelling, as a sparse product and
        # as the generic product written out entry by entry
        sym = make()
        x, n = sym.complex, sym.degree
        zero = x.ring.zero()
        for k in sym.phi:
            phi = sym.form(k)
            # phi_k d_{k+1} and phi_k^T d_{n-k+1}
            for f, d in ((phi, x.diff(k + 1)),
                         (phi.transpose(), x.diff(n - k + 1))):
                if d.rows and d.cols:
                    assert (f * d).dense(zero) == oracles._mat_mul(
                        f.dense(zero), d.dense(zero))

    @pytest.mark.parametrize("make", [lambda: koszul(3),
                                      lambda: tensor_pair(koszul(1),
                                                          koszul(2))])
    def test_one_flipped_sign_is_no_chain_map(self, make):
        sym = make()
        for k in sorted(sym.phi):
            for row in sym.phi[k].rows:
                for j, e in row.items():
                    row[j] = -e
                    assert sym.chain_defect() is not None, (k, j)
                    row[j] = e
        assert sym.chain_defect() is None

    def test_edited_copy_leaves_the_table_intact(self):
        # koszul(n) is built once; the copy a call returns has its own
        # dicts, its row dicts included, so editing it changes no later call
        want = koszul(3).to_json()
        k = koszul(3)
        d2 = k.complex.diff(2).rows
        d2[0][0] = -d2[0][0]
        k.complex.ranks[1] += 1
        del k.phi[1].rows[0][2]  # a zero entry is one not stored
        assert k.chain_defect() is not None
        assert koszul(3).to_json() == want
        assert koszul(3).chain_defect() is None and koszul(3).is_nondegenerate()
        _, merged, _ = koszul_tensor_isometry(1, 2)
        assert merged.complex.ranks == {0: 1, 1: 3, 2: 3, 3: 1}
        assert swap_sign(koszul(3), koszul(3)) == -1
        assert swap_sign(koszul(2), koszul(3)) == 1

    def test_chain_defect_names_the_first_degree(self):
        # phi_0 = (1) on x : X_1 -> X_0 with n = 0: at degree 0,
        # d_1^T phi_0 = (x) while X_{-1} = 0, so the condition fails there
        # first, though the side phi_{-1} d_0 is a map into the zero module
        with pytest.raises(ChainError, match="chain map at degree 0$"):
            SymmetricComplex(two_term_x(), 0, {0: [[1]]})

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
        entry = h[0].rows[0][0]
        assert entry.terms == {(-1,): Fraction(1)}

    def test_bad_variable_index(self):
        with pytest.raises(ChainError):
            contracting_homotopy(koszul(2), 3)

    def test_wrong_differential_fails_the_identity(self):
        # one entry of d_2 negated: ds + sd = id fails where d_2 enters
        k = koszul(3)
        d2 = k.complex.diff(2).rows
        d2[0][0] = -d2[0][0]
        with pytest.raises(ChainError, match="homotopy identity fails at "
                                             "degree 1$"):
            contracting_homotopy(k, 1)


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
        assert cx.diffs[1] == [[x]] and cx.diffs[3] == [[x]]
        assert cx.diffs[2][0][0].is_zero()
        cx.validate()
        assert t.is_symmetric()
        assert t.chain_defect() is None
        # nu(p, q) = (-1)^{q(r-p)} is +1 on every block (r - p is even), so
        # the form is (1) @ Theta(1) = (1, -1, 1, -1) by degree
        assert [t.form(k).rows[0][0] for k in range(4)] == [1, -1, 1, -1]

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


@pytest.mark.parametrize("q", [7, 9])
def test_bare_field_entries_are_constants(q):
    # a bare GF(q) entry becomes a constant of the ring, as an int does: the
    # complexes build and validate, and is_nondegenerate answers as it does
    # for the same entries written as polynomials
    field = FiniteField(q)
    ring = PolyRing(("x",))
    a, b, c = (field._element(n) for n in (3, 1, 4))
    zero = field.zero()
    FreeComplex(ring, {0: 1, 1: 1}, {1: [[field.coerce(3)]]}).validate()
    # d_1 d_2 = ab - ba vanishes, ab + ba = 2ab does not
    cx = FreeComplex(ring, {0: 1, 1: 2, 2: 1}, {1: [[a, b]], 2: [[b], [-a]]})
    assert cx.diff(2).rows[1][0] == ring.const(-a)
    with pytest.raises(ChainError, match="d o d"):
        FreeComplex(ring, {0: 1, 1: 2, 2: 1}, {1: [[a, b]], 2: [[b], [a]]})
    square = FreeComplex(ring, {0: 2}, {})
    for m, want in (([[a, zero], [zero, b]], True),
                    ([[zero, c], [c, zero]], True),
                    ([[a, b], [b, c]], True),
                    ([[a, a], [a, a]], False),
                    ([[a, zero], [zero, zero]], False)):
        poly = [[ring.const(x) if x else ring.zero() for x in row]
                for row in m]
        assert SymmetricComplex(square, 0, {0: m}).is_nondegenerate() \
            is SymmetricComplex(square, 0, {0: poly}).is_nondegenerate() \
            is want


def test_entry_of_another_ring_refused():
    ring, other = PolyRing(("x",)), PolyRing(("y",))
    with pytest.raises(ChainError, match="^differential 1: elements of "
                                         "different rings"):
        FreeComplex(ring, {0: 1, 1: 1}, {1: [[other.gen(0)]]})
    with pytest.raises(ChainError, match="^form 0: elements of different "
                                         "rings"):
        SymmetricComplex(FreeComplex(ring, {0: 1}, {}), 0,
                         {0: [[other.one()]]})


def test_tensor_entries_are_shared(monkeypatch):
    # tensor_pair builds one form entry per distinct pair of factors and
    # sign, and negates each distinct entry of d once, so the lifts of
    # koszul_tensor_isometry(2, 3) call Poly.map_to 33 times; a fresh
    # entry per product took 67
    calls = []
    map_to = Poly.map_to

    def counting(self, *args):
        calls.append(self)
        return map_to(self, *args)

    monkeypatch.setattr(Poly, "map_to", counting)
    koszul_tensor_isometry(2, 3)
    assert len(calls) == 33


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
                               {k: m.map(lambda x: x + x)
                                for k, m in t.phi.items()})
    with pytest.raises(ChainError, match="form at degree 0$"):
        transport_sign(t, doubled, *_swap(signed=True))


def two_koszuls():
    """K(1) + K(1) over Q[x], its labels a and b in each degree."""
    ring = PolyRing(("x",))
    x, one, zero = ring.gen(0), ring.one(), ring.zero()
    cx = FreeComplex(ring, {0: 2, 1: 2}, {1: [[x, zero], [zero, x]]},
                     labels={0: ["a0", "b0"], 1: ["a1", "b1"]})
    return SymmetricComplex(cx, 1, {0: [[one, zero], [zero, one]],
                                    1: [[-one, zero], [zero, -one]]})


def test_transport_sign_adds_rows_sent_to_one_label():
    # b sent onto a: iota_0 d_1 adds both rows of d_1 into row a0, which is
    # d_1 iota_1, so iota is a chain map; the pulled-back form is 1 in every
    # entry of degree 0, neither plus nor minus the identity
    k = two_koszuls()

    def collapse(label):
        return "a" + label[1], 1

    with pytest.raises(ChainError, match="form at degree 0$"):
        transport_sign(k, k, collapse, {0: 0})


def _isometries():
    """(source, target, image, gen_map) for isometries transport_sign
    accepts: identities and factor swaps of small Koszul tensors."""
    def swap(label):
        p, i, q, j = label
        return (q, j, p, i), (-1) ** (p * q)

    out = [(two_koszuls(), two_koszuls(), lambda label: (label, 1), {0: 0})]
    for a, b in ((1, 1), (1, 2)):
        t, u = tensor_pair(koszul(a), koszul(b)), tensor_pair(koszul(b),
                                                              koszul(a))
        gens = {i: (i + b if i < a else i - a) for i in range(a + b)}
        out += [(t, t, lambda label: (label, 1), {i: i for i in range(a + b)}),
                (t, u, swap, gens)]
    return out


@pytest.mark.parametrize("case", range(5))
def test_transport_sign_agrees_with_full_matrices(case):
    # an isometry, its negative, every label sent onto the first of its
    # degree, and each variant with one label's sign flipped or one label
    # sent onto another of its degree: the same sign or the same error as
    # the oracle that writes iota out and multiplies
    source, target, image, gen_map = _isometries()[case]
    table = {label: image(label)
             for group in source.complex.labels.values() for label in group}
    variants = [table, {s: (t, -c) for s, (t, c) in table.items()},
                {label: (target.complex.labels[k][0], 1)
                 for k, group in source.complex.labels.items()
                 for label in group}]
    for k, group in source.complex.labels.items():
        for label in group:
            at, c = table[label]
            variants.append({**table, label: (at, -c)})
            others = [t for t in target.complex.labels[k] if t != at]
            if others:
                variants.append({**table, label: (others[0], c)})
    outcomes = set()
    for v in variants:
        try:
            got = transport_sign(source, target, v.__getitem__, gen_map)
        except ChainError as err:
            got = str(err)
        assert got == oracles.transport_sign_by_matrices(
            source, target, v.__getitem__, gen_map), v
        outcomes.add(got)
    assert len(outcomes) > 2, outcomes


def test_transport_sign_names_the_degree_it_is_no_chain_map_at():
    # without (-1)^{pq} the swap misses the Koszul sign of d(m_1 @ n_1)
    t = tensor_pair(koszul(1), koszul(1))
    with pytest.raises(ChainError, match="not a chain map at degree 2$"):
        transport_sign(t, t, *_swap(signed=False))
    assert transport_sign(t, t, *_swap(signed=True)) == -1
