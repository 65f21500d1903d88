from fractions import Fraction

import pytest

from hgrcalc.geomverify import (GeomError, T_RING, endpoint_matrix,
                                evaluate_at, factorization_matrices,
                                interpolating_path, quadratic_section_identity,
                                solve_invariant_forms, verify_M_path,
                                verify_M1_factorization, verify_symplectic_lift,
                                wedge_of_covectors)
from hgrcalc.polynomial import PolyRing, bareiss_det, mat_mul, mat_transpose


class TestMPath:
    def test_endpoints(self):
        m = interpolating_path()
        ident = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert evaluate_at(m, 0) == ident
        assert evaluate_at(m, 1) == endpoint_matrix()

    def test_determinant_identically_one(self):
        det = bareiss_det(interpolating_path(),
                          zero=T_RING.zero(), one=T_RING.one())
        assert det == T_RING.one()

    def test_block_determinants(self):
        # the two interleaved 2x2 blocks each have determinant 1
        m = interpolating_path()
        for rows in ((0, 2), (1, 3)):
            block = [[m[rows[0]][rows[0]], m[rows[0]][rows[1]]],
                     [m[rows[1]][rows[0]], m[rows[1]][rows[1]]]]
            det = bareiss_det(block, zero=T_RING.zero(), one=T_RING.one())
            assert det == T_RING.one()

    def test_full_report(self):
        report = verify_M_path()
        assert report.ok, report.checks


def in_span(candidate, basis):
    """Rational span membership via elimination on flattened matrices."""
    if not basis:
        return all(x == 0 for row in candidate for x in row)
    flat = [[x for row in b for x in row] for b in basis]
    target = [x for row in candidate for x in row]
    cols = len(flat)
    rows = len(target)
    a = [[flat[j][i] for j in range(cols)] + [target[i]] for i in range(rows)]
    # gaussian elimination on the augmented system
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, rows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(rows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        row += 1
    # consistent iff no row reads 0 = nonzero
    return all(any(x for x in r[:-1]) or not r[-1] for r in a)


class TestInvariantForms:
    def test_identity_has_full_space(self):
        ident = [[T_RING.const(int(i == j)) for j in range(4)] for i in range(4)]
        forms = solve_invariant_forms(ident)
        assert len(forms["symmetric"]) == 10
        assert len(forms["skew"]) == 6

    def test_path_invariant_forms(self):
        forms = solve_invariant_forms(interpolating_path())
        # nonzero symmetric and skew invariant spaces (the Sp_4 and O_4
        # memberships); dimensions are computed, not presumed
        assert forms["symmetric"], "symmetric invariant space is zero"
        assert forms["skew"], "skew invariant space is zero"
        # the split symmetric pairing B(e1,e2) = B(e3,e4) = 1
        split = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        split = [[Fraction(v) for v in row] for row in split]
        assert in_span(split, forms["symmetric"])
        # the skew form omega(e1,e3) = omega(e2,e4) = 1
        omega = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        omega = [[Fraction(v) for v in row] for row in omega]
        assert in_span(omega, forms["skew"])

    def test_forms_verified_identically(self):
        m = interpolating_path()
        forms = solve_invariant_forms(m)
        for kind in ("symmetric", "skew"):
            for b in forms[kind]:
                bm = [[T_RING.const(x) for x in row] for row in b]
                lhs = mat_mul(mat_mul(mat_transpose(m), bm), m)
                assert all(lhs[i][j] == bm[i][j]
                           for i in range(4) for j in range(4))


    def test_non_integral_coefficients(self):
        # the shear [[1, t/2], [0, 1]] lies in SL_2 = Sp_2 and keeps exactly
        # the symmetric form e_22 and the skew form e_12 - e_21
        one, zero = T_RING.one(), T_RING.zero()
        shear = [[one, T_RING.gen(0, 1, Fraction(1, 2))], [zero, one]]
        forms = solve_invariant_forms(shear)
        assert forms["symmetric"] == [[[0, 0], [0, 1]]]
        assert forms["skew"] == [[[0, 1], [-1, 0]]]
        # S^-1 M(t) S with S = diag(1, 2, 3, 5) has entries like t/2 and
        # 3/5; B is M(t)-invariant exactly when S^T B S is invariant for it
        s = [1, 2, 3, 5]
        m = [[e * Fraction(s[j], s[i]) for j, e in enumerate(row)]
             for i, row in enumerate(interpolating_path())]
        forms = solve_invariant_forms(m)
        assert len(forms["symmetric"]) == 1 and len(forms["skew"]) == 3
        for b in forms["symmetric"] + forms["skew"]:
            bm = [[T_RING.const(x) for x in row] for row in b]
            assert mat_mul(mat_mul(mat_transpose(m), bm), m) == bm
        omega = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        assert in_span([[Fraction(x * s[i] * s[j]) for j, x in enumerate(row)]
                        for i, row in enumerate(omega)], forms["skew"])


class TestFactorization:
    def test_product_is_endpoint(self):
        factors = factorization_matrices()
        prod = factors[0]
        for f in factors[1:]:
            prod = mat_mul(prod, f)
        assert prod == endpoint_matrix()

    def test_each_factor_determinant_one(self):
        for f in factorization_matrices():
            assert bareiss_det(f) == 1

    def test_full_report(self):
        report = verify_M1_factorization()
        assert report.ok, report.checks


class TestQuadraticSection:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_identity_holds(self, r):
        assert quadratic_section_identity(r)

    def test_bad_rank(self):
        with pytest.raises(GeomError):
            quadratic_section_identity(0)


class TestSymplecticLift:
    def setup_method(self):
        self.ring = PolyRing(("t",))
        self.t = self.ring.gen(0)
        self.one = self.ring.one()
        self.zero = self.ring.zero()

    def covec(self, *entries):
        return [e if not isinstance(e, int) else self.ring.const(Fraction(e))
                for e in entries]

    def test_standard_exact(self):
        # g = 0, u the standard symplectic coordinate forms, v = w = 0
        size = 4
        phi = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        u = [self.covec(1, 0, 0, 0), self.covec(0, 1, 0, 0),
             self.covec(0, 0, 1, 0), self.covec(0, 0, 0, 1)]
        v = [self.covec(0, 0, 0, 0)] * 4
        assert verify_symplectic_lift(phi, 0, u, v, [])

    def test_first_order_witness(self):
        # phi = J + t * (e1 ^ e3): u solves it mod t, the v-correction
        # solves it mod t^2, exact equality needs more
        t = self.t
        phi = [[self.zero, self.one, t, self.zero],
               [-self.one, self.zero, self.zero, self.zero],
               [-t, self.zero, self.zero, self.one],
               [self.zero, self.zero, -self.one, self.zero]]
        u = [self.covec(1, 0, 0, 0), self.covec(0, 1, 0, 0),
             self.covec(0, 0, 1, 0), self.covec(0, 0, 0, 1)]
        # phi - sum u^u = t*(e1^e3): with v2 = e3 the pair
        # (u1) ^ (u2 + t v2) contributes t * e1^e3
        v = [self.covec(0, 0, 0, 0), self.covec(0, 0, 1, 0),
             self.covec(0, 0, 0, 0), self.covec(0, 0, 0, 0)]
        assert verify_symplectic_lift(phi, t, u, v, [])  # here even exact
        # the congruence mod t^2 also holds
        assert verify_symplectic_lift(phi, t, u, v, [], modulus_power=2)

    def test_mod_square_congruence_without_exactness(self):
        # introduce a t^2 discrepancy: congruent mod t^2 but not exact
        t = self.t
        t2 = t * t
        phi = [[self.zero, self.one + t2, self.zero, self.zero],
               [-(self.one + t2), self.zero, self.zero, self.zero],
               [self.zero, self.zero, self.zero, self.one],
               [self.zero, self.zero, -self.one, self.zero]]
        u = [self.covec(1, 0, 0, 0), self.covec(0, 1, 0, 0),
             self.covec(0, 0, 1, 0), self.covec(0, 0, 0, 1)]
        v = [self.covec(0, 0, 0, 0)] * 4
        assert not verify_symplectic_lift(phi, t, u, v, [])
        assert verify_symplectic_lift(phi, t, u, v, [], modulus_power=2)
        # exactness can be restored with w-terms: t^2 e1^e2 = (t e1)^(t e2)
        w = [self.covec(1, 0, 0, 0), self.covec(0, 1, 0, 0)]
        assert verify_symplectic_lift(phi, t, u, v, w)

    def test_perturbed_v_fails(self):
        t = self.t
        phi = [[self.zero, self.one, t, self.zero],
               [-self.one, self.zero, self.zero, self.zero],
               [-t, self.zero, self.zero, self.one],
               [self.zero, self.zero, -self.one, self.zero]]
        u = [self.covec(1, 0, 0, 0), self.covec(0, 1, 0, 0),
             self.covec(0, 0, 1, 0), self.covec(0, 0, 0, 1)]
        v_bad = [self.covec(0, 0, 0, 0), self.covec(0, 0, 1, 1),
                 self.covec(0, 0, 0, 0), self.covec(0, 0, 0, 0)]
        assert not verify_symplectic_lift(phi, t, u, v_bad, [])

    def test_wedge_coordinates(self):
        a = self.covec(1, 0, 0, 0)
        b = self.covec(0, 1, 0, 0)
        m = wedge_of_covectors(a, b, 4)
        assert m[0][1] == self.one
        assert m[1][0] == -self.one
        assert all(m[i][j].is_zero() for i in range(4) for j in range(4)
                   if (i, j) not in ((0, 1), (1, 0)))
