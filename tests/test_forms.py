import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hgrcalc.forms import (BilinearForm, DegenerateFormError, FFElement,
                           FiniteField, FIELD_ORDER_BOUND, FormsError, QX,
                           RealClosedField, SpReductionError, SympFactor,
                           ZHALF, ZZ, diagonalize, karoubi_check,
                           karoubi_table, ko1_euclidean, sp_reduce_unimodular,
                           standard_symplectic_gram, symplectic_basis)
from hgrcalc.coeffs import (GWBASE, INTEGERS, RATIONALS, SQUARE_CLASS_BOUND,
                           CoeffError, RationalsField)
from hgrcalc.polynomial import Poly, mat_apply, mat_mul, mat_transpose
from hgrcalc.towers import FGAbelian

import oracles


def check_congruence(form, result):
    pt = mat_transpose(result.matrix)
    got = mat_mul(mat_mul(pt, form.gram), result.matrix)
    n = form.n
    for i in range(n):
        for j in range(n):
            want = result.entries[i] if i == j else form.field.zero()
            assert got[i][j] == want


class TestDiagonalize:
    def test_already_diagonal(self):
        f = BilinearForm([[2, 0], [0, -3]], "symmetric")
        res = diagonalize(f)
        assert res.entries == [Fraction(2), Fraction(-3)]
        assert res.classes == [Fraction(2), Fraction(-3)]
        assert res.matrix == [[Fraction(1), Fraction(0)],
                              [Fraction(0), Fraction(1)]]
        check_congruence(f, res)

    def test_hyperbolic_plane(self):
        f = BilinearForm([[0, 1], [1, 0]], "symmetric")
        res = diagonalize(f)
        assert res.classes == [Fraction(2), Fraction(-2)]
        check_congruence(f, res)

    def test_degenerate_reports_radical(self):
        f = BilinearForm([[1, 0, 0], [0, 0, 0], [0, 0, 0]], "symmetric")
        with pytest.raises(DegenerateFormError) as err:
            diagonalize(f)
        assert err.value.radical_dimension == 2

    @pytest.mark.parametrize("q", [None, 5, 7, 9, 13])
    def test_entries_are_the_lengths_of_the_new_basis(self, q):
        # each diagonal entry is v^T G v for the column v of P, summed by
        # the oracle; over Q (q None) and F_q, sizes 1 to 7
        rng = random.Random("entries:%s" % q)
        field = FiniteField(q) if q else None
        for n in range(1, 8):
            while True:
                form = BilinearForm(_random_gram(n, "symmetric", rng),
                                    "symmetric", field)
                try:
                    res = diagonalize(form)
                    break
                except DegenerateFormError:
                    continue
            for e, v in zip(res.entries, mat_transpose(res.matrix)):
                assert e == oracles.quadratic_value(form.gram, v)
                assert e
            check_congruence(form, res)

    def test_degenerate_random_reports_radical(self):
        # G = A^T D A with D of rank 2 and A invertible: radical dimension 2
        rng = random.Random(4)
        for field in (None, FiniteField(7)):
            a = [[int(i == j) + (rng.randint(-3, 3) if j > i else 0)
                  for j in range(4)] for i in range(4)]
            d = [[rng.choice([1, 2, -1]) if i == j < 2 else 0
                  for j in range(4)] for i in range(4)]
            g = mat_mul(mat_mul(mat_transpose(a), d), a)
            with pytest.raises(DegenerateFormError) as err:
                diagonalize(BilinearForm(g, "symmetric", field))
            assert err.value.radical_dimension == 2

    def test_finite_field_equivalence(self):
        # <1,1> and <2,3> over F5: same rank, disc 1 vs 6 = 1 mod squares
        f5 = FiniteField(5)
        a = BilinearForm([[1, 0], [0, 1]], "symmetric", field=f5)
        b = BilinearForm([[2, 0], [0, 3]], "symmetric", field=f5)
        ra, rb = diagonalize(a), diagonalize(b)
        disc_a = ra.entries[0] * ra.entries[1]
        disc_b = rb.entries[0] * rb.entries[1]
        assert f5.is_square(disc_a) == f5.is_square(disc_b)
        # brute-force congruence search must find an isometry
        p = oracles.gram_congruent_search(a.gram, b.gram,
                                          oracles.all_elements(f5))
        assert p is not None

    def test_real_closed_signs(self):
        f = BilinearForm([[5, 0], [0, -7]], "symmetric", field=RealClosedField())
        res = diagonalize(f)
        assert res.classes == [Fraction(1), Fraction(-1)]

    def test_hyperbolic_relation_over_q(self):
        # <2,-2> and <1,-1> are congruent over Q: explicit P with columns
        # (3/2, 1/2) and (1/2, 3/2)
        g2 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        p = [[Fraction(3, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 2)]]
        got = mat_mul(mat_mul(mat_transpose(p), g2), p)
        assert got == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-2)]]

    @pytest.mark.parametrize("q", [3, 5, 7, 13])
    def test_congruence_invariants_random(self, q):
        # rank and discriminant square-class survive random congruences
        rng = random.Random(q)
        field = FiniteField(q)
        els = oracles.all_elements(field)
        for _ in range(6):
            n = rng.randrange(1, 4)
            while True:
                g = [[els[rng.randrange(q)] for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        g[j][i] = g[i][j]
                f = BilinearForm(g, "symmetric", field=field)
                try:
                    base = diagonalize(f)
                    break
                except DegenerateFormError:
                    continue
            disc = field.one()
            for e in base.entries:
                disc = disc * e
            # congruence by a random invertible matrix
            while True:
                p = [[els[rng.randrange(q)] for _ in range(n)] for _ in range(n)]
                try:
                    g2 = mat_mul(mat_mul(mat_transpose(p), g), p)
                    f2 = BilinearForm(g2, "symmetric", field=field)
                    res2 = diagonalize(f2)
                    break
                except (DegenerateFormError, FormsError):
                    continue
            disc2 = field.one()
            for e in res2.entries:
                disc2 = disc2 * e
            assert field.is_square(disc) == field.is_square(disc2)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_rank3_classification_backtrack(self, q):
        # rank-3 nondegenerate forms over F_q are classified by rank and
        # discriminant class; verified by exhaustive basis-extension search
        field = FiniteField(q)
        els = oracles.all_elements(field)
        one, zero = field.one(), field.zero()
        ns = field.nonsquare()
        diag = lambda a, b, c: [[a, zero, zero], [zero, b, zero],
                                [zero, zero, c]]
        square_disc = diag(one, one, one)
        nonsquare_disc = diag(one, one, ns)
        same = oracles.gram_congruent_backtrack(
            square_disc, diag(ns, ns, one), els)
        assert same is not None  # disc ns*ns = square
        cross = oracles.gram_congruent_backtrack(
            square_disc, nonsquare_disc, els)
        assert cross is None

    def test_exhaustive_rank2_classification_f5_f7(self):
        # two nondegenerate symmetric forms over F_q are equivalent iff they
        # share rank and discriminant class; exhaustive for rank 2
        for q in (5, 7):
            field = FiniteField(q)
            els = oracles.all_elements(field)
            forms = []
            for a in els:
                for b in els:
                    for c in els:
                        g = [[a, b], [b, c]]
                        det = a * c - b * b
                        if det:
                            forms.append((g, field.is_square(det)))
            rng = random.Random(q)
            sample = rng.sample(forms, 12)
            for (g1, s1) in sample[:6]:
                for (g2, s2) in sample[6:]:
                    found = oracles.gram_congruent_search(g1, g2, els) is not None
                    assert found == (s1 == s2)


def _seeded_gram(rng, n, kind):
    """A symmetric n x n Gram matrix: "dense" and "sparse" small integers,
    "zero-diagonal" (the mixing step), "degenerate" (a last row that is a
    combination of the first two) or "rational" p/q with unrelated q."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "rational":
                x = Fraction(rng.randint(-40, 40),
                             rng.choice((1, 2, 5, 11, 13, 49)))
            elif kind == "sparse" and rng.random() < 0.7:
                x = 0
            elif kind == "zero-diagonal" and i == j:
                x = 0
            else:
                x = rng.randint(-4, 4)
            g[i][j] = g[j][i] = x
    if kind == "degenerate" and n > 1:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        for i in range(n - 1):
            g[i][n - 1] = g[n - 1][i] = a * g[i][0] + b * g[i][1]
        g[n - 1][n - 1] = a * g[0][n - 1] + b * g[1][n - 1]
    return g


class TestDiagonalizeMatchesOracle:
    """diagonalize on ints, residues or FFElements against the Gram-Schmidt
    on field elements it replaced (`oracles.diagonalize_by_field_arithmetic`):
    entries, matrix and classes equal and print alike, and a degenerate form
    has the same radical dimension and message."""

    KINDS = ("dense", "sparse", "zero-diagonal", "degenerate", "rational")

    @staticmethod
    def outcome(reduce, form):
        try:
            res = reduce(form)
        except DegenerateFormError as err:
            return ("degenerate", err.radical_dimension, str(err))
        except CoeffError as err:  # an entry over the square-class bound
            return ("refused", str(err))
        return ("ok", res.entries, res.matrix, res.classes,
                repr((res.entries, res.matrix, res.classes)))

    @pytest.mark.parametrize("name", ["Q", "RealClosed", "F3", "F5", "F7",
                                      "F11", "F13", "F9", "F25"])
    def test_seeded_forms(self, name):
        field = (RationalsField() if name == "Q" else RealClosedField()
                 if name == "RealClosed" else FiniteField(int(name[1:])))
        rng = random.Random("oracle:" + name)
        seen = set()
        for kind in self.KINDS:
            for n in range(1, 8):
                for _ in range(4):
                    g = _seeded_gram(rng, n, kind)
                    if isinstance(field, FiniteField) and any(
                            x.denominator % field.p == 0
                            for row in g for x in map(Fraction, row)):
                        continue  # not a form over this field
                    form = BilinearForm(g, "symmetric", field)
                    want = self.outcome(
                        oracles.diagonalize_by_field_arithmetic, form)
                    assert self.outcome(diagonalize, form) == want, (kind, g)
                    seen.add(want[0])
        assert {"ok", "degenerate"} <= seen

    def test_large_rational_entries(self):
        # a dense 8 x 8 form with p/q entries, |p| and q up to 10^6
        rng = random.Random(8)
        g = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(i, 8):
                g[i][j] = g[j][i] = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                             rng.randint(1, 10 ** 6))
        form = BilinearForm(g, "symmetric", RealClosedField())
        assert self.outcome(diagonalize, form) == self.outcome(
            oracles.diagonalize_by_field_arithmetic, form)


class TestSymplecticBasis:
    def test_standard_j_is_fixed(self):
        g = standard_symplectic_gram(4)
        f = BilinearForm(g, "skew")
        p = symplectic_basis(f)
        assert p == [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]

    def test_scaled_block(self):
        f = BilinearForm([[0, 2], [-2, 0]], "skew")
        p = symplectic_basis(f)
        assert p == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2)]]

    def test_odd_rank_rejected(self):
        with pytest.raises(DegenerateFormError):
            symplectic_basis(BilinearForm([[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                                          "skew"))

    def test_random_skew_forms(self):
        rng = random.Random(31)
        for n in (2, 4, 6):
            for _ in range(5):
                while True:
                    g = [[Fraction(0)] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(i + 1, n):
                            g[i][j] = Fraction(rng.randrange(-4, 5))
                            g[j][i] = -g[i][j]
                    f = BilinearForm(g, "skew")
                    try:
                        p = symplectic_basis(f)
                        break
                    except DegenerateFormError:
                        continue
                want = standard_symplectic_gram(n)
                got = mat_mul(mat_mul(mat_transpose(p), g), p)
                assert got == want


def _random_gram(n, kind, rng):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rng.randint(-50, 50) if kind == "symmetric" or i != j else 0
            g[i][j], g[j][i] = x, x if kind == "symmetric" else -x
    return g


class TestReductionCost:
    """Both reductions take O(n^3) field multiplications, their P^T G P
    checks included: doubling n multiplies the count by 8 for n^3 and by 16
    for n^4.  The n^4 terms of a reduction that recomputes G w for every
    pairing are small while the vectors are sparse, so the sizes are 16 and
    32 (at 8 and 16 such a diagonalize still reads about 9.3).  The field
    is GF(11^2): over a prime field diagonalize works on int residues and
    makes no FFElement product to count."""

    @staticmethod
    def multiplications(monkeypatch, reduce, kind, n):
        field = FiniteField(121)
        rng = random.Random(n)
        while True:
            form = BilinearForm(_random_gram(n, kind, rng), kind, field)
            try:
                reduce(form)
                break
            except DegenerateFormError:
                continue
        count = [0]
        mul = FFElement.__mul__

        def counting(x, y):
            count[0] += 1
            return mul(x, y)

        with monkeypatch.context() as m:
            m.setattr(FFElement, "__mul__", counting)
            m.setattr(FFElement, "__rmul__", counting)
            reduce(form)
        return count[0]

    @pytest.mark.parametrize("reduce, kind", [(diagonalize, "symmetric"),
                                              (symplectic_basis, "skew")],
                             ids=["diagonalize", "symplectic-basis"])
    def test_cubic_in_n(self, monkeypatch, reduce, kind):
        small, large = (self.multiplications(monkeypatch, reduce, kind, n)
                        for n in (16, 32))
        assert large <= 10 * small, (small, large)


class TestSpReduce:
    def test_e1_gives_empty_list(self):
        assert sp_reduce_unimodular([1, 0, 0, 0]) == []

    def test_spec_example(self):
        factors = sp_reduce_unimodular([2, 3, 0, 0])
        v = [2, 3, 0, 0]
        for f in factors:
            v = f.apply(v)
        assert v == [1, 0, 0, 0]

    def test_non_unimodular(self):
        with pytest.raises(SpReductionError) as err:
            sp_reduce_unimodular([2, 4, 0, 0])
        assert err.value.witness == 2

    def test_factors_preserve_j(self):
        factors = sp_reduce_unimodular([3, 5, 7, 2])
        j = standard_symplectic_gram(4, ZZ)
        for f in factors:
            e = oracles.transvection_matrix(ZZ, f.u, f.lam)
            assert mat_mul(mat_mul(mat_transpose(e), j), e) == j

    @pytest.mark.parametrize("n2", [4, 6])
    def test_random_integer_vectors(self, n2):
        from math import gcd
        rng = random.Random(n2)
        count = 0
        while count < 50:
            v = [rng.randrange(-30, 31) for _ in range(n2)]
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            if g != 1:
                continue
            count += 1
            factors = sp_reduce_unimodular(v)
            w = list(v)
            for f in factors:
                w = f.apply(w)
            assert w == [1] + [0] * (n2 - 1), v

    @pytest.mark.parametrize("n2", [4, 6])
    def test_random_polynomial_vectors(self, n2):
        rng = random.Random(100 + n2)
        count = 0
        while count < 50:
            # build vectors guaranteed unimodular: include a unit combination
            coeffs = [[rng.randrange(-3, 4) for _ in range(rng.randrange(0, 3))]
                      for _ in range(n2)]
            v = [QX.from_coeffs(c or [0]) for c in coeffs]
            g = QX.gcd_all(v)
            if g.is_zero() or not QX.is_unit(g):
                # repair: drop a unit into a random slot
                v[rng.randrange(n2)] = QX.from_coeffs([rng.choice([1, 2, -1])])
                g = QX.gcd_all(v)
                if not QX.is_unit(g):
                    continue
            count += 1
            factors = sp_reduce_unimodular(v, ring=QX)
            w = list(v)
            for f in factors:
                w = f.apply(w)
            e1 = [QX.one()] + [QX.zero()] * (n2 - 1)
            assert w == e1

    def test_ring_without_arithmetic_refused(self):
        # ZHALF keeps unit square classes only: no coerce, no division
        with pytest.raises(SpReductionError,
                           match=r"^Z\[1/2\] has no element arithmetic$"):
            sp_reduce_unimodular([1, 0], ZHALF)

    def test_polynomial_non_unimodular(self):
        x = QX.ring.gen(0)
        with pytest.raises(SpReductionError):
            sp_reduce_unimodular([x, x * x, QX.zero(), QX.zero()], ring=QX)

    @pytest.mark.parametrize("v, ring, witness", [
        ([2, 4, 0, 0], ZZ, 2),
        ([-6, 9, 12, 3], ZZ, 3),
        ([0, 0, 0, 0, 0, 0], ZZ, 0),
        ([0, -8, 0, 0, 4, 12], ZZ, 4),
        ([[0, 1], [0, 0, 1], [], []], QX, [0, 1]),
        ([[2, 2], [1, 1], [3, 3], [-1, -1]], QX, [1, 1]),
        ([[], [], [], []], QX, []),
        ([[1, 0, 2], [0, 1, 0, 2], [1, 0, 2], [2, 0, 4]], QX,
         [Fraction(1, 2), 0, 1]),
    ], ids=["Z-2", "Z-3", "Z-zero", "Z-4", "Qx-x", "Qx-x+1", "Qx-zero",
            "Qx-x2+1/2"])
    def test_non_unimodular_witness_pinned(self, v, ring, witness):
        # the witness is the ring's normalized gcd of v, read off the
        # Euclid's last entry; message and witness as when a separate
        # gcd_all pass made them.  (Z[1/2] carries unit bookkeeping only
        # and takes no element arithmetic, so vectors with a power-of-two
        # gcd are pinned over Z.)
        if ring is QX:
            v = [QX.from_coeffs(c) for c in v]
            witness = QX.from_coeffs(witness)
        with pytest.raises(SpReductionError) as err:
            sp_reduce_unimodular(v, ring=ring)
        assert err.value.witness == witness == ring.gcd_all(v)
        assert str(err.value) == "vector is not unimodular; gcd = %s" % witness

    def test_non_unimodular_matches_gcd_all(self):
        # seeded vectors times a non-unit: over Z an integer |c| >= 2
        # (powers of two included), over Q[x] a polynomial of degree >= 1
        rng = random.Random(26)
        for _ in range(60):
            n2 = rng.choice((2, 4, 6))
            if rng.random() < 0.5:
                ring = ZZ
                c = rng.choice((2, 4, 8, -3, 6, 35))
                v = [c * rng.randint(-9, 9) for _ in range(n2)]
            else:
                ring = QX
                c = QX.from_coeffs([rng.randint(-3, 3),
                                    rng.choice((1, -2, 3))])
                v = [c * QX.from_coeffs([rng.randint(-3, 3)
                                         for _ in range(rng.randint(0, 3))])
                     for _ in range(n2)]
            with pytest.raises(SpReductionError) as err:
                sp_reduce_unimodular(v, ring=ring)
            g = ring.gcd_all(v)
            assert err.value.witness == g, v
            assert str(err.value) == "vector is not unimodular; gcd = %s" % g

    def test_no_factor_fixes_the_state(self):
        # v = (1+x, 2+x^2, x, 3) used to get 15 factors, two of them no-ops
        x = QX.ring.gen(0)
        one = QX.one()
        vectors = [([one + x, 2 * one + x * x, x, 3 * one], QX)]
        rng = random.Random(7)
        while len(vectors) < 40:
            v = [rng.randrange(-30, 31) for _ in range(rng.choice((4, 6)))]
            if ZZ.is_unit(ZZ.gcd_all(v)):
                vectors.append((v, ZZ))
        for v, ring in vectors:
            state = [ring.coerce(a) for a in v]
            for f in sp_reduce_unimodular(v, ring=ring):
                moved = f.apply(state)
                assert moved != state, v
                state = moved
            assert state == [ring.one()] + [ring.zero()] * (len(v) - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_apply_matches_dense_matrix(self, data):
        # the O(n) action against the dense matrix I - lam*(u u^T)J, which
        # must itself satisfy E^T J E = J
        ring = data.draw(st.sampled_from([ZZ, QX]), label="ring")
        n2 = 2 * data.draw(st.integers(1, 5), label="pairs")
        if ring is ZZ:
            elements = st.integers(-9, 9)
        else:
            elements = st.lists(st.integers(-3, 3), max_size=3).map(
                lambda c: QX.from_coeffs(c or [0]))
        vectors = st.lists(elements, min_size=n2, max_size=n2)
        u = data.draw(vectors, label="u")
        v = data.draw(vectors, label="v")
        lam = data.draw(elements, label="lam")
        f = SympFactor(ring, u, lam, n2)
        zero = ring.zero()
        e = oracles.transvection_matrix(ring, u, lam)
        assert f.apply(v) == mat_apply(e, v, zero)
        j = standard_symplectic_gram(n2, ring)
        assert mat_mul(mat_mul(mat_transpose(e), j, zero), e, zero) == j

    def test_factor_length_must_match(self):
        with pytest.raises(FormsError):
            SympFactor(ZZ, [1, 0, 0, 0], 1, 6)

    def test_factor_checks_the_form_identity(self, monkeypatch):
        # omega(u,u) = 0 for every u of a commutative ring, so the guard can
        # only fire if the pairing is wrong; make it wrong
        from hgrcalc import forms
        monkeypatch.setattr(forms, "symplectic_pairing", lambda x, y, zero: 1)
        with pytest.raises(FormsError, match="broke the form"):
            SympFactor(ZZ, [1, 0, 0, 0], 1, 4)

    def test_integer_entries_are_not_truncated(self):
        with pytest.raises(CoeffError):
            sp_reduce_unimodular([Fraction(3, 2), 1, 0, 0])
        assert sp_reduce_unimodular([Fraction(1), 0, 0, 0]) == []

    def test_factor_sequences_are_pinned(self):
        # every factor's u and lam, by value and in order, over 300 seeded
        # unimodular Z vectors (lengths 2..10, entries in [-60, 60]) and 100
        # over Q[x] (lengths 2..8): any change to the moves shows here
        def by_value(c):
            if isinstance(c, Poly):
                return "+".join("%s*x^%d" % (Fraction(a), e)
                                for (e,), a in sorted(c.terms.items())) or "0"
            return str(Fraction(c))

        rng = random.Random(2021)
        vectors = []
        while len(vectors) < 300:
            v = [rng.randint(-60, 60) for _ in range(2 * rng.randint(1, 5))]
            if ZZ.is_unit(ZZ.gcd_all(v)):
                vectors.append((v, ZZ))
        while len(vectors) < 400:
            v = [QX.from_coeffs([rng.randint(-4, 4)
                                 for _ in range(rng.randint(1, 3))])
                 for _ in range(2 * rng.randint(1, 4))]
            g = QX.gcd_all(v)
            if not g.is_zero() and QX.is_unit(g):
                vectors.append((v, QX))
        digest = hashlib.sha256()
        count = 0
        for v, ring in vectors:
            factors = sp_reduce_unimodular(v, ring=ring)
            count += len(factors)
            digest.update(("|".join(",".join(map(by_value, f.u)) + ";"
                                    + by_value(f.lam) for f in factors)
                           + "\n").encode())
        assert count == 8025
        assert digest.hexdigest() == (
            "ae9cbaf5227fdc8aeb27bc9bae25b4d9"
            "dba52891ea39b55351ca560b8037ebc7")


def _qx_division_pairs():
    """Seeded (a, b) over Q[x]: random pairs, then a zero remainder,
    deg a < deg b, a constant b and a = 0."""
    rng = random.Random(11)

    def rand(deg):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(deg + 1)]
        c[-1] = c[-1] or Fraction(1)
        return QX.from_coeffs(c)

    pairs = [(rand(rng.randint(0, 9)), rand(rng.randint(0, 5)))
             for _ in range(60)]
    b = rand(3)
    pairs += [(rand(4) * b, b), (rand(2), rand(5)), (rand(6), rand(0)),
              (QX.zero(), b)]
    return pairs


class TestQXDivision:
    def test_quotient_and_remainder(self):
        for a, b in _qx_division_pairs():
            q, r = QX.divmod(a, b)
            assert q * b + r == a
            assert QX.degree(r) < QX.degree(b)
            assert all(e >= 0 for (e,) in q.terms)
            assert q.ring is QX.ring and r.ring is QX.ring

    def test_edge_cases(self):
        b = QX.from_coeffs([1, -2, 0, 3])
        q, r = QX.divmod(QX.from_coeffs([2, 5, 7, 1, 4]) * b, b)
        assert q == QX.from_coeffs([2, 5, 7, 1, 4]) and r.is_zero()
        a = QX.from_coeffs([1, 2])
        assert QX.divmod(a, b) == (QX.zero(), a)
        q, r = QX.divmod(b, QX.from_coeffs([Fraction(2, 3)]))
        assert q == b * Fraction(3, 2) and r.is_zero()
        with pytest.raises(ZeroDivisionError):
            QX.divmod(a, QX.zero())

    def test_integer_coefficients_divide_exactly(self):
        # QX.ring.gen and QX.one carry int coefficients; dividing them must
        # give Fractions, never floats
        x = QX.ring.gen(0)

        def exact(p):
            return not any(isinstance(c, float) for c in p.terms.values())

        q, r = QX.divmod(x * x + 1, 2 * x)
        assert (q, r) == (x * Fraction(1, 2), QX.one())
        assert exact(q) and exact(r)
        q, r = QX.divmod(x ** 3 + 1, 3 * x)
        assert q == x * x * Fraction(1, 3) and exact(q)
        g = QX.gcd_all([2 * x + 2, 4 * x + 4])
        assert g == x + 1 and exact(g)
        inv = QX.unit_inverse(QX.ring.const(3))
        assert inv == QX.ring.const(Fraction(1, 3)) and exact(inv)
        v = [2 * x, x * x + 1, QX.ring.const(3), x]
        factors = sp_reduce_unimodular(v, ring=QX)
        assert Fraction(-1, 2) * x in [f.lam for f in factors]
        w = list(v)
        for f in factors:
            assert exact(f.lam) and all(exact(c) for c in f.u)
            w = f.apply(w)
            assert all(exact(c) for c in w)
        assert w == [QX.one()] + [QX.zero()] * 3

    def test_matches_sympy_div(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("x")

        def to_sympy(p):
            return sum((sympy.Rational(c.numerator, c.denominator) * t ** e
                        for (e,), c in p.terms.items()), sympy.Integer(0))

        for a, b in _qx_division_pairs():
            q, r = QX.divmod(a, b)
            want_q, want_r = sympy.div(to_sympy(a), to_sympy(b), t)
            assert sympy.expand(to_sympy(q) - want_q) == 0
            assert sympy.expand(to_sympy(r) - want_r) == 0


class TestUnitSquareClasses:
    def test_z_half(self):
        classes = ZHALF.unit_square_classes()
        assert len(classes) == 4
        assert set(classes) == {1, -1, 2, -2}

    def test_f9(self):
        ring = FiniteField(9)
        one, nonsquare = ring.unit_square_classes()
        assert one == ring.one()
        assert not ring.is_square(nonsquare)

    def test_qx_refused(self):
        with pytest.raises(FormsError):
            QX.unit_square_classes()


class TestKO1:
    def test_z_half_order_eight(self):
        res = ko1_euclidean(ZHALF)
        assert res.order == 8
        assert res.structure() == "(Z/2)^3"
        kinds = [g["kind"] for g in res.generators()]
        assert kinds.count("switch") == 1
        assert kinds.count("square-class") == 3

    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_finite_fields_order_four(self, q):
        res = ko1_euclidean(FiniteField(q))
        assert res.order == 4

    def test_integers_rejected(self):
        with pytest.raises(FormsError) as err:
            ko1_euclidean(ZZ)
        assert "2 not invertible" in str(err.value)

    def test_order_relation(self):
        for ring in (ZHALF, FiniteField(3), FiniteField(9)):
            res = ko1_euclidean(ring)
            assert res.order == 2 * len(ring.unit_square_classes())
            assert 2 ** res.rank_two_elementary == res.order


class TestKaroubi:
    def test_zhalf_instance_passes(self):
        table = karoubi_table(ZHALF)
        assert table.ring is ZHALF
        report = karoubi_check(table)
        assert report.ok, report.violated
        assert report.derived["KO1_order"] == 8
        assert report.derived["W0"].invariant_factors() == (1, [2])

    def test_fq_instance_passes(self):
        for q in (3, 5, 7, 9):
            report = karoubi_check(karoubi_table(FiniteField(q)))
            assert report.ok, (q, report.violated)
            assert report.derived["KO1_order"] == 4

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
    def test_fq_witt_group(self, q):
        # W(F_q) is Z/2 + Z/2 exactly when <1, 1> is the hyperbolic plane,
        # and Z/4 otherwise; the isometry comes from an exhaustive search
        field = FiniteField(q)
        one, zero = field.one(), field.zero()
        hyperbolic = oracles.gram_congruent_search(
            [[one, zero], [zero, one]], [[zero, one], [one, zero]],
            oracles.all_elements(field)) is not None
        assert hyperbolic == (q % 4 == 1)
        want = [2, 2] if hyperbolic else [4]
        assert karoubi_table(field).witt0.invariant_factors() == (0, want)

    @pytest.mark.parametrize("ring", [ZZ, QX], ids=["Z", "Q[x]"])
    def test_other_rings_refused(self, ring):
        with pytest.raises(FormsError, match="exist for Z\\[1/2\\] and F<q>"):
            karoubi_table(ring)

    def test_ko1_cross_check_fails(self):
        # a K_1 with trivial square classes gives KO_1 of order 2, not the
        # order 4 that ko1_euclidean finds for F_3
        table = karoubi_table(FiniteField(3))
        table.k1 = FGAbelian(1, [[1]])
        report = karoubi_check(table)
        assert not report.ok
        assert report.violated == "KO1 mismatch with ko1_euclidean"


class TestFiniteFieldArithmetic:
    def test_f9_field_axioms_sample(self):
        f9 = FiniteField(9)
        els = oracles.all_elements(f9)
        assert len(els) == 9
        one = f9.one()
        for a in els:
            if a:
                assert a * f9.inv(a) == one
        squares = {a * a for a in els if a}
        assert len(squares) == 4  # (q-1)/2 distinct nonzero squares

    def test_char2_rejected(self):
        with pytest.raises(FormsError):
            FiniteField(4)

    def test_not_prime_power(self):
        with pytest.raises(FormsError):
            FiniteField(15)

    def test_order_over_the_bound_is_refused(self):
        with pytest.raises(FormsError):
            FiniteField(FIELD_ORDER_BOUND + 7)

    @pytest.mark.parametrize("p", [p for p in range(3, 60)
                                   if all(p % d for d in range(2, p))])
    def test_quadratic_modulus_is_the_first_without_roots(self, p):
        # the discriminant test picks the same modulus as scanning the
        # monic quadratics x^2 + bx + c in the order c + b*p for one with
        # no root in GF(p)
        want = next([c, b, 1] for b in range(p) for c in range(p)
                    if all((x * x + b * x + c) % p for x in range(p)))
        assert FiniteField(p * p).modulus == want

    def test_large_quadratic_extension(self):
        p = 31607
        field = FiniteField(p * p)
        c, b, _ = field.modulus
        assert (field.p, field.k) == (p, 2)
        assert all((x * x + b * x + c) % p for x in range(p))
        assert not field.is_square(field.nonsquare())

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
    def test_nonsquare_is_the_first_nonsquare(self, q):
        field = FiniteField(q)
        first = next(a for a in oracles.all_elements(field)
                     if a and not field.is_square(a))
        assert field.nonsquare() == first


PRIME_FIELDS = [FiniteField(p) for p in (3, 5, 7, 13, 31607, 999999937)]


def _residue(p):
    """Strategy for an int or a Fraction with denominator prime to p, with
    its residue mod p."""
    ints = st.integers(-3 * p, 3 * p)
    fractions = st.tuples(ints, st.integers(1, 50).filter(lambda d: d % p))
    return st.one_of(
        ints.map(lambda n: (n, n % p)),
        fractions.map(lambda t: (Fraction(*t),
                                 t[0] * pow(t[1], -1, p) % p)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prime_field_matches_int_arithmetic(data):
    field = data.draw(st.sampled_from(PRIME_FIELDS), label="field")
    p = field.p
    x, rx = data.draw(_residue(p), label="x")
    y, ry = data.draw(_residue(p), label="y")
    a, b = field.coerce(x), field.coerce(y)
    assert a.coeffs == (rx,)
    for got, want in ((a + b, rx + ry), (a - b, rx - ry), (a * b, rx * ry),
                      (-a, -rx), (a + y, rx + ry), (y + a, rx + ry),
                      (a - y, rx - ry), (y - a, ry - rx), (a * y, rx * ry),
                      (y * a, rx * ry)):
        assert got.field is field
        assert got.coeffs == (want % p,)
        assert repr(got) == str(want % p)
        assert hash(got) == hash((id(field), (want % p,)))
        assert bool(got) == (want % p != 0)
        assert got == want % p and got == field.coerce(want)
        assert (got == want % p + 1) is False
    if ry:
        inv = pow(ry, -1, p)
        assert (a / b).coeffs == (rx * inv % p,)
        assert (a / y).coeffs == (rx * inv % p,)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


def _poly_mod_reference(field, a, b, op):
    """Hand-written GF(p^k) arithmetic on coefficient lists: schoolbook
    product, then long division by the field's monic modulus."""
    p, k, mod = field.p, field.k, field.modulus
    if op == "+":
        return [(x + y) % p for x, y in zip(a, b)]
    if op == "-":
        return [(x - y) % p for x, y in zip(a, b)]
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] += a[i] * b[j]
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        for i in range(k + 1):
            prod[d - k + i] -= c * mod[i]
    return [c % p for c in prod[:k]]


@pytest.mark.parametrize("q", [9, 27])
def test_extension_field_matches_reference(q):
    field = FiniteField(q)
    els = oracles.all_elements(field)
    for a in els:
        assert (-a).coeffs == tuple(-c % field.p for c in a.coeffs)
        assert bool(a) == any(a.coeffs)
        assert repr(a) == "FF%d(%s)" % (q, ",".join(map(str, a.coeffs)))
        for b in els:
            for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
                assert list(got.coeffs) == _poly_mod_reference(
                    field, a.coeffs, b.coeffs, op)
            if b:
                assert (a / b) * b == a
    assert len({a * a for a in els if a}) == (q - 1) // 2


def test_fields_do_not_mix():
    a, b = FiniteField(5).one(), FiniteField(7).one()
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(FormsError):
            op()
    assert a != b


@pytest.mark.parametrize("ring", [INTEGERS, ZZ, RATIONALS, RealClosedField(),
                                  GWBASE, FiniteField(9), QX],
                         ids=lambda ring: ring.name)
def test_descriptor_protocol(ring):
    assert ring.coerce(0) == ring.zero()
    assert ring.coerce(1) == ring.one()
    assert ring.coerce(ring.zero()) == ring.zero()


class TestRationalSquareClass:
    def test_twenty_digit_prime_is_its_own_class(self):
        res = diagonalize(BilinearForm([[100000000000000000039, 0], [0, 1]],
                                       "symmetric"))
        assert res.classes == [Fraction(100000000000000000039), Fraction(1)]

    def test_over_the_bound_is_refused(self):
        with pytest.raises(CoeffError):
            RATIONALS.square_class(Fraction(SQUARE_CLASS_BOUND + 1, 1))
        with pytest.raises(CoeffError):
            RATIONALS.square_class(Fraction(-1, SQUARE_CLASS_BOUND))

    def test_matches_sympy_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        values = [Fraction(rng.randrange(1, 10 ** 7) * rng.choice((1, -1)),
                           rng.randrange(1, 10 ** 4)) for _ in range(2000)]
        # prime squares and products of two large primes near the cube root
        primes = [sympy.prime(k) for k in (1000, 5000, 20000, 100000)]
        values += [Fraction(p * p * q) for p in primes for q in primes]
        values += [Fraction(p * q * 12) for p in primes for q in primes]
        for x in values:
            n = x.numerator * x.denominator
            want = -1 if n < 0 else 1
            for p, e in sympy.factorint(abs(n)).items():
                if e % 2:
                    want *= p
            assert RATIONALS.square_class(x) == want, x
