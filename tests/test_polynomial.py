import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from deadline import alarm
from hgrcalc.chainduality import koszul, koszul_tensor_isometry
from hgrcalc.coeffs import GWElement, GW_EPS, GW_H, GW_ONE
from hgrcalc.forms import FiniteField, sp_reduce_unimodular
from hgrcalc.forms import QX as QX_RING
from hgrcalc.polynomial import (Combination, Poly, PolyRing, SparseMatrix,
                                bareiss_det, hermite_column_form,
                                invariant_factors, mat_identity, mat_mul,
                                mat_transpose, smith_normal_form)


R2 = PolyRing(("x", "y"))
W2 = PolyRing(("e1", "e2"), (1, 2))


def x():
    return R2.gen(0)


def y():
    return R2.gen(1)


class TestArithmetic:
    def test_ring_axioms_random(self):
        rng = random.Random(4)

        def rand_poly():
            acc = R2.zero()
            for _ in range(rng.randrange(1, 5)):
                acc = acc + R2.monomial((rng.randrange(0, 3), rng.randrange(0, 3)),
                                        rng.randrange(-4, 5))
            return acc

        for _ in range(40):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a * b == b * a
            assert a - a == R2.zero()

    def test_power(self):
        assert (x() + y()) ** 2 == x() * x() + 2 * x() * y() + y() * y()
        assert (x() + 1) ** 0 == R2.one()
        with pytest.raises(ValueError):
            (x() + 1) ** -1

    def test_scalar_coercion(self):
        assert x() * 0 == R2.zero()
        assert 3 * x() == x() + x() + x()
        assert x() + 0 == x()

    def test_laurent_multiplication(self):
        inv = R2.gen(0, -1)
        assert inv * x() == R2.one()
        assert inv * inv * (x() ** 2) == R2.one()

    def test_weights(self):
        e1, e2 = W2.gen(0), W2.gen(1)
        for p, w in ((e1 * e1, 2), (e2, 2), (e1 * e2, 3)):
            (exps,) = p.terms
            assert W2.weight_of(exps) == w

    def test_evaluate(self):
        p = x() * x() + 2 * y()
        assert p.evaluate([Fraction(3), Fraction(4)]) == 17

    def test_map_to(self):
        other = PolyRing(("a", "b", "c"))
        p = x() * y() + x()
        q = p.map_to(other, {0: 2, 1: 0})  # x -> c, y -> a
        assert q == other.gen(2) * other.gen(0) + other.gen(2)

    def test_gw_coefficient_polys(self):
        p = Poly(R2, {(1, 0): GW_H, (0, 0): GW_EPS})
        q = p * p
        # (h x + eps)^2 = h^2 x^2 + 2 h eps x + 1
        assert q.terms[(2, 0)] == GW_H * GW_H
        assert q.terms[(1, 0)] == GW_H * GW_EPS + GW_H * GW_EPS
        assert q.terms[(0, 0)] == GW_ONE


def term_pair_product(a, b):
    """a * b by the term-pair loop: the terms and their order Poly.__mul__
    must give, constant factors included."""
    res = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(s + t for s, t in zip(e1, e2))
            s = res.get(e, 0) + c1 * c2
            if s:
                res[e] = s
            else:
                res.pop(e, None)
    return list(res.items())


@st.composite
def poly_with_constant(draw):
    """(p, c) in Q[x, y]: p any polynomial, c a constant, zero included."""
    coeff = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3), 3])
    p = Poly(R2, draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=5)))
    return p, Poly(R2, {(0, 0): draw(coeff)})


class TestConstantFactor:
    @settings(max_examples=100, deadline=None)
    @given(poly_with_constant())
    def test_matches_term_pair_loop(self, case):
        p, c = case
        for a, b in ((p, c), (c, p)):
            assert list((a * b).terms.items()) == term_pair_product(a, b)

    def test_gw_coefficients(self):
        # h (1 - eps) = 0 in GW: the zero products drop out as in the loop
        p = Poly(R2, {(1, 0): GW_H, (0, 1): GW_ONE, (0, 0): GW_EPS})
        c = Poly(R2, {(0, 0): GW_ONE - GW_EPS})
        for a, b in ((p, c), (c, p)):
            assert list((a * b).terms.items()) == term_pair_product(a, b)
        assert (1, 0) not in (p * c).terms


class TestDivision:
    def test_exact(self):
        p = (x() + y()) * (x() - y())
        assert p.divides_exactly(x() + y()) == x() - y()

    def test_not_divisible(self):
        assert (x() + 1).divides_exactly(y()) is None
        assert (x() * x() + 1).divides_exactly(x()) is None

    def test_integer_coefficients_stay_integer(self):
        p = 6 * x() * x()
        q = p.divides_exactly(2 * x())
        assert q == 3 * x()
        assert all(isinstance(c, int) for c in q.terms.values())
        assert (3 * x()).divides_exactly(2 * x()) is None  # 3/2 not integral

    def test_laurent_rejected(self):
        with pytest.raises(ValueError):
            R2.gen(0, -1).divides_exactly(x())

    def test_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            x().divides_exactly(R2.zero())


def cofactor_det(m, ring):
    n = len(m)
    if n == 0:
        return ring.one()
    if n == 1:
        return m[0][0]
    acc = ring.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor, ring)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


class TestBareiss:
    def test_against_cofactor_expansion(self):
        rng = random.Random(12)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                m = [[R2.monomial((rng.randrange(0, 2), rng.randrange(0, 2)),
                                  rng.randrange(-3, 4))
                      for _ in range(n)] for _ in range(n)]
                got = bareiss_det(m, zero=R2.zero(), one=R2.one())
                want = cofactor_det(m, R2)
                assert got == want

    def test_row_permutation_signs(self):
        base = [[x(), R2.one()], [R2.zero(), y()]]
        assert bareiss_det(base, zero=R2.zero(), one=R2.one()) == x() * y()
        swapped = [base[1], base[0]]
        assert bareiss_det(swapped, zero=R2.zero(), one=R2.one()) == -(x() * y())

    def test_integer_matrices(self):
        m = [[2, 3, 1], [0, 1, 4], [5, 6, 0]]
        # cofactor: 2*(0-24) - 3*(0-20) + 1*(0-5) = -48 + 60 - 5 = 7
        assert bareiss_det(m) == 7

    def test_singular(self):
        m = [[x(), y()], [x(), y()]]
        assert bareiss_det(m, zero=R2.zero(), one=R2.one()).is_zero()


class TestOrderingAndOutput:
    def test_sorted_terms_graded_lex(self):
        e1, e2 = W2.gen(0), W2.gen(1)
        p = e2 + e1 + e1 * e1
        got = [exps for exps, _ in p.sorted_terms()]
        # weight 1: e1; weight 2: e1^2 before e2 under lex on exponents
        assert got == [(1, 0), (0, 1), (2, 0)]

    def test_pretty(self):
        # ascending graded-lex: weight-1 y precedes weight-2 x^2
        assert (x() * x() - y()).pretty() == "-y + x^2"
        assert (x() + 1).pretty() == "1 + x"

    def test_repr_of_zero(self):
        assert repr(R2.zero()) == "0"


class TestSharedZero:
    """Each ring has one zero object, and no computation edits it."""

    def test_one_zero_per_ring(self):
        r = PolyRing(("a", "b"))
        assert r.zero() is r.zero()
        assert r.zero() is r.monomial((1, 0), 0)
        assert r.zero() == PolyRing(("a", "b")).zero()

    def test_map_to_keeps_the_zero(self):
        target = PolyRing(("u", "v", "w"))
        assert R2.zero().map_to(target, {0: 2, 1: 0}) is target.zero()

    def test_zero_untouched_by_the_matrix_layer(self):
        ksym = koszul(4)
        tensor, merged, _ = koszul_tensor_isometry(1, 2)
        v = [QX_RING.from_coeffs(c) for c in ([1, 1], [0, 2], [3], [1, 0, 1])]
        assert sp_reduce_unimodular(v, QX_RING)
        for r in (ksym.complex.ring, tensor.complex.ring,
                  merged.complex.ring, QX_RING.ring):
            assert r.zero() is r.zero()
            assert r.zero().terms == {}
        # the zero entries of the Koszul differentials are the ring's zero
        d = ksym.complex.diffs[2]
        assert any(x is ksym.complex.ring.zero() for row in d for x in row)


F9 = FiniteField(9)
QX = PolyRing(("x",))
QT = PolyRing(("t",))
LAURENT = PolyRing(("u", "v"))


def laurent_entry(k):
    """sign(k) * (|k| u^-1 + u^(|k|-2) v^-1 / |k|): two terms, negative
    exponents, and make(-k) = -make(k), so sums of products can cancel."""
    n = abs(k)
    p = Poly(LAURENT, {(-1, 0): n, (n - 2, -1): Fraction(1, n)})
    return p if k > 0 else -p


# entry ring -> (its zero, a nonzero element for each nonzero int k)
ENTRY_RINGS = {
    "int": (0, lambda k: k),
    "fraction": (Fraction(0), lambda k: Fraction(k, 3)),
    "poly": (QX.zero(), lambda k: QX.gen(0, abs(k) % 2, Fraction(k, 2))),
    "laurent": (LAURENT.zero(), laurent_entry),
    "int-under-qt": (QT.zero(), lambda k: k),
    "ff9": (F9.zero(), lambda k: oracles.all_elements(F9)[k % 9]),
}


@st.composite
def sparse_products(draw):
    """(a, b, zero) with mostly zero entries, empty shapes included."""
    kind = draw(st.sampled_from(sorted(ENTRY_RINGS)))
    zero, make = ENTRY_RINGS[kind]
    rows, inner, cols = (draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                         draw(st.integers(1, 3)))
    ints = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, 3])

    def matrix(r, c):
        return [[make(k) if k else zero for k in draw(st.lists(
            ints, min_size=c, max_size=c))] for _ in range(r)]

    return matrix(rows, inner), matrix(inner, cols), zero


class TestMatMul:
    @settings(max_examples=300, deadline=None)
    @given(sparse_products())
    def test_matches_naive_oracle(self, case):
        a, b, zero = case
        got = mat_mul(a, b, zero)
        if not a:
            assert got == []
            return
        if not b:  # zero inner dimension: no row of b gives a width
            assert got == [[] for _ in a]
            return
        assert got == oracles._mat_mul(a, b)
        for i, row in enumerate(got):
            for j, entry in enumerate(row):
                if not any(x and b[k][j] for k, x in enumerate(a[i])):
                    assert entry is zero
                if isinstance(zero, Poly):
                    # entries of zero's ring, cancelled ones the zero itself
                    assert isinstance(entry, Poly) and entry.ring == zero.ring
                    assert entry or entry is zero

    def test_cancelled_entries_are_the_zero(self):
        u = LAURENT.gen(0)
        inv = LAURENT.gen(0, -1)
        zero = LAURENT.zero()
        got = mat_mul([[u + inv, u], [inv, zero]],
                      [[u, zero], [-(u + inv), inv]], zero)
        assert got[0][0] is zero
        assert got[0][1] == LAURENT.one()
        assert got[1][0] == LAURENT.one() and got[1][1] is zero
        t = QT.gen(0)
        got = mat_mul([[1, 2], [3, 0]], [[2, 0], [-1, 0]], QT.zero())
        assert got == [[QT.zero(), QT.zero()], [QT.const(6), QT.zero()]]
        assert all(x is QT.zero() for x in got[0] + got[1][1:])
        assert mat_mul([[t, 1]], [[1], [-t]], QT.zero())[0][0] is QT.zero()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_entry_of_another_ring_is_refused(self, side):
        # a nonzero entry of another ring raises; a zero one adds nothing
        zero = QX.zero()
        x = QX.gen(0)
        for other in (QT.gen(0), QT.zero()):
            a, b = [[x, other]], [[x], [x]]
            if side == "right":
                a, b = [[x, x]], [[x], [other]]
            if other:
                with pytest.raises(ValueError):
                    mat_mul(a, b, zero)
            else:
                assert mat_mul(a, b, zero) == [[x * x]]

    def test_shapes_must_compose(self):
        with pytest.raises(ValueError):
            mat_mul([[1, 2]], [[1, 2]])


class TestMatMulCost:
    """Under a Poly zero mat_mul builds one Poly per nonzero entry of the
    result and no product or sum of polynomials."""

    @staticmethod
    def counts(monkeypatch, a, b, zero):
        count = {"mul": 0, "add": 0, "built": 0}

        def counting(name, fn):
            def wrapper(*args):
                count[name] += 1
                return fn(*args)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(Poly, "__mul__", counting("mul", Poly.__mul__))
            m.setattr(Combination, "__add__",
                      counting("add", Combination.__add__))
            m.setattr(Poly, "__radd__", counting("add", Poly.__radd__))
            m.setattr(Combination, "_new", counting("built", Combination._new))
            m.setattr(Combination, "__init__",
                      counting("built", Combination.__init__))
            got = mat_mul(a, b, zero)
        return got, count

    @pytest.mark.parametrize("case", ["d2-d3", "form-diff"])
    def test_koszul_products(self, monkeypatch, case):
        ksym = koszul(5)
        cx = ksym.complex
        zero = cx.ring.zero()
        if case == "d2-d3":
            a, b = cx.diffs[2], cx.diffs[3]
        else:
            a, b = ksym.form(2).dense(zero), cx.diffs[3]
        got, count = self.counts(monkeypatch, a, b, zero)
        assert got == oracles._mat_mul(a, b)
        nonzero = sum(x is not zero for row in got for x in row)
        assert count["mul"] == 0 and count["add"] == 0, count
        assert count["built"] <= nonzero, (count, nonzero)
        assert (nonzero == 0) == (case == "d2-d3")


def term_loop_product(a, b):
    """The SparseMatrix a * b entry by entry and term by term, in the order
    of the row dicts and the term dicts: per row, the (column, terms) pairs
    of the entries that do not cancel, each term with its coefficient's
    type."""
    out = []
    for row in a.rows:
        sums = {}
        for k, x in row.items():
            for j, y in b.rows[k].items():
                d = sums.setdefault(j, {})
                for e2, c2 in y.terms.items():
                    for e1, c1 in x.terms.items():
                        e = tuple(s + t for s, t in zip(e1, e2))
                        d[e] = d[e] + c1 * c2 if e in d else c1 * c2
        out.append([(j, [(e, type(c), c) for e, c in d.items() if c])
                    for j, d in sums.items() if any(d.values())])
    return out


def listed(m):
    return [[(j, [(e, type(c), c) for e, c in x.terms.items()])
             for j, x in row.items()] for row in m.rows]


F5 = FiniteField(5)
QF = PolyRing(("t",))

# ring -> a nonzero entry for each nonzero int k: Laurent polynomials with
# two terms, F_5 constants and F_5 multiples of t, Fraction polynomials
RELABEL_ENTRIES = {
    "laurent": (LAURENT, laurent_entry),
    "f5": (QF, lambda k: Poly(QF, {(k % 2,): F5.coerce(k)})),
    "fraction": (QX, lambda k: QX.gen(0, abs(k) % 3, Fraction(k, 2))),
}


@st.composite
def relabelling_products(draw):
    """(a, b): one factor with at most one constant per row, in distinct
    columns or not, the other any sparse matrix.  The constant is an int 1
    or -1, or at times an F_5 or Fraction 1 or -1, which the general loop
    multiplies."""
    ring, make = RELABEL_ENTRIES[draw(st.sampled_from(sorted(
        RELABEL_ENTRIES)))]
    rows, inner, cols = (draw(st.integers(0, 4)), draw(st.integers(0, 4)),
                         draw(st.integers(0, 4)))
    left = draw(st.booleans())
    # the relabelling is rows x inner on the left, inner x cols on the right
    r, c = (rows, inner) if left else (inner, cols)
    targets = list(range(c))
    distinct = draw(st.booleans()) and r <= c
    if distinct:
        targets = draw(st.permutations(targets)) if c else []
    one = draw(st.sampled_from([1, 1, 1, F5.one() if ring is QF
                                else Fraction(1)]))
    constants = [ring.const(one), ring.const(-one)]
    relabel = []
    for i in range(r):
        if not c or draw(st.integers(0, 4)) == 0:
            relabel.append({})  # an empty row
            continue
        j = targets[i] if distinct else draw(st.integers(0, c - 1))
        relabel.append({j: draw(st.sampled_from(constants))})
    ints = st.sampled_from([0, 0, 1, -1, 2, 3])
    r, c = (inner, cols) if left else (rows, inner)
    other = []
    for _ in range(r):
        row = {}
        for j, k in enumerate(draw(st.lists(ints, min_size=c, max_size=c))):
            if k:
                row[j] = make(k)
        other.append(row)
    a, b = SparseMatrix(inner, relabel), SparseMatrix(cols, other)
    if not left:
        a, b = SparseMatrix(inner, other), SparseMatrix(cols, relabel)
    return a, b


class TestRelabellingProduct:
    @settings(max_examples=300, deadline=None)
    @given(relabelling_products())
    def test_matches_the_term_loop(self, case):
        a, b = case
        before = [[dict(row) for row in m.rows] for m in (a, b)]
        got = a * b
        assert got.shape == (len(a.rows), b.cols)
        assert listed(got) == term_loop_product(a, b)
        # the result's rows are its own: editing them leaves both inputs
        for row in got.rows:
            row.clear()
            row[0] = QX.one()
        assert [[dict(row) for row in m.rows] for m in (a, b)] == before

    def test_column_reached_twice_sums(self):
        # rows 0 and 1 of the right factor both move to column 0, so the
        # entries of a row of the left factor add there
        u, v = LAURENT.gen(0), LAURENT.gen(1, -1)
        one = LAURENT.one()
        a = SparseMatrix(2, [{0: u, 1: v}, {1: -v}])
        b = SparseMatrix(2, [{0: one}, {0: one}])
        got = a * b
        assert got.rows == [{0: u + v}, {0: -v}]
        assert listed(got) == term_loop_product(a, b)
        cancel = SparseMatrix(2, [{0: one}, {0: -one}])
        assert (SparseMatrix(2, [{0: u, 1: u}]) * cancel).rows == [{}]

    def test_entries_are_shared_and_negated_once(self):
        u = LAURENT.gen(0)
        w = laurent_entry(3)
        one = LAURENT.one()
        m = SparseMatrix(2, [{0: u, 1: w}, {1: u}])
        # left: rows 0 and 2 are row 0 of m, negated; row 1 is row 1
        picks = SparseMatrix(2, [{0: -one}, {1: one}, {0: -one}, {}])
        got = picks * m
        assert got.rows[1][1] is u
        assert got.rows[0][0] is got.rows[2][0] and got.rows[0][0] == -u
        assert got.rows[0][1] is got.rows[2][1] and got.rows[0][1] == -w
        assert got.rows[3] == {}
        # right: column 0 of m moves to 1, column 1 to 0, negated
        moves = SparseMatrix(2, [{1: one}, {0: -one}])
        got = m * moves
        assert got.rows == [{1: u, 0: -w}, {0: -u}]
        assert got.rows[0][1] is u


@st.composite
def integer_matrices(draw):
    """Shapes up to 8x8, entries in [-20, 20]."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return [draw(st.lists(st.integers(-20, 20), min_size=cols,
                          max_size=cols)) for _ in range(rows)]


@st.composite
def unimodular_matrices(draw, n):
    """A product of elementary column operations and swaps on I_n."""
    w = mat_identity(n)
    for i, j, c, swap in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3),
            st.booleans()), max_size=12)):
        if i == j:
            continue
        for row in w:
            if swap:
                row[i], row[j] = row[j], row[i]
            else:
                row[i] += c * row[j]
    return w


# ROADMAP item 3: the unbounded Smith loop ran for minutes on this matrix
SIX_BY_SEVEN = [[19, 17, 17, 5, -10, -10, 12], [-6, -20, -8, 14, 15, -6, 5],
                [12, 2, 16, 2, 9, -3, 15], [18, -20, 4, 12, -12, 13, 15],
                [-7, 7, -17, 10, 3, 16, 15], [-8, 12, 6, 11, 2, 6, 2]]


def check_smith(a):
    """U*a*V = D, D diagonal with 0 <= d_i | d_{i+1}, |det U| = |det V| = 1."""
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert all(d[i][j] == 0 for i in range(len(d)) for j in range(len(d[0]))
               if i != j)
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (y == 0) if x == 0 else (y % x == 0)
    assert abs(bareiss_det(u)) == 1 and abs(bareiss_det(v)) == 1
    return diag


class TestSmithNormalForm:
    def test_six_by_seven(self):
        with alarm(1):
            assert check_smith(SIX_BY_SEVEN) == [1, 1, 1, 1, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def test_matches_sympy(self, a):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        sympy = pytest.importorskip("sympy")
        check_smith(a)
        want = normalforms.invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
        assert invariant_factors(a) == [abs(int(x)) for x in want if x]


class TestHermiteColumnForm:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_invariant_under_unimodular_columns(self, data):
        a = data.draw(integer_matrices())
        w = data.draw(unimodular_matrices(len(a[0])))
        h = hermite_column_form(a)
        assert hermite_column_form(mat_mul(a, w)) == h
        # the same lattice: every column of each lies in the span of the other
        assert all(oracles.solve_integer(h, col) is not None
                   for col in mat_transpose(a))
        assert all(oracles.solve_integer(a, col) is not None
                   for col in mat_transpose(h))


def normal_form_cases():
    """400 seeded integer matrices, 1 x 1 to 8 x 8 with entries in
    [-20, 20], sparse and dense, about a third with a zero row and a third
    with a zero column."""
    rng = random.Random(29)
    cases = []
    for _ in range(400):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.25, 0.5, 1.0))
        a = [[rng.randint(-20, 20) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.35:
            a[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.35:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        cases.append(a)
    return cases


def test_normal_forms_are_pinned():
    # every entry of U, D and V and of the Hermite form, by value and in
    # order: the invariant forms of geomverify read V, so any change to
    # the moves shows here
    digest = hashlib.sha256()
    for a in normal_form_cases():
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        digest.update(repr((u, d, v, hermite_column_form(a))).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "4389cf4f5e0983ecc1dcc7bba392e50c"
        "9c0786b77d6d879707ac993ec1d49306")
