import json
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from hgrcalc import symfun
from hgrcalc.coeffs import GWElement
from hgrcalc.polynomial import bareiss_det
from hgrcalc.symfun import (Partition, EMPTY, enumerate_box_partitions,
                            complete_from_elementary, schur_in_elementary,
                            elementary_ring, lr_multiply, poly_to_schur_coords)

import oracles


def nf(parts):
    return Partition(parts)


class TestPartition:
    def test_invariants(self):
        lam = Partition((3, 2, 2))
        assert lam.weight() == 7
        assert lam.length() == 3
        assert oracles.conjugate(lam).parts == (3, 3, 1)
        assert oracles.conjugate(oracles.conjugate(lam)) == lam

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("parts", [(1.9,), (True,), ("3",), (2.0, 1),
                                       (2, False)])
    def test_rejects_parts_that_are_not_ints(self, parts):
        # int() truncated these: (1.9,) was read as (1,)
        with pytest.raises(ValueError, match="must be positive integers"):
            Partition(parts)

    def test_empty_prints_as_emptyset(self):
        assert repr(EMPTY) == "∅"

    def test_json_roundtrip(self):
        lam = Partition((3, 1))
        assert json.loads(json.dumps(lam.to_json())) == [3, 1]


class TestBoxEnumeration:
    def test_one_one(self):
        got = enumerate_box_partitions(1, 1)
        assert set(got) == {EMPTY, nf((1,))}
        assert len(got) == 2

    def test_two_three(self):
        got = enumerate_box_partitions(2, 3)
        expect = {EMPTY, nf((1,)), nf((2,)), nf((3,)), nf((1, 1)), nf((2, 1)),
                  nf((3, 1)), nf((2, 2)), nf((3, 2)), nf((3, 3))}
        assert set(got) == expect
        assert len(got) == comb(5, 2)

    def test_zero_rows(self):
        assert enumerate_box_partitions(0, 5) == [EMPTY]

    @pytest.mark.parametrize("r", range(7))
    @pytest.mark.parametrize("cols", range(7))
    def test_count_and_membership(self, r, cols):
        got = enumerate_box_partitions(r, cols)
        assert len(got) == comb(r + cols, r)
        assert len(set(got)) == len(got)
        assert {lam.parts for lam in got} == \
            oracles.brute_force_partitions_in_box(r, cols)


class TestCompleteFromElementary:
    def test_h1_is_e1(self):
        for r in (1, 2, 4):
            assert complete_from_elementary(1, r) == elementary_ring(r).gen(0)

    def test_h2_two_generators(self):
        ring = elementary_ring(2)
        e1, e2 = ring.gen(0), ring.gen(1)
        assert complete_from_elementary(2, 2) == e1 * e1 - e2

    def test_h3_single_generator(self):
        ring = elementary_ring(1)
        e1 = ring.gen(0)
        assert complete_from_elementary(3, 1) == e1 ** 3

    def test_h0_and_negative(self):
        assert complete_from_elementary(0, 3) == elementary_ring(3).one()
        assert complete_from_elementary(-1, 3).is_zero()

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_recurrence_closes(self, r):
        # h_k + sum_{i>=1} (-1)^i e_i h_{k-i} must vanish identically
        for k in range(1, 13):
            acc = complete_from_elementary(k, r)
            for i in range(1, min(k, r) + 1):
                sign = -1 if i % 2 else 1
                acc = acc + sign * (symfun.elementary(i, r)
                                    * complete_from_elementary(k - i, r))
            assert acc.is_zero(), (k, r)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_monomial_sum_oracle(self, r):
        # substituting e_i(x_1..x_r) must reproduce the full monomial sum
        for k in range(0, 7):
            via_recurrence = oracles.eval_in_elementaries(
                complete_from_elementary(k, r), r)
            assert via_recurrence == oracles.complete_in_vars(k, r), (k, r)


class TestSchur:
    def test_single_box(self):
        assert schur_in_elementary(nf((1,)), 2) == elementary_ring(2).gen(0)

    def test_single_column(self):
        assert schur_in_elementary(nf((1, 1)), 2) == elementary_ring(2).gen(1)

    def test_row_two(self):
        ring = elementary_ring(2)
        e1, e2 = ring.gen(0), ring.gen(1)
        assert schur_in_elementary(nf((2,)), 2) == e1 * e1 - e2

    def test_empty_partition(self):
        assert schur_in_elementary(EMPTY, 3) == elementary_ring(3).one()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_columns_are_elementary(self, k):
        r = 4
        assert schur_in_elementary(nf((1,) * k), r) == elementary_ring(r).gen(k - 1)

    def test_tableau_oracle_weight_le_8(self):
        # every shape of weight <= 8, expanded in 1 to 4 variables
        shapes = [lam for w in range(9)
                  for lam in _all_partitions_of(w)]
        for lam in shapes:
            for m in (1, 2, 3, 4):
                got = oracles.eval_in_elementaries(
                    schur_in_elementary(lam, m), m)
                want = oracles.ssyt_count_monomials(lam.parts, m)
                assert got == want, (lam, m)


def dual_jacobi_trudi(lam, r):
    """s_lambda as det(e_{lambda'_i - i + j}) by the Bareiss determinant."""
    conj = oracles.conjugate(lam)
    m = conj.length()
    ring = elementary_ring(r)
    if m == 0:
        return ring.one()
    matrix = [[symfun.elementary(conj.part(i) - i + j, r) for j in range(1, m + 1)]
              for i in range(1, m + 1)]
    return bareiss_det(matrix, zero=ring.zero(), one=ring.one())


class TestKostkaInversion:
    @pytest.mark.parametrize("r", range(13))
    def test_matches_dual_jacobi_trudi(self, r):
        # past r = 5 the weights stop at 8: those s_lambda with r > |lambda|
        # are computed in |lambda| generators and padded to r
        for w in range(11 if r < 6 else 9):
            for lam in _all_partitions_of(w):
                assert schur_in_elementary(lam, r) == dual_jacobi_trudi(lam, r), \
                    (lam, r)

    def test_weight_one_thousand(self):
        # one e-factor per box would recurse 1000 deep; s_(1000) = e1^1000
        ring = elementary_ring(1)
        assert schur_in_elementary(nf((1000,)), 1) == ring.gen(0, 1000)


@st.composite
def strips(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    parts = sorted(draw(st.lists(st.integers(1, max(cols, 1)), max_size=rows)),
                   reverse=True)
    lam = tuple(p for p in parts if p <= cols)
    return lam, draw(st.integers(0, rows + 1)), rows, cols


class TestPieri:
    # the Pieri rule is the Littlewood-Richardson product by e_k = s_(1^k)
    @settings(max_examples=400, deadline=None)
    @given(strips())
    def test_matches_brute_force_strips(self, case):
        lam, k, rows, cols = case
        got = lr_multiply({Partition(lam): 1}, {Partition((1,) * k): 1},
                          rows, cols)
        assert all(c == 1 for c in got.values())
        assert {mu.parts for mu in got} == \
            oracles.vertical_strips_in_box(lam, k, rows, cols)


def _exponent_vectors(r, weight):
    """Every exponent vector of e_1..e_r with sum of i * a_i at most weight."""
    if r == 0:
        return [()]
    out = []
    for rest in _exponent_vectors(r - 1, weight):
        used = sum(i * a for i, a in enumerate(rest, 1))
        out.extend(rest + (a,) for a in range((weight - used) // r + 1))
    return out


def _strips_expansion(exps, rows, cols):
    """{parts: Kostka number} of the e-monomial in the box, one vertical
    strip per factor e_k by the brute-force oracle."""
    coeffs = {(): 1}
    for k, a in enumerate(exps, 1):
        for _ in range(a):
            nxt = {}
            for lam, c in coeffs.items():
                for mu in oracles.vertical_strips_in_box(lam, k, rows, cols):
                    nxt[mu] = nxt.get(mu, 0) + c
            coeffs = nxt
    return coeffs


class TestMonomialSchur:
    @pytest.mark.parametrize("rows", range(5))
    @pytest.mark.parametrize("cols", range(6))
    def test_matches_iterated_strips(self, rows, cols):
        # every e-monomial of weight <= 8 in every box up to 4 x 5; e_1^1000
        # in one row is TestKostkaInversion.test_weight_one_thousand
        for exps in _exponent_vectors(rows, 8):
            got = {lam.parts: c for lam, c in
                   symfun._monomial_schur(exps, rows, cols).items()}
            assert got == _strips_expansion(exps, rows, cols), exps


@st.composite
def lr_pairs(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 5))
    basis = enumerate_box_partitions(rows, cols)
    return draw(st.sampled_from(basis)), draw(st.sampled_from(basis)), rows, cols


@st.composite
def lr_combinations(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 5))
    basis = enumerate_box_partitions(rows, cols)
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    side = st.dictionaries(st.sampled_from(basis), coeffs, max_size=4)
    return draw(side), draw(side), rows, cols


_LR = {}


def _lr(lam, mu, nu):
    if (lam, mu, nu) not in _LR:
        _LR[lam, mu, nu] = oracles.lr_coefficient(lam.parts, mu.parts,
                                                  nu.parts)
    return _LR[lam, mu, nu]


def _nonzero(coords):
    return {nu: c for nu, c in coords.items() if c}


class TestLittlewoodRichardson:
    @settings(max_examples=300, deadline=None)
    @given(lr_pairs())
    def test_matches_tableau_oracle(self, case):
        lam, mu, rows, cols = case
        want = {}
        for nu in enumerate_box_partitions(rows, cols):
            c = _lr(lam, mu, nu)
            if c:
                want[nu] = c
        assert lr_multiply({lam: 1}, {mu: 1}, rows, cols) == want
        assert lr_multiply({mu: 1}, {lam: 1}, rows, cols) == want

    @settings(max_examples=150, deadline=None)
    @given(lr_combinations())
    def test_combinations_match_tableau_oracle(self, case):
        # one pass over both factors: merged states, strips along a trie
        xs, ys, rows, cols = case
        want = {}
        for nu in enumerate_box_partitions(rows, cols):
            c = sum(a * b * _lr(lam, mu, nu)
                    for lam, a in xs.items() for mu, b in ys.items())
            if c:
                want[nu] = c
        assert _nonzero(lr_multiply(xs, ys, rows, cols)) == want
        assert _nonzero(lr_multiply(ys, xs, rows, cols)) == want

    def test_outside_the_box(self):
        assert lr_multiply({nf((3,)): 1}, {nf((1,)): 1}, 2, 2) == {}
        assert lr_multiply({nf((2, 2)): 1}, {nf((2, 1)): 1}, 2, 3) == {}
        assert lr_multiply({nf((2, 1)): 1}, {EMPTY: 1}, 2, 2) \
            == {nf((2, 1)): 1}
        # a term outside the box drops out of a combination
        assert lr_multiply({nf((3,)): 5, nf((1,)): 2}, {nf((1,)): 1}, 2, 2) \
            == {nf((2,)): 2, nf((1, 1)): 2}
        assert lr_multiply({}, {nf((1,)): 1}, 2, 2) == {}

    def test_trusted_partitions_equal_checked_ones(self):
        lam = Partition._trusted((3, 1))
        assert lam == nf((3, 1)) and hash(lam) == hash(nf((3, 1)))
        assert Partition._trusted(()) == EMPTY


@st.composite
def one_cell_tails(draw):
    """A base combination with a term of full height, and strip partitions
    that share one path ending in one-cell rows: columns (1^k), or hooks
    (h, 1^k) with one first row, so that some end in the middle of the
    path.  The strip factor has fewer rows, so it is the one strung on
    the trie."""
    rows = draw(st.integers(2, 5))
    cols = draw(st.integers(1, 5))
    basis = [lam for lam in enumerate_box_partitions(rows, cols)
             if lam.length() < rows]
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    xs = draw(st.dictionaries(st.sampled_from(basis), coeffs, max_size=3))
    xs[Partition((1,) * rows)] = draw(coeffs)
    heads = [()] + [(h,) for h in range(2, cols + 1) if rows > 2]
    head = draw(st.sampled_from(heads))
    lengths = draw(st.lists(st.integers(1, rows - 1 - len(head)), min_size=1,
                            max_size=rows - 1 - len(head), unique=True))
    ys = {Partition(head + (1,) * k): draw(coeffs) for k in lengths}
    return xs, ys, rows, cols


def _oracle_product(xs, ys, rows, cols, zero=0):
    """{nu: sum x_lam y_mu c^nu_{lam,mu}} by the tableau count, zeros
    dropped."""
    want = {}
    for nu in enumerate_box_partitions(rows, cols):
        c = zero
        for lam, a in xs.items():
            for mu, b in ys.items():
                n = _lr(lam, mu, nu)
                if n:
                    c = c + a * b * n
        if c:
            want[nu] = c
    return want


class TestOneCellTails:
    # everything below a node that is one path of one-cell rows is placed
    # as a vertical strip with forced labels

    @settings(max_examples=300, deadline=None)
    @given(one_cell_tails())
    def test_matches_tableau_oracle(self, case):
        xs, ys, rows, cols = case
        want = _oracle_product(xs, ys, rows, cols)
        assert _nonzero(lr_multiply(xs, ys, rows, cols)) == want
        assert _nonzero(lr_multiply(ys, xs, rows, cols)) == want

    @settings(max_examples=200, deadline=None)
    @given(one_cell_tails())
    def test_columns_match_brute_force_strips(self, case):
        # a column factor alone: e_k = s_(1^k) adds vertical k-strips
        xs, ys, rows, cols = case
        ys = {Partition((1,) * len(mu.parts)): c for mu, c in ys.items()}
        want = {}
        for lam, a in xs.items():
            for mu, b in ys.items():
                for nu in oracles.vertical_strips_in_box(lam.parts, mu.length(),
                                                          rows, cols):
                    want[nu] = want.get(nu, 0) + a * b
        got = {nu.parts: c for nu, c in lr_multiply(xs, ys, rows, cols).items()}
        assert _nonzero(got) == _nonzero(want)

    def test_hooks_end_along_one_path(self):
        # (2,1), (2,1,1) and (2,1,1,1) share the path 2, 1, 1, 1, and two of
        # them end in its middle; the first one-cell row goes strictly below
        # the first row holding label 1
        xs = {nf((2,)): 1, nf((1, 1, 1, 1, 1)): 1}
        ys = {nf((2, 1)): 1, nf((2, 1, 1)): 2, nf((2, 1, 1, 1)): -1}
        assert lr_multiply(xs, ys, 5, 4) == _oracle_product(xs, ys, 5, 4)
        got = lr_multiply({nf((2,)): 1}, {nf((2, 1)): 1}, 3, 4)
        assert got == {nf((4, 1)): 1, nf((3, 2)): 1, nf((3, 1, 1)): 1,
                       nf((2, 2, 1)): 1}


@st.composite
def near_the_top(draw):
    """Homogeneous combinations of weights a and b, the lighter of weight
    m >= 2, in a box of at least two rows and two columns, leaving
    f = rows*cols - a - b cells free: f = m - 1 takes the complements of
    the box, f = m does not."""
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    room = rows * cols
    side = draw(st.sampled_from((-1, 0)))
    # b = room - f - m >= m
    m = draw(st.integers(2, max(2, (room - side) // 3)))
    f = m + side
    a, b = m, room - f - m
    assume(b >= m)
    if draw(st.booleans()):
        a, b = b, a
    gw = draw(st.booleans())
    ints = st.sampled_from((-3, -2, -1, 1, 2, 3))
    coeffs = (st.builds(lambda k, u, v: GWElement({k: (u, v)}),
                        st.integers(-1, 1), ints, st.sampled_from((-1, 1)))
              if gw else ints)

    def component(w):
        basis = [lam for lam in enumerate_box_partitions(rows, cols)
                 if lam.weight() == w]
        return draw(st.dictionaries(st.sampled_from(basis), coeffs,
                                    min_size=1, max_size=5))

    return component(a), component(b), rows, cols, gw


class TestBoxComplement:
    # c^nu_{lam,mu} = c^{lam^}_{mu,nu^}: near the top of the box the product
    # runs through the complements

    @settings(max_examples=300, deadline=None)
    @given(near_the_top())
    def test_matches_tableau_oracle(self, case):
        xs, ys, rows, cols, gw = case
        want = _oracle_product(xs, ys, rows, cols,
                               GWElement() if gw else 0)
        assert _nonzero(lr_multiply(xs, ys, rows, cols)) == want
        assert _nonzero(lr_multiply(ys, xs, rows, cols)) == want

    def test_zeros_where_the_terms_meet(self):
        # (s_2 + s_11)(s_2 - s_11) in the 2 x 2 box leaves no cell free: s_22
        # is reached twice and cancels, and stays as a zero, as a pass
        # through the strips keeps it
        xs = {nf((2,)): 1, nf((1, 1)): 1}
        ys = {nf((2,)): 1, nf((1, 1)): -1}
        assert lr_multiply(xs, ys, 2, 2) == {nf((2, 2)): 0}
        assert lr_multiply(ys, xs, 2, 2) == {nf((2, 2)): 0}


class TestPieriStraightening:
    def test_monomial_expansion_roundtrip(self):
        # expanding an e-monomial over Schur elements and substituting the
        # dual Jacobi-Trudi forms back must reproduce the monomial
        r = 3
        ring = elementary_ring(r)
        samples = [
            ring.gen(0, 2),
            ring.gen(1) * ring.gen(2),
            ring.gen(0) * ring.gen(1) ** 2,
            (ring.gen(0) + ring.gen(2)) ** 2,
        ]
        for poly in samples:
            weight = max(ring.weight_of(e) for e in poly.terms)
            coords = poly_to_schur_coords(poly, r, weight)
            rebuilt = ring.zero()
            for lam, c in coords.items():
                rebuilt = rebuilt + c * schur_in_elementary(lam, r)
            assert rebuilt == poly


def _all_partitions_of(w):
    if w == 0:
        return [EMPTY]
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(Partition(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(w, w, [])
    return out
