"""The two library workloads: seeded inputs, operations and their checks.

A workload is built as a list of operations.  Each operation is a
zero-argument callable that calls into hgrcalc and returns its output, with
a check that turns that output into None (right) or a one-line reason
(wrong).  Only the calls are timed; the checks run after the timed phase and
use bench/checkers.py, never the program's own verification.
"""

from fractions import Fraction
from math import comb, gcd

import checkers

from hgrcalc import chainduality, forms, grassring, towers
from hgrcalc.coeffs import GWBASE, GWElement


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


# ---------------------------------------------------------------------------
# grass-products
# ---------------------------------------------------------------------------

# Boxes (r, n) of A(HGr(r, n)); a cold product of two mid-basis classes
# costs about a millisecond in (3, 8) and up to about half a second in
# (5, 10) and (4, 11).
GRASS_BOXES = ((3, 8), (4, 9), (4, 10), (5, 10), (4, 11))

# The seed draws every coefficient and every restricted element.  The
# partitions, the exponent vectors and the order of the operations are
# fixed: operation costs spread over three decades, and which operation
# fills the memo tables decides what the others cost, so a seeded sample or
# a seeded order moved the median latency by 10-15% from seed to seed.
#
# Multi-term products: the full homogeneous components of degrees d and
# d + 1, with seeded coefficients.  They carry most of a round's time.
COMPONENT_DEGREES = (3, 5, 7, 9, 11)
# Products s_lam * s_mu of every pair with |lam|, |mu| as given; they hold
# the median latency.
PRODUCT_DEGREES = ((3, 4), (4, 5))
# Products over GWBase: every pair of these degrees, seeded GW scalars.
GW_BOXES = ((3, 8), (4, 9))
GW_DEGREES = (2, 3)
# Every Pontryagin monomial p_1^a1 .. p_r^ar of these weights.
NORMAL_FORM_WEIGHTS = (6, 8)
RESTRICTIONS_PER_KIND = 2


def _coords(x):
    return {lam.parts: c for lam, c in x.coords.items()}


def _gw_coords(x):
    return {lam.parts: dict(c.terms) for lam, c in x.coords.items()}


def _random_partition(rng, rows, cols, weight):
    return rng.choice(checkers.box_partitions(rows, cols, weight))


def _exponent_vectors(r, weight):
    """Every (a_1..a_r) with sum i*a_i = weight."""
    out = []
    for lam in checkers.box_partitions(weight, r, weight):
        exps = [0] * r
        for part in lam:
            exps[part - 1] += 1
        out.append(tuple(exps))
    return out


def _product_op(kind, ring, x, y, want_x, want_y):
    rows, cols = ring.r, ring.n - ring.r

    def check(out):
        want = checkers.expected_product(want_x, want_y, rows, cols)
        return checkers.check_coords(_coords(out), want,
                                     "%s in (%d,%d)" % (kind, ring.r, ring.n))

    return Op(kind, lambda: x * y, check)


def _gw_product_op(ring, lam, mu, g1, g2):
    x = ring.schur(lam).scale(GWElement(g1))
    y = ring.schur(mu).scale(GWElement(g2))
    rows, cols = ring.r, ring.n - ring.r

    def check(out):
        integer = checkers.expected_product({lam: 1}, {mu: 1}, rows, cols)
        return checkers.check_gw_product(_gw_coords(out), integer, g1, g2)

    return Op("gw-product", lambda: x * y, check)


def _normal_form_op(ring, exps):
    poly = ring.poly_ring().monomial(exps)
    rows, cols = ring.r, ring.n - ring.r

    def check(out):
        want = checkers.expected_monomial_normal_form(exps, rows, cols)
        return checkers.check_coords(_coords(out), want,
                                     "normal form of p^%s" % (exps,))

    return Op("normal-form", lambda: ring.normal_form(poly), check)


def _restriction_op(source, target, kind, x):
    rmap = grassring.restriction(source, target, kind)
    src = _coords(x)

    def check(out):
        if out.ring != target:
            return "restriction landed in %r" % (out.ring,)
        return checkers.check_restriction(src, _coords(out), target.r,
                                          target.n - target.r)

    return Op("restriction", lambda: rmap(x), check)


def _random_element(rng, ring, degrees):
    """Sum of Schur classes of the given degrees with small coefficients."""
    rows, cols = ring.r, ring.n - ring.r
    want = {}
    for d in degrees:
        lam = _random_partition(rng, rows, cols, d)
        want[lam] = want.get(lam, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    want = {lam: c for lam, c in want.items() if c}
    x = ring.zero()
    for lam, c in want.items():
        x = x + ring.schur(lam).scale(c)
    return x, want


def _component(rng, ring, degree):
    rows, cols = ring.r, ring.n - ring.r
    want = {lam: rng.choice((-3, -2, -1, 1, 2, 3))
            for lam in checkers.box_partitions(rows, cols, degree)}
    x = ring.zero()
    for lam, c in want.items():
        x = x + ring.schur(lam).scale(c)
    return x, want


def build_grass_products(rng):
    ops = []
    for r, n in GRASS_BOXES:
        ring = grassring.present(r, n)
        rows, cols = r, n - r
        for d in COMPONENT_DEGREES:
            x, wx = _component(rng, ring, d)
            y, wy = _component(rng, ring, d + 1)
            ops.append(_product_op("multi-term-product", ring, x, y, wx, wy))
        for d1, d2 in PRODUCT_DEGREES:
            for lam in checkers.box_partitions(rows, cols, d1):
                for mu in checkers.box_partitions(rows, cols, d2):
                    ops.append(_product_op("product", ring, ring.schur(lam),
                                           ring.schur(mu), {lam: 1}, {mu: 1}))
        for w in NORMAL_FORM_WEIGHTS:
            for exps in _exponent_vectors(r, w):
                ops.append(_normal_form_op(ring, exps))
        # alpha: (r, n+1) -> (r, n); beta: (r+1, n+1) -> (r, n)
        for kind, source in (("alpha", grassring.present(r, n + 1)),
                             ("beta", grassring.present(r + 1, n + 1))):
            for _ in range(RESTRICTIONS_PER_KIND):
                x, _ = _random_element(rng, source, (3, 5, 7, 9))
                ops.append(_restriction_op(source, ring, kind, x))
    for r, n in GW_BOXES:
        ring = grassring.present(r, n, GWBASE)
        for lam in checkers.box_partitions(r, n - r, GW_DEGREES[0]):
            for mu in checkers.box_partitions(r, n - r, GW_DEGREES[1]):
                g1 = {rng.randint(-1, 1): (rng.randint(-3, 3), rng.choice((-1, 1)))}
                g2 = {rng.randint(-1, 1): (rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2))}
                ops.append(_gw_product_op(ring, lam, mu, g1, g2))
    return ops


# ---------------------------------------------------------------------------
# matrix-algebra
# ---------------------------------------------------------------------------

SP_Z_LENGTHS = (4, 6, 8, 10)
SP_QX_LENGTHS = (4, 6, 8)
DIAG_SIZES = (4, 5, 6, 7, 8)
DIAG_PRIMES = (5, 7, 11, 13)
# Smith and Hermite forms of many small matrices hold the median latency.
# smith_normal_form never reduces its entries: with entries in [-20, 20],
# about 1% of random 5x5 matrices run for seconds to minutes.  In [-5, 5]
# none of 120 000 random 4x5, 5x4 and 5x5 matrices took over 20 ms.
SNF_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (5, 4), (5, 5))
SNF_ENTRY_BOUND = 5
KOSZUL_NS = (2, 3, 4, 5, 6, 7)
KOSZUL_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3))
SP_Z_PER_LENGTH = 10
SP_QX_PER_LENGTH = 6
DIAG_PER_SIZE = 3
SNF_PER_SHAPE = 40
KOSZUL_REPEATS = 3


def _unimodular_int_vector(rng, length):
    while True:
        v = [rng.randint(-60, 60) for _ in range(length)]
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 1:
            return v


def _unimodular_qx_vector(rng, length):
    """Little-endian coefficient lists of degree <= 2 with a constant gcd."""
    while True:
        v = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(length)]
        g = []
        for p in v:
            g = checkers.qx_gcd(g, p)
        if len(g) == 1:
            return v


def _sp_op(kind, v, ring, scalar, arith):
    """sp_reduce_unimodular on v; the check converts every ring element with
    `scalar` and re-applies the factors with the benchmark's `arith`."""
    def check(factors):
        conv = [([scalar(x) for x in f.u], scalar(f.lam)) for f in factors]
        return checkers.check_transvections([scalar(x) for x in v], conv, **arith)

    return Op(kind, lambda: forms.sp_reduce_unimodular(v, ring), check)


def _int(x):
    return x


def _qx_list(p):
    """A polynomial of Q[x] as its little-endian list of coefficients."""
    out = [Fraction(0)] * (max((e for (e,) in p.terms), default=-1) + 1)
    for (e,), c in p.terms.items():
        out[e] = Fraction(c)
    return out


def _nondegenerate_symmetric(rng, n, modulus=None):
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        d = checkers.det(g)
        if d and (modulus is None or d.numerator % modulus):
            return g


def _diag_q_op(g):
    form = forms.BilinearForm(g, "symmetric")

    def check(res):
        return checkers.check_diagonalization_q(g, res.matrix, res.entries,
                                                res.classes)

    return Op("diagonalize-q", lambda: forms.diagonalize(form), check)


def _ff_int(x):
    return x.coeffs[0]


def _diag_fq_op(g, q):
    form = forms.BilinearForm(g, "symmetric", forms.FiniteField(q))

    def check(res):
        p = [[_ff_int(x) for x in row] for row in res.matrix]
        return checkers.check_diagonalization_fp(
            g, p, [_ff_int(x) for x in res.entries],
            [_ff_int(x) for x in res.classes], q)

    return Op("diagonalize-fq", lambda: forms.diagonalize(form), check)


def _random_int_matrix(rng, rows, cols, bound=SNF_ENTRY_BOUND):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _random_unimodular(rng, n, steps=12):
    """Product of random elementary column operations and swaps."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for row in w:
            row[i] += c * row[j]
        if rng.random() < 0.3:
            for row in w:
                row[i], row[j] = row[j], row[i]
    return w


def _smith_op(a):
    def check(res):
        u, d, v = res
        return checkers.check_smith(a, u, d, v)

    return Op("smith", lambda: towers.smith_normal_form(a), check)


def _hermite_op(a, w):
    aw = checkers.mat_mul(a, w)

    def check(h):
        # a right unimodular factor keeps the column span, hence the form
        h2 = towers.hermite_column_form(aw)
        if h != h2:
            return "Hermite form changes under A -> A*W: %s vs %s" % (h, h2)
        return None

    return Op("hermite", lambda: towers.hermite_column_form(a), check)


def _sparse_matrix(m):
    return [[dict(x.terms) for x in row] for row in m]


def _complex_check(cx, n):
    diffs = {k: _sparse_matrix(m) for k, m in cx.diffs.items()}
    return checkers.check_complex(cx.ranks, diffs,
                                  {k: comb(n, k) for k in range(n + 1)})


def _koszul_op(n):
    return Op("koszul", lambda: chainduality.koszul(n),
              lambda ksym: _complex_check(ksym.complex, n))


def _koszul_tensor_op(a, b):
    def check(res):
        tensor, merged, _ = res
        return (_complex_check(tensor.complex, a + b)
                or _complex_check(merged.complex, a + b))

    return Op("koszul-tensor",
              lambda: chainduality.koszul_tensor_isometry(a, b), check)


def build_matrix_algebra(rng):
    ops = []
    for length in SP_Z_LENGTHS:
        for _ in range(SP_Z_PER_LENGTH):
            ops.append(_sp_op("sp-reduce-z", _unimodular_int_vector(rng, length),
                              forms.ZZ, _int, checkers.INT_OPS))
    for length in SP_QX_LENGTHS:
        for _ in range(SP_QX_PER_LENGTH):
            v = [forms.QX.from_coeffs(p) for p in _unimodular_qx_vector(rng, length)]
            ops.append(_sp_op("sp-reduce-qx", v, forms.QX, _qx_list, checkers.QX_OPS))
    for n in DIAG_SIZES:
        for _ in range(DIAG_PER_SIZE):
            ops.append(_diag_q_op(_nondegenerate_symmetric(rng, n)))
            q = rng.choice(DIAG_PRIMES)
            ops.append(_diag_fq_op(_nondegenerate_symmetric(rng, n, q), q))
    for rows, cols in SNF_SHAPES:
        for _ in range(SNF_PER_SHAPE):
            ops.append(_smith_op(_random_int_matrix(rng, rows, cols)))
            ops.append(_hermite_op(_random_int_matrix(rng, rows, cols),
                                   _random_unimodular(rng, cols)))
    for _ in range(KOSZUL_REPEATS):
        ops += [_koszul_op(n) for n in KOSZUL_NS]
        ops += [_koszul_tensor_op(a, b) for a, b in KOSZUL_PAIRS]
    rng.shuffle(ops)
    return ops


BUILDERS = {"grass-products": build_grass_products,
            "matrix-algebra": build_matrix_algebra}
