"""Independent checkers for the benchmark's outputs.

Nothing here imports hgrcalc: every routine recomputes a value from
first principles (tableau counts, determinants, explicit matrix products)
so that a fault in the program cannot also hide in its own check.  Each
checker returns None when the output is right and a one-line reason when
it is not.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt
from itertools import combinations


# ---------------------------------------------------------------------------
# Partitions and tableau counts.
# ---------------------------------------------------------------------------


def box_partitions(rows, cols, weight):
    """Partitions of `weight` with at most `rows` parts, each at most `cols`."""
    out = []

    def rec(remaining, bound, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if len(acc) == rows:
            return
        for p in range(min(bound, remaining), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(weight, cols, [])
    return out


def conjugate(lam):
    lam = tuple(lam)
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


@lru_cache(maxsize=None)
def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson coefficient c^nu_{lam,mu}, counted as the number
    of LR tableaux of skew shape nu/lam and content mu.

    Cells are filled in the reverse reading order (rows top to bottom, each
    row right to left); rows weakly increase, columns strictly increase and
    the reading word must stay a lattice word.
    """
    if sum(lam) + sum(mu) != sum(nu) or len(lam) > len(nu):
        return 0
    lam = tuple(lam) + (0,) * (len(nu) - len(lam))
    if any(a > b for a, b in zip(lam, nu)):
        return 0
    cells = [(i, j) for i in range(len(nu)) for j in range(nu[i] - 1, lam[i] - 1, -1)]
    filling = {}
    count = [0] * (len(mu) + 1)

    def rec(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        hi = filling.get((i, j + 1), len(mu))
        lo = filling.get((i - 1, j), 0) + 1
        total = 0
        for v in range(lo, hi + 1):
            if count[v] >= mu[v - 1]:
                continue
            if v > 1 and count[v] >= count[v - 1]:
                continue
            count[v] += 1
            filling[(i, j)] = v
            total += rec(k + 1)
            count[v] -= 1
            del filling[(i, j)]
        return total

    return rec(0)


@lru_cache(maxsize=None)
def kostka(shape, content):
    """Number of semistandard tableaux of `shape` with the given content,
    counted by peeling off a horizontal strip for the largest entry."""
    shape = tuple(p for p in shape if p)
    content = tuple(c for c in content if c)
    if not content:
        return 1 if not shape else 0
    if sum(shape) != sum(content):
        return 0
    k, rest = content[-1], content[:-1]
    total = 0
    n = len(shape)

    def rec(i, removed, acc):
        nonlocal total
        if i == n:
            if removed == k:
                total += kostka(tuple(acc), rest)
            return
        below = shape[i + 1] if i + 1 < n else 0
        for part in range(max(below, shape[i] - (k - removed)), shape[i] + 1):
            acc.append(part)
            rec(i + 1, removed + shape[i] - part, acc)
            acc.pop()

    rec(0, 0, [])
    return total


def hook_length_count(shape):
    """Standard Young tableaux of `shape` by the hook-length formula."""
    shape = tuple(shape)
    conj = conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks


# ---------------------------------------------------------------------------
# Grassmannian products, normal forms and restrictions.
# ---------------------------------------------------------------------------


def expected_product(x, y, rows, cols):
    """Schur expansion of x*y in the rows x cols box, from LR coefficients.

    x and y map partition tuples to integer coefficients.
    """
    out = {}
    for lam, a in x.items():
        for mu, b in y.items():
            for nu in box_partitions(rows, cols, sum(lam) + sum(mu)):
                c = lr_coefficient(lam, mu, nu)
                if c:
                    out[nu] = out.get(nu, 0) + a * b * c
    return {nu: c for nu, c in out.items() if c}


def check_coords(got, want, what):
    """Compare two partition -> coefficient maps; report the first mismatch."""
    for nu in sorted(set(got) | set(want)):
        if got.get(nu, 0) != want.get(nu, 0):
            return "%s: coefficient of s%s is %s, expected %s" % (
                what, nu, got.get(nu, 0), want.get(nu, 0))
    return None


def expected_monomial_normal_form(exps, rows, cols):
    """Schur expansion of e_1^a_1 .. e_r^a_r in the box: the coefficient of
    s_lam is the Kostka number K_{lam', a}; for p_1^k it is the number of
    standard tableaux, given by the hook-length formula."""
    content = tuple(sorted((i + 1 for i, a in enumerate(exps) for _ in range(a)),
                           reverse=True))
    weight = sum(content)
    pure_p1 = all(a == 0 for a in exps[1:])
    out = {}
    for lam in box_partitions(rows, cols, weight):
        lamc = conjugate(lam)
        c = hook_length_count(lam) if pure_p1 else kostka(lamc, content)
        if c:
            out[lam] = c
    return out


def check_restriction(source, got, rows, cols):
    """A restriction keeps exactly the coordinates inside the target box."""
    want = {lam: c for lam, c in source.items()
            if len(lam) <= rows and (not lam or lam[0] <= cols)}
    return check_coords(got, want, "restriction")


# GW scalars: dict b8-power -> (a, b) meaning a + b*eps, eps^2 = 1.

def gw_mul(x, y):
    out = {}
    for k1, (a1, b1) in x.items():
        for k2, (a2, b2) in y.items():
            a0, b0 = out.get(k1 + k2, (0, 0))
            out[k1 + k2] = (a0 + a1 * a2 + b1 * b2, b0 + a1 * b2 + b1 * a2)
    return {k: v for k, v in out.items() if v != (0, 0)}


def gw_scale(n, x):
    return {k: (n * a, n * b) for k, (a, b) in x.items() if n and (a or b)}


def check_gw_product(got, integer_product, g1, g2):
    """Each GW coefficient equals the integer coefficient times g1*g2."""
    g = gw_mul(g1, g2)
    want = {nu: gw_scale(c, g) for nu, c in integer_product.items()}
    want = {nu: v for nu, v in want.items() if v}
    for nu in sorted(set(got) | set(want)):
        if got.get(nu, {}) != want.get(nu, {}):
            return "GW product: coefficient of s%s is %s, expected %s" % (
                nu, got.get(nu), want.get(nu))
    return None


# ---------------------------------------------------------------------------
# Polynomials: dense little-endian lists of Fractions for Q[x], sparse
# exponent dicts for Q[x_1..x_n].
# ---------------------------------------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def qx_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def qx_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def qx_gcd(a, b):
    """Monic gcd in Q[x] by the Euclidean algorithm."""
    a, b = _trim([Fraction(x) for x in a]), _trim([Fraction(x) for x in b])
    while b:
        r = list(a)
        while len(r) >= len(b) and r:
            c = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, y in enumerate(b):
                r[i + shift] -= c * y
            _trim(r)
        a, b = b, r
    return [x / a[-1] for x in a] if a else a


def sparse_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def sparse_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# Symplectic transvections.
# ---------------------------------------------------------------------------


def omega(x, y, add, mul, neg):
    """Standard symplectic pairing of coordinates (1,2), (3,4), ..."""
    acc = None
    for i in range(0, len(x), 2):
        t = add(mul(x[i], y[i + 1]), neg(mul(x[i + 1], y[i])))
        acc = t if acc is None else add(acc, t)
    return acc


def check_transvections(v, factors, add, mul, neg, zero, one):
    """Re-apply each factor (u, lam) as x -> x + lam*omega(x,u)*u, in order;
    the image of v must be e_1."""
    x = list(v)
    for u, lam in factors:
        s = mul(lam, omega(x, u, add, mul, neg))
        x = [add(a, mul(s, b)) for a, b in zip(x, u)]
    e1 = [one] + [zero] * (len(v) - 1)
    if x != e1:
        return "transvections send v to %s, not e_1" % (x,)
    return None


INT_OPS = dict(add=lambda a, b: a + b, mul=lambda a, b: a * b,
               neg=lambda a: -a, zero=0, one=1)
QX_OPS = dict(add=qx_add, mul=qx_mul, neg=lambda a: [-c for c in a],
              zero=[], one=[Fraction(1)])


# ---------------------------------------------------------------------------
# Integer and rational matrices.
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(a):
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return out


def determinantal_divisors(a):
    """D_k = gcd of all k x k minors, for k = 1 .. min(rows, cols).

    Every k-minor is expanded along its first row into (k-1)-minors, which
    are kept, so each minor is computed once.
    """
    rows, cols = len(a), len(a[0])
    minors = {((i,), (j,)): a[i][j] for i in range(rows) for j in range(cols)}
    out = []
    for k in range(1, min(rows, cols) + 1):
        if k > 1:
            nxt = {}
            for rs in combinations(range(rows), k):
                for cs in combinations(range(cols), k):
                    acc = 0
                    for t, c in enumerate(cs):
                        if a[rs[0]][c]:
                            sub = minors[(rs[1:], cs[:t] + cs[t + 1:])]
                            acc += (-1) ** t * a[rs[0]][c] * sub
                    nxt[(rs, cs)] = acc
            minors = nxt
        g = 0
        for m in minors.values():
            g = gcd(g, m)
        out.append(g)
    return out


def check_smith(a, u, d, v):
    """U*A*V = D, D diagonal with a divisibility chain equal to the ratios
    of the determinantal divisors, U and V unimodular."""
    if mat_mul(mat_mul(u, a), v) != d:
        return "Smith form: U*A*V != D"
    rows, cols = len(d), len(d[0])
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        return "Smith form: D is not diagonal"
    if any(x < 0 for x in diag):
        return "Smith form: negative diagonal entry"
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x and y % x):
            return "Smith form: %d does not divide %d" % (x, y)
    prev = 1
    for k, dk in enumerate(determinantal_divisors(a)):
        want = dk // prev if prev else 0
        if diag[k] != want:
            return "Smith form: d_%d = %d, determinantal divisors give %d" % (
                k + 1, diag[k], want)
        prev = dk
    for name, m in (("U", u), ("V", v)):
        if abs(det(m)) != 1:
            return "Smith form: %s is not unimodular" % name
    return None


def fraction_congruence(p, g):
    """P^T G P over Fraction."""
    p = [[Fraction(x) for x in row] for row in p]
    g = [[Fraction(x) for x in row] for row in g]
    return mat_mul(mat_mul(transpose(p), g), p)


def _is_rational_square(x):
    x = Fraction(x)
    return x > 0 and isqrt(x.numerator) ** 2 == x.numerator and \
        isqrt(x.denominator) ** 2 == x.denominator


def check_diagonalization_q(g, p, entries, classes):
    """P^T G P = diag(entries), and entry / class is a rational square."""
    n = len(g)
    if abs(det(p)) == 0:
        return "diagonalization: P is singular"
    c = fraction_congruence(p, g)
    for i in range(n):
        for j in range(n):
            want = Fraction(entries[i]) if i == j else 0
            if c[i][j] != want:
                return "diagonalization: (P^T G P)[%d][%d] = %s, expected %s" % (
                    i, j, c[i][j], want)
    for e, cl in zip(entries, classes):
        if not _is_rational_square(Fraction(e) / Fraction(cl)):
            return "square class: %s / %s is not a square" % (e, cl)
    return None


def check_diagonalization_fp(g, p, entries, classes, q):
    """As above over the prime field F_q, with Euler's criterion for squares."""
    n = len(g)
    if det(p) % q == 0:
        return "diagonalization: P is singular mod %d" % q
    c = mat_mul(mat_mul(transpose(p), g), p)
    for i in range(n):
        for j in range(n):
            want = entries[i] if i == j else 0
            if (c[i][j] - want) % q:
                return "diagonalization: (P^T G P)[%d][%d] != %d mod %d" % (
                    i, j, want, q)
    for e, cl in zip(entries, classes):
        if e % q == 0 or cl % q == 0:
            return "square class: zero entry mod %d" % q
        ratio = e * pow(cl, q - 2, q) % q
        if pow(ratio, (q - 1) // 2, q) != 1:
            return "square class: %d / %d is not a square mod %d" % (e, cl, q)
    return None


# ---------------------------------------------------------------------------
# Koszul complexes.
# ---------------------------------------------------------------------------


def check_complex(ranks, diffs, want_ranks):
    """Ranks as expected and d_{k-1} d_k = 0, with entries as sparse dicts.

    diffs maps k to the matrix of d_k : X_k -> X_{k-1}.
    """
    got = {k: r for k, r in ranks.items() if r}
    want = {k: r for k, r in want_ranks.items() if r}
    if got != want:
        return "complex ranks %s, expected %s" % (got, want)
    for k in diffs:
        if k - 1 not in diffs:
            continue
        a, b = diffs[k - 1], diffs[k]
        for i in range(len(a)):
            for j in range(len(b[0])):
                acc = {}
                for t in range(len(b)):
                    acc = sparse_add(acc, sparse_mul(a[i][t], b[t][j]))
                if acc:
                    return "d_%d d_%d != 0 at entry (%d, %d)" % (k - 1, k, i, j)
    return None
