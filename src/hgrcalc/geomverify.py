"""Symbolic verification of the explicit matrices, homotopies and sections.

Houses the interpolating path M(t) in Sp_4 and O_4 with its three-factor
elementary factorization, the solver for all bilinear forms a polynomial
matrix preserves identically, the quadratic local-section identity, and
the symplectic-lift identity checker.  Every check here is an exact
polynomial identity; there is no numerical tolerance anywhere.
"""

from fractions import Fraction

from . import HgrcalcError
from .coeffs import primitive_integers
from .polynomial import (Poly, PolyRing, bareiss_det, mat_add, mat_identity,
                         mat_mul, mat_scal, mat_shape, mat_sub, mat_transpose,
                         mat_zero, smith_normal_form)


class GeomError(HgrcalcError):
    pass


T_RING = PolyRing(("t",))


def interpolating_path():
    """The 4x4 path M(t) with M(0) = I and M(1) the sign-permutation matrix.

    Rows and columns follow the source: entries in Q[t].
    """
    t = T_RING.gen(0)
    one = T_RING.one()
    z = T_RING.zero()
    t2 = t * t
    t3 = t2 * t
    return [
        [one - t2, z, -t, z],
        [z, one - t2, z, -(2 * t) + t3],
        [(2 * t) - t3, z, one - t2, z],
        [z, t, z, one - t2],
    ]


def endpoint_matrix():
    """M(1): the displayed permutation-sign matrix."""
    return [[0, 0, -1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, 1, 0, 0]]


def factorization_matrices():
    """The three displayed elementary factors whose product is M(1)."""
    return [
        [[1, 0, 0, 0],
         [0, 1, 0, -1],
         [1, 0, 1, 0],
         [0, 0, 0, 1]],
        [[1, 0, -1, 0],
         [0, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 1, 0, 1]],
        [[1, 0, 0, 0],
         [0, 1, 0, -1],
         [1, 0, 1, 0],
         [0, 0, 0, 1]],
    ]


def _form_residual(m, b):
    """M^T B M - B over Q[t] for a matrix M over Z or Q[t] and a rational
    form B: zero exactly when M preserves B identically."""
    zero = T_RING.zero()
    return mat_sub(mat_mul(mat_mul(mat_transpose(m), b, zero), m, zero), b)


def evaluate_at(m, value):
    """Evaluate a Q[t]-matrix at a rational point."""
    return [[e.evaluate([Fraction(value)]) for e in row] for row in m]


def solve_invariant_forms(m):
    """All B with M(t)^T B M(t) = B identically; symmetric and skew bases.

    The condition is linear in the entries of B: collecting coefficients of
    every power of t gives an exact rational system, solved separately on
    the symmetric and skew subspaces by the Smith form of its integer rows:
    the columns of V past the rank span the kernel.
    """
    n = len(m)

    def unit_form(i, j, sign):
        # 1 at (i, j) and sign at (j, i); on the diagonal just 1
        e = mat_zero(n, n, Fraction(0))
        e[j][i] = Fraction(sign)
        e[i][j] = Fraction(1)
        return e

    sym_basis = [unit_form(i, j, 1) for i in range(n) for j in range(i, n)]
    skew_basis = [unit_form(i, j, -1)
                  for i in range(n) for j in range(i + 1, n)]

    def invariant_space(basis):
        # the kernel of the constraints: one per (entry, power of t) of
        # M^T B M - B, cleared of denominators (scaling keeps the kernel)
        residuals = [_form_residual(m, b) for b in basis]
        keys = set()
        for res in residuals:
            keys.update((i, j, exps) for i in range(n) for j in range(n)
                        for exps in res[i][j].terms)
        # with no constraint at all a zero row keeps the column count
        a = [primitive_integers([res[i][j].terms.get(exps, 0)
                                 for res in residuals])
             for (i, j, exps) in sorted(keys)] or [[0] * len(basis)]
        _, d, v = smith_normal_form(a)
        rank = sum(1 for t in range(min(mat_shape(d))) if d[t][t])
        out = []
        for k in range(rank, len(basis)):
            bm = mat_zero(n, n, Fraction(0))
            for row, b in zip(v, basis):
                bm = mat_add(bm, mat_scal(row[k], b))
            out.append(_integer_scale(bm))
        return out

    return {"symmetric": invariant_space(sym_basis),
            "skew": invariant_space(skew_basis)}


def _integer_scale(bm):
    """Scale a rational matrix to a primitive integer matrix (sign-fixed)."""
    cols = len(bm[0])
    flat = primitive_integers([x for row in bm for x in row])
    # normalize the sign on the first nonzero entry
    if next((x for x in flat if x), 0) < 0:
        flat = [-x for x in flat]
    return [[Fraction(x) for x in flat[i:i + cols]]
            for i in range(0, len(flat), cols)]


class PathReport:
    """Named boolean checks; verify_M_path also reports the invariant forms
    it solved for, as {"symmetric": [...], "skew": [...]}."""

    def __init__(self, checks, invariant_forms=None):
        self.checks = checks
        self.invariant_forms = invariant_forms

    @property
    def ok(self):
        return all(v for v in self.checks.values())

    def __repr__(self):
        return "PathReport(%s)" % self.checks

    def to_json(self):
        return {"ok": self.ok,
                "checks": {k: bool(v) for k, v in self.checks.items()}}


def verify_M_path():
    """M(0) = I, M(1) = M_1, det M(t) = 1, and invariance of the solved forms."""
    m = interpolating_path()
    checks = {}
    checks["M(0) = I"] = evaluate_at(m, 0) == mat_identity(4)
    checks["M(1) = M1"] = evaluate_at(m, 1) == endpoint_matrix()
    det = bareiss_det(m, zero=T_RING.zero(), one=T_RING.one())
    checks["det M(t) = 1"] = det == T_RING.one()
    forms = solve_invariant_forms(m)
    checks["symmetric invariant form exists"] = bool(forms["symmetric"])
    checks["skew invariant form exists"] = bool(forms["skew"])
    for kind in ("symmetric", "skew"):
        for idx, b in enumerate(forms[kind]):
            checks["M(t) preserves %s form %d" % (kind, idx)] = not any(
                map(any, _form_residual(m, b)))
    return PathReport(checks, invariant_forms=forms)


def verify_M1_factorization():
    """Product of the three displayed factors equals M(1); each factor is
    elementary (determinant one) and preserves the solved invariant forms."""
    factors = factorization_matrices()
    checks = {}
    prod = factors[0]
    for f in factors[1:]:
        prod = mat_mul(prod, f)
    checks["factor product = M1"] = prod == endpoint_matrix()
    forms = solve_invariant_forms(interpolating_path())
    for fi, f in enumerate(factors):
        checks["factor %d has det 1" % fi] = bareiss_det(f) == 1
        for kind in ("symmetric", "skew"):
            for bi, b in enumerate(forms[kind]):
                checks["factor %d preserves %s form %d" % (fi, kind, bi)] = \
                    not any(map(any, _form_residual(f, b)))
    return PathReport(checks)


# ---------------------------------------------------------------------------
# Section and lift identities.
# ---------------------------------------------------------------------------


def quadratic_section_identity(r):
    """With s_{2i-1} = x_i and s_{2i} = sum_{j >= i} a_ij x_j, check
    sum_i s_{2i-1} s_{2i} = sum_{i <= j} a_ij x_i x_j identically."""
    if r < 1:
        raise GeomError("need r >= 1")
    names = ["x%d" % i for i in range(1, r + 1)]
    names += ["a%d%d" % (i, j) for i in range(1, r + 1)
              for j in range(i, r + 1)]
    ring = PolyRing(tuple(names))

    def x(i):
        return ring.gen(i - 1)

    def a(i, j):
        pos = r
        for ii in range(1, r + 1):
            for jj in range(ii, r + 1):
                if (ii, jj) == (i, j):
                    return ring.gen(pos)
                pos += 1
        raise GeomError("bad coefficient index")

    lhs = ring.zero()
    for i in range(1, r + 1):
        s_odd = x(i)
        s_even = ring.zero()
        for j in range(i, r + 1):
            s_even = s_even + a(i, j) * x(j)
        lhs = lhs + s_odd * s_even
    rhs = ring.zero()
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            rhs = rhs + a(i, j) * x(i) * x(j)
    return lhs == rhs


def wedge_of_covectors(u, v, size):
    """u ^ v as a skew matrix: (u v^T - v u^T), coordinates on Lambda^2."""
    return [[u[i] * v[j] - v[i] * u[j] for j in range(size)]
            for i in range(size)]


def verify_symplectic_lift(phi, g, u, v, w, modulus_power=None):
    """Check sum (u_{2i-1} + g v_{2i-1}) ^ (u_{2i} + g v_{2i})
    + sum (g w_{2j-1}) ^ (g w_{2j}) = phi in Lambda^2 of the dual.

    All inputs are coordinate vectors of linear forms over one polynomial
    ring; phi is a skew Gram matrix over that ring.  With modulus_power = m
    the identity is checked modulo g^m instead of exactly.
    """
    size = len(phi)
    ring = None
    for vec in list(u) + list(v) + list(w):
        for entry in vec:
            if isinstance(entry, Poly):
                ring = entry.ring
                break
        if ring:
            break
    if ring is None:
        raise GeomError("need at least one polynomial entry")
    if len(u) % 2 or len(v) % 2 or len(w) % 2:
        raise GeomError("u, v, w must pair up")
    if len(u) != len(v):
        raise GeomError("u and v must have the same length")

    def coerce_vec(vec):
        out = []
        for entry in vec:
            out.append(entry if isinstance(entry, Poly)
                       else ring.const(Fraction(entry)))
        if len(out) != size:
            raise GeomError("covector length does not match the form size")
        return out

    gp = g if isinstance(g, Poly) else ring.const(Fraction(g))
    total = mat_zero(size, size, ring.zero())
    for i in range(0, len(u), 2):
        lift1 = [a + gp * b for a, b in zip(coerce_vec(u[i]), coerce_vec(v[i]))]
        lift2 = [a + gp * b for a, b in zip(coerce_vec(u[i + 1]),
                                            coerce_vec(v[i + 1]))]
        total = mat_add(total, wedge_of_covectors(lift1, lift2, size))
    for j in range(0, len(w), 2):
        w1 = [gp * a for a in coerce_vec(w[j])]
        w2 = [gp * a for a in coerce_vec(w[j + 1])]
        total = mat_add(total, wedge_of_covectors(w1, w2, size))
    phi_m = [[x if isinstance(x, Poly) else ring.const(Fraction(x))
              for x in row] for row in phi]
    diff = mat_sub(total, phi_m)
    if modulus_power is None:
        return all(x.is_zero() for row in diff for x in row)
    modulus = gp ** modulus_power
    for row in diff:
        for x in row:
            if x.is_zero():
                continue
            if x.divides_exactly(modulus) is None:
                return False
    return True
