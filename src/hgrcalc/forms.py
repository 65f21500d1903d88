"""Bilinear and quadratic form algebra over exact fields and Euclidean domains.

Diagonalization and symplectic bases over the rationals, odd finite fields
and real-closed (signature) descriptors; constructive reduction of
unimodular vectors by elementary symplectic transvections; unit square
classes, the KO_1 formula for Euclidean domains with 1/2, and the Karoubi
fundamental-sequence bookkeeping.
"""

from fractions import Fraction
from math import isqrt

from . import HgrcalcError
from .coeffs import IntegerRing, RationalsField, primitive_integers
from .polynomial import (Poly, PolyRing, dot, invariant_factors,
                         mat_apply, mat_identity, mat_mul, mat_scal,
                         mat_shape, mat_transpose)
from .towers import FGAbelian


class FormsError(HgrcalcError):
    pass


class DegenerateFormError(FormsError):
    def __init__(self, message, radical_dimension):
        super().__init__(message)
        self.radical_dimension = radical_dimension


# ---------------------------------------------------------------------------
# Fields of characteristic != 2 (the rationals are coeffs.RationalsField).
# ---------------------------------------------------------------------------


class RealClosedField(RationalsField):
    """Rational arithmetic with classification by sign (signature data)."""

    name = "RealClosed"

    def square_class(self, x):
        x = Fraction(x)
        if x == 0:
            raise FormsError("zero has no square class")
        return Fraction(1) if x > 0 else Fraction(-1)


class FFElement:
    """Element of GF(p^k) as a polynomial of degree < k over GF(p).

    Over a prime field (k = 1) the arithmetic works on the one coefficient
    with a single `% p` and builds its result with `_reduced`, skipping the
    convolution, the modular reduction and the re-reduction of __init__.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)

    def __bool__(self):
        return self.coeffs != self.field.zero_coeffs

    def __eq__(self, other):
        if type(other) is not FFElement:
            if not isinstance(other, int):
                return NotImplemented
            other = self.field.coerce(other)
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        field = self.field
        if type(other) is not FFElement or other.field is not field:
            other = field.coerce(other)
        if field.k == 1:
            return _reduced(field, ((self.coeffs[0] + other.coeffs[0]) % field.p,))
        return FFElement(field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        field = self.field
        if field.k == 1:
            return _reduced(field, (-self.coeffs[0] % field.p,))
        return FFElement(field, [-a for a in self.coeffs])

    def __sub__(self, other):
        field = self.field
        if type(other) is not FFElement or other.field is not field:
            other = field.coerce(other)
        if field.k == 1:
            return _reduced(field, ((self.coeffs[0] - other.coeffs[0]) % field.p,))
        return self + (-other)

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        field = self.field
        if type(other) is not FFElement or other.field is not field:
            other = field.coerce(other)
        if field.k == 1:
            return _reduced(field, (self.coeffs[0] * other.coeffs[0] % field.p,))
        k, p = field.k, field.p
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] = (prod[i + j] + a * b) % p
        # reduce modulo the irreducible polynomial
        mod = self.field.modulus  # monic, degree k, little-endian
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i in range(k):
                    prod[d - k + i] = (prod[d - k + i] - c * mod[i]) % p
        return FFElement(self.field, prod[:k])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self.field.inv(other)

    def __repr__(self):
        if self.field.k == 1:
            return str(self.coeffs[0])
        return "FF%d(%s)" % (self.field.q, ",".join(map(str, self.coeffs)))


def _reduced(field, coeffs):
    """FFElement from a tuple whose entries are already reduced mod p."""
    el = object.__new__(FFElement)
    el.field = field
    el.coeffs = coeffs
    return el


# Trial division of q takes about sqrt(q) steps; the modulus for k = 2 is
# found by one Euler-criterion power per candidate, and the nonsquare search
# skips GF(p) when k is even.  `gw ko1` on GF(31607^2) and on the prime
# 999999937 each take a few milliseconds (Python 3.11, one Xeon core).
FIELD_ORDER_BOUND = 10 ** 9


class FiniteField:
    """GF(q) for odd prime powers q = p^k up to FIELD_ORDER_BOUND."""

    has_half = True

    def __init__(self, q):
        if q > FIELD_ORDER_BOUND:
            raise FormsError("field order over the bound %d" % FIELD_ORDER_BOUND)
        p, k = _factor_prime_power(q)
        if p == 2:
            raise FormsError("characteristic 2 is excluded")
        self.q = q
        self.p = p
        self.k = k
        self.name = "F%d" % q
        self.zero_coeffs = (0,) * k
        self.modulus = self._find_irreducible() if k > 1 else None

    def _find_irreducible(self):
        # the first monic irreducible of degree k over GF(p), scanning the
        # tails in base-p order; see _poly_irreducible_mod_p for the test
        p, k = self.p, self.k
        for tail_int in range(p ** k):
            cand = _base_digits(tail_int, p, k) + [1]  # monic
            if _poly_irreducible_mod_p(cand, p):
                return cand
        raise FormsError("no irreducible polynomial found (impossible)")

    def zero(self):
        return FFElement(self, [0] * self.k)

    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        if isinstance(x, FFElement):
            if x.field is not self:
                raise FormsError("element of a different field")
            return x
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FormsError("denominator not invertible")
            return self.coerce(x.numerator) / self.coerce(x.denominator)
        return FFElement(self, [int(x)] + [0] * (self.k - 1))

    def _element(self, n):
        """The element whose coefficients are the base-p digits of n."""
        return FFElement(self, _base_digits(n, self.p, self.k))

    def _pow(self, x, e):
        out = self.one()
        while e:
            if e & 1:
                out = out * x
            x = x * x
            e >>= 1
        return out

    def inv(self, x):
        x = self.coerce(x)
        if not x:
            raise ZeroDivisionError("inverting zero in %s" % self.name)
        return self._pow(x, self.q - 2)

    def is_square(self, x):
        x = self.coerce(x)
        if not x:
            raise FormsError("zero has no square class")
        return self._pow(x, (self.q - 1) // 2) == self.one()

    def nonsquare(self):
        # for even k every element of GF(p) is a square in GF(p^k)
        for n in range(self.p if self.k % 2 == 0 else 1, self.q):
            el = self._element(n)
            if not self.is_square(el):
                return el
        raise FormsError("no nonsquare found (impossible for odd q)")

    def square_class(self, x):
        return self.one() if self.is_square(x) else self.nonsquare()

    def unit_square_classes(self):
        return [self.one(), self.nonsquare()]


def _factor_prime_power(q):
    if q < 3:
        raise FormsError("need a prime power >= 3")
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            if q != 1:
                raise FormsError("not a prime power")
            return p, k
    return q, 1


def _poly_irreducible_mod_p(poly, p):
    """Irreducibility of a monic poly over GF(p), p odd, of small degree.

    A quadratic x^2 + bx + c is irreducible exactly when its discriminant
    b^2 - 4c is a nonsquare mod p (Euler's criterion); higher degrees are
    tested by brute-force division by every monic poly of degree <= k/2.
    """
    k = len(poly) - 1
    if k == 1:
        return True
    if k == 2:
        c, b = poly[0], poly[1]
        return pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1
    # check divisibility by every monic polynomial of degree 1..k//2
    for d in range(1, k // 2 + 1):
        for tail_int in range(p ** d):
            if _poly_mod_divides(_base_digits(tail_int, p, d) + [1], poly, p):
                return False
    return True


def _base_digits(n, p, k):
    """The k lowest base-p digits of n, least significant first."""
    digits = []
    for _ in range(k):
        n, digit = divmod(n, p)
        digits.append(digit)
    return digits


def _poly_mod_divides(div, poly, p):
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd and any(rem):
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - dd
            for i in range(dd + 1):
                rem[shift + i] = (rem[shift + i] - lead * div[i]) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return not any(rem)


# ---------------------------------------------------------------------------
# Bilinear forms and their reductions.
# ---------------------------------------------------------------------------


class BilinearForm:
    """Square Gram matrix over a field descriptor, symmetric or skew."""

    def __init__(self, gram, kind, field=None):
        self.field = field or RationalsField()
        self.gram = [[self.field.coerce(x) for x in row] for row in gram]
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise FormsError("Gram matrix must be square")
        self.kind = kind
        transpose = mat_transpose(self.gram)
        if kind == "symmetric":
            ok = self.gram == transpose
        elif kind == "skew":
            ok = self.gram == mat_scal(-1, transpose) and \
                all(not self.gram[i][i] for i in range(n))
        else:
            raise FormsError("kind must be 'symmetric' or 'skew'")
        if not ok:
            raise FormsError("Gram matrix does not match declared kind %s" % kind)
        self.n = n

    def gram_column(self, w):
        """G w: its dot product with any v is value(v, w).  Computing it
        costs O(n^2); the reductions below compute one per vector they
        keep pairing, so each further pairing costs one O(n) dot product."""
        return mat_apply(self.gram, w, self.field.zero())

    def value(self, v, w):
        """v^T G w, as the dot product of v with gram_column(w); O(n^2)."""
        return dot(v, self.gram_column(w), self.field.zero())


class Diagonalization:
    """P with P^T G P = diag(entries), plus canonical square classes."""

    def __init__(self, entries, matrix, classes):
        self.entries = entries
        self.matrix = matrix
        self.classes = classes

    def __repr__(self):
        return "<%s>" % ", ".join(str(c) for c in self.classes)


def diagonalize(form):
    """Congruence-diagonalize a nondegenerate symmetric form over a field.

    Returns exact diagonal entries with the change of basis; a degenerate
    input raises DegenerateFormError carrying the radical dimension.
    Each remaining vector w keeps its Gram column G w, updated along with
    w, so every length and pairing is one O(n) dot product and the whole
    reduction, the pivot search included, takes O(n^3) operations.
    """
    if form.kind != "symmetric":
        raise FormsError("diagonalize expects a symmetric form")
    F = form.field
    n = form.n
    zero = F.zero()
    vecs = mat_identity(n, F.one(), zero)  # basis vectors as rows
    cols = mat_transpose(form.gram)  # G e_i, the columns of G
    out = []
    while vecs:
        # find a vector of nonzero length, mixing if needed
        pivot = next((i for i, (v, g) in enumerate(zip(vecs, cols))
                      if dot(v, g, zero)), None)
        if pivot is None:
            mixed = False
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    if dot(vecs[i], cols[j], zero):
                        # char != 2: v_i + v_j has length 2*g(v_i, v_j)
                        vecs[i] = [a + b for a, b in zip(vecs[i], vecs[j])]
                        cols[i] = [a + b for a, b in zip(cols[i], cols[j])]
                        pivot = i
                        mixed = True
                        break
                if mixed:
                    break
            if pivot is None:
                raise DegenerateFormError(
                    "form is degenerate; radical has dimension %d" % len(vecs),
                    radical_dimension=len(vecs))
        v, gv = vecs.pop(pivot), cols.pop(pivot)
        inv_len = F.inv(dot(v, gv, zero))
        for k, w in enumerate(vecs):
            # g(v, w) = (G v) . w since G is symmetric
            c = dot(gv, w, zero) * inv_len
            if c:
                vecs[k] = [a - c * b if b else a for a, b in zip(w, v)]
                cols[k] = [a - c * b if b else a for a, b in zip(cols[k], gv)]
        out.append(v)
    # normalize over Q-like fields: clear denominators columnwise
    cleaned = [[Fraction(x) for x in primitive_integers(v)]
               if isinstance(v[0], Fraction) else v for v in out]
    p_matrix = mat_transpose(cleaned)  # columns are the new basis vectors
    entries = [form.value(v, v) for v in cleaned]
    classes = [F.square_class(e) for e in entries]
    # exactness guarantee
    check = mat_mul(mat_mul(mat_transpose(p_matrix), form.gram, zero),
                    p_matrix, zero)
    diagonal = [[entries[i] if i == j else zero for j in range(n)]
                for i in range(n)]
    if check != diagonal:
        raise FormsError("internal error: P^T G P mismatch")
    return Diagonalization(entries, p_matrix, classes)


def symplectic_basis(form):
    """Change of basis taking a nondegenerate skew form to the standard
    block-diagonal form with blocks [[0,1],[-1,0]].

    omega(x, u) = x^T G u = -(G x) . u for skew G, so each vector of a pair
    costs one Gram column and each pairing with it one O(n) dot product:
    O(n^3) operations in all.
    """
    if form.kind != "skew":
        raise FormsError("symplectic_basis expects a skew form")
    F = form.field
    n = form.n
    if n % 2:
        raise DegenerateFormError("degenerate skew form (odd rank)",
                                  radical_dimension=1)
    zero = F.zero()
    vecs = mat_identity(n, F.one(), zero)
    pairs = []
    while vecs:
        v = vecs.pop(0)
        row_v = [-x for x in form.gram_column(v)]  # omega(v, u) = row_v . u
        partner = next((i for i, w in enumerate(vecs)
                        if dot(row_v, w, zero)), None)
        if partner is None:
            raise DegenerateFormError("degenerate skew form",
                                      radical_dimension=1 + len(vecs))
        w = vecs.pop(partner)
        scale = F.inv(dot(row_v, w, zero))
        w = [scale * x for x in w]  # omega(v, w) = 1
        row_w = [-x for x in form.gram_column(w)]
        new_vecs = []
        for u in vecs:
            a = dot(row_v, u, zero)
            b = dot(row_w, u, zero)
            # u - a*w + b*v is orthogonal to both v and w
            adj = [x - a * y + b * z for x, y, z in zip(u, w, v)]
            new_vecs.append(adj)
        vecs = new_vecs
        pairs.extend([v, w])
    p_matrix = mat_transpose(pairs)
    # verify P^T G P = standard J
    check = mat_mul(mat_mul(mat_transpose(p_matrix), form.gram, zero),
                    p_matrix, zero)
    if check != standard_symplectic_gram(n, F):
        raise FormsError("internal error: symplectic reduction mismatch")
    return p_matrix


def symplectic_pairing(x, y, zero=0):
    """omega(x, y) = x^T J y for the J of standard_symplectic_gram, in O(n):
    the sum over the pairs (a, b) = (2i, 2i+1) of x_a*y_b - x_b*y_a."""
    acc = zero
    for a in range(0, len(x), 2):
        b = a + 1
        if x[a] and y[b]:
            acc = acc + x[a] * y[b]
        if x[b] and y[a]:
            acc = acc - x[b] * y[a]
    return acc


def standard_symplectic_gram(n, field=None):
    """The block-diagonal J with blocks [[0,1],[-1,0]]; `field` is any
    descriptor with zero() and one()."""
    F = field or RationalsField()
    g = [[F.zero() for _ in range(n)] for _ in range(n)]
    for i in range(0, n, 2):
        g[i][i + 1] = F.one()
        g[i + 1][i] = -F.one()
    return g


# ---------------------------------------------------------------------------
# Euclidean rings and elementary symplectic reduction.
# ---------------------------------------------------------------------------


class IntegersWithTwoInverted:
    """Z[1/2]: unit-group bookkeeping only (generators -1 and 2)."""

    name = "Z[1/2]"
    has_half = True

    def unit_square_classes(self):
        return [1, -1, 2, -2]


class RationalPolynomialRing:
    """Q[x]: full Euclidean element arithmetic, infinite unit square classes."""

    name = "Q[x]"
    has_half = True

    def __init__(self):
        self.ring = PolyRing(("x",))

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def coerce(self, x):
        if isinstance(x, Poly):
            return x
        return self.ring.const(Fraction(x))

    def from_coeffs(self, coeffs):
        """Polynomial from little-endian rational coefficients."""
        return self._poly([Fraction(c) for c in coeffs])

    def _poly(self, coeffs):
        """The polynomial with these little-endian coefficients, as given."""
        terms = {(e,): c for e, c in enumerate(coeffs) if c}
        return Poly(self.ring, terms) if terms else self.ring.zero()

    def _coeffs(self, x):
        """The little-endian coefficient list of x, zeros as int 0."""
        out = [0] * (self.degree(x) + 1)
        for (e,), c in x.terms.items():
            out[e] = c
        return out

    def degree(self, x):
        if x.is_zero():
            return -1
        return max(e[0] for e in x.terms)

    def lead(self, x):
        d = self.degree(x)
        return x.terms[(d,)]

    def quo(self, a, b):
        q, _ = self.divmod(a, b)
        return q

    def divmod(self, a, b):
        """(q, r) with a = q*b + r and deg r < deg b: long division on one
        dense coefficient list, which ends holding r.  The divisor's lead is
        a Fraction, so integer coefficients never divide to a float."""
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r, bs = self._coeffs(a), self._coeffs(b)
        db, lb = len(bs) - 1, Fraction(bs[-1])
        q = [0] * max(len(r) - db, 0)
        for k in range(len(q) - 1, -1, -1):
            c = r[k + db]
            if c:
                q[k] = c = c / lb
                for i, y in enumerate(bs):
                    if y:
                        r[k + i] -= c * y
        return self._poly(q), self._poly(r[:db])

    def gcd_all(self, xs):
        g = self.ring.zero()
        for x in xs:
            g = self._gcd(g, x)
        return g

    def _gcd(self, a, b):
        while not b.is_zero():
            _, r = self.divmod(a, b)
            a, b = b, r
        if a.is_zero():
            return a
        return a * (1 / Fraction(self.lead(a)))  # monic normalization

    def is_unit(self, x):
        return (not x.is_zero()) and self.degree(x) == 0

    def unit_inverse(self, x):
        return self.ring.const(1 / Fraction(x.constant_term()))

    def unit_square_classes(self):
        raise FormsError("Q[x] has infinitely many unit square classes")


ZZ = IntegerRing("Z")
ZHALF = IntegersWithTwoInverted()
QX = RationalPolynomialRing()


class SpReductionError(FormsError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SympFactor:
    """One elementary symplectic transvection T: x -> x + lam*omega(x,u)*u.

    `apply` computes T in O(n) with `symplectic_pairing`.  T preserves the
    form exactly when omega(u,u) = 0: for all x and y,

        omega(Tx, Ty) = omega(x,y) + lam*omega(x,u)*omega(u,y)
                        + lam*omega(y,u)*omega(x,u)
                        + lam^2*omega(x,u)*omega(y,u)*omega(u,u)
                      = omega(x,y) + lam^2*omega(x,u)*omega(y,u)*omega(u,u),

    since omega(u,y) = -omega(y,u).  So E^T J E = J for the matrix E of T
    holds for lam != 0 and u != 0 over a domain if and only if
    omega(u,u) = 0, and that O(n) identity is checked on construction.
    """

    __slots__ = ("ring", "u", "lam")

    def __init__(self, ring, u, lam, n2):
        self.ring = ring
        self.u = list(u)
        self.lam = lam
        if len(self.u) != n2:
            raise FormsError("transvection vector has length %d, not %d"
                             % (len(self.u), n2))
        if symplectic_pairing(self.u, self.u, ring.zero()):
            raise FormsError("internal error: transvection broke the form")

    def apply(self, v):
        c = self.lam * symplectic_pairing(v, self.u, self.ring.zero())
        if not c:
            return list(v)
        return [x + c * a if a else x for x, a in zip(v, self.u)]


def sp_reduce_unimodular(v, ring=ZZ):
    """Factor list of elementary symplectic transvections sending v to e_1.

    The standard symplectic form pairs coordinates (1,2), (3,4), ...; the
    result is self-certifying: each factor is checked on construction to
    preserve J (omega(u,u) = 0, see SympFactor), and the composite is
    applied to v and compared with e_1 before returning.
    """
    v = [ring.coerce(x) for x in v]
    n2 = len(v)
    if n2 % 2 or n2 < 2:
        raise SpReductionError("vector length must be even and positive")
    g = ring.gcd_all(v)
    if not ring.is_unit(g):
        raise SpReductionError("vector is not unimodular; gcd = %s" % (g,),
                               witness=g)
    zero, one = ring.zero(), ring.one()
    factors = []
    state = list(v)

    def tau(u, lam):
        if lam == zero:
            return
        f = SympFactor(ring, u, lam, n2)
        moved = f.apply(state)
        if moved != state:
            factors.append(f)
            state[:] = moved

    def unit_vec(i):
        return [one if k == i else zero for k in range(n2)]

    def pair_euclid(i):
        # reduce pair (a, b) at coordinates (2i, 2i+1) to (g, 0)
        a_i, b_i = 2 * i, 2 * i + 1
        while state[b_i] != zero:
            if state[a_i] != zero:
                q = ring.quo(state[b_i], state[a_i])
                # b += -q*a: u = e_{b}, action adds lam*a to b
                tau(unit_vec(b_i), -q)
            if state[b_i] == zero:
                break
            q = ring.quo(state[a_i], state[b_i])
            # a += -q*b: u = e_{a}, action adds -lam*b to a
            tau(unit_vec(a_i), q)
            if state[a_i] == zero:
                # move the remainder into a: a += b then b -= a
                tau(unit_vec(a_i), -one)  # a += b
                tau(unit_vec(b_i), -one)  # b += -a = 0

    def add_cross_into_first(i, lam):
        # a_0 += lam * a_i, assuming b_0 = b_i = 0; restores b_i = 0
        u = [zero] * n2
        u[0] = one
        u[2 * i + 1] = one
        tau(u, lam)            # a_0 += lam*a_i, b_i += lam*a_i
        tau(unit_vec(2 * i + 1), -lam)  # clear b_i

    def add_first_into_cross(i, lam):
        # a_i += lam * a_0, assuming b_0 = b_i = 0; restores b_0 = 0
        u = [zero] * n2
        u[2 * i] = one
        u[1] = one
        tau(u, lam)            # a_i += lam*a_0, b_0 += lam*a_0
        tau(unit_vec(1), -lam)  # clear b_0

    n = n2 // 2
    for i in range(n):
        pair_euclid(i)
    for i in range(1, n):
        # euclidean algorithm across pairs 0 and i on the a-coordinates
        while state[2 * i] != zero:
            if state[0] != zero:
                q = ring.quo(state[2 * i], state[0])
                add_first_into_cross(i, -q)
            if state[2 * i] == zero:
                break
            q = ring.quo(state[0], state[2 * i])
            add_cross_into_first(i, -q)
            if state[0] == zero:
                add_cross_into_first(i, one)
                add_first_into_cross(i, -one)
    # state = (unit, 0, .., 0): scale pair one by diag(c, c^-1), c = 1/unit,
    # as W(c) W(-1) with W(t) = E12(t) E21(-1/t) E12(t) (Whitehead), applied
    # to the state right to left.  E12(t) (a += t*b) is tau with u = e_a and
    # lam = -t; E21(t) (b += t*a) is tau with u = e_b and lam = t.
    lead = state[0]
    if lead != one:
        c = ring.unit_inverse(lead)
        cinv = ring.unit_inverse(c)
        for i, lam in ((0, one), (1, one), (0, one), (0, -c), (1, -cinv),
                       (0, -c)):
            tau(unit_vec(i), lam)
    e1 = unit_vec(0)
    if state != e1:
        raise FormsError("internal error: reduction did not reach e_1")
    return factors


# ---------------------------------------------------------------------------
# Unit square classes and KO_1 of Euclidean domains.
# ---------------------------------------------------------------------------


class KO1Result:
    """KO_1 = Z/2 x R^x/R^x2: the switch isometry splits off the Z/2.

    `unit_square_classes` lists one representative of each class of
    R^x/R^x2, an elementary abelian 2-group, so its length is a power of
    two whose exponent is the group's rank.
    """

    def __init__(self, ring, unit_square_classes):
        self.ring = ring
        self.unit_square_classes = unit_square_classes
        self.order = 2 * len(unit_square_classes)
        self.rank_two_elementary = len(unit_square_classes).bit_length()

    def structure(self):
        return "(Z/2)^%d" % self.rank_two_elementary

    def generators(self):
        gens = [{"kind": "switch", "matrix": [[0, 1], [1, 0]]}]
        for rep in self.unit_square_classes:
            if rep == 1:
                continue
            gens.append({"kind": "square-class", "b": str(rep),
                         "matrix_shape": "diag(b, b^-1)"})
        return gens

    def __repr__(self):
        return "KO1(%s) = %s (order %d)" % (self.ring.name, self.structure(),
                                            self.order)


def ko1_euclidean(ring):
    """KO_1 of a Euclidean domain containing 1/2."""
    if not ring.has_half:
        raise FormsError("2 not invertible in %s" % ring.name)
    return KO1Result(ring, ring.unit_square_classes())


# ---------------------------------------------------------------------------
# Karoubi fundamental-sequence bookkeeping.
# ---------------------------------------------------------------------------


class KaroubiTable:
    """Supplied groups and maps for one Euclidean-domain instance.

    Groups are FGAbelian presentations; maps are integer matrices on the
    chosen generators.  Every instance has K_0 = Z, the forgetful map
    GW^- -> K_0 with image 2Z (the rank of a symplectic form) and the
    hyperbolic map out of K_0, of which only injectivity is checked; the
    groups GW^+ and GW^- are not held.  Only K_1 and W^0 depend on the ring.
    `witt` maps the cohomological index mod 4 to the group.
    """

    def __init__(self, ring, k1, witt0):
        self.ring = ring
        self.k0 = FGAbelian.free(1)
        self.k1 = k1
        self.map_gwminus_to_k0 = [[2]]
        self.map_hyperbolic = [[1], [1]]
        self.witt = {0: witt0, 1: FGAbelian(0), 2: FGAbelian(0),
                     3: FGAbelian(0)}


def karoubi_table(ring):
    """The instance of Z[1/2] or of GF(q), q odd.

    K_1 is the unit group: Z/2 x Z generated by -1 and 2 for Z[1/2], cyclic
    of order q - 1 for GF(q).  W(Z[1/2]) is Z + Z/2.  W(F_q) is Z/2 + Z/2
    when -1 is a square, that is when q = 1 mod 4, and Z/4 otherwise: then
    <1, 1> is not the hyperbolic plane, so <1> has order 4 (Lam,
    Introduction to Quadratic Forms over Fields, II.3.5).
    """
    if ring is ZHALF:
        k1 = FGAbelian(2, [[2, 0]])
        witt0 = FGAbelian.direct_sum(FGAbelian.free(1), FGAbelian.cyclic(2))
    elif isinstance(ring, FiniteField):
        k1 = FGAbelian.cyclic(ring.q - 1)
        if ring.q % 4 == 1:
            witt0 = FGAbelian.direct_sum(FGAbelian.cyclic(2),
                                         FGAbelian.cyclic(2))
        else:
            witt0 = FGAbelian.cyclic(4)
    else:
        raise FormsError("karoubi tables exist for Z[1/2] and F<q>")
    return KaroubiTable(ring, k1, witt0)


class KaroubiReport:
    def __init__(self, ok, violated, derived):
        self.ok = ok
        self.violated = violated
        self.derived = derived

    def __repr__(self):
        if self.ok:
            return "KaroubiReport(pass, %s)" % (self.derived,)
        return "KaroubiReport(FAIL: %s)" % self.violated

    def to_json(self):
        return {"ok": self.ok, "violated": self.violated,
                "derived": {k: str(v) for k, v in self.derived.items()}}


def karoubi_check(table):
    """Check the fundamental-sequence constraints and assemble KO_1.

    Verifies the Witt vanishing W^i = 0 for i = 2, 3 mod 4, the forgetful
    GW^- -> K_0 being the index-two inclusion, injectivity of the
    hyperbolic map, and derives the short exact sequence giving KO_1, whose
    order must match ko1_euclidean of the table's ring.  The unit square
    classes are K_1 modulo the composite K_1 -> K_1, x -> x - t(xbar)^-1,
    which for the trivial involution every instance carries is x -> x^2:
    doubling, mat_identity(k1.ngens, 2) on K_1's generators.
    """
    derived = {}

    for i in (2, 3):
        if not table.witt.get(i, FGAbelian(0)).is_trivial():
            return KaroubiReport(False, "W^i vanishing", derived)

    # forgetful GW^- -> K_0: injective with cokernel of order 2 (2Z in Z)
    m = table.map_gwminus_to_k0
    cok = table.k0.modulo(m)
    if cok.order() != 2:
        return KaroubiReport(False, "2Z ⊂ Z", derived)
    if _kernel_rank(m) != 0:
        return KaroubiReport(False, "GW- injectivity", derived)
    derived["U1"] = cok  # coker(GW^- -> K_0) = Z/2, the group _1U

    # hyperbolic K_0 -> GW^+ injective
    if _kernel_rank(table.map_hyperbolic) != 0:
        return KaroubiReport(False, "hyperbolic injectivity", derived)

    # derive KO_1 from 1 -> R^x/R^x2 -> KO_1 -> Z/2 -> 0 (split)
    usc_group = table.k1.modulo(mat_identity(table.k1.ngens, 2))
    usc_order = usc_group.order()
    if usc_order is None:
        return KaroubiReport(False, "unit square classes not finite", derived)
    derived["usc"] = usc_group
    ko1 = FGAbelian.direct_sum(FGAbelian.cyclic(2), usc_group)
    derived["KO1"] = ko1
    derived["KO1_order"] = 2 * usc_order
    if 2 * usc_order != ko1_euclidean(table.ring).order:
        return KaroubiReport(False, "KO1 mismatch with ko1_euclidean", derived)
    return KaroubiReport(True, None, derived)


def _kernel_rank(matrix):
    """Rank of the integer kernel of a matrix (columns = domain)."""
    return mat_shape(matrix)[1] - len(invariant_factors(matrix))
