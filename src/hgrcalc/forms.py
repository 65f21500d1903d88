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
from .polynomial import (Poly, PolyRing, mat_apply, mat_eq, mat_identity,
                         mat_mul, mat_scal, mat_shape, mat_sub,
                         mat_transpose)
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
            tail = []
            t = tail_int
            for _ in range(k):
                tail.append(t % p)
                t //= p
            cand = tail + [1]  # monic
            if _poly_irreducible_mod_p(cand, p):
                return tail + [1]
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
        coeffs = []
        for _ in range(self.k):
            coeffs.append(n % self.p)
            n //= self.p
        return FFElement(self, coeffs)

    def elements(self):
        return [self._element(n) for n in range(self.q)]

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

    def unit_square_class_data(self):
        return {"order": 2,
                "representatives": [self.one(), self.nonsquare()],
                "generators": [("g", self.q - 1)]}


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
            tail = []
            t = tail_int
            for _ in range(d):
                tail.append(t % p)
                t //= p
            div = tail + [1]
            if _poly_mod_divides(div, poly, p):
                return False
    return True


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
            ok = mat_eq(self.gram, transpose)
        elif kind == "skew":
            ok = mat_eq(self.gram, mat_scal(-1, transpose)) and \
                all(not self.gram[i][i] for i in range(n))
        else:
            raise FormsError("kind must be 'symmetric' or 'skew'")
        if not ok:
            raise FormsError("Gram matrix does not match declared kind %s" % kind)
        self.n = n

    def value(self, v, w):
        """v^T G w, as the row v times the column G w."""
        zero = self.field.zero()
        return mat_apply([v], mat_apply(self.gram, w, zero), zero)[0]


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
    """
    if form.kind != "symmetric":
        raise FormsError("diagonalize expects a symmetric form")
    F = form.field
    n = form.n
    vecs = mat_identity(n, F.one(), F.zero())  # basis vectors as rows
    out = []
    while vecs:
        # find a vector of nonzero length, mixing if needed
        pivot = None
        for i, v in enumerate(vecs):
            if form.value(v, v):
                pivot = i
                break
        if pivot is None:
            mixed = False
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    if form.value(vecs[i], vecs[j]):
                        # char != 2: v_i + v_j has length 2*g(v_i, v_j)
                        vecs[i] = [a + b for a, b in zip(vecs[i], vecs[j])]
                        pivot = i
                        mixed = True
                        break
                if mixed:
                    break
            if pivot is None:
                raise DegenerateFormError(
                    "form is degenerate; radical has dimension %d" % len(vecs),
                    radical_dimension=len(vecs))
        v = vecs.pop(pivot)
        inv_len = F.inv(form.value(v, v))
        reduced = []
        for w in vecs:
            c = form.value(v, w) * inv_len
            reduced.append([a - c * b for a, b in zip(w, v)])
        vecs = reduced
        out.append(v)
    # normalize over Q-like fields: clear denominators columnwise
    cleaned = [[Fraction(x) for x in primitive_integers(v)]
               if isinstance(v[0], Fraction) else v for v in out]
    p_matrix = mat_transpose(cleaned)  # columns are the new basis vectors
    entries = [form.value(v, v) for v in cleaned]
    classes = [F.square_class(e) for e in entries]
    # exactness guarantee
    check = mat_mul(mat_mul(mat_transpose(p_matrix), form.gram, F.zero()),
                    p_matrix, F.zero())
    diagonal = [[entries[i] if i == j else F.zero() for j in range(n)]
                for i in range(n)]
    if not mat_eq(check, diagonal):
        raise FormsError("internal error: P^T G P mismatch")
    return Diagonalization(entries, p_matrix, classes)


def symplectic_basis(form):
    """Change of basis taking a nondegenerate skew form to the standard
    block-diagonal form with blocks [[0,1],[-1,0]]."""
    if form.kind != "skew":
        raise FormsError("symplectic_basis expects a skew form")
    F = form.field
    n = form.n
    if n % 2:
        raise DegenerateFormError("degenerate skew form (odd rank)",
                                  radical_dimension=1)
    vecs = mat_identity(n, F.one(), F.zero())
    pairs = []
    while vecs:
        v = vecs.pop(0)
        partner = None
        for i, w in enumerate(vecs):
            c = form.value(v, w)
            if c:
                partner = i
                break
        if partner is None:
            raise DegenerateFormError("degenerate skew form",
                                      radical_dimension=1 + len(vecs))
        w = vecs.pop(partner)
        c = form.value(v, w)
        w = [F.inv(c) * x for x in w]  # omega(v, w) = 1
        new_vecs = []
        for u in vecs:
            a = form.value(v, u)
            b = form.value(w, u)
            # u - a*w + b*v is orthogonal to both v and w
            adj = [x - a * y + b * z for x, y, z in zip(u, w, v)]
            new_vecs.append(adj)
        vecs = new_vecs
        pairs.extend([v, w])
    p_matrix = mat_transpose(pairs)
    # verify P^T G P = standard J
    check = mat_mul(mat_mul(mat_transpose(p_matrix), form.gram, F.zero()),
                    p_matrix, F.zero())
    if not mat_eq(check, standard_symplectic_gram(n, F)):
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

    def unit_square_class_data(self):
        return {"order": 4, "representatives": [1, -1, 2, -2],
                "generators": [(-1, 2), (2, 0)]}  # order 0 = infinite


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
        acc = self.ring.zero()
        for i, c in enumerate(coeffs):
            if c:
                acc = acc + self.ring.gen(0, i, Fraction(c)) if i \
                    else acc + self.ring.const(Fraction(c))
        return acc

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
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = self.ring.zero()
        r = a
        db = self.degree(b)
        lb = self.lead(b)
        while not r.is_zero() and self.degree(r) >= db:
            dr = self.degree(r)
            c = self.lead(r) / lb
            t = self.ring.gen(0, dr - db) * c if dr > db else self.ring.const(c)
            q = q + t
            r = r - t * b
        return q, r

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
        return a * (1 / self.lead(a))  # monic normalization

    def is_unit(self, x):
        return (not x.is_zero()) and self.degree(x) == 0

    def unit_inverse(self, x):
        return self.ring.const(1 / x.constant_term())

    def unit_square_class_data(self):
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
    The dense matrix I - lam*(u u^T)J is built only when `.matrix` is read.
    """

    __slots__ = ("ring", "u", "lam", "_matrix")

    def __init__(self, ring, u, lam, n2):
        self.ring = ring
        self.u = list(u)
        self.lam = lam
        self._matrix = None
        if len(self.u) != n2:
            raise FormsError("transvection vector has length %d, not %d"
                             % (len(self.u), n2))
        if symplectic_pairing(self.u, self.u, ring.zero()):
            raise FormsError("internal error: transvection broke the form")

    @property
    def matrix(self):
        if self._matrix is None:
            n2, zero = len(self.u), self.ring.zero()
            j = standard_symplectic_gram(n2, self.ring)
            uut = [[a * b for b in self.u] for a in self.u]
            self._matrix = mat_sub(mat_identity(n2, self.ring.one(), zero),
                                   mat_scal(self.lam, mat_mul(uut, j, zero)))
        return self._matrix

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
    # state = (unit, 0, .., 0): scale pair one by (1/unit, unit)
    lead = state[0]
    if lead != one:
        c = ring.unit_inverse(lead)
        _scale_pair_one(tau, unit_vec, c, ring)
    e1 = unit_vec(0)
    if state != e1:
        raise FormsError("internal error: reduction did not reach e_1")
    return factors


def _scale_pair_one(tau, unit_vec, c, ring):
    """diag(c, c^-1) on pair one as six transvections (Whitehead-style)."""
    cinv = ring.unit_inverse(c)
    one = ring.one()

    def e12(t):  # a += t*b; tau with u = e_a adds -lam*b to a
        tau(unit_vec(0), -t)

    def e21(t):  # b += t*a; tau with u = e_b adds lam*a to b
        tau(unit_vec(1), t)

    # diag(c, c^-1) = W(c) W(-1) with W(t) = E12(t) E21(-1/t) E12(t);
    # factors are applied to the state right to left
    e12(-one)
    e21(one)
    e12(-one)
    e12(c)
    e21(-cinv)
    e12(c)


# ---------------------------------------------------------------------------
# Unit square classes and KO_1 of Euclidean domains.
# ---------------------------------------------------------------------------


class UnitSquareClasses:
    """Finite presentation of R^x / (R^x)^2 as an elementary abelian 2-group."""

    def __init__(self, order, representatives):
        self.order = order
        self.representatives = representatives

    def rank(self):
        n = self.order
        r = 0
        while n > 1:
            n //= 2
            r += 1
        return r

    def __repr__(self):
        return "UnitSquareClasses(order=%d)" % self.order


def unit_square_classes(ring):
    """R^x/(R^x)^2 from the ring's declared unit-group presentation."""
    data = ring.unit_square_class_data()
    return UnitSquareClasses(data["order"], data["representatives"])


class KO1Result:
    """KO_1 = Z/2 x R^x/R^x2: the switch isometry splits off the Z/2."""

    def __init__(self, ring, usc):
        self.ring = ring
        self.usc = usc
        self.order = 2 * usc.order
        self.rank_two_elementary = 1 + usc.rank()

    def structure(self):
        return "(Z/2)^%d" % self.rank_two_elementary

    def generators(self):
        gens = [{"kind": "switch", "matrix": [[0, 1], [1, 0]]}]
        for rep in self.usc.representatives:
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
    usc = unit_square_classes(ring)
    return KO1Result(ring, usc)


# ---------------------------------------------------------------------------
# Karoubi fundamental-sequence bookkeeping.
# ---------------------------------------------------------------------------


class KaroubiTable:
    """Supplied groups and maps for one Euclidean-domain instance.

    Groups are FGAbelian presentations; maps are integer matrices on the
    chosen generators.  `witt` maps the cohomological index mod 4 to the
    group; `squaring` is the composite K_1 -> K_1 (x -> x - t(xbar)^-1,
    which is x -> x^2 for the trivial involution, i.e. doubling).
    """

    def __init__(self, name, k0, k1, gw_minus, gw_plus, map_gwminus_to_k0,
                 map_hyperbolic_k0_to_gwplus, witt, squaring,
                 trivial_involution=True):
        self.name = name
        self.k0 = k0
        self.k1 = k1
        self.gw_minus = gw_minus
        self.gw_plus = gw_plus
        self.map_gwminus_to_k0 = map_gwminus_to_k0
        self.map_hyperbolic = map_hyperbolic_k0_to_gwplus
        self.witt = witt
        self.squaring = squaring
        self.trivial_involution = trivial_involution


def zhalf_karoubi_table():
    """The Z[1/2] instance: K_1 = units = Z/2 x Z generated by -1 and 2."""
    return KaroubiTable(
        name="Z[1/2]",
        k0=FGAbelian.free(1),
        k1=FGAbelian(2, [[2, 0]]),   # Z/2 x Z
        gw_minus=FGAbelian.free(1),
        gw_plus=FGAbelian.free(2),
        map_gwminus_to_k0=[[2]],     # forgetful: rank of a symplectic form
        map_hyperbolic_k0_to_gwplus=[[1], [1]],
        witt={0: FGAbelian.direct_sum(FGAbelian.free(1), FGAbelian.cyclic(2)),
              1: FGAbelian(0), 2: FGAbelian(0), 3: FGAbelian(0)},
        squaring=[[2, 0], [0, 2]],
    )


def fq_karoubi_table(q):
    """The GF(q) instance, q odd: K_1 cyclic of order q - 1."""
    return KaroubiTable(
        name="F%d" % q,
        k0=FGAbelian.free(1),
        k1=FGAbelian.cyclic(q - 1),
        gw_minus=FGAbelian.free(1),
        gw_plus=FGAbelian.free(2),
        map_gwminus_to_k0=[[2]],
        map_hyperbolic_k0_to_gwplus=[[1], [1]],
        witt={0: FGAbelian.direct_sum(FGAbelian.cyclic(2), FGAbelian.cyclic(2)),
              1: FGAbelian(0), 2: FGAbelian(0), 3: FGAbelian(0)},
        squaring=[[2]],
    )


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


def karoubi_check(table, expected_ko1=None):
    """Check the fundamental-sequence constraints and assemble KO_1.

    Verifies the Witt vanishing W^i = 0 for i = 2, 3 mod 4, the forgetful
    GW^- -> K_0 being the index-two inclusion, injectivity of the
    hyperbolic map, the squaring composite on K_1 for a trivial involution,
    and derives the short exact sequence giving KO_1.
    """
    derived = {}

    for i in (2, 3):
        if not table.witt.get(i, FGAbelian(0)).is_trivial():
            return KaroubiReport(False, "W^i vanishing", derived)

    # forgetful GW^- -> K_0: injective with cokernel of order 2 (2Z in Z)
    m = table.map_gwminus_to_k0
    cok = FGAbelian(table.k0.ngens,
                    list(table.k0.relations)
                    + [[m[i][j] for i in range(table.k0.ngens)]
                       for j in range(table.gw_minus.ngens)])
    if cok.order() != 2:
        return KaroubiReport(False, "2Z ⊂ Z", derived)
    if _kernel_rank(m) != 0:
        return KaroubiReport(False, "GW- injectivity", derived)
    derived["U1"] = cok  # coker(GW^- -> K_0) = Z/2, the group _1U

    # hyperbolic K_0 -> GW^+ injective
    if _kernel_rank(table.map_hyperbolic) != 0:
        return KaroubiReport(False, "hyperbolic injectivity", derived)

    # squaring composite on K_1 is doubling for the trivial involution
    if table.trivial_involution:
        n = table.k1.ngens
        if table.squaring != mat_identity(n, 2):
            return KaroubiReport(False, "squaring composite", derived)

    # derive KO_1 from 1 -> R^x/R^x2 -> KO_1 -> Z/2 -> 0 (split)
    usc_group = FGAbelian(table.k1.ngens,
                          list(table.k1.relations)
                          + [[table.squaring[i][j] for i in range(table.k1.ngens)]
                             for j in range(table.k1.ngens)])
    usc_order = usc_group.order()
    if usc_order is None:
        return KaroubiReport(False, "unit square classes not finite", derived)
    derived["usc"] = usc_group
    ko1 = FGAbelian.direct_sum(FGAbelian.cyclic(2), usc_group)
    derived["KO1"] = ko1
    derived["KO1_order"] = 2 * usc_order
    if expected_ko1 is not None and 2 * usc_order != expected_ko1.order:
        return KaroubiReport(False, "KO1 mismatch with ko1_euclidean", derived)
    return KaroubiReport(True, None, derived)


def _kernel_rank(matrix):
    """Rank of the integer kernel of a matrix (columns = domain)."""
    rows, cols = mat_shape(matrix)
    if cols == 0:
        return 0
    from .towers import smith_normal_form
    _, d, _ = smith_normal_form(matrix)
    nonzero = sum(1 for t in range(min(rows, cols)) if d[t][t])
    return cols - nonzero
