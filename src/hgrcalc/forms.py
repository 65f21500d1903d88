"""Bilinear and quadratic form algebra over exact fields and Euclidean domains.

Diagonalization and symplectic bases over the rationals, odd finite fields
and real-closed (signature) descriptors; constructive reduction of
unimodular vectors by elementary symplectic transvections; unit square
classes, the KO_1 formula for Euclidean domains with 1/2, and the Karoubi
fundamental-sequence bookkeeping.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from . import HgrcalcError
from .coeffs import IntegerRing, RationalsField
from .polynomial import (Poly, PolyRing, dot, mat_apply, mat_identity,
                         mat_mul, mat_scal, mat_transpose)
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

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.field.inv(self)

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
        if self.k == 1:  # Euler's criterion on the residue
            return pow(x.coeffs[0], (self.p - 1) // 2, self.p) == 1
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
        """G w: its dot product with any v is v^T G w.  Computing it costs
        O(n^2); the reductions below compute one per vector they keep
        pairing, so each further pairing costs one O(n) dot product."""
        return mat_apply(self.gram, w, self.field.zero())


class Diagonalization:
    """P with P^T G P = diag(entries), plus canonical square classes."""

    def __init__(self, entries, matrix, classes):
        self.entries = entries
        self.matrix = matrix
        self.classes = classes

    def __repr__(self):
        return "<%s>" % ", ".join(str(c) for c in self.classes)


class _IntegerReps:
    """Q and RealClosed on Python ints.

    Row and column i of G are scaled by the lcm s_i of the denominators in
    row i, so S G S is an integer matrix without the lcm of all
    denominators.  A vector x is held as integer numerators over a positive
    integer denominator in the coordinates S^-1 x, and the content common
    to the numerators and the denominator is divided out after each step.
    """

    def __init__(self, gram):
        self.scales = s = [lcm(*(x.denominator for x in row)) for row in gram]
        self.rows = [[x.numerator * (si // x.denominator) for x in row]
                     for row, si in zip(gram, s)]  # S G
        self.gram = [[x * sj for x, sj in zip(row, s)] for row in self.rows]
        # the check reads L G p as (S G p) times L / s_i, L = lcm of the s_i
        self.check_den = big = lcm(*s)
        self.factors = [big // si for si in s]

    def start(self):
        # e_j = S (e_j / s_j); its Gram column is column j of S G S
        n = len(self.gram)
        return [([int(i == j) for i in range(n)], list(row), s)
                for j, (row, s) in enumerate(zip(self.gram, self.scales))]

    @staticmethod
    def dot(x, y):
        return sum(map(mul, x, y))

    @staticmethod
    def pivot(length):
        return length

    @staticmethod
    def eliminate(w, v, length, c):
        """|L| w - sgn(L) c v over |L| d_w, both factors first divided by
        gcd(L, c); then the content is divided out."""
        (nw, gw, dw), (nv, gv, _) = w, v
        a, b = (length, c) if length > 0 else (-length, -c)
        g = gcd(a, b)
        a, b = a // g, b // g
        nw = [a * x - b * y for x, y in zip(nw, nv)]
        gw = [a * x - b * y for x, y in zip(gw, gv)]
        return _reduced_content(nw, gw, a * dw)

    @staticmethod
    def add(x, y):
        (nx, gx, dx), (ny, gy, dy) = x, y
        m = lcm(dx, dy)
        fx, fy = m // dx, m // dy
        return _reduced_content([fx * a + fy * b for a, b in zip(nx, ny)],
                                [fx * a + fy * b for a, b in zip(gx, gy)], m)

    def column(self, v):
        """The primitive integer vector on the ray of S v."""
        nums = [s * x for s, x in zip(self.scales, v[0])]
        g = gcd(*nums)
        return [x // g for x in nums]

    def congruence(self, cols):
        """L P^T G P for the integer columns of P, with L G p read as
        (S G p)_i times L / s_i."""
        products = [[sum(map(mul, row, p)) * f
                     for row, f in zip(self.rows, self.factors)] for p in cols]
        return [[sum(map(mul, p, gp)) for gp in products] for p in cols]

    element = Fraction

    def entry(self, x):
        """The rational x / L."""
        return Fraction(x, self.check_den)


def _reduced_content(nums, col, den):
    g = gcd(den, *nums)  # G nums is integral, so g divides col too
    if g == 1:
        return nums, col, den
    return [x // g for x in nums], [x // g for x in col], den // g


class _FieldReps:
    """GF(p^k) on FFElements: the pivot length is inverted once, each
    vector takes w - (c / L) v, and every denominator stays 1."""

    def __init__(self, field, gram):
        self.field = field
        self.zero = field.zero()
        self.gram = gram

    def start(self):
        n, zero, one = len(self.gram), self.zero, self.field.one()
        return [([one if i == j else zero for i in range(n)], list(row), 1)
                for j, row in enumerate(self.gram)]

    def dot(self, x, y):
        return dot(x, y, self.zero)

    def pivot(self, length):
        return self.field.inv(length)

    @staticmethod
    def eliminate(w, v, inv, c):
        (nw, gw, _), (nv, gv, _) = w, v
        m = c * inv
        return ([x - m * y if y else x for x, y in zip(nw, nv)],
                [x - m * y if y else x for x, y in zip(gw, gv)], 1)

    @staticmethod
    def add(x, y):
        return ([a + b for a, b in zip(x[0], y[0])],
                [a + b for a, b in zip(x[1], y[1])], 1)

    @staticmethod
    def column(v):
        return v[0]

    def congruence(self, cols):
        return mat_mul(mat_mul(cols, self.gram, self.zero),
                       mat_transpose(cols), self.zero)

    @staticmethod
    def element(x):
        return x

    entry = element


class _ResidueReps(_FieldReps):
    """A prime field GF(p) on residues 0..p-1 held as ints."""

    def __init__(self, field, gram):
        self.field = field
        self.p = field.p
        self.gram = [[x.coeffs[0] for x in row] for row in gram]

    def start(self):
        n = len(self.gram)
        return [([int(i == j) for i in range(n)], list(row), 1)
                for j, row in enumerate(self.gram)]

    def dot(self, x, y):
        return sum(map(mul, x, y)) % self.p

    def congruence(self, cols):
        p = self.p
        products = [[sum(map(mul, row, c)) for row in self.gram] for c in cols]
        return [[sum(map(mul, c, gc)) % p for gc in products] for c in cols]

    def pivot(self, length):
        return pow(length, self.p - 2, self.p)

    def eliminate(self, w, v, inv, c):
        (nw, gw, _), (nv, gv, _), p = w, v, self.p
        m = c * inv % p
        return ([(x - m * y) % p for x, y in zip(nw, nv)],
                [(x - m * y) % p for x, y in zip(gw, gv)], 1)

    def add(self, x, y):
        p = self.p
        return ([(a + b) % p for a, b in zip(x[0], y[0])],
                [(a + b) % p for a, b in zip(x[1], y[1])], 1)

    def element(self, x):
        return _reduced(self.field, (x,))

    entry = element


def _representatives(field, gram):
    """The representatives diagonalize works on over `field`: the rationals
    (RationalsField, RealClosedField) or GF(q)."""
    if not isinstance(field, FiniteField):
        return _IntegerReps(gram)
    if field.k == 1:
        return _ResidueReps(field, gram)
    return _FieldReps(field, gram)


def diagonalize(form):
    """Congruence-diagonalize a nondegenerate symmetric form over a field.

    Returns exact diagonal entries with the change of basis; a degenerate
    input raises DegenerateFormError carrying the radical dimension.

    One fraction-free elimination serves every field, on representatives:
    ints over Q and RealClosed, residues over a prime field, FFElements
    over GF(p^k) (the _Reps classes above).  Each remaining vector w is a
    list of numerators over one denominator, with its Gram column G w
    beside it over the same denominator, so every length and pairing is one
    O(n) dot product and the whole reduction, the pivot search included,
    takes O(n^3) operations.  A pivot v of length L takes w to
    |L| w - sgn(L) g(v, w) v over the ints (w - (g(v, w) / L) v over a
    field), and its Gram column likewise.  The rational vectors, the pivots
    and the mixing steps are those of Gram-Schmidt over the field.
    """
    if form.kind != "symmetric":
        raise FormsError("diagonalize expects a symmetric form")
    F = form.field
    reps = _representatives(F, form.gram)
    dot_ = reps.dot
    rest = reps.start()  # (numerators, Gram column, denominator) of each e_j
    out = []
    while rest:
        # find a vector of nonzero length, mixing if needed
        pivot = next((i for i, (v, g, _) in enumerate(rest) if dot_(v, g)),
                     None)
        if pivot is None:
            pair = next(((i, j) for i in range(len(rest))
                         for j in range(i + 1, len(rest))
                         if dot_(rest[i][0], rest[j][1])), None)
            if pair is None:
                raise DegenerateFormError(
                    "form is degenerate; radical has dimension %d" % len(rest),
                    radical_dimension=len(rest))
            # char != 2: v_i + v_j has length 2*g(v_i, v_j)
            pivot, j = pair
            rest[pivot] = reps.add(rest[pivot], rest[j])
        v = rest.pop(pivot)
        nv, gv, _ = v
        scale = reps.pivot(dot_(nv, gv))
        for k, w in enumerate(rest):
            # g(v, w) = (G v) . w since G is symmetric
            c = dot_(gv, w[0])
            if c:
                rest[k] = reps.eliminate(w, v, scale, c)
        out.append(reps.column(v))
    # exactness guarantee: P^T G P is diagonal with nonzero entries, and
    # the entries are read off its diagonal
    check = reps.congruence(out)
    n = len(out)
    if any(check[i][j] for i in range(n) for j in range(n) if i != j) \
            or not all(check[i][i] for i in range(n)):
        raise FormsError("internal error: P^T G P mismatch")
    entries = [reps.entry(check[i][i]) for i in range(n)]
    p_matrix = [[reps.element(x) for x in row] for row in zip(*out)]
    classes = [F.square_class(e) for e in entries]
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

    The standard symplectic form pairs coordinates (a, b) = (2i, 2i+1).  One
    Euclid on one move, state[dst] += lam*state[src], reduces each pair to
    (g, 0), then the first coordinates of pairs 0 and i to (g, 0), leaving
    (g, 0, .., 0) with g a gcd of v.  A non-unit g is refused with the
    normalized gcd `ring.gcd_all([g])` as witness; a unit is scaled to 1 by
    the Whitehead lemma.  Each factor is checked on construction to
    preserve J (omega(u,u) = 0, see SympFactor), and the composite is
    compared with e_1 before returning.  A ring with no element arithmetic,
    such as ZHALF, is refused.
    """
    if not hasattr(ring, "coerce"):
        raise SpReductionError("%s has no element arithmetic"
                               % getattr(ring, "name", ring))
    v = [ring.coerce(x) for x in v]
    n2 = len(v)
    if n2 % 2 or n2 < 2:
        raise SpReductionError("vector length must be even and positive")
    zero, one = ring.zero(), ring.one()
    factors = []
    state = list(v)

    def tau(lam, *coords):
        # the transvection along u = sum of e_k over coords
        if lam == zero:
            return
        u = [zero] * n2
        for k in coords:
            u[k] = one
        f = SympFactor(ring, u, lam, n2)
        moved = f.apply(state)
        if moved != state:
            factors.append(f)
            state[:] = moved

    def add(dst, src, lam):
        # state[dst] += lam*state[src].  In one pair (a, b), u = e_b adds
        # lam*a to b and u = e_a adds -lam*b to a.  Across pairs, on first
        # coordinates while both second ones are zero, u = e_dst + e_{b_src}
        # also adds lam*state[src] to b_src, which u = e_{b_src} clears.
        if dst // 2 == src // 2:
            tau(lam if dst % 2 else -lam, dst)
        else:
            tau(lam, dst, src + 1)
            tau(-lam, src + 1)

    def euclid(i, j):
        # (state[i], state[j]) -> (gcd, 0)
        while state[j] != zero:
            if state[i] != zero:
                add(j, i, -ring.quo(state[j], state[i]))
            if state[j] == zero:
                break
            add(i, j, -ring.quo(state[i], state[j]))
            if state[i] == zero:
                # move the remainder into i: i += j, then j -= i
                add(i, j, one)
                add(j, i, -one)

    for a in range(0, n2, 2):
        euclid(a, a + 1)
    for a in range(2, n2, 2):
        euclid(0, a)
    if not ring.is_unit(state[0]):
        g = ring.gcd_all([state[0]])
        raise SpReductionError("vector is not unimodular; gcd = %s" % (g,),
                               witness=g)
    # state = (unit, 0, ..): scale pair one by diag(c, 1/c), c = 1/unit, as
    # W(c) W(-1), W(t) = E12(t) E21(-1/t) E12(t) (Whitehead), right to left;
    # E12(t) (a += t*b) is tau(-t, 0) and E21(t) (b += t*a) is tau(t, 1).
    if state[0] != one:
        c = ring.unit_inverse(state[0])
        cinv = ring.unit_inverse(c)
        for i, lam in ((0, one), (1, one), (0, one), (0, -c), (1, -cinv),
                       (0, -c)):
            tau(lam, i)
    if state != [one] + [zero] * (n2 - 1):
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
    """The groups of Karoubi's fundamental sequences that depend on the
    ring: K_1 and W^0, as FGAbelian presentations."""

    def __init__(self, ring, k1, witt0):
        self.ring = ring
        self.k1 = k1
        self.witt0 = witt0


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
    """Derive KO_1 from the table and cross-check it with ko1_euclidean.

    The sequence 1 -> R^x/R^x2 -> KO_1 -> Z/2 -> 0 splits.  The unit square
    classes are K_1 modulo the composite K_1 -> K_1, x -> x - t(xbar)^-1,
    which for the trivial involution every instance carries is x -> x^2:
    doubling, mat_identity(k1.ngens, 2) on K_1's generators.  The order of
    Z/2 + K_1/2K_1 must match ko1_euclidean, which reads the ring's own
    unit square classes.
    """
    usc_group = table.k1.modulo(mat_identity(table.k1.ngens, 2))
    ko1 = FGAbelian.direct_sum(FGAbelian.cyclic(2), usc_group)
    order = ko1.order()
    derived = {"W0": table.witt0, "usc": usc_group, "KO1": ko1,
               "KO1_order": order}
    if order != ko1_euclidean(table.ring).order:
        return KaroubiReport(False, "KO1 mismatch with ko1_euclidean", derived)
    return KaroubiReport(True, None, derived)
