"""Linear combinations, exact multivariate Laurent polynomials and small
matrix helpers.

`Combination` is the arithmetic every sparse element type of the library
shares.  Everything here is exact: coefficients are Python ints,
fractions.Fraction, or any ring element supporting +, -, *, == and
truthiness (zero test).
Exponents may be negative, which is what the localized Koszul homotopies
need; ordinary polynomials simply never produce negative exponents.
"""

from fractions import Fraction
from operator import add


class PolyRing:
    """A polynomial ring presentation: named generators with integer weights.

    Weights feed the grading (deg of a monomial = sum weight_i * exp_i) and
    the graded-lexicographic term order used for printing and serialization.
    The ring holds its one zero polynomial: every `zero()` is that object.
    """

    __slots__ = ("gens", "weights", "_zero")

    def __init__(self, gens, weights=None):
        self.gens = tuple(gens)
        if weights is None:
            weights = (1,) * len(self.gens)
        self.weights = tuple(weights)
        if len(self.weights) != len(self.gens):
            raise ValueError("one weight per generator required")
        self._zero = Poly(self, {})

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, PolyRing) and self.gens == other.gens
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.gens, self.weights))

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.gens)

    def zero(self):
        return self._zero

    def const(self, c):
        return Poly(self, {(0,) * len(self.gens): c})

    def one(self):
        return self.const(1)

    def gen(self, i, exp=1, coeff=1):
        """The monomial coeff * gens[i]**exp."""
        e = [0] * len(self.gens)
        e[i] = exp
        return Poly(self, {tuple(e): coeff})

    def monomial(self, exps, coeff=1):
        if not coeff:
            return self.zero()
        exps = tuple(exps)
        if len(exps) != len(self.gens):
            raise ValueError("exponent vector length mismatch")
        return Poly(self, {exps: coeff})

    def weight_of(self, exps):
        return sum(w * e for w, e in zip(self.weights, exps))


class Combination:
    """A finite linear combination: `terms` maps each basis key to its
    nonzero coefficient, and `ring` is the structure the element lives in.

    The shared arithmetic: zero test, sum, negative, difference, equality,
    hash and scaling.  A subclass gives its product, its printing and the
    scalars it accepts (`_scalar`, and `_coerce` for sums).  Every result is
    built by `_new`, which drops zero coefficients, so no loop has to
    cancel a sum in place.  Elements are values: nothing edits `terms`
    after construction, so one object (a ring's zero) may stand in many
    places at once.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {k: c for k, c in terms.items() if c}

    def _new(self, terms):
        """An element of the same type and ring with these terms."""
        x = object.__new__(type(self))
        Combination.__init__(x, self.ring, terms)
        return x

    def _coerce(self, other):
        """other as an element of the same type and ring."""
        if not isinstance(other, type(self)):
            raise TypeError("cannot combine %s with %r"
                            % (type(self).__name__, other))
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("elements of different rings: %r and %r"
                             % (self.ring, other.ring))
        return other

    def _scalar(self, c):
        """c as a coefficient."""
        return c

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        res = dict(self.terms)
        get = res.get
        for k, c in self._coerce(other).terms.items():
            s = get(k)
            res[k] = c if s is None else s + c
        return self._new(res)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def scale(self, c):
        c = self._scalar(c)
        return self._new({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)


class Poly(Combination):
    """Sparse exact polynomial: dict from exponent tuples to coefficients.

    Sums, differences and equality also take a scalar, as a constant."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return Combination.__eq__(self, other)

    __hash__ = Combination.__hash__

    def constant_term(self):
        zero_exp = (0,) * len(self.ring.gens)
        return self.terms.get(zero_exp, 0)

    def weight(self):
        """Largest graded weight among terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.weight_of(e) for e in self.terms)

    # -- arithmetic ------------------------------------------------------

    __radd__ = Combination.__add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._coerce(other)
        # a constant or zero factor only scales
        if len(other.terms) < 2 and not any(next(iter(other.terms), ())):
            return self.scale(next(iter(other.terms.values()), 0))
        if len(self.terms) < 2 and not any(next(iter(self.terms), ())):
            return other.scale(next(iter(self.terms.values()), 0))
        res = {}
        get = res.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = get(e)
                res[e] = c1 * c2 if s is None else s + c1 * c2
        return self._new(res)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _coerce(self, x):
        if isinstance(x, Poly):
            return Combination._coerce(self, x)
        return self.ring.const(x)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a full point (sequence of coefficients)."""
        total = 0
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                if e < 0:
                    raise ValueError("cannot evaluate a negative power")
                for _ in range(e):
                    v = v * x
            total = total + v
        return total

    def map_to(self, ring, gen_map):
        """Reinterpret in another ring; gen_map sends old index -> new index."""
        if not self.terms:
            return ring.zero()
        res = {}
        get = res.get
        width = len(ring.gens)
        for exps, coeff in self.terms.items():
            new = [0] * width
            for i, e in enumerate(exps):
                if e:
                    new[gen_map[i]] += e
            key = tuple(new)
            s = get(key)
            res[key] = coeff if s is None else s + coeff
        return Poly(ring, res)

    # -- division ----------------------------------------------------------

    def divides_exactly(self, divisor):
        """Return the quotient self/divisor, or None if not exactly divisible.

        Single-divisor term rewriting under graded-lex; for one divisor the
        remainder vanishes iff the division is exact.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        ring = self.ring
        # graded-lex descent needs well-ordered exponents
        for p in (self, divisor):
            for exps in p.terms:
                if any(e < 0 for e in exps):
                    raise ValueError("division of Laurent polynomials "
                                     "is not supported")
        quo = {}
        rem = dict(self.terms)
        dlead = max(divisor.terms, key=_glex_key(ring))
        dc = divisor.terms[dlead]
        while rem:
            lead = max(rem, key=_glex_key(ring))
            diff = tuple(a - b for a, b in zip(lead, dlead))
            if any(d < 0 for d in diff):
                return None
            c = _exact_coeff_div(rem[lead], dc)
            if c is None:
                return None
            quo[diff] = quo.get(diff, 0) + c
            for e2, c2 in divisor.terms.items():
                e = tuple(a + b for a, b in zip(diff, e2))
                s = rem.get(e, 0) - c * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return Poly(ring, quo)

    # -- output ------------------------------------------------------------

    def sorted_terms(self):
        """Terms in ascending graded-lexicographic order (bit-exact output order)."""
        key = _glex_key(self.ring)
        return sorted(self.terms.items(), key=lambda t: key(t[0]))

    def __repr__(self):
        return self.pretty()

    def pretty(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.gens, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append("%s^%d" % (name, e))
            body = "*".join(factors)
            cs = str(coeff)
            if body and cs == "1":
                parts.append(body)
            elif body and cs == "-1":
                parts.append("-" + body)
            elif body:
                parts.append("%s*%s" % (_wrap(cs), body))
            else:
                parts.append(_wrap(cs))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _wrap(cs):
    return "(%s)" % cs if ("+" in cs[1:] or "-" in cs[1:] or " " in cs) else cs


def _glex_key(ring):
    def key(exps):
        return (ring.weight_of(exps), exps)
    return key


def _exact_coeff_div(a, b):
    """a/b in the coefficient ring, or None when not exact."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else None
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    div = getattr(a, "exact_div", None)
    if div is not None:
        return div(b)
    raise TypeError("no exact division for %r / %r" % (type(a), type(b)))


# ---------------------------------------------------------------------------
# Matrix helpers, the library's only matrix code.  Matrices are plain lists
# of lists whose entries belong to any commutative ring (ints, Fractions,
# Poly, field elements).  Entries are values that no code edits in place
# (the one dict written after construction is the fresh one of
# GWElement.__init__), so a single `zero` object fills every zero entry, a
# PolyRing's zero() included.  Products cost their nonzero pairs: mat_mul
# lists the nonzero entries of each row of b once, and an entry that no
# product reaches is the `zero` argument itself.  `zero` and `one` default
# to the integers and must be passed for other entry rings.
# ---------------------------------------------------------------------------


def mat_shape(m):
    return (len(m), len(m[0]) if m else 0)


def mat_identity(n, one=1, zero=0):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_zero(rows, cols, zero=0):
    return [[zero for _ in range(cols)] for _ in range(rows)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scal(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b, zero=0):
    """a * b; a left factor with no rows gives []."""
    if not a:
        return []
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError("matrix shapes %sx%s and %sx%s do not compose"
                         % (ra, ca, rb, cb))
    nonzero = [[(j, y) for j, y in enumerate(row_b) if y] for row_b in b]
    out = []
    for row_a in a:
        row = [zero] * cb
        for x, pairs in zip(row_a, nonzero):
            if x:
                for j, y in pairs:
                    row[j] = row[j] + x * y
        out.append(row)
    return out


def dot(x, y, zero=0):
    """The sum of x_i * y_i over the i where both are nonzero."""
    acc = zero
    for a, b in zip(x, y):
        if a and b:
            acc = acc + a * b
    return acc


def mat_apply(a, v, zero=0):
    """The matrix-vector product a * v."""
    return [dot(row, v, zero) for row in a]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def bareiss_det(m, zero=0, one=1):
    """Fraction-free Bareiss determinant; exact over ints and poly rings."""
    n = len(m)
    if n == 0:
        return one
    a = [list(row) for row in m]
    sign = 1
    prev = one
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = _entry_exact_div(num, prev)
            a[i][k] = zero
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _entry_exact_div(num, den):
    if isinstance(num, Poly):
        if isinstance(den, int):
            den = num.ring.const(den)
        q = num.divides_exactly(den)
        if q is None:
            raise ArithmeticError("Bareiss division was not exact")
        return q
    q = _exact_coeff_div(num, den)
    if q is None:
        raise ArithmeticError("Bareiss division was not exact")
    return q


# ---------------------------------------------------------------------------
# Integer normal forms.  smith_normal_form is the library's one elimination
# over Z: it pivots on the least |entry| of the remaining block and clears
# that row and column with nearest-integer quotients, so every remainder is
# at most half the pivot and each re-pick at least halves it (Cohen, GTM 138,
# section 2.4).  Kernels and ranks read off its (U, D, V); lattice indices
# are the products of the pivots of hermite_column_form.
# ---------------------------------------------------------------------------


def smith_normal_form(a):
    """(U, D, V) with U*a*V = D for unimodular U and V and a diagonal D
    with 0 <= d_i | d_{i+1}."""
    rows, cols = mat_shape(a)
    d = [list(r) for r in a]
    u = mat_identity(rows)
    v = mat_identity(cols)
    t = 0
    while t < min(rows, cols):
        pivot = _least_entry(d, t)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in d + v:
                row[t], row[j] = row[j], row[t]
        # every entry of the block is at least |p|, so each quotient below
        # is nonzero and leaves a remainder of at most |p| / 2
        p = d[t][t]
        dt, ut = d[t], u[t]
        left = False
        for i in range(t + 1, rows):
            x = d[i][t]
            if x:
                q = (2 * x + p) // (2 * p)  # the integer nearest x / p
                d[i] = [y - q * z for y, z in zip(d[i], dt)]
                u[i] = [y - q * z for y, z in zip(u[i], ut)]
                left = left or d[i][t] != 0
        if left:
            continue  # a remainder is left in column t: re-pick
        qs = [(j, (2 * x + p) // (2 * p))
              for j, x in enumerate(dt[t + 1:], t + 1) if x]
        if qs:
            for row in d + v:
                x = row[t]
                if x:
                    for j, q in qs:
                        row[j] -= q * x
        if any(dt[t + 1:]):
            continue  # a remainder is left in row t: re-pick
        bad = abs(p) > 1 and next((i for i in range(t + 1, rows)
                                   if any(x % p for x in d[i][t + 1:])), None)
        if bad:
            # row_t += row_bad brings an entry p does not divide into row t
            d[t] = [y + z for y, z in zip(dt, d[bad])]
            u[t] = [y + z for y, z in zip(ut, u[bad])]
            continue
        if p < 0:
            d[t] = [-y for y in dt]
            u[t] = [-y for y in ut]
        t += 1
    return u, d, v


def _least_entry(d, t):
    """(i, j) of the first nonzero entry of least |value| in d[t:][t:]."""
    least = pivot = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            x = abs(row[j])
            if x and (pivot is None or x < least):
                if x == 1:
                    return i, j
                least, pivot = x, (i, j)
    return pivot


def invariant_factors(a):
    """The nonzero diagonal entries of the Smith form of a, 1s included."""
    _, d, _ = smith_normal_form(a)
    return [d[t][t] for t in range(min(mat_shape(d))) if d[t][t]]


def hermite_column_form(a):
    """Canonical column Hermite normal form; equal spans give equal forms."""
    rows, cols = mat_shape(a)
    m = [list(r) for r in a]
    cur = 0
    for r in range(rows):
        # a column at or past cur with a nonzero entry in row r
        piv = next((j for j in range(cur, cols) if m[r][j]), None)
        if piv is None:
            continue
        for row in m:
            row[cur], row[piv] = row[piv], row[cur]
        # Euclid on row r between the pivot column and every later column
        for j in range(cur + 1, cols):
            while m[r][j]:
                if abs(m[r][j]) < abs(m[r][cur]):
                    for row in m:
                        row[cur], row[j] = row[j], row[cur]
                q = m[r][j] // m[r][cur]
                for row in m:
                    row[j] -= q * row[cur]
        if m[r][cur] < 0:
            for row in m:
                row[cur] = -row[cur]
        # reduce earlier columns modulo the pivot
        for j in range(cur):
            q = m[r][j] // m[r][cur]
            if q:
                for row in m:
                    row[j] -= q * row[cur]
        cur += 1
        if cur == cols:
            break
    # drop zero columns for a canonical presentation
    keep = [j for j in range(cols) if any(row[j] for row in m)]
    return [[row[j] for j in keep] for row in m]
