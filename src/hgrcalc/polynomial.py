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
        """An element of the same type and ring with these terms.  It takes
        over `terms`, a fresh dict no other code holds, and copies it only
        to drop a zero coefficient."""
        x = object.__new__(type(self))
        x.ring = self.ring
        x.terms = (terms if all(terms.values())
                   else {k: c for k, c in terms.items() if c})
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
        if c == 1:  # elements are values, so the element itself serves
            return self
        return self._new({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)


class Poly(Combination):
    """Sparse exact polynomial: dict from exponent tuples to coefficients.

    Sums, differences and equality also take a scalar, as a constant."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Poly) and isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return Combination.__eq__(self, other)

    __hash__ = Combination.__hash__

    def constant_term(self):
        zero_exp = (0,) * len(self.ring.gens)
        return self.terms.get(zero_exp, 0)

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
    try:  # elements of a field with its own division, such as GF(q)
        return a / b
    except TypeError:
        raise TypeError("no exact division for %r / %r"
                        % (type(a), type(b))) from None


# ---------------------------------------------------------------------------
# Matrix helpers, the library's only matrix code: SparseMatrix for Poly
# entries, and lists of lists with entries in any commutative ring.  Entries
# are values that no code edits in place (the one dict written after
# construction is the fresh one of GWElement.__init__), so a single `zero`
# object fills every zero entry, a PolyRing's zero() included.  mat_mul
# lists the nonzero entries of each row of b once, and an entry that no
# product reaches is the `zero` argument itself; under a Poly zero it
# multiplies as SparseMatrix.  `zero` and `one` default to the integers.
# ---------------------------------------------------------------------------


class SparseMatrix:
    """A matrix of Poly entries of one ring: its column count and one
    {column: entry} dict per row, zeros never stored.

    A product with a signed relabelling, a factor whose rows each hold at
    most one entry, the constant 1 or -1 with an int coefficient, is a
    re-indexing: a left relabelling picks and signs rows of the right
    factor, and a right one whose entries lie in distinct columns moves and
    signs the entries of each row of the left factor.  Such a product shares
    the other factor's entries and negates each distinct entry once, with
    the terms and order the general product gives.  Every other product
    sums c1*c2 at e1+e2 from the entries' terms into one dict per reached
    entry and builds one Poly for each that does not cancel.  `map`,
    negation included, calls its function once per distinct entry, so
    entries shared in the matrix stay shared in the image."""

    __slots__ = ("cols", "rows")

    def __init__(self, cols, rows):
        self.cols = cols
        self.rows = rows

    @classmethod
    def zeros(cls, rows, cols):
        return cls(cols, [{} for _ in range(rows)])

    @classmethod
    def coerce(cls, ring, m, cols):
        """The dense rows m, each cols long, over ring: a Poly of ring stays,
        an int or Fraction x becomes ring.const(Fraction(x)), another ring
        element (of GF(q), say) ring.const(x), and a zero is left out; a
        nonzero Poly of another ring raises ValueError."""
        rows = []
        for row in m:
            out = {}
            for j, x in enumerate(row):
                if not x:
                    continue
                if isinstance(x, Poly):
                    if x.ring is not ring and x.ring != ring:
                        raise ValueError("elements of different rings: %r "
                                         "and %r" % (ring, x.ring))
                elif isinstance(x, (int, Fraction)):
                    x = ring.const(Fraction(x))
                else:
                    x = ring.const(x)
                out[j] = x
            rows.append(out)
        return cls(cols, rows)

    @property
    def shape(self):
        return (len(self.rows), self.cols)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.cols == other.cols and self.rows == other.rows

    def __repr__(self):
        return "SparseMatrix(%d, %r)" % (self.cols, self.rows)

    def dense(self, zero):
        """The rows as lists, `zero` in every entry not stored."""
        out = []
        for row in self.rows:
            dense = [zero] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def __mul__(self, other):
        if self.cols != len(other.rows):
            raise ValueError("matrix shapes %sx%s and %sx%s do not compose"
                             % (self.shape + other.shape))
        picks = _relabelling(self.rows, False)
        moves = None if picks is not None else _relabelling(other.rows, True)
        if picks is not None or moves is not None:
            negatives = {}  # id of an entry -> its negative, built once

            def negative(x):
                y = negatives.get(id(x))
                if y is None:
                    y = negatives[id(x)] = -x
                return y

            out = []
            if picks is not None:  # row i is sign * row k of other
                for pick in picks:
                    if pick is None:
                        out.append({})
                    elif pick[1] > 0:
                        out.append(dict(other.rows[pick[0]]))
                    else:
                        out.append({j: negative(y) for j, y
                                    in other.rows[pick[0]].items()})
            else:  # entry (i, k) moves to column j of row i, times sign
                for row in self.rows:
                    new = {}
                    for k, x in row.items():
                        move = moves[k]
                        if move is not None:
                            j, sign = move
                            new[j] = x if sign > 0 else negative(x)
                    out.append(new)
            return SparseMatrix(other.cols, out)
        out = []
        for row in self.rows:
            sums = {}  # column -> the term dict of the entry
            for k, x in row.items():
                xs = x.terms.items()
                for j, y in other.rows[k].items():
                    d = sums.get(j)
                    if d is None:
                        d = sums[j] = {}
                    for e2, c2 in y.terms.items():
                        for e1, c1 in xs:  # a constant keeps y's exponents
                            e = tuple(map(add, e1, e2)) if any(e1) else e2
                            s = d.get(e)
                            d[e] = c1 * c2 if s is None else s + c1 * c2
            # x, any entry of the row, builds Polys of its type and ring
            out.append({j: x._new(d) for j, d in sums.items()
                        if any(d.values())})
        return SparseMatrix(other.cols, out)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                out[j][i] = x
        return SparseMatrix(len(self.rows), out)

    def map(self, f, images=None):
        """The matrix of the nonzero f(x), f called once per distinct entry
        x; `images`, an id -> image dict, may carry the images across
        calls, whose entries must then outlive it."""
        if images is None:
            images = {}
        rows = []
        for row in self.rows:
            out = {}
            for j, x in row.items():
                y = images.get(id(x))
                if y is None:
                    y = images[id(x)] = f(x)
                if y:
                    out[j] = y
            rows.append(out)
        return SparseMatrix(self.cols, rows)

    def __neg__(self):
        return self.map(Poly.__neg__)


def _relabelling(rows, distinct):
    """Per row, None for an empty row and (k, sign) for a row whose one
    entry, in column k, is the constant sign = 1 or -1 with an int
    coefficient; None if a row holds anything else or, when `distinct` is
    set, two rows share a column.  An int 1 or -1 times any coefficient c
    is c or -c, of c's type, so sharing and negating give the general
    product's terms."""
    out = []
    seen = set()
    unit = None  # the exponents of a constant
    for row in rows:
        if len(row) != 1:
            if row:
                return None
            out.append(None)
            continue
        ((k, x),) = row.items()
        if len(x.terms) != 1:
            return None
        if unit is None:
            unit = (0,) * len(x.ring.gens)
        c = x.terms.get(unit)
        if type(c) is not int or (c != 1 and c != -1):
            return None
        if distinct:
            if k in seen:
                return None
            seen.add(k)
        out.append((k, c))
    return out


def mat_shape(m):
    return (len(m), len(m[0]) if m else 0)


def mat_identity(n, one=1, zero=0):
    m = [[zero] * n for _ in range(n)]
    for i, row in enumerate(m):
        row[i] = one
    return m


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
    if isinstance(zero, Poly):
        product = (SparseMatrix.coerce(zero.ring, a, ca)
                   * SparseMatrix.coerce(zero.ring, b, cb))
        return product.dense(zero)
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
    with 0 <= d_i | d_{i+1}.

    Rows above t are finished, d_i e_i, so the column swap changes rows
    t.. of D only, and once column t is p e_t a column operation changes
    row t of D only.  V is kept by columns, so a swap moves two lists and
    an operation changes one, and is transposed once on return."""
    rows, cols = mat_shape(a)
    d = [list(r) for r in a]
    u = mat_identity(rows)
    vt = mat_identity(cols)  # the columns of V
    t = 0
    n = min(rows, cols)
    while t < n:
        pivot = _least_entry(d, t)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for i in range(t, rows):
                row = d[i]
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
        # every entry of the block is at least |p|, so each quotient below
        # is nonzero and leaves a remainder of at most |p| / 2
        dt, ut = d[t], u[t]
        p = dt[t]
        left = False
        for i in range(t + 1, rows):
            x = d[i][t]
            if x:
                q = (2 * x + p) // (2 * p)  # the integer nearest x / p
                d[i] = di = [y - q * z for y, z in zip(d[i], dt)]
                u[i] = [y - q * z for y, z in zip(u[i], ut)]
                if di[t]:
                    left = True
        if left:
            continue  # a remainder is left in column t: re-pick
        # column j -= q * column t: row t of D and column j of V
        vc = None  # the nonzero entries of column t of V
        for j in range(t + 1, cols):
            x = dt[j]
            if x:
                q = (2 * x + p) // (2 * p)
                dt[j] = x - q * p
                if vc is None:
                    vc = [(i, z) for i, z in enumerate(vt[t]) if z]
                vj = vt[j]
                for i, z in vc:
                    vj[i] -= q * z
        if any(dt[t + 1:]):
            continue  # a remainder is left in row t: re-pick
        bad = None
        if p != 1 and p != -1:
            for i in range(t + 1, rows):
                if any(x % p for x in d[i][t + 1:]):
                    bad = i
                    break
        if bad:
            # row_t += row_bad brings an entry p does not divide into row t
            d[t] = [y + z for y, z in zip(dt, d[bad])]
            u[t] = [y + z for y, z in zip(ut, u[bad])]
            continue
        if p < 0:
            d[t] = [-y for y in dt]
            u[t] = [-y for y in ut]
        t += 1
    return u, d, mat_transpose(vt)


def _least_entry(d, t):
    """(i, j) of the first nonzero entry of least |value| in d[t:][t:]."""
    least = pivot = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            x = row[j]
            if x:
                if x == 1 or x == -1:
                    return i, j
                x = abs(x)
                if pivot is None or x < least:
                    least, pivot = x, (i, j)
    return pivot


def invariant_factors(a):
    """The nonzero diagonal entries of the Smith form of a, 1s included."""
    _, d, _ = smith_normal_form(a)
    return [d[t][t] for t in range(min(mat_shape(d))) if d[t][t]]


def hermite_column_form(a):
    """Canonical column Hermite normal form; equal spans give equal forms.

    The matrix is kept by columns, so a swap moves two lists.  Rows above
    r are zero from column cur on, so every column operation at row r
    changes rows r.. only."""
    rows, cols = mat_shape(a)
    m = [list(col) for col in zip(*a)]  # the columns
    cur = 0
    for r in range(rows):
        # a column at or past cur with a nonzero entry in row r
        for piv in range(cur, cols):
            if m[piv][r]:
                break
        else:
            continue
        c = m[piv]
        m[cur], m[piv] = c, m[cur]
        p = c[r]
        # Euclid on row r between the pivot column c and every later column
        for j in range(cur + 1, cols):
            cj = m[j]
            x = cj[r]
            while x:
                if abs(x) < abs(p):
                    m[cur], m[j] = cj, c
                    c, cj, p, x = cj, c, x, p
                q = x // p
                for i in range(r, rows):
                    if c[i]:
                        cj[i] -= q * c[i]
                x = cj[r]
        if p < 0:
            c[r:] = [-y for y in c[r:]]
            p = -p
        # reduce earlier columns modulo the pivot
        for j in range(cur):
            cj = m[j]
            q = cj[r] // p
            if q:
                for i in range(r, rows):
                    if c[i]:
                        cj[i] -= q * c[i]
        cur += 1
        if cur == cols:
            break
    # drop zero columns for a canonical presentation
    keep = [col for col in m if any(col)]
    return [[col[i] for col in keep] for i in range(rows)]
