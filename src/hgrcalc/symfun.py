"""Partitions, box enumeration, and symmetric polynomials in the e-generators.

Polynomials live in Z[e_1..e_r] with deg(e_i) = i (the Pontryagin weight
grading).  The Pieri rule for e_k inside a rows x cols box expands
e-monomials over Schur classes; Schur polynomials invert that expansion.
Products of two Schur classes come from the Littlewood-Richardson rule on
the partitions themselves.
"""

from functools import lru_cache
from math import comb

from .polynomial import PolyRing


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        self.parts = parts

    @classmethod
    def _trusted(cls, parts):
        """A partition from a tuple of ints that is one by construction."""
        lam = object.__new__(cls)
        lam.parts = parts
        return lam

    def weight(self):
        return sum(self.parts)

    def length(self):
        return len(self.parts)

    def fits_in_box(self, rows, cols):
        return self.length() <= rows and (not self.parts or self.parts[0] <= cols)

    def part(self, i):
        """The i-th part (1-indexed), zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return sort_key(self) < sort_key(other)

    def __repr__(self):
        if not self.parts:
            return "∅"
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def to_json(self):
        return list(self.parts)


EMPTY = Partition()


def sort_key(lam):
    """Graded-lexicographic key used everywhere partitions are listed."""
    return (lam.weight(), lam.parts)


def enumerate_box_partitions(r, cols):
    """All partitions fitting in an r x cols box, graded-lex sorted.

    Includes the empty partition; the count is binomial(r + cols, r).
    """
    if r < 0 or cols < 0:
        raise ValueError("box dimensions must be nonnegative")
    out = [EMPTY]
    stack = [(())]
    while stack:
        prefix = stack.pop()
        bound = prefix[-1] if prefix else cols
        if len(prefix) == r:
            continue
        for p in range(1, bound + 1):
            lam = prefix + (p,)
            out.append(Partition(lam))
            stack.append(lam)
    out.sort(key=sort_key)
    assert len(out) == comb(r + cols, r)
    return out


@lru_cache(maxsize=None)
def elementary_ring(r):
    """Z[e_1..e_r] with deg(e_i) = i."""
    return PolyRing(tuple("e%d" % i for i in range(1, r + 1)),
                    tuple(range(1, r + 1)))


def elementary(i, r):
    """e_i as a polynomial in Z[e_1..e_r]; zero for i > r, one for i = 0."""
    ring = elementary_ring(r)
    if i == 0:
        return ring.one()
    if i < 0 or i > r:
        return ring.zero()
    return ring.gen(i - 1)


def complete_from_elementary(k, r):
    """h_k in the e-generators via h_k = sum_{i>=1} (-1)^{i+1} e_i h_{k-i}."""
    if k < 0:
        return elementary_ring(r).zero()
    hs = _complete_list(k, r)
    return hs[k]


@lru_cache(maxsize=None)
def _complete_table(r):
    return [elementary_ring(r).one()]


def _complete_list(k, r):
    hs = _complete_table(r)
    while len(hs) <= k:
        m = len(hs)
        acc = elementary_ring(r).zero()
        for i in range(1, min(m, r) + 1):
            term = elementary(i, r) * hs[m - i]
            acc = acc + term if i % 2 == 1 else acc - term
        hs.append(acc)
    return hs


_schur_memo = {}  # (mu, r) -> s_mu in Z[e_1..e_r]


def schur_in_elementary(lam, r):
    """s_lambda as a polynomial in Z[e_1..e_r]; zero beyond r rows.

    Kostka inversion: e_{lambda'} = s_lambda + sum K_{mu'lambda'} s_mu over
    mu strictly dominated by lambda (Macdonald I.6), and that sum's mu are
    exactly the s_mu the inversion needs.  Lex order refines dominance, so
    each is computed from the lower ones first; all are kept per (mu, r).
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if lam.length() > r:
        return elementary_ring(r).zero()
    expansion = _monomial_schur(_conjugate_exponents(lam, r), r, lam.part(1))
    for mu in sorted(expansion, key=lambda m: m.parts):
        if (mu, r) not in _schur_memo:
            exps = _conjugate_exponents(mu, r)
            poly = elementary_ring(r).monomial(exps)
            for nu, c in _monomial_schur(exps, r, mu.part(1)).items():
                if nu != mu:
                    poly = poly - c * _schur_memo[nu, r]
            _schur_memo[mu, r] = poly
    return _schur_memo[lam, r]


def _conjugate_exponents(lam, r):
    """e_{lambda'} = prod_j e_j^(lambda_j - lambda_{j+1}) as exponents."""
    return tuple(lam.part(j) - lam.part(j + 1) for j in range(1, r + 1))


def pieri_multiply(lam, k, rows, cols):
    """The mu with s_lam * e_k = sum s_mu inside the rows x cols box.

    mu/lam is a vertical k-strip: it grows the top rows of each run of equal
    parts of lam (the empty rows of the box too), none past `cols`.
    """
    parts = list(lam.parts) + [0] * (rows - lam.length())
    firsts = [i for i in range(rows) if i == 0 or parts[i] < parts[i - 1]]
    ends = firsts[1:] + [rows]
    caps = [e - f if parts[f] < cols else 0 for f, e in zip(firsts, ends)]
    room = [sum(caps[b:]) for b in range(len(caps) + 1)]
    if k > room[0]:
        return []
    out = []
    stack = [(0, k, parts)]
    while stack:
        b, left, mu = stack.pop()
        if not left:
            out.append(Partition._trusted(tuple(p for p in mu if p)))
            continue
        f = firsts[b]
        # the runs below take at most room[b + 1]; every push can finish
        for j in range(max(0, left - room[b + 1]), min(caps[b], left) + 1):
            grown = mu[:f] + [p + 1 for p in mu[f:f + j]] + mu[f + j:]
            stack.append((b + 1, left - j, grown))
    return out


def lr_multiply(lam, mu, rows, cols):
    """{nu: c^nu_{lam,mu}} over the nu in the rows x cols box.

    Littlewood-Richardson rule (Remmel-Whitney; Fulton, Young Tableaux 5.2):
    the rows of the factor with fewer rows are added to the other factor as
    horizontal strips labelled 1, 2, ..  The reading word (rows top to
    bottom, each right to left) is a lattice word exactly when, for every
    row j, the label-i cells in rows <= j number at most the label-(i-1)
    cells in rows < j; each strip keeps that bound while it grows.  Fillings
    that reach the same shape and running label counts are merged.
    """
    if len(mu.parts) > len(lam.parts):
        lam, mu = mu, lam
    if (not lam.fits_in_box(rows, cols) or not mu.fits_in_box(rows, cols)
            or lam.weight() + mu.weight() > rows * cols):
        return {}
    if not mu.parts:
        return {lam: 1}
    last = len(mu.parts) - 1

    # grows strip i (label i + 1) from row j down; it reads the state being
    # extended (old, above, mult) and the partial strip (shape, cum) from the
    # loop below
    def place(j, left, total):
        o = old[j]
        hi = (old[j - 1] if j else cols) - o
        if i:
            bound = (above[j - 1] if j <= len(above) else mu.parts[i - 1]) - total
            if bound < hi:
                hi = bound
        if left < hi:
            hi = left
        lo = left - o + old[-1]  # the rows below j take at most o - old[-1]
        for a in range(lo if lo > 0 else 0, hi + 1):
            shape.append(o + a)
            cum.append(total + a)
            if a < left:
                place(j + 1, left - a, total + a)
            else:
                key = tuple(shape) + old[j + 1:]
                if i < last:
                    key = (key, tuple(cum))
                nxt[key] = nxt.get(key, 0) + mult
            shape.pop()
            cum.pop()

    # a state is (shape, cum): cum[j] counts the cells of the latest label
    # in rows <= j, up to the row where that label is complete; after the
    # last strip the shape alone is the key
    states = {(lam.parts + (0,) * (rows - len(lam.parts)), ()): 1}
    for i, m in enumerate(mu.parts):
        nxt = {}
        for (old, above), mult in states.items():
            # label i + 1 starts below the first row holding label i
            start = next(j for j, a in enumerate(above) if a) + 1 if i else 0
            if start < rows:
                shape = list(old[:start])
                cum = [0] * start
                place(start, m, 0)
        states = nxt
    out = {}
    for shape, mult in states.items():
        out[Partition._trusted(tuple(p for p in shape if p))] = mult
    return out


def poly_to_schur_coords(poly, rows, cols):
    """Partition -> coefficient of poly over the rows x cols box's Schur classes.

    The s_mu with mu_1 > cols span the ideal (h_{cols+1},..,h_{cols+rows})
    (Fulton, Young Tableaux 9.4), so every Pieri step may drop them.  A
    coefficient may be zero; the element built from the map drops it.
    """
    coords = {}
    get = coords.get
    for exps, coeff in poly.terms.items():
        for lam, c in _monomial_schur(exps, rows, cols).items():
            s = get(lam)
            coords[lam] = coeff * c if s is None else s + coeff * c
    return coords


@lru_cache(maxsize=None)
def _monomial_schur(exps, rows, cols):
    """Box-bounded Schur expansion of the e-monomial with these exponents.

    Each call peels a whole power e_k^a, so the depth is at most len(exps).
    """
    k = max((i + 1 for i, a in enumerate(exps) if a), default=0)
    if not k:
        return {EMPTY: 1}
    out = _monomial_schur(exps[:k - 1] + (0,) * (len(exps) - k + 1), rows, cols)
    for _ in range(exps[k - 1]):
        base, out = out, {}
        for lam, c in base.items():
            for mu in pieri_multiply(lam, k, rows, cols):
                out[mu] = out.get(mu, 0) + c
    return out


def poly_json(poly):
    """Canonical JSON form: graded-lex sorted [{exponents, coeff}]."""
    return [{"exponents": list(e), "coeff": str(c)}
            for e, c in poly.sorted_terms()]
