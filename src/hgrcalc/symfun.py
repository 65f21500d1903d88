"""Partitions, box enumeration, and symmetric polynomials in the e-generators.

Polynomials live in Z[e_1..e_r] with deg(e_i) = i (the Pontryagin weight
grading).  The Schur basis has one algorithm, the Littlewood-Richardson rule
on the partitions themselves, in one pass per product: the states of every
partition of one factor merge, and the strips of the other factor's
partitions are shared along a trie of their rows.  Where the trie goes on
in one-cell rows only, the labels are forced and that tail is placed as a
vertical strip; near the top of the box the pass multiplies by the
complements of the box instead (c^nu_{lam,mu} = c^{lam^}_{mu,nu^}), whose
strips are shorter.  It multiplies Schur combinations, and since
e_k = s_(1^k) it expands e-monomials over the Schur classes of a
rows x cols box; Schur polynomials invert that expansion.
"""

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import sub

from . import _is_integer
from .polynomial import PolyRing


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not all(_is_integer(p) and p > 0 for p in parts):
            raise ValueError("partition parts must be positive integers")
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
            # nonincreasing by construction, so no validation
            out.append(Partition._trusted(lam))
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
    each is computed from the lower ones first; all are kept per (mu, m),
    in the m = min(r, |lambda|) generators e_1..e_m that s_lambda involves,
    and padded with zero exponents to r generators.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if lam.length() > r:
        return elementary_ring(r).zero()
    m = min(r, lam.weight())
    expansion = _monomial_schur(_conjugate_exponents(lam, m), m, lam.part(1))
    for mu in sorted(expansion, key=lambda p: p.parts):
        if (mu, m) not in _schur_memo:
            exps = _conjugate_exponents(mu, m)
            poly = elementary_ring(m).monomial(exps)
            for nu, c in _monomial_schur(exps, m, mu.part(1)).items():
                if nu != mu:
                    poly = poly - c * _schur_memo[nu, m]
            _schur_memo[mu, m] = poly
    if (lam, r) not in _schur_memo:
        _schur_memo[lam, r] = _schur_memo[lam, m].map_to(elementary_ring(r),
                                                         range(m))
    return _schur_memo[lam, r]


def _conjugate_exponents(lam, r):
    """e_{lambda'} = prod_j e_j^(lambda_j - lambda_{j+1}) as exponents."""
    return tuple(lam.part(j) - lam.part(j + 1) for j in range(1, r + 1))


def lr_multiply(xs, ys, rows, cols):
    """{nu: sum x_lam y_mu c^nu_{lam,mu}} over the nu in the rows x cols box.

    xs and ys are combinations {Partition: coefficient}; one product
    s_lam * s_mu is lr_multiply({lam: 1}, {mu: 1}, ..).  Coefficients are
    only added and multiplied.  A coefficient may be zero; the element built
    from the map drops it.

    Littlewood-Richardson rule (Remmel-Whitney; Fulton, Young Tableaux 5.2):
    the rows of each mu of the strip factor are added to each lam of the
    base factor as horizontal strips labelled 1, 2, ..  The strip factor is
    the one whose partitions have fewer rows, on a tie the one with fewer
    terms; `_lr_states` runs the rule.

    Near the top of the box the product runs through the duality of the
    box (Fulton, Young Tableaux 9.4): c^nu_{lam,mu} = c^{lam^}_{mu,nu^},
    where nu^ = (cols - nu_rows, .., cols - nu_1) is nu's complement.  When
    both factors are homogeneous, of weights a and b, and the product
    leaves f = rows*cols - a - b cells free, fewer than either weight, the
    pass multiplies the factor with fewer terms by every s_{nu^} of weight
    f at once, one strip trie whose ends are keyed by nu, and reads the
    other factor at the complements lam^ of the shapes it reaches: the
    strips have f cells instead of min(a, b).  In a box of one row or one
    column, or beside s_(1) (a = 1, f = 0), every strip is one row or one
    cell either way, so there the complements are not taken: their set-up
    measured slower.
    """
    xs, x_rows, x_light, x_heavy = _box_terms(xs, rows, cols)
    ys, y_rows, y_light, y_heavy = _box_terms(ys, rows, cols)
    room = rows * cols
    free = room - x_light - y_light
    if free < 0:  # no two terms fit in the box together
        return {}
    if (x_light == x_heavy and y_light == y_heavy and rows > 1 and cols > 1
            and 1 < x_light and 1 < y_light
            and free < x_light and free < y_light):
        # the factor with fewer terms starts the states, the other is read
        if len(xs) < len(ys):
            xs, ys = ys, xs
        # padded lam^ -> x_lam
        dual = {_complement(parts, rows, cols): c for parts, c in xs.items()}
        root = _strip_trie((parts, _complement(parts, rows, cols))
                           for parts in _partitions_in_box(free, rows, cols))
        acc = {}  # padded nu -> coefficient
        for nu, finals in _lr_states(ys, root, rows, cols):
            for shape, mult in finals.items():
                c = dual.get(shape)
                if c is not None:
                    s = acc.get(nu)
                    acc[nu] = mult * c if s is None else s + mult * c
    else:
        if (y_rows, len(ys)) > (x_rows, len(xs)):
            xs, ys = ys, xs
            x_light, y_light, x_heavy, y_heavy = y_light, x_light, y_heavy, x_heavy
        # a term that cannot fit in the box beside the other factor's
        # lightest term drops out
        if y_heavy + x_light > room:
            ys = {parts: c for parts, c in ys.items()
                  if sum(parts) + x_light <= room}
        if x_heavy + y_light > room:
            xs = {parts: c for parts, c in xs.items()
                  if sum(parts) + y_light <= room}
        root = _strip_trie(ys.items())
        acc = {}  # padded shape -> coefficient
        for y, finals in _lr_states(xs, root, rows, cols):
            for shape, mult in finals.items():
                s = acc.get(shape)
                acc[shape] = mult * y if s is None else s + mult * y
    # Partition._trusted, inline: this runs once per term of every product
    out = {}
    new = object.__new__
    for shape, c in acc.items():
        lam = new(Partition)
        lam.parts = shape[:rows - shape.count(0)]
        out[lam] = c
    return out


def _strip_trie(terms):
    """The trie on the rows of the strip factor's (parts, value) pairs.

    A node is [value where a partition ends there or None, {next row:
    node}, tail].  Below a row of 1 every row is 1, so all that is left
    below a node's 1 is one path of one-cell rows; it is kept apart as the
    node's tail, where tail[k - 1] is the value of the partition that ends
    k one-cell rows down, or None.
    """
    root = [None, {}, None]
    for parts, value in terms:
        ones = parts.count(1)
        node = root
        for m in parts[:len(parts) - ones]:
            child = node[1].get(m)
            if child is None:
                child = node[1][m] = [None, {}, None]
            node = child
        if ones:
            tail = node[2]
            if tail is None:
                tail = node[2] = [None] * ones
            elif len(tail) < ones:
                tail += [None] * (ones - len(tail))
            tail[ones - 1] = value
        else:
            node[0] = value
    return root


def _lr_states(base, root, rows, cols):
    """Yield (value, {padded shape: multiplicity}) where each strip partition
    of the trie ends: the fillings of the base terms {parts: multiplicity}
    by its rows, as Littlewood-Richardson tableaux, summed by shape.

    The reading word (rows top to bottom, each right to left) is a lattice
    word exactly when, for every row j, the label-i cells in rows <= j
    number at most the label-(i-1) cells in rows < j; each strip keeps that
    bound while it grows.  Every base term starts one state, and fillings
    that reach the same shape and running label counts merge by adding
    multiplicities: the steps are linear, so one pass serves the whole base.
    The trie is walked depth first with one strip step per node, so
    partitions that share their first rows share those steps.  A tail of
    one-cell rows has its labels forced: each cell goes strictly below the
    one before it, the first strictly below the first row holding the
    node's label, and each must be addable to the shape; so a tail is one
    enumeration of such cell sequences per state, keyed by shape alone.

    A state is keyed by its shape, padded to the rows of the box, and by
    what the node's children read (keep): cum, with cum[j] the count of the
    node's label in rows <= j, where a strip follows (2); the row a tail
    starts from, one below the label's first row, where only a tail
    follows (1); nothing at a leaf (0).
    """
    def place(j, left, total):
        """Grows strip i (label i + 1) from row j down, editing shape in
        place; it reads the state being extended (old, above, mult)."""
        o = old[j]
        hi = (old[j - 1] if j else cols) - o
        if i:
            bound = above[j - 1] - total
            if bound < hi:
                hi = bound
        if left < hi:
            hi = left
        lo = left - o + old[-1]  # the rows below j take at most o - old[-1]
        for a in range(lo if lo > 0 else 0, hi + 1):
            shape[j] = o + a
            if a < left:
                place(j + 1, left - a, total + a)
                continue
            key = tuple(shape)
            if keep:
                if keep == 2:
                    key = (key, tuple(accumulate(map(sub, shape, old))))
                else:
                    top = 0
                    while shape[top] == old[top]:
                        top += 1
                    key = (key, top + 1)
            s = nxt.get(key)
            nxt[key] = mult if s is None else s + mult
        shape[j] = o

    def descend(j, d):
        """Adds cell d of the tail in row j or below, editing shape in
        place; it reads mult, and adds to ends[d] where a partition ends."""
        f = ends[d]
        d += 1
        while j < rows:
            o = shape[j]
            if o < (shape[j - 1] if j else cols):
                shape[j] = o + 1
                if f is not None:
                    key = tuple(shape)
                    s = f.get(key)
                    f[key] = mult if s is None else s + mult
                if d < depth:
                    descend(j + 1, d)
                shape[j] = o
            j += 1

    keep = 2 if root[1] else 1 if root[2] else 0
    nxt = {}
    for parts, c in base.items():
        shape = parts + (0,) * (rows - len(parts))
        nxt[(shape, ()) if keep == 2 else (shape, 0) if keep else shape] = c
    # (node, the states before its strip, i, m): the node adds strip i, of
    # m cells; the root adds none
    stack = [(root, None, -1, 0)]
    while stack:
        (y, children, tail), states, i, m = stack.pop()
        keep = 2 if children else 1 if tail else 0
        if m:
            nxt = {}
            for (old, above), mult in states.items():
                # label i + 1 starts below the first row holding label i
                start = above.count(0) + 1 if i else 0
                if start < rows:
                    shape = list(old)
                    place(start, m, 0)
        if not nxt:
            continue
        if y is not None:
            if keep:
                out = {}
                for (shape, _), mult in nxt.items():
                    s = out.get(shape)
                    out[shape] = mult if s is None else s + mult
                yield y, out
            else:
                yield y, nxt
        if tail:
            depth = len(tail)
            ends = [None if v is None else {} for v in tail]
            for (old, start), mult in nxt.items():
                if keep == 2:
                    start = start.count(0) + 1 if start else 0
                shape = list(old)
                descend(start, 0)
            for v, f in zip(tail, ends):
                if f:
                    yield v, f
        for m, child in children.items():
            stack.append((child, nxt, i + 1, m))


def _box_terms(zs, rows, cols):
    """The terms of zs inside the rows x cols box as {parts: coefficient},
    with their most rows, their least weight and their greatest weight."""
    out = {}
    most = 0
    least = rows * cols + 1
    heaviest = -1
    for lam, c in zs.items():
        parts = lam.parts
        if len(parts) <= rows and (not parts or parts[0] <= cols):
            out[parts] = c
            if len(parts) > most:
                most = len(parts)
            w = sum(parts)
            if w < least:
                least = w
            if w > heaviest:
                heaviest = w
    return out, most, least, heaviest


def _complement(parts, rows, cols):
    """The complement of parts in the rows x cols box, padded to rows."""
    return tuple(map(cols.__sub__, (0,) * (rows - len(parts)) + parts[::-1]))


def _partitions_in_box(w, rows, cols):
    """Every partition of w with at most rows parts, each at most cols."""
    if not w:
        yield ()
    elif rows:
        for p in range(min(w, cols), 0, -1):
            for rest in _partitions_in_box(w - p, rows - 1, p):
                yield (p,) + rest


def poly_to_schur_coords(poly, rows, cols):
    """Partition -> coefficient of poly over the rows x cols box's Schur classes.

    The s_mu with mu_1 > cols span the ideal (h_{cols+1},..,h_{cols+rows})
    (Fulton, Young Tableaux 9.4), so every product by e_k may drop them.  A
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

    e_k is s_(1^k), so each factor e_k is one Littlewood-Richardson product
    on the whole running combination.  Each call peels a whole power e_k^a,
    so the depth is at most len(exps).
    """
    k = max((i + 1 for i, a in enumerate(exps) if a), default=0)
    if not k:
        return {EMPTY: 1}
    out = _monomial_schur(exps[:k - 1] + (0,) * (len(exps) - k + 1), rows, cols)
    column = {Partition._trusted((1,) * k): 1}
    for _ in range(exps[k - 1]):
        out = lr_multiply(out, column, rows, cols)
    return out


def poly_json(poly):
    """Canonical JSON form: graded-lex sorted [{exponents, coeff}]."""
    return [{"exponents": list(e), "coeff": str(c)}
            for e, c in poly.sorted_terms()]
