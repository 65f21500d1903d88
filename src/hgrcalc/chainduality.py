"""Bounded complexes of free modules with duality and Koszul structures.

Every sign below is (-1)^e for the stated exponent e, applied by `_signed`;
the same table is the chain-duality entry of the README's "Conventions"
section.  The values are pinned by two requirements: the rank-one Koszul
complex must carry the symmetric form with components (-1, 1) against the
shifted dual with negated differential, and tensor products of Koszul
forms must agree with the merged Koszul form on the nose.

  dual differential   (d^v)_k = (-1)^k (d_{-k+1})^T
  shift               (X[n])_k = X_{k-n},  d^[n] = (-1)^n d
  transpose of a degree-n form   (phi^t)_k = (-1)^{k(n-k)+n} (phi_{n-k})^T
  Koszul normalization           Theta_k = (-1)^k * (wedge-complement pairing)
  tensor differential            d(x@y) = dx@y + (-1)^{|x|} x@dy
  tensor of forms                nu(p,q) = (-1)^{q(r-p)} on the (p,q) block
  factor swap                    m_p@n_q -> (-1)^{pq} n_q@m_p

With the dual sign (-1)^k the double dual carries negated differentials, so
the identification X ~ X^vv uses (-1)^k, not the identity.

No further sign is stated.  One function moves forms: `transport_sign`
pulls a form back along a signed relabelling of basis labels and returns
the sign it observes.  Along the Koszul merge it must be +1; along the
factor swap (`swap_sign`) it is (-1)^{rs} for forms of degrees r and s.
For the Koszul forms, the Thom classes of A^r and A^s, that sign is the
switch <-1>^{rs} on T^r ^ T^s.

Differentials and forms are `SparseMatrix` values, which store only the
nonzero entries (5 120 of the 167 960 entries of the Koszul differentials
at n = 10), and every check is a sparse product: d o d, both sides of the
chain condition, ds + sd, and the relabelling iota of `transport_sign`,
one constant per column.  The Koszul and tensor forms, iota and their
transposes are signed relabellings, at most one constant +-1 per row, so
the product applies them by re-indexing, sharing the other factor's
entries; d o d and ds + sd multiply terms.  A form block with one
constant per row and column is certified by its inverse; any other block
by a Bareiss determinant that must be a unit.  `koszul(n)` is built and
verified once per n and kept in a module table; each call returns a copy
with its own row dicts.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import neg

from . import HgrcalcError
from .polynomial import PolyRing, SparseMatrix, bareiss_det


def _signed(e, m):
    """(-1)^e * m for an integer, a polynomial or a SparseMatrix."""
    return -m if e % 2 else m


class ChainError(HgrcalcError):
    pass


def _matrix(ring, m, shape, what):
    """m, dense rows or a SparseMatrix, as a SparseMatrix of this shape
    over ring; dense rows pass the one coercion, `SparseMatrix.coerce`."""
    if not isinstance(m, SparseMatrix):
        if any(len(row) != shape[1] for row in m):
            raise ChainError("%s has the wrong shape" % what)
        try:
            m = SparseMatrix.coerce(ring, m, shape[1])
        except ValueError as err:
            raise ChainError("%s: %s" % (what, err)) from None
    if m.shape != shape:
        raise ChainError("%s has the wrong shape" % what)
    return m


def _identity(ring, n):
    one = ring.one()
    return SparseMatrix(n, [{i: one} for i in range(n)])


class FreeComplex:
    """Bounded complex of free modules over a polynomial ring.

    ranks maps homological degree to a positive rank; diffs maps k to the
    matrix of d_k : X_k -> X_{k-1} (rows index X_{k-1}), as dense rows or a
    SparseMatrix, kept in `differentials`.  d o d = 0 is checked on
    construction.
    """

    def __init__(self, ring, ranks, diffs, labels=None):
        self.ring = ring
        self.ranks = {k: r for k, r in ranks.items() if r}
        self.differentials = {}
        for k, m in diffs.items():
            shape = (self.rank(k - 1), self.rank(k))
            if all(shape):
                self.differentials[k] = _matrix(ring, m, shape,
                                                "differential %d" % k)
        self.labels = labels or {}
        self.validate()

    @cached_property
    def diffs(self):
        """The differentials as dense rows, built on the first read, which
        `to_json` prints: an edit to them is seen by later reads of this
        complex, and by no check."""
        zero = self.ring.zero()
        return {k: m.dense(zero) for k, m in self.differentials.items()}

    def rank(self, k):
        return self.ranks.get(k, 0)

    def support(self):
        if not self.ranks:
            return (0, -1)
        return (min(self.ranks), max(self.ranks))

    def diff(self, k):
        return (self.differentials.get(k)
                or SparseMatrix.zeros(self.rank(k - 1), self.rank(k)))

    def validate(self):
        """d o d = 0, one sparse product per degree."""
        lo, hi = self.support()
        for k in range(lo, hi + 2):
            if any((self.diff(k - 1) * self.diff(k)).rows):
                raise ChainError("d o d != 0 at degree %d" % k)

    def __eq__(self, other):
        if not isinstance(other, FreeComplex):
            return NotImplemented
        if self.ring != other.ring or self.ranks != other.ranks:
            return False
        lo, hi = self.support()
        return all(self.diff(k) == other.diff(k)
                   for k in range(lo, hi + 2))

    def __repr__(self):
        lo, hi = self.support()
        ranks = ", ".join("%d:%d" % (k, self.rank(k)) for k in range(lo, hi + 1))
        return "FreeComplex({%s})" % ranks

    def to_json(self):
        lo, hi = self.support()
        return {
            "generators": list(self.ring.gens),
            "ranks": {str(k): self.rank(k) for k in range(lo, hi + 1)},
            "differentials": {str(k): [[x.pretty() for x in row]
                                       for row in self.diffs[k]]
                              for k in sorted(self.diffs)},
        }


class SymmetricComplex:
    """A complex with a symmetric form phi : X -> X^v[n] of degree n.

    phi_k : X_k -> (X_{n-k})^v as a matrix with rows indexed by X_{n-k},
    given as dense rows or a SparseMatrix and kept in `phi`.  Construction
    verifies both the chain condition and phi = phi^t.
    """

    def __init__(self, complex_, degree, phi):
        self.complex = complex_
        self.degree = degree
        self.phi = {}
        for k, m in phi.items():
            shape = (complex_.rank(degree - k), complex_.rank(k))
            if all(shape):
                self.phi[k] = _matrix(complex_.ring, m, shape, "form %d" % k)
        err = self.chain_defect()
        if err is not None:
            raise ChainError("form is not a chain map at degree %d" % err)
        if not self.is_symmetric():
            raise ChainError("form is not symmetric under the convention")

    def form(self, k):
        x = self.complex
        return (self.phi.get(k)
                or SparseMatrix.zeros(x.rank(self.degree - k), x.rank(k)))

    def chain_defect(self):
        """First degree where phi fails to be a chain map, or None.

        Condition: (-1)^n (-1)^(k-n) (d_{n-k+1})^T phi_k = phi_{k-1} d_k,
        the shift sign times the dual sign of X^v[n].
        """
        x, n = self.complex, self.degree
        lo, hi = x.support()
        for k in range(lo, hi + 2):
            # the sign goes on phi_k, whose entries are fewer than d's
            lhs = x.diff(n - k + 1).transpose() * _signed(k, self.form(k))
            if lhs != self.form(k - 1) * x.diff(k):
                return k
        return None

    def transpose(self):
        """phi^t with (phi^t)_k = (-1)^{k(n-k)+n} (phi_{n-k})^T."""
        n = self.degree
        return {k: _signed(k * (n - k) + n, self.form(n - k).transpose())
                for k in self.complex.ranks}

    def is_symmetric(self):
        t = self.transpose()
        return all(self.form(k) == t[k] for k in self.complex.ranks)

    def is_nondegenerate(self):
        """Each phi_k must be square and invertible over the ring.  A block
        with one constant c in each row and column is certified by its
        inverse psi, the transpose with each c inverted: phi psi = I.  Any
        other block must have a unit determinant in Q[x_1..x_n], that is a
        nonzero constant.  A nonzero determinant alone, like x for the form
        [[x]] over Q[x], certifies nondegeneracy only over the fraction
        field."""
        x, n = self.complex, self.degree
        ring = x.ring
        unit = (0,) * len(ring.gens)
        for k in x.ranks:
            if x.rank(k) != x.rank(n - k):
                return False
            m = self.form(k)
            entries = [(j, e) for row in m.rows if len(row) == 1
                       for j, e in row.items()]
            if (len(entries) == len(m.rows) == len(dict(entries))
                    and all(list(e.terms) == [unit] for _, e in entries)):
                psi = m.transpose().map(
                    lambda e: ring.const(Fraction(1) / e.terms[unit]))
                if m * psi != _identity(ring, len(m.rows)):
                    return False
                continue
            zero = ring.zero()
            det = bareiss_det(m.dense(zero), zero=zero, one=ring.one())
            if det.is_zero() or any(any(e) for e in det.terms):
                return False
        return True

    def __repr__(self):
        return "SymmetricComplex(deg=%d, %r)" % (self.degree, self.complex)

    def to_json(self):
        zero = self.complex.ring.zero()
        return {
            "complex": self.complex.to_json(),
            "degree": self.degree,
            "form": {str(k): [[x.pretty() for x in row]
                              for row in self.phi[k].dense(zero)]
                     for k in sorted(self.phi)},
        }


# ---------------------------------------------------------------------------
# Koszul complexes.
# ---------------------------------------------------------------------------


def koszul_basis(n, k):
    return [frozenset(c) for c in combinations(range(1, n + 1), k)]


_koszul_table = {}  # n -> koszul(n), built and verified once, never handed out


def koszul(n):
    """The Koszul complex of x_1..x_n with its canonical symmetric form.

    Exterior algebra on n generators in homological degrees n..0, each
    boundary map the contraction with (x_1, .., x_n) (removing the j-th
    smallest element of S costs (-1)^j, counting from 0); the form pairs
    e_S with e_{S^c}, where e_S ^ e_{S^c} = (-1)^{sum(S) - k(k+1)/2}
    e_{1..n} for |S| = k, and scales the degree-k component by (-1)^k.

    The complex is built and verified (d o d = 0, chain map, symmetry) once
    per n and kept in `_koszul_table`.  Each call returns a copy whose
    dicts and row dicts are new, so editing it leaves later calls intact;
    the entries, the label lists and the ring are shared values.
    """
    if n < 1:
        raise ChainError("need at least one variable")
    ksym = _koszul_table.get(n)
    if ksym is None:
        ksym = _koszul_table[n] = _build_koszul(n)

    def copy(matrices):
        return {k: SparseMatrix(m.cols, [dict(row) for row in m.rows])
                for k, m in matrices.items()}

    cx = object.__new__(FreeComplex)
    cx.ring = ksym.complex.ring
    cx.ranks = dict(ksym.complex.ranks)
    cx.differentials = copy(ksym.complex.differentials)
    cx.labels = dict(ksym.complex.labels)
    out = object.__new__(SymmetricComplex)
    out.complex = cx
    out.degree = n
    out.phi = copy(ksym.phi)
    return out


def _build_koszul(n):
    """koszul(n), built and verified by the constructors."""
    ring = PolyRing(tuple("x%d" % i for i in range(1, n + 1)))
    labels = {k: koszul_basis(n, k) for k in range(n + 1)}
    ranks = {k: len(basis) for k, basis in labels.items()}
    index = {k: {s: i for i, s in enumerate(basis)}
             for k, basis in labels.items()}
    # each entry is one of +-x_j and +-1, built once and shared: elements
    # are values, so no entry is edited through another
    gens = [[_signed(e, ring.gen(j)) for j in range(n)] for e in (0, 1)]
    ones = [_signed(e, ring.one()) for e in (0, 1)]
    diffs = {}
    for k in range(1, n + 1):
        m = SparseMatrix.zeros(ranks[k - 1], ranks[k])
        for col, subset in enumerate(labels[k]):
            for pos, j in enumerate(sorted(subset)):
                m.rows[index[k - 1][subset - {j}]][col] = gens[pos % 2][j - 1]
        diffs[k] = m
    cx = FreeComplex(ring, ranks, diffs, labels=labels)
    everything = frozenset(range(1, n + 1))
    phi = {}
    for k in range(n + 1):
        m = SparseMatrix.zeros(ranks[n - k], ranks[k])
        for col, subset in enumerate(labels[k]):
            m.rows[index[n - k][everything - subset]][col] = \
                ones[(sum(subset) - k * (k + 1) // 2 + k) % 2]
        phi[k] = m
    return SymmetricComplex(cx, n, phi)


def contracting_homotopy(ksym, invert):
    """Degree +1 maps s over the ring with x_invert inverted.

    Wedging with x_invert^{-1} e_invert satisfies ds + sd = id exactly,
    witnessing exactness of the Koszul complex off the zero locus.
    """
    cx = ksym.complex
    n = len(cx.ring.gens)
    if not 1 <= invert <= n:
        raise ChainError("variable index %d out of range" % invert)
    ring = cx.ring
    labels = cx.labels
    entry = ring.gen(invert - 1, -1)  # x^{-1}: Laurent is fine here
    entries = (entry, -entry)
    homotopy = {}
    for k in range(0, n):
        idx = {s: i for i, s in enumerate(labels[k + 1])}
        m = SparseMatrix.zeros(len(labels[k + 1]), len(labels[k]))
        for col, subset in enumerate(labels[k]):
            if invert not in subset:
                bigger = subset | {invert}
                m.rows[idx[bigger]][col] = \
                    entries[sorted(bigger).index(invert) % 2]
        homotopy[k] = m
    # verify ds + sd = id in every degree, as the one product
    # (d_{k+1} | s_{k-1}) (s_k ; d_k)
    for k in range(0, n + 1):
        rk = cx.rank(k)
        left, right = [{} for _ in range(rk)], []
        if k < n:
            for row, part in zip(left, cx.diff(k + 1).rows):
                row.update(part)
            right += homotopy[k].rows
        width = len(right)
        if k > 0:
            for row, part in zip(left, homotopy[k - 1].rows):
                row.update((j + width, x) for j, x in part.items())
            right += cx.diff(k).rows
        if (SparseMatrix(len(right), left) * SparseMatrix(rk, right)
                != _identity(ring, rk)):
            raise ChainError("homotopy identity fails at degree %d" % k)
    return homotopy


# ---------------------------------------------------------------------------
# Tensor products, units, swaps.
# ---------------------------------------------------------------------------


def _adjoin_rings(r1, r2):
    """Combined ring with r2's generators renamed past collisions."""
    names = list(r1.gens)
    for name in r2.gens:
        while name in names:
            name += "'"
        names.append(name)
    n1 = len(r1.gens)
    return (PolyRing(names, r1.weights + r2.weights),
            {i: i for i in range(n1)},
            {i: n1 + i for i in range(len(r2.gens))})


def _lifter(ring, gen_map):
    """lift(m): the SparseMatrix m over ring, generator i of its entries
    renamed to gen_map[i].  Each distinct entry is mapped once across all
    calls, so the entries of every m must outlive the lifter."""
    images = {}  # id of an entry -> its image
    return lambda m: m.map(lambda x: x.map_to(ring, gen_map), images)


def tensor_pair(msym, nsym):
    """Tensor of symmetric complexes with the Koszul-sign differential and
    the block form scaled by nu(p,q) = (-1)^{q(r-p)}.

    Disjoint variable sets are adjoined (colliding names are primed).  The
    basis of (M@N)_k is labelled (p, i, q, j) for m_i @ n_j in M_p @ N_q,
    ordered by p, then i, then j.
    """
    r, s = msym.degree, nsym.degree
    mx, nx = msym.complex, nsym.complex
    ring, map_m, map_n = _adjoin_rings(mx.ring, nx.ring)
    lift_m, lift_n = _lifter(ring, map_m), _lifter(ring, map_n)

    def columns(lift, matrices):
        """k -> the columns of the lifted matrix k, as its transpose's rows"""
        return {k: lift(m).transpose() for k, m in matrices.items()}

    mdiffs = columns(lift_m, mx.differentials)
    # q -> the columns of d_q and of -d_q, for the sign (-1)^p; each
    # distinct entry is negated once
    negatives = {}
    ndiffs = {q: (m.rows, m.map(neg, negatives).rows)
              for q, m in columns(lift_n, nx.differentials).items()}
    mphi, nphi = columns(lift_m, msym.phi), columns(lift_n, nsym.phi)
    lo = min(mx.ranks) + min(nx.ranks)
    hi = max(mx.ranks) + max(nx.ranks)
    labels = {k: [] for k in range(lo, hi + 1)}
    for p in sorted(mx.ranks):
        for q in nx.ranks:
            labels[p + q] += [(p, i, q, j) for i in range(mx.rank(p))
                              for j in range(nx.rank(q))]
    ranks = {k: len(lab) for k, lab in labels.items()}
    index = {k: {t: i for i, t in enumerate(lab)} for k, lab in labels.items()}

    # each entry of d and of the form is reached by at most one term: the
    # labels (p-1, a, q, j), (p, i, q-1, b) and (r-p, a, s-q, b) a column
    # reaches are distinct
    diffs = {}
    for k in range(lo + 1, hi + 1):
        m = diffs[k] = SparseMatrix.zeros(ranks[k - 1], ranks[k])
        for col, (p, i, q, j) in enumerate(labels[k]):
            if p in mdiffs:
                for a, x in mdiffs[p].rows[i].items():
                    m.rows[index[k - 1][(p - 1, a, q, j)]][col] = x
            if q in ndiffs:
                for b, y in ndiffs[q][p % 2][j].items():
                    m.rows[index[k - 1][(p, i, q - 1, b)]][col] = y
    cx = FreeComplex(ring, ranks, diffs, labels=labels)

    n = r + s
    products = {}  # (ids of the factors, sign) -> the entry, built once
    phi = {}
    for k in range(lo, hi + 1):
        m = phi[k] = SparseMatrix.zeros(ranks.get(n - k, 0), ranks[k])
        for col, (p, i, q, j) in enumerate(labels[k]):
            if p not in mphi or q not in nphi:
                continue
            sign = q * (r - p) % 2
            for a, x in mphi[p].rows[i].items():   # rows: M_{r-p}
                for b, y in nphi[q].rows[j].items():   # rows: N_{s-q}
                    key = (id(x), id(y), sign)
                    entry = products.get(key)
                    if entry is None:
                        entry = products[key] = _signed(sign, x * y)
                    m.rows[index[n - k][(r - p, a, s - q, b)]][col] = entry
    return SymmetricComplex(cx, n, phi)


def transport_sign(source, target, image, gen_map):
    """The sign e = +1 or -1 with iota^* psi = e * phi, for the signed
    relabelling iota from source (form phi) to target (form psi).

    Both complexes are labelled and their forms have one degree n.
    image(l) = (l', c) sends source label l to c times target label l' of
    the same homological degree, c an integer; gen_map sends generator i of
    source's ring to generator gen_map[i] of target's, into which each
    distinct entry of source is lifted once.  iota must be a chain map,
    d_k iota_k = iota_{k-1} d_k, and the pullback is
    (iota^* psi)_k = (iota_{n-k})^T psi_k iota_k, compared on the nose.
    Raises ChainError at the first degree where iota is not a chain map, or
    where the pullback is neither plus nor minus the form.
    """
    sx, tx = source.complex, target.complex
    n = source.degree
    ring = tx.ring
    lift = _lifter(ring, gen_map)
    iota = {}  # k -> iota_k, the one constant c in each column
    for k in sx.ranks:
        index = {t: i for i, t in enumerate(tx.labels.get(k, ()))}
        m = iota[k] = SparseMatrix.zeros(len(index), sx.rank(k))
        for col, (at, c) in enumerate(map(image, sx.labels[k])):
            m.rows[index[at]][col] = ring.const(c)
    for k in sorted(sx.ranks):
        if k - 1 in sx.ranks and (iota[k - 1] * lift(sx.diff(k))
                                  != tx.diff(k) * iota[k]):
            raise ChainError("the relabelling is not a chain map at "
                             "degree %d" % k)
    exponents = (0, 1)  # the signs (-1)^e still consistent with every degree
    for k in sorted(sx.ranks):
        if n - k not in sx.ranks:
            continue  # the form vanishes on X_k
        pulled = iota[n - k].transpose() * (target.form(k) * iota[k])
        form = lift(source.form(k))
        exponents = [e for e in exponents if pulled == _signed(e, form)]
        if not exponents:
            raise ChainError("the pulled-back form is neither plus nor minus "
                             "the form at degree %d" % k)
    return _signed(exponents[0], 1)


def koszul_tensor_isometry(a, b):
    """koszul(a) @ koszul(b) against koszul(a+b): the canonical label merge
    (S, T) -> S u (T + a) is a chain isometry, verified exactly by
    `transport_sign`.

    Returns (tensor, merged, merge): merged is koszul(a+b) in its own ring
    and merge the label map from the tensor's labels to merged's.
    """
    ka, kb = koszul(a), koszul(b)
    tensor = tensor_pair(ka, kb)
    merged = koszul(a + b)
    la, lb = ka.complex.labels, kb.complex.labels

    def merge(label):
        p, i, q, j = label
        return la[p][i] | {x + a for x in lb[q][j]}, 1

    # both rings have a+b unit-weight generators in matching order
    if transport_sign(tensor, merged, merge,
                      {i: i for i in range(a + b)}) != 1:
        raise ChainError("koszul merge multiplies the form by -1")
    return tensor, merged, merge


def swap_sign(msym, nsym):
    """The sign by which the factor swap M@N -> N@M multiplies the form.

    The swap sends m_p @ n_q to (-1)^{pq} n_q @ m_p; `transport_sign` pulls
    the form of tensor_pair(N, M) back along it.  The result is +1 or -1,
    the class <1> or <-1> of the switch; for forms of degrees r and s it is
    (-1)^{rs}.
    """
    nm = len(msym.complex.ring.gens)
    nn = len(nsym.complex.ring.gens)
    gen_map = {i: nn + i for i in range(nm)}
    gen_map.update({nm + j: j for j in range(nn)})

    def swap(label):
        p, i, q, j = label
        return (q, j, p, i), _signed(p * q, 1)

    return transport_sign(tensor_pair(msym, nsym), tensor_pair(nsym, msym),
                          swap, gen_map)
