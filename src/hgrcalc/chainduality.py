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

`koszul(n)` is built and verified once per n and kept in a module table;
each call returns a copy with its own dicts and row lists.  A signed
relabelling, and a form block that is a signed permutation of constant
units (every block of a Koszul form and of a tensor of them), act by
re-indexing: the products with them move and scale rows or columns, and
no entry is multiplied.  Any other form block is multiplied out, and its
nondegeneracy is a Bareiss determinant that must be a unit.
"""

from fractions import Fraction
from itertools import combinations

from . import HgrcalcError
from .polynomial import (Poly, PolyRing, bareiss_det, mat_identity, mat_mul,
                         mat_transpose, mat_zero)


def _signed(e, m):
    """(-1)^e * m for an integer, a polynomial or a matrix of polynomials;
    a matrix's zero entries are kept, and each distinct entry is negated
    once, so entries shared in m stay shared."""
    if not e % 2:
        return m
    if not isinstance(m, list):
        return -m
    negatives = {}  # id of an entry of m -> its negative
    out = []
    for row in m:
        signed = []
        for x in row:
            if x.terms:
                y = negatives.get(id(x))
                if y is None:
                    y = negatives[id(x)] = -x
                x = y
            signed.append(x)
        out.append(signed)
    return out


def _times(c, x):
    """c * x for a constant c; x itself when c is 1 or x is zero."""
    return x.scale(c) if c != 1 and x.terms else x


def _relabelling(m):
    """A signed permutation of constant units as a relabelling: for a square
    matrix m whose every row and every column holds exactly one nonzero
    entry, a constant c, the pairs (i, c) with m[i][j] = c, one per column
    j; None for any other m."""
    n = len(m)
    pairs = [None] * n
    for i, row in enumerate(m):
        if len(row) != n:
            return None
        nonzero = [j for j, x in enumerate(row) if x.terms]
        if len(nonzero) != 1 or pairs[nonzero[0]] is not None:
            return None
        terms = row[nonzero[0]].terms
        if len(terms) != 1:
            return None
        (exps, c), = terms.items()
        if any(exps):
            return None
        pairs[nonzero[0]] = (i, c)
    return pairs


def _form_times(phi, m, zero):
    """phi * m.  Where phi is a signed permutation of constant units, row j
    of m, scaled by c, becomes row i of the product for each (i, c) of
    `_relabelling(phi)`, and nothing is multiplied."""
    pairs = _relabelling(phi)
    if pairs is None or len(m) != len(pairs):
        return mat_mul(phi, m, zero)
    out = [None] * len(pairs)
    for row, (i, c) in zip(m, pairs):
        out[i] = [_times(c, x) for x in row]
    return out


class ChainError(HgrcalcError):
    pass


class FreeComplex:
    """Bounded complex of free modules over a polynomial ring.

    ranks maps homological degree to a positive rank; diffs maps k to the
    matrix of d_k : X_k -> X_{k-1} (rows index X_{k-1}).  d o d = 0 is
    checked on construction.
    """

    def __init__(self, ring, ranks, diffs, labels=None):
        self.ring = ring
        self.ranks = {k: r for k, r in ranks.items() if r}
        self.diffs = {}
        for k, m in diffs.items():
            rows, cols = self.rank(k - 1), self.rank(k)
            if rows and cols:
                if len(m) != rows or any(len(row) != cols for row in m):
                    raise ChainError("differential %d has the wrong shape" % k)
                self.diffs[k] = [[self._coerce(x) for x in row] for row in m]
        self.labels = labels or {}
        self.validate()

    def _coerce(self, x):
        if isinstance(x, Poly):
            if x.ring is not self.ring and x.ring != self.ring:
                raise ChainError("entry from a different polynomial ring")
            return x
        return self.ring.const(Fraction(x))

    def rank(self, k):
        return self.ranks.get(k, 0)

    def support(self):
        if not self.ranks:
            return (0, -1)
        return (min(self.ranks), max(self.ranks))

    def diff(self, k):
        if k in self.diffs:
            return self.diffs[k]
        return mat_zero(self.rank(k - 1), self.rank(k), self.ring.zero())

    def validate(self):
        """d o d = 0, one product of the nonzero entries per degree: every
        entry the product does not reach, or that cancels, is the ring's
        zero itself."""
        lo, hi = self.support()
        zero = self.ring.zero()
        for k in range(lo, hi + 2):
            if self.rank(k) and self.rank(k - 1) and self.rank(k - 2):
                prod = mat_mul(self.diff(k - 1), self.diff(k), zero)
                if any(x is not zero for row in prod for x in row):
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
            "differentials": {
                str(k): [[x.pretty() for x in row] for row in self.diff(k)]
                for k in sorted(self.diffs)
            },
        }


class SymmetricComplex:
    """A complex with a symmetric form phi : X -> X^v[n] of degree n.

    phi_k : X_k -> (X_{n-k})^v as a matrix with rows indexed by X_{n-k}.
    Construction verifies both the chain condition and phi = phi^t.
    """

    def __init__(self, complex_, degree, phi):
        self.complex = complex_
        self.degree = degree
        self.phi = {k: m for k, m in phi.items() if m and m[0]}
        err = self.chain_defect()
        if err is not None:
            raise ChainError("form is not a chain map at degree %d" % err)
        if not self.is_symmetric():
            raise ChainError("form is not symmetric under the convention")

    def form(self, k):
        if k in self.phi:
            return self.phi[k]
        x = self.complex
        return mat_zero(x.rank(self.degree - k), x.rank(k), x.ring.zero())

    def chain_defect(self):
        """First degree where phi fails to be a chain map, or None.

        Condition: (-1)^n (-1)^(k-n) (d_{n-k+1})^T phi_k = phi_{k-1} d_k,
        the shift sign times the dual sign of X^v[n].  A form block that is
        a signed permutation of constant units, as every block of a Koszul
        form and of a tensor of them is, moves and scales the rows of d;
        any other block is multiplied out.
        """
        x, n = self.complex, self.degree
        zero = x.ring.zero()
        lo, hi = x.support()
        for k in range(lo, hi + 2):
            if not x.rank(k) or not x.rank(k - 1):
                continue
            if not x.rank(n - k + 1):
                continue  # both sides land in the zero module
            if x.rank(n - k):
                # (d^T phi_k)^T = phi_k^T d, with the sign on phi_k, whose
                # entries are fewer than the product's
                lhs = mat_transpose(_form_times(
                    mat_transpose(_signed(k, self.form(k))),
                    x.diff(n - k + 1), zero))
            else:
                lhs = mat_zero(x.rank(n - k + 1), x.rank(k), zero)
            rhs = _form_times(self.form(k - 1), x.diff(k), zero)
            if lhs != rhs:
                return k
        return None

    def transpose(self):
        """phi^t with (phi^t)_k = (-1)^{k(n-k)+n} (phi_{n-k})^T."""
        x, n = self.complex, self.degree
        out = {}
        for k in x.ranks:
            if not x.rank(n - k):
                out[k] = mat_zero(0, x.rank(k), x.ring.zero())
            else:
                out[k] = _signed(k * (n - k) + n,
                                 mat_transpose(self.form(n - k)))
        return out

    def is_symmetric(self):
        t = self.transpose()
        return all(self.form(k) == t[k] for k in self.complex.ranks)

    def is_nondegenerate(self):
        """Each phi_k must be square and invertible over the ring.  A signed
        permutation of constant units is certified by its inverse psi, the
        transpose with each entry inverted: phi psi = I.  Any other block
        must have a unit determinant in Q[x_1..x_n], that is a nonzero
        constant.  A nonzero determinant alone, like x for the form [[x]]
        over Q[x], certifies nondegeneracy only over the fraction field."""
        x, n = self.complex, self.degree
        ring = x.ring
        zero = ring.zero()
        for k in x.ranks:
            m = self.form(k)
            if x.rank(k) != x.rank(n - k):
                return False
            pairs = _relabelling(m)
            if pairs is not None:
                psi = mat_zero(len(m), len(m), zero)
                for j, (i, c) in enumerate(pairs):
                    psi[j][i] = ring.const(Fraction(1) / c)
                if mat_mul(m, psi, zero) != mat_identity(len(m), ring.one(),
                                                         zero):
                    return False
                continue
            det = bareiss_det(m, zero=zero, one=ring.one())
            if det.is_zero() or any(any(e) for e in det.terms):
                return False
        return True

    def __repr__(self):
        return "SymmetricComplex(deg=%d, %r)" % (self.degree, self.complex)

    def to_json(self):
        return {
            "complex": self.complex.to_json(),
            "degree": self.degree,
            "form": {str(k): [[x.pretty() for x in row] for row in self.form(k)]
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
    dicts and row lists are new, so editing it leaves later calls intact;
    the entries, the label lists and the ring are shared values.
    """
    if n < 1:
        raise ChainError("need at least one variable")
    ksym = _koszul_table.get(n)
    if ksym is None:
        ksym = _koszul_table[n] = _build_koszul(n)
    cx = object.__new__(FreeComplex)
    cx.ring = ksym.complex.ring
    cx.ranks = dict(ksym.complex.ranks)
    cx.diffs = {k: [list(row) for row in m]
                for k, m in ksym.complex.diffs.items()}
    cx.labels = dict(ksym.complex.labels)
    out = object.__new__(SymmetricComplex)
    out.complex = cx
    out.degree = n
    out.phi = {k: [list(row) for row in m] for k, m in ksym.phi.items()}
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
        m = mat_zero(ranks[k - 1], ranks[k], ring.zero())
        for col, subset in enumerate(labels[k]):
            for pos, j in enumerate(sorted(subset)):
                m[index[k - 1][subset - {j}]][col] = gens[pos % 2][j - 1]
        diffs[k] = m
    cx = FreeComplex(ring, ranks, diffs, labels=labels)
    everything = frozenset(range(1, n + 1))
    phi = {}
    for k in range(n + 1):
        m = mat_zero(ranks[n - k], ranks[k], ring.zero())
        for col, subset in enumerate(labels[k]):
            m[index[n - k][everything - subset]][col] = \
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
    homotopy = {}
    for k in range(0, n):
        idx = {s: i for i, s in enumerate(labels[k + 1])}
        m = mat_zero(len(labels[k + 1]), len(labels[k]), ring.zero())
        for col, subset in enumerate(labels[k]):
            if invert in subset:
                continue
            bigger = subset | {invert}
            m[idx[bigger]][col] = _signed(sorted(bigger).index(invert), entry)
        homotopy[k] = m
    # verify ds + sd = id in every degree, as the one product
    # (d_{k+1} | s_{k-1}) (s_k ; d_k) of the nonzero entries
    zero = ring.zero()
    for k in range(0, n + 1):
        rk = cx.rank(k)
        left, right = [[] for _ in range(rk)], []
        if k < n:
            for row, part in zip(left, cx.diff(k + 1)):
                row += part
            right += homotopy[k]
        if k > 0:
            for row, part in zip(left, homotopy[k - 1]):
                row += part
            right += cx.diff(k)
        if mat_mul(left, right, zero) != mat_identity(rk, ring.one(), zero):
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
    """lift(m): the matrix m over ring, generator i of its entries renamed
    to gen_map[i].  Each distinct entry is mapped once across all calls, so
    the entries of every m must outlive the lifter."""
    images = {}  # id of an entry -> its image

    def lift(m):
        for row in m:
            for x in row:
                if id(x) not in images:
                    images[id(x)] = x.map_to(ring, gen_map)
        return [[images[id(x)] for x in row] for row in m]

    return lift


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
    mdiffs = {p: lift_m(m) for p, m in mx.diffs.items()}
    ndiffs = {q: lift_n(m) for q, m in nx.diffs.items()}
    mphi = {p: lift_m(m) for p, m in msym.phi.items()}
    nphi = {q: lift_n(m) for q, m in nsym.phi.items()}
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
    zero = ring.zero()
    diffs = {}
    for k in range(lo + 1, hi + 1):
        m = mat_zero(ranks[k - 1], ranks[k], zero)
        for col, (p, i, q, j) in enumerate(labels[k]):
            for a, row in enumerate(mdiffs.get(p, ())):
                if row[i] is not zero:
                    m[index[k - 1][(p - 1, a, q, j)]][col] = row[i]
            for b, row in enumerate(ndiffs.get(q, ())):
                if row[j] is not zero:
                    m[index[k - 1][(p, i, q - 1, b)]][col] = _signed(p, row[j])
        diffs[k] = m

    cx = FreeComplex(ring, ranks, diffs, labels=labels)
    n = r + s
    phi = {}
    for k in range(lo, hi + 1):
        if not ranks.get(n - k):
            continue
        m = mat_zero(ranks[n - k], ranks[k], zero)
        for col, (p, i, q, j) in enumerate(labels[k]):
            fn = nphi.get(q, ())   # rows: N_{s-q}
            for a, row_m in enumerate(mphi.get(p, ())):   # rows: M_{r-p}
                if row_m[i] is zero:
                    continue
                for b, row_n in enumerate(fn):
                    if row_n[j] is not zero:
                        m[index[n - k][(r - p, a, s - q, b)]][col] = \
                            _signed(q * (r - p), row_m[i] * row_n[j])
        phi[k] = m
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
    zero = tx.ring.zero()
    lift = _lifter(tx.ring, gen_map)
    # k -> the pair (target index, c) of each source label of degree k:
    # iota_k has the one nonzero entry c in each column, so every product
    # with it moves and scales rows or columns instead of multiplying
    iota = {}
    for k in sx.ranks:
        index = {t: i for i, t in enumerate(tx.labels.get(k, ()))}
        iota[k] = [(index[at], c) for at, c in map(image, sx.labels[k])]
    for k in sorted(sx.ranks):
        if k - 1 in sx.ranks:
            # iota_{k-1} d_k: row j of d_k, times c, added into row i
            lhs = [None] * tx.rank(k - 1)
            for row, (i, c) in zip(lift(sx.diff(k)), iota[k - 1]):
                row = [_times(c, x) for x in row]
                lhs[i] = row if lhs[i] is None else \
                    [a + b for a, b in zip(lhs[i], row)]
            lhs = [row or [zero] * sx.rank(k) for row in lhs]
            rhs = [[_times(c, row[i]) for i, c in iota[k]]
                   for row in tx.diff(k)]
            if lhs != rhs:
                raise ChainError("the relabelling is not a chain map at "
                                 "degree %d" % k)
    exponents = (0, 1)  # the signs (-1)^e still consistent with every degree
    for k in sorted(sx.ranks):
        if n - k not in sx.ranks:
            continue  # the form vanishes on X_k
        # (iota_{n-k})^T psi_k iota_k has entry c_a c_b psi_k[i_a][i_b]
        psi = target.form(k)
        pulled = [[_times(c * d, psi[i][j]) for j, d in iota[k]]
                  for i, c in iota[n - k]]
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
