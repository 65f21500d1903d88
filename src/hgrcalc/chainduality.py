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
"""

from fractions import Fraction
from itertools import combinations

from . import HgrcalcError
from .polynomial import (Poly, PolyRing, bareiss_det, mat_add,
                         mat_identity, mat_mul, mat_transpose, mat_zero)


def _signed(e, m):
    """(-1)^e * m for an integer, a polynomial or a matrix of polynomials;
    a matrix's zero entries are kept, not rebuilt."""
    if not e % 2:
        return m
    if isinstance(m, list):
        return [[-x if x else x for x in row] for row in m]
    return -m


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
        rows, cols = self.rank(k - 1), self.rank(k)
        if k in self.diffs:
            return self.diffs[k]
        return mat_zero(rows, cols, self.ring.zero())

    def validate(self):
        lo, hi = self.support()
        for k in range(lo, hi + 2):
            if self.rank(k) and self.rank(k - 1) and self.rank(k - 2):
                prod = mat_mul(self.diff(k - 1), self.diff(k),
                               self.ring.zero())
                if any(not x.is_zero() for row in prod for x in row):
                    raise ChainError("d o d != 0 at degree %d" % k)

    def __eq__(self, other):
        if not isinstance(other, FreeComplex):
            return NotImplemented
        if self.ring != other.ring or self.ranks != other.ranks:
            return False
        lo, hi = self.support()
        return all(self.diff(k) == other.diff(k)
                   for k in range(lo, hi + 2))

    def shift(self, n):
        """(X[n])_k = X_{k-n} with differentials scaled by (-1)^n."""
        ranks = {k + n: r for k, r in self.ranks.items()}
        diffs = {k + n: _signed(n, m) for k, m in self.diffs.items()}
        return FreeComplex(self.ring, ranks, diffs)

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
        x = self.complex
        rows, cols = x.rank(self.degree - k), x.rank(k)
        if k in self.phi:
            return self.phi[k]
        return mat_zero(rows, cols, x.ring.zero())

    def map_to(self, ring, gen_map):
        """The same complex and form over ring, generator i renamed to
        gen_map[i] in every differential and form entry."""
        def lift(m):
            return [[x.map_to(ring, gen_map) for x in row] for row in m]

        x = self.complex
        cx = FreeComplex(ring, x.ranks,
                         {k: lift(m) for k, m in x.diffs.items()},
                         labels=x.labels)
        return SymmetricComplex(cx, self.degree,
                                {k: lift(m) for k, m in self.phi.items()})

    def chain_defect(self):
        """First degree where phi fails to be a chain map, or None.

        Condition: (-1)^n (-1)^(k-n) (d_{n-k+1})^T phi_k = phi_{k-1} d_k,
        the shift sign times the dual sign of X^v[n].
        """
        x, n = self.complex, self.degree
        ring = x.ring
        lo, hi = x.support()
        for k in range(lo, hi + 2):
            if not x.rank(k) or not x.rank(k - 1):
                continue
            if not x.rank(n - k + 1):
                continue  # both sides land in the zero module
            if x.rank(n - k):
                lhs = mat_mul(mat_transpose(x.diff(n - k + 1)),
                              self.form(k), ring.zero())
            else:
                lhs = mat_zero(x.rank(n - k + 1), x.rank(k), ring.zero())
            rhs = mat_mul(self.form(k - 1), x.diff(k), ring.zero())
            if _signed(k, lhs) != rhs:
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
        """Each phi_k must be square and have nonzero determinant."""
        x, n = self.complex, self.degree
        for k in x.ranks:
            m = self.form(k)
            if x.rank(k) != x.rank(n - k):
                return False
            det = bareiss_det(m, zero=x.ring.zero(), one=x.ring.one())
            if det.is_zero():
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


def koszul(n):
    """The Koszul complex of x_1..x_n with its canonical symmetric form.

    Exterior algebra on n generators in homological degrees n..0, each
    boundary map the contraction with (x_1, .., x_n) (removing the j-th
    smallest element of S costs (-1)^j, counting from 0); the form pairs
    e_S with e_{S^c}, where e_S ^ e_{S^c} = (-1)^{sum(S) - k(k+1)/2}
    e_{1..n} for |S| = k, and scales the degree-k component by (-1)^k.
    """
    if n < 1:
        raise ChainError("need at least one variable")
    ring = PolyRing(tuple("x%d" % i for i in range(1, n + 1)))
    labels = {k: koszul_basis(n, k) for k in range(n + 1)}
    ranks = {k: len(basis) for k, basis in labels.items()}
    index = {k: {s: i for i, s in enumerate(basis)}
             for k, basis in labels.items()}
    diffs = {}
    for k in range(1, n + 1):
        m = mat_zero(ranks[k - 1], ranks[k], ring.zero())
        for col, subset in enumerate(labels[k]):
            for pos, j in enumerate(sorted(subset)):
                m[index[k - 1][subset - {j}]][col] = \
                    _signed(pos, ring.gen(j - 1))
        diffs[k] = m
    cx = FreeComplex(ring, ranks, diffs, labels=labels)
    everything = frozenset(range(1, n + 1))
    phi = {}
    for k in range(n + 1):
        m = mat_zero(ranks[n - k], ranks[k], ring.zero())
        for col, subset in enumerate(labels[k]):
            m[index[n - k][everything - subset]][col] = \
                _signed(sum(subset) - k * (k + 1) // 2 + k, ring.one())
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
    # verify ds + sd = id in every degree
    for k in range(0, n + 1):
        rk = cx.rank(k)
        acc = mat_zero(rk, rk, ring.zero())
        if k < n:
            acc = mat_add(acc, mat_mul(cx.diff(k + 1), homotopy[k],
                                       ring.zero()))
        if k > 0:
            acc = mat_add(acc, mat_mul(homotopy[k - 1], cx.diff(k),
                                       ring.zero()))
        if acc != mat_identity(rk, ring.one(), ring.zero()):
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


def tensor_pair(msym, nsym):
    """Tensor of symmetric complexes with the Koszul-sign differential and
    the block form scaled by nu(p,q) = (-1)^{q(r-p)}.

    Disjoint variable sets are adjoined (colliding names are primed).  The
    basis of (M@N)_k is labelled (p, i, q, j) for m_i @ n_j in M_p @ N_q,
    ordered by p, then i, then j.
    """
    r, s = msym.degree, nsym.degree
    ring, map_m, map_n = _adjoin_rings(msym.complex.ring, nsym.complex.ring)
    msym, nsym = msym.map_to(ring, map_m), nsym.map_to(ring, map_n)
    mx, nx = msym.complex, nsym.complex
    lo = min(mx.ranks) + min(nx.ranks)
    hi = max(mx.ranks) + max(nx.ranks)
    labels = {k: [] for k in range(lo, hi + 1)}
    for p in sorted(mx.ranks):
        for q in nx.ranks:
            labels[p + q] += [(p, i, q, j) for i in range(mx.rank(p))
                              for j in range(nx.rank(q))]
    ranks = {k: len(lab) for k, lab in labels.items()}
    index = {k: {t: i for i, t in enumerate(lab)} for k, lab in labels.items()}

    diffs = {}
    for k in range(lo + 1, hi + 1):
        m = mat_zero(ranks[k - 1], ranks[k], ring.zero())
        for col, (p, i, q, j) in enumerate(labels[k]):
            for a, row in enumerate(mx.diffs.get(p, ())):
                if row[i]:
                    at = index[k - 1][(p - 1, a, q, j)]
                    m[at][col] = m[at][col] + row[i]
            for b, row in enumerate(nx.diffs.get(q, ())):
                if row[j]:
                    at = index[k - 1][(p, i, q - 1, b)]
                    m[at][col] = m[at][col] + _signed(p, row[j])
        diffs[k] = m

    cx = FreeComplex(ring, ranks, diffs, labels=labels)
    n = r + s
    phi = {}
    for k in range(lo, hi + 1):
        if not ranks.get(n - k):
            continue
        m = mat_zero(ranks[n - k], ranks[k], ring.zero())
        for col, (p, i, q, j) in enumerate(labels[k]):
            fn = nsym.form(q)   # rows: N_{s-q}
            for a, row_m in enumerate(msym.form(p)):   # rows: M_{r-p}
                if not row_m[i]:
                    continue
                for b, row_n in enumerate(fn):
                    if row_n[j]:
                        at = index[n - k][(r - p, a, s - q, b)]
                        m[at][col] = m[at][col] + \
                            _signed(q * (r - p), row_m[i] * row_n[j])
        phi[k] = m
    return SymmetricComplex(cx, n, phi)


class ChainIso:
    """Degreewise invertible chain map between complexes over one ring."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = components  # k -> matrix target_k x source_k

    def verify_chain_map(self):
        ring = self.target.ring
        lo, hi = self.source.support()
        for k in range(lo, hi + 1):
            if not self.source.rank(k) or not self.source.rank(k - 1):
                continue
            lhs = mat_mul(self.components[k - 1], self.source.diff(k),
                          ring.zero())
            rhs = mat_mul(self.target.diff(k), self.components[k],
                          ring.zero())
            if lhs != rhs:
                return False
        return True

    def pullback_form(self, sym, degree):
        """(iota^* psi)_k = (iota_{n-k})^T psi_k iota_k."""
        ring = self.target.ring
        out = {}
        for k in self.source.ranks:
            m = mat_mul(sym.form(k), self.components[k], ring.zero())
            m = mat_mul(mat_transpose(self.components[degree - k]), m,
                        ring.zero())
            out[k] = m
        return out


def _relabel(source, target, image, name):
    """The ChainIso sending source basis label l to c * (label l' of
    target), where image(l) = (l', c), verified to be a chain map."""
    ring = target.ring
    components = {}
    for k, lab in source.labels.items():
        index = {t: i for i, t in enumerate(target.labels.get(k, ()))}
        m = mat_zero(len(index), len(lab), ring.zero())
        for col, t in enumerate(lab):
            at, c = image(t)
            m[index[at]][col] = c
        components[k] = m
    iso = ChainIso(source, target, components)
    if not iso.verify_chain_map():
        raise ChainError("%s failed to be a chain map" % name)
    return iso


def koszul_tensor_isometry(a, b):
    """koszul(a) @ koszul(b) against koszul(a+b): the canonical label merge
    (S, T) -> S u (T + a) is a chain isometry, verified exactly.

    Returns (tensor, merged_in_tensor_ring, iso) with iso a ChainIso whose
    pullback of the merged form equals the tensor form on the nose.
    """
    ka, kb = koszul(a), koszul(b)
    t = tensor_pair(ka, kb)
    ring = t.complex.ring
    # both rings have a+b unit-weight generators in matching order
    merged = koszul(a + b).map_to(ring, {i: i for i in range(a + b)})
    la, lb = ka.complex.labels, kb.complex.labels

    def merge(label):
        p, i, q, j = label
        return la[p][i] | {x + a for x in lb[q][j]}, ring.one()

    iso = _relabel(t.complex, merged.complex, merge, "koszul merge")
    pulled = iso.pullback_form(merged, a + b)
    for k in t.complex.ranks:
        if pulled[k] != t.form(k):
            raise ChainError("koszul merge failed to be an isometry at %d" % k)
    return t, merged, iso


class SwapReport:
    """Outcome of transporting N@M's form along the factor swap."""

    def __init__(self, degrees, observed_sign, ok):
        self.degrees = degrees
        self.observed_sign = observed_sign
        self.expected_sign = _signed(degrees[0] * degrees[1], 1)
        self.ok = ok and self.observed_sign == self.expected_sign

    def involution_power(self):
        """How many sign involutions the transport applied: rs mod 2."""
        return 1 if self.observed_sign < 0 else 0

    def __repr__(self):
        return "SwapReport(r=%d, s=%d, sign=%+d, ok=%s)" % (
            self.degrees[0], self.degrees[1], self.observed_sign, self.ok)


def swap_sign_check(msym, nsym):
    """Transport tensor_pair(N,M)'s form along the factor swap and compare.

    The swap sends m_p @ n_q to (-1)^{pq} n_q @ m_p; the transported form
    must equal the sign-involution twist eps^{rs} of M@N's form, i.e.
    (-1)^{rs} times it on the nose.
    """
    r, s = msym.degree, nsym.degree
    t2 = tensor_pair(nsym, msym)
    ring = t2.complex.ring
    nm = len(msym.complex.ring.gens)
    nn = len(nsym.complex.ring.gens)
    gen_map = {i: nn + i for i in range(nm)}
    gen_map.update({nm + j: j for j in range(nn)})
    t1 = tensor_pair(msym, nsym).map_to(ring, gen_map)

    def swap(label):
        p, i, q, j = label
        return (q, j, p, i), _signed(p * q, ring.one())

    iso = _relabel(t1.complex, t2.complex, swap, "factor swap")
    pulled = iso.pullback_form(t2, r + s)
    reference = {k: t1.form(k) for k in pulled}
    if pulled == reference:
        return SwapReport((r, s), 1, True)
    if pulled == {k: _signed(1, m) for k, m in reference.items()}:
        return SwapReport((r, s), -1, True)
    return SwapReport((r, s), 1, False)
