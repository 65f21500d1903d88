"""Bounded complexes of free modules with duality and Koszul structures.

All sign conventions live in the CONVENTIONS table below so alternates can
be tested.  The shipped values are pinned by two requirements: the rank-one
Koszul complex must carry the symmetric form with components (-1, 1) against
the shifted dual with negated differential, and tensor products of Koszul
forms must agree with the merged Koszul form on the nose.

  dual differential   (d^v)_k = (-1)^k (d_{-k+1})^T
  shift               (X[n])_k = X_{k-n},  d^[n] = (-1)^n d
  transpose of a degree-n form   (phi^t)_k = (-1)^{k(n-k)+n} (phi_{n-k})^T
  Koszul normalization           Theta_k = (-1)^k * (wedge-complement pairing)
  tensor differential            d(x@y) = dx@y + (-1)^{|x|} x@dy
  tensor of forms                nu(p,q) = (-1)^{q(r-p)} on the (p,q) block

With the dual sign (-1)^k the double dual carries negated differentials, so
the identification X ~ X^vv uses (-1)^k, not the identity.
"""

from fractions import Fraction
from itertools import combinations

from . import HgrcalcError
from .polynomial import (Poly, PolyRing, bareiss_det, mat_add,
                         mat_identity, mat_mul, mat_scal, mat_transpose,
                         mat_zero)


CONVENTIONS = {
    "dual_sign": lambda k: -1 if k % 2 else 1,
    "shift_sign": lambda n: -1 if n % 2 else 1,
    "transpose_sign": lambda k, n: -1 if (k * (n - k) + n) % 2 else 1,
    "koszul_sign": lambda k: -1 if k % 2 else 1,
    "tensor_form_sign": lambda p, q, r, s: -1 if (q * (r - p)) % 2 else 1,
}


class ChainError(HgrcalcError):
    pass


class FreeComplex:
    """Bounded complex of free modules over a polynomial ring.

    ranks maps homological degree to a positive rank; diffs maps k to the
    matrix of d_k : X_k -> X_{k-1} (rows index X_{k-1}).  d o d = 0 is
    checked on construction.
    """

    def __init__(self, ring, ranks, diffs, labels=None, check=True):
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
        if check:
            self.validate()

    def _coerce(self, x):
        if isinstance(x, Poly):
            if x.ring != self.ring:
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

    def dual(self):
        """Degreewise transpose with the convention sign (-1)^k."""
        sign = CONVENTIONS["dual_sign"]
        ranks = {-k: r for k, r in self.ranks.items()}
        diffs = {}
        for k in list(ranks):
            src = self.diff(-k + 1)  # d_{-k+1}: X_{-k+1} -> X_{-k}
            if self.rank(-k + 1) and self.rank(-k):
                m = mat_transpose(src)
                if sign(k) < 0:
                    m = mat_scal(self.ring.const(-1), m)
                diffs[k] = m
        return FreeComplex(self.ring, ranks, diffs)

    def shift(self, n):
        """(X[n])_k = X_{k-n} with differentials scaled by (-1)^n."""
        sgn = CONVENTIONS["shift_sign"](n)
        ranks = {k + n: r for k, r in self.ranks.items()}
        diffs = {}
        for k in self.diffs:
            m = self.diffs[k]
            if sgn < 0:
                m = mat_scal(self.ring.const(-1), m)
            diffs[k + n] = m
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
    Construction verifies both the chain condition and phi = phi^t under
    the convention table.
    """

    def __init__(self, complex_, degree, phi, check=True):
        self.complex = complex_
        self.degree = degree
        self.phi = {k: m for k, m in phi.items() if m and m[0]}
        if check:
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

    def chain_defect(self):
        """First degree where phi fails to be a chain map, or None.

        Condition: shift_sign(n) * dual_sign(k-n) * (d_{n-k+1})^T phi_k
                   = phi_{k-1} d_k.
        """
        x, n = self.complex, self.degree
        ring = x.ring
        lo, hi = x.support()
        for k in range(lo, hi + 2):
            if not x.rank(k) or not x.rank(k - 1):
                continue
            if not x.rank(n - k + 1):
                continue  # both sides land in the zero module
            sgn = CONVENTIONS["shift_sign"](n) * CONVENTIONS["dual_sign"](k - n)
            if x.rank(n - k):
                lhs = mat_mul(mat_transpose(x.diff(n - k + 1)),
                              self.form(k), ring.zero())
            else:
                lhs = mat_zero(x.rank(n - k + 1), x.rank(k), ring.zero())
            if sgn < 0:
                lhs = mat_scal(ring.const(-1), lhs)
            rhs = mat_mul(self.form(k - 1), x.diff(k), ring.zero())
            if lhs != rhs:
                return k
        return None

    def transpose(self):
        """phi^t with (phi^t)_k = transpose_sign(k, n) * (phi_{n-k})^T."""
        x, n = self.complex, self.degree
        out = {}
        for k in list(x.ranks):
            if not x.rank(n - k):
                out[k] = mat_zero(0, x.rank(k), x.ring.zero())
                continue
            m = mat_transpose(self.form(n - k))
            if CONVENTIONS["transpose_sign"](k, n) < 0:
                m = mat_scal(x.ring.const(-1), m)
            out[k] = m
        return out

    def is_symmetric(self):
        t = self.transpose()
        x, n = self.complex, self.degree
        for k in x.ranks:
            if self.form(k) != t.get(k, self.form(k)):
                return False
        return True

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


def _subset_sign(j, subset):
    """(-1)^{position of j} for removal of j from the sorted subset."""
    return -1 if sorted(subset).index(j) % 2 else 1


def _complement_sign(subset, n):
    """Sign of e_S ^ e_{S^c} = sign * e_{1..n}."""
    s = sorted(subset)
    comp = [i for i in range(1, n + 1) if i not in subset]
    perm = s + comp
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def koszul_basis(n, k):
    return [frozenset(c) for c in combinations(range(1, n + 1), k)]


def koszul(n):
    """The Koszul complex of x_1..x_n with its canonical symmetric form.

    Exterior algebra on n generators in homological degrees n..0, each
    boundary map the contraction with (x_1, .., x_n); the form pairs a
    wedge monomial with its complement, normalized per the convention
    table (degree-k component scaled by (-1)^k).
    """
    if n < 1:
        raise ChainError("need at least one variable")
    ring = PolyRing(tuple("x%d" % i for i in range(1, n + 1)))
    ranks = {}
    labels = {}
    index = {}
    for k in range(n + 1):
        basis = koszul_basis(n, k)
        ranks[k] = len(basis)
        labels[k] = basis
        index[k] = {s: i for i, s in enumerate(basis)}
    diffs = {}
    for k in range(1, n + 1):
        m = mat_zero(ranks[k - 1], ranks[k], ring.zero())
        for col, subset in enumerate(labels[k]):
            for j in sorted(subset):
                row = index[k - 1][subset - {j}]
                sign = _subset_sign(j, subset)
                entry = ring.gen(j - 1)
                m[row][col] = m[row][col] + (entry if sign > 0 else -entry)
        diffs[k] = m
    cx = FreeComplex(ring, ranks, diffs, labels=labels)
    ksign = CONVENTIONS["koszul_sign"]
    phi = {}
    for k in range(n + 1):
        m = mat_zero(ranks[n - k], ranks[k], ring.zero())
        for col, subset in enumerate(labels[k]):
            comp = frozenset(range(1, n + 1)) - subset
            row = index[n - k][comp]
            sign = _complement_sign(subset, n) * ksign(k)
            m[row][col] = ring.const(sign)
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
    homotopy = {}
    for k in range(0, n):
        basis_k = labels[k]
        basis_k1 = labels[k + 1]
        idx = {s: i for i, s in enumerate(basis_k1)}
        m = mat_zero(len(basis_k1), len(basis_k), ring.zero())
        for col, subset in enumerate(basis_k):
            if invert in subset:
                continue
            bigger = subset | {invert}
            sign = _subset_sign(invert, bigger)
            entry = ring.gen(invert - 1, -1)  # x^{-1}: Laurent is fine here
            m[idx[bigger]][col] = entry if sign > 0 else -entry
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


def unit_complex():
    """The rank-one symmetric complex <1> in degree zero (no variables)."""
    ring = PolyRing(())
    cx = FreeComplex(ring, {0: 1}, {})
    return SymmetricComplex(cx, 0, {0: [[ring.one()]]})


def _adjoin_rings(r1, r2):
    """Combined ring with r2's generators renamed past collisions."""
    names = list(r1.gens)
    mapping2 = []
    for g in r2.gens:
        name = g
        while name in names:
            name += "'"
        names.append(name)
        mapping2.append(len(names) - 1)
    ring = PolyRing(tuple(names),
                    tuple(list(r1.weights) + list(r2.weights)))
    map1 = {i: i for i in range(len(r1.gens))}
    map2 = {i: mapping2[i] for i in range(len(r2.gens))}
    return ring, map1, map2


class TensorBlocks:
    """Index bookkeeping for (M@N)_k = sum over p+q=k of M_p @ N_q."""

    def __init__(self, mx, nx):
        self.mx = mx
        self.nx = nx

    def blocks(self, k):
        out = []
        for p in sorted(self.mx.ranks):
            q = k - p
            if self.nx.rank(q):
                out.append((p, q))
        return out

    def rank(self, k):
        return sum(self.mx.rank(p) * self.nx.rank(q) for p, q in self.blocks(k))

    def offset(self, k, p):
        off = 0
        for (pp, qq) in self.blocks(k):
            if pp == p:
                return off
            off += self.mx.rank(pp) * self.nx.rank(qq)
        raise ChainError("block (%d, %d) absent in degree %d" % (p, k - p, k))

    def position(self, k, p, i, j):
        return self.offset(k, p) + i * self.nx.rank(k - p) + j


def tensor_pair(msym, nsym):
    """Tensor of symmetric complexes with the Koszul-sign differential and
    the block form scaled by nu(p,q) = (-1)^{q(r-p)}.

    Disjoint variable sets are adjoined (colliding names are primed).
    """
    mx, nx = msym.complex, nsym.complex
    r, s = msym.degree, nsym.degree
    ring, map_m, map_n = _adjoin_rings(mx.ring, nx.ring)

    def lift_m(poly):
        return poly.map_to(ring, map_m)

    def lift_n(poly):
        return poly.map_to(ring, map_n)

    tb = TensorBlocks(mx, nx)
    lo = min(k1 + k2 for k1 in mx.ranks for k2 in nx.ranks)
    hi = max(k1 + k2 for k1 in mx.ranks for k2 in nx.ranks)
    ranks = {k: tb.rank(k) for k in range(lo, hi + 1)}
    labels = {}
    for k in range(lo, hi + 1):
        lab = []
        for (p, q) in tb.blocks(k):
            for i in range(mx.rank(p)):
                for j in range(nx.rank(q)):
                    lab.append((p, i, q, j))
        labels[k] = lab

    diffs = {}
    for k in range(lo + 1, hi + 1):
        rows, cols = ranks.get(k - 1, 0), ranks.get(k, 0)
        if not rows or not cols:
            continue
        m = mat_zero(rows, cols, ring.zero())
        for (p, q) in tb.blocks(k):
            dm = mx.diff(p)
            dn = nx.diff(q)
            for i in range(mx.rank(p)):
                for j in range(nx.rank(q)):
                    col = tb.position(k, p, i, j)
                    if mx.rank(p - 1):
                        for a in range(mx.rank(p - 1)):
                            entry = dm[a][i]
                            if not entry.is_zero():
                                row = tb.position(k - 1, p - 1, a, j)
                                m[row][col] = m[row][col] + lift_m(entry)
                    if nx.rank(q - 1):
                        sgn = -1 if p % 2 else 1
                        for b in range(nx.rank(q - 1)):
                            entry = dn[b][j]
                            if not entry.is_zero():
                                row = tb.position(k - 1, p, i, b)
                                lifted = lift_n(entry)
                                m[row][col] = m[row][col] + \
                                    (lifted if sgn > 0 else -lifted)
        diffs[k] = m

    cx = FreeComplex(ring, ranks, diffs, labels=labels)
    n = r + s
    nu = CONVENTIONS["tensor_form_sign"]
    phi = {}
    for k in range(lo, hi + 1):
        rows, cols = tb.rank(n - k), tb.rank(k)
        if not rows or not cols:
            continue
        m = mat_zero(rows, cols, ring.zero())
        for (p, q) in tb.blocks(k):
            fm = msym.form(p)   # rows: M_{r-p}
            fn = nsym.form(q)   # rows: N_{s-q}
            sign = nu(p, q, r, s)
            for i in range(mx.rank(p)):
                for j in range(nx.rank(q)):
                    col = tb.position(k, p, i, j)
                    for a in range(mx.rank(r - p)):
                        va = fm[a][i]
                        if va.is_zero():
                            continue
                        for b in range(nx.rank(s - q)):
                            vb = fn[b][j]
                            if vb.is_zero():
                                continue
                            row = tb.position(n - k, r - p, a, b)
                            val = lift_m(va) * lift_n(vb)
                            m[row][col] = m[row][col] + \
                                (val if sign > 0 else -val)
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


def koszul_tensor_isometry(a, b):
    """koszul(a) @ koszul(b) against koszul(a+b): the canonical label merge
    (S, T) -> S u (T + a) is a chain isometry, verified exactly.

    Returns (tensor, merged_in_tensor_ring, iso) with iso a ChainIso whose
    pullback of the merged form equals the tensor form on the nose.
    """
    ka, kb = koszul(a), koszul(b)
    t = tensor_pair(ka, kb)
    kab = koszul(a + b)
    ring = t.complex.ring
    # both rings have a+b unit-weight generators in matching order
    gen_map = {i: i for i in range(a + b)}
    ranks = dict(kab.complex.ranks)
    diffs = {k: [[x.map_to(ring, gen_map) for x in row]
                 for row in kab.complex.diff(k)]
             for k in kab.complex.diffs}
    merged_cx = FreeComplex(ring, ranks, diffs, labels=kab.complex.labels)
    merged_phi = {k: [[x.map_to(ring, gen_map) for x in row]
                      for row in kab.form(k)]
                  for k in kab.phi}
    merged = SymmetricComplex(merged_cx, a + b, merged_phi)

    components = {}
    for k, lab in t.complex.labels.items():
        tgt_labels = merged_cx.labels[k]
        tgt_index = {s: i for i, s in enumerate(tgt_labels)}
        m = mat_zero(len(tgt_labels), t.complex.rank(k), ring.zero())
        for col, (p, i, q, j) in enumerate(lab):
            left = ka.complex.labels[p][i]
            right = kb.complex.labels[q][j]
            target = frozenset(left | {x + a for x in right})
            m[tgt_index[target]][col] = ring.one()
        components[k] = m
    iso = ChainIso(t.complex, merged_cx, components)
    if not iso.verify_chain_map():
        raise ChainError("koszul merge failed to be a chain map")
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
        self.expected_sign = -1 if (degrees[0] * degrees[1]) % 2 else 1
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
    t1 = tensor_pair(msym, nsym)
    t2 = tensor_pair(nsym, msym)
    ring2 = t2.complex.ring
    nm = len(msym.complex.ring.gens)
    nn = len(nsym.complex.ring.gens)
    gen_map = {i: nn + i for i in range(nm)}
    gen_map.update({nm + j: j for j in range(nn)})

    def lift(poly):
        return poly.map_to(ring2, gen_map)

    components = {}
    for k, lab in t1.complex.labels.items():
        tgt_lab = t2.complex.labels.get(k, [])
        tgt_index = {t: i for i, t in enumerate(tgt_lab)}
        m = mat_zero(len(tgt_lab), len(lab), ring2.zero())
        for col, (p, i, q, j) in enumerate(lab):
            sign = -1 if (p * q) % 2 else 1
            m[tgt_index[(q, j, p, i)]][col] = ring2.const(sign)
        components[k] = m

    # sigma is a chain map from the lifted t1 to t2
    lo, hi = t1.complex.support()
    for k in range(lo + 1, hi + 1):
        lhs = mat_mul(components[k - 1],
                      [[lift(x) for x in row] for row in t1.complex.diff(k)],
                      ring2.zero())
        rhs = mat_mul(t2.complex.diff(k), components[k], ring2.zero())
        if lhs != rhs:
            raise ChainError("factor swap failed to be a chain map at %d" % k)

    n = r + s
    observed = None
    ok = True
    for k in t1.complex.ranks:
        pulled = mat_mul(t2.form(k), components[k], ring2.zero())
        pulled = mat_mul(mat_transpose(components[n - k]), pulled,
                         ring2.zero())
        reference = [[lift(x) for x in row] for row in t1.form(k)]
        for row_p, row_r in zip(pulled, reference):
            for x, y in zip(row_p, row_r):
                if x.is_zero() and y.is_zero():
                    continue
                if x == y:
                    ratio = 1
                elif x == -y:
                    ratio = -1
                else:
                    ok = False
                    ratio = None
                if ratio is not None:
                    if observed is None:
                        observed = ratio
                    elif observed != ratio:
                        ok = False
    if observed is None:
        observed = 1
    return SwapReport((r, s), observed, ok)
