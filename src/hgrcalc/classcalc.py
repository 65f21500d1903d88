"""Formal K0/GW0 bundle-class calculus.

Free abelian group on tensor words of bundle symbols, with a rewriting
engine driven by declared direct-sum decompositions.  The engine never
invents isometries: it only rewrites along registered relations, tracking
rank at every step, and it retains a full trace of each verification.
"""

from collections import namedtuple

from . import HgrcalcError
from .polynomial import Combination


class ClassCalcError(HgrcalcError):
    pass


class BundleSymbol(namedtuple("BundleSymbol", "name rank symmetry")):
    """A named bundle with a declared rank and symmetry type
    (symplectic | orthogonal | plain)."""

    __slots__ = ()

    def __new__(cls, name, rank, symmetry):
        if rank < 0:
            raise ClassCalcError("rank must be nonnegative")
        if symmetry not in ("symplectic", "orthogonal", "plain"):
            raise ClassCalcError("unknown symmetry type %r" % (symmetry,))
        if symmetry == "symplectic" and rank % 2:
            raise ClassCalcError("symplectic symbols must have even rank")
        return super().__new__(cls, name, rank, symmetry)


class FormalClass(Combination):
    """Integer combination of tensor words of bundle symbols."""

    __slots__ = ()

    def __init__(self, terms=None):
        Combination.__init__(self, None, {tuple(w): c
                                          for w, c in (terms or {}).items()})

    @classmethod
    def of(cls, *word):
        return cls({tuple(word): 1})

    def _scalar(self, k):
        if not isinstance(k, int):
            raise TypeError("formal classes scale by integers, not %r" % (k,))
        return k

    def tensor(self, other):
        """Bilinear box-product: concatenates words."""
        res = {}
        get = res.get
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = get(w)
                res[w] = c1 * c2 if s is None else s + c1 * c2
        return self._new(res)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.sorted_terms():
            word = "[" + " ⊠ ".join(w) + "]"
            if c == 1:
                bits.append(word)
            elif c == -1:
                bits.append("-" + word)
            else:
                bits.append("%d%s" % (c, word))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def to_json(self):
        return [{"word": list(w), "coeff": c} for w, c in self.sorted_terms()]


class RelationSet:
    """Declared symbols plus the rewrite rules the engine may use.

    Rules: (i) complement elimination [A^perp] -> m[T] - [A] inside any
    tensor slot, for a declared orthogonal sum A + A^perp = T^{+m};
    (ii) slot-wise absorption of the designated unit symbol (K0 only);
    (iii) word contractions such as [H % H] -> 2[H+].
    Every rule is checked to preserve rank when registered.
    """

    def __init__(self, symbols):
        self.symbols = {s.name: s for s in symbols}
        self.complements = {}
        self.contractions = {}
        self.absorb_unit = None

    def symbol(self, name):
        if name not in self.symbols:
            raise ClassCalcError("unknown symbol %r" % (name,))
        return self.symbols[name]

    def add_complement(self, perp, partner, trivial, multiplicity):
        """Register [perp] = multiplicity*[trivial] - [partner]."""
        s, p, t = self.symbol(perp), self.symbol(partner), self.symbol(trivial)
        if s.rank + p.rank != multiplicity * t.rank:
            raise ClassCalcError("complement rule does not preserve rank")
        self.complements[perp] = (partner, trivial, multiplicity)

    def add_contraction(self, word, replacement):
        """Register an exact word rewrite, e.g. (H, H) -> {(H+,): 2}."""
        word = tuple(word)
        lhs_rank = 1
        for name in word:
            lhs_rank *= self.symbol(name).rank
        rhs_rank = 0
        for w, c in replacement.items():
            r = 1
            for name in w:
                r *= self.symbol(name).rank
            rhs_rank += c * r
        if lhs_rank != rhs_rank:
            raise ClassCalcError("contraction rule does not preserve rank")
        self.contractions[word] = {tuple(w): c for w, c in replacement.items()}

    def set_absorbing_unit(self, name):
        """Unit symbol absorbed from tensor slots: [O % X] = [X]."""
        if self.symbol(name).rank != 1:
            raise ClassCalcError("absorbing unit must have rank one")
        self.absorb_unit = name

    def rank_of(self, x):
        total = 0
        for w, c in x.terms.items():
            r = 1
            for name in w:
                r *= self.symbol(name).rank
            total += c * r
        return total


def expand(x, relations):
    """Confluent normal form of a formal class under the relation set.

    Returns (normal_form, trace); the trace lists each rewrite applied.
    """
    trace = []
    for w in x.terms:
        for name in w:
            relations.symbol(name)
    rank_before = relations.rank_of(x)
    current = x
    changed = True
    while changed:
        changed = False
        for w, c in sorted(current.terms.items()):
            step = _rewrite_word(w, relations)
            if step is None:
                continue
            rule, replacement = step
            delta = FormalClass({w: -c}) + c * replacement
            after = current + delta
            if relations.rank_of(after) != rank_before:
                raise ClassCalcError("rewrite %r broke the rank invariant" % rule)
            trace.append({"rule": rule, "word": list(w), "coeff": c,
                          "result": repr(after)})
            current = after
            changed = True
            break
    return current, trace


def _rewrite_word(word, relations):
    # complement elimination, innermost slot first
    for i, name in enumerate(word):
        if name in relations.complements:
            partner, trivial, mult = relations.complements[name]
            w_triv = word[:i] + (trivial,) + word[i + 1:]
            w_part = word[:i] + (partner,) + word[i + 1:]
            repl = FormalClass({w_triv: mult, w_part: -1})
            return ("complement:%s" % name, repl)
    # unit absorption in multi-letter words
    if relations.absorb_unit and len(word) > 1:
        u = relations.absorb_unit
        if u in word:
            i = word.index(u)
            rest = word[:i] + word[i + 1:]
            return ("absorb:%s" % u, FormalClass({rest: 1}))
    # exact word contractions
    if word in relations.contractions:
        repl = FormalClass(relations.contractions[word])
        return ("contract:%s" % "%".join(word), repl)
    return None


# ---------------------------------------------------------------------------
# The standard relation sets of the verification battery.
# ---------------------------------------------------------------------------


def gw_relations(n):
    """Symbols and decompositions around HGr'(2n,4n) x HP^1.

    U2n + U2n_perp = H^{2n} on the big Grassmannian, U + U_perp = H^2 on
    the quaternionic projective line, and H % H = 2 H+.
    """
    rel = RelationSet([
        BundleSymbol("U2n", 2 * n, "symplectic"),
        BundleSymbol("U2n_perp", 2 * n, "symplectic"),
        BundleSymbol("U", 2, "symplectic"),
        BundleSymbol("U_perp", 2, "symplectic"),
        BundleSymbol("H", 2, "symplectic"),
        BundleSymbol("H+", 2, "orthogonal"),
    ])
    rel.add_complement("U2n_perp", "U2n", "H", 2 * n)
    rel.add_complement("U_perp", "U", "H", 2)
    rel.add_contraction(("H", "H"), {("H+",): 2})
    return rel


def k0_relations(n):
    """Plain K0 symbols on CGr(n,2n) x CP^1."""
    rel = RelationSet([
        BundleSymbol("U'n", n, "plain"),
        BundleSymbol("U''n", n, "plain"),
        BundleSymbol("U'1", 1, "plain"),
        BundleSymbol("U''1", 1, "plain"),
        BundleSymbol("O", 1, "plain"),
    ])
    rel.add_complement("U''n", "U'n", "O", 2 * n)
    rel.add_complement("U''1", "U'1", "O", 2)
    rel.set_absorbing_unit("O")
    return rel


class Verification:
    """Outcome of a class-identity check, with the full rewrite trace."""

    def __init__(self, name, ok, lhs, rhs, trace, notes):
        self.name = name
        self.ok = ok
        self.lhs = lhs
        self.rhs = rhs
        self.trace = trace
        self.notes = notes

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "Verification(%s: %s)" % (self.name, "ok" if self.ok else "FAIL")

    def to_json(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "lhs_normal_form": self.lhs.to_json(),
            "rhs_normal_form": self.rhs.to_json(),
            "notes": self.notes,
            "trace": self.trace,
        }


def verify_gw_formula(n, i):
    """Pullback identity for the rank-16n orthogonal subbundle, component i.

    Left side: the declared subbundle decomposition
      (U2n % U) + (H^{n-i} % U_perp) + (U2n_perp % H) + (2n+2i) H+
    minus 8n H+.  Right side: ([U2n]-(n-i)[H]) % ([U]-[H]) by bilinearity.
    """
    if n < 1:
        raise ClassCalcError("need n >= 1")
    if abs(i) > n:
        raise ClassCalcError("component index must satisfy |i| <= n")
    rel = gw_relations(n)
    pulled_back = (FormalClass.of("U2n", "U")
                   + (n - i) * FormalClass.of("H", "U_perp")
                   + FormalClass.of("U2n_perp", "H")
                   + (2 * n + 2 * i) * FormalClass.of("H+"))
    lhs = pulled_back - (8 * n) * FormalClass.of("H+")
    factor1 = FormalClass.of("U2n") - (n - i) * FormalClass.of("H")
    factor2 = FormalClass.of("U") - FormalClass.of("H")
    rhs = factor1.tensor(factor2)
    return _verify("gw-formula(n=%d,i=%d)" % (n, i), lhs, rhs, rel)


def verify_k0_formula(n, i):
    """K-theory analogue: h_n^*([U'_{4n}] - 4n) against the box product."""
    if n < 1:
        raise ClassCalcError("need n >= 1")
    if abs(i) > n:
        raise ClassCalcError("component index must satisfy |i| <= n")
    rel = k0_relations(n)
    pulled_back = (FormalClass.of("U'n", "U'1")
                   + (n - i) * FormalClass.of("O", "U''1")
                   + FormalClass.of("U''n", "O")
                   + (n + i) * FormalClass.of("O", "O"))
    lhs = pulled_back - (4 * n) * FormalClass.of("O", "O")
    factor1 = FormalClass.of("U'n") - (n - i) * FormalClass.of("O")
    factor2 = FormalClass.of("U'1") - FormalClass.of("O")
    rhs = factor1.tensor(factor2)
    return _verify("k0-formula(n=%d,i=%d)" % (n, i), lhs, rhs, rel)


def _verify(name, lhs, rhs, rel):
    """Both sides of a virtual (rank 0) identity in normal form; the trace
    lists the left side's rewrites, then the right side's."""
    lhs_rank, rhs_rank = rel.rank_of(lhs), rel.rank_of(rhs)
    notes = {"rank_lhs": lhs_rank, "rank_rhs": rhs_rank, "rank_expected": 0}
    lhs_nf, lhs_trace = expand(lhs, rel)
    rhs_nf, rhs_trace = expand(rhs, rel)
    ok = lhs_nf == rhs_nf and lhs_rank == rhs_rank == 0
    return Verification(name, ok, lhs_nf, rhs_nf, lhs_trace + rhs_trace,
                        notes)


def mu_class(n, i, j):
    """The box product ([U]+(i-n)[H]) % ([U]+(j-n)[H]) over HGr(n,2n)^2.

    Expanded bilinearly with [H % H] -> 2[H+]; rank 4ij.
    """
    if n < 1:
        raise ClassCalcError("need n >= 1")
    rel = RelationSet([
        BundleSymbol("U", 2 * n, "symplectic"),
        BundleSymbol("H", 2, "symplectic"),
        BundleSymbol("H+", 2, "orthogonal"),
    ])
    rel.add_contraction(("H", "H"), {("H+",): 2})
    factor = lambda idx: FormalClass.of("U") + (idx - n) * FormalClass.of("H")
    product = factor(i).tensor(factor(j))
    nf, _ = expand(product, rel)
    return nf, rel
