"""Inverse systems of finitely generated abelian groups: lim and lim^1.

Groups are cokernel presentations of integer matrices; towers carry a tail
policy saying how the displayed prefix continues.  The module certifies or
refutes the Mittag-Leffler condition, computes limits of surjective towers,
and assembles compatible element families into truncated limit elements.
Full lim^1 of an arbitrary tower is never computed as a group (it can be
uncountable); vanishing certificates are the deliverable.
"""

from math import prod

from . import HgrcalcError
from .polynomial import (hermite_column_form, invariant_factors, mat_apply,
                         mat_identity, mat_mul, mat_shape, mat_transpose)
# the bench workloads and the tests reach the Smith form as
# towers.smith_normal_form, next to towers.hermite_column_form
from .polynomial import smith_normal_form


class TowerError(HgrcalcError):
    pass


def _lattice_index(form):
    """Index in Z^rows of the lattice a column Hermite form spans: the
    product of its pivots, or None when it has fewer columns than rows."""
    rows, cols = mat_shape(form)
    return None if cols < rows else prod(form[i][i] for i in range(rows))


# ---------------------------------------------------------------------------
# Finitely generated abelian groups as cokernels.
# ---------------------------------------------------------------------------


class FGAbelian:
    """coker of an integer matrix: ngens generators, relations as columns.

    A group is not changed after it is made: the Hermite form of its
    relations is computed once, on first use, and read by `order`,
    `contains` and `invariant_factors`; the last takes the Smith form of
    that Hermite form, which spans the same lattice with at most `ngens`
    columns.
    """

    def __init__(self, ngens, relations=None):
        if not isinstance(ngens, int) or ngens < 0:
            raise TowerError("generator count %r is not a nonnegative integer"
                             % (ngens,))
        self.ngens = ngens
        self.relations = [list(col) for col in (relations or [])]
        for col in self.relations:
            if len(col) != ngens:
                raise TowerError("relation length does not match generators")
            if not all(isinstance(x, int) for x in col):
                raise TowerError("relations must have integer entries")
        self._hnf = None

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def cyclic(cls, n):
        if n == 0:
            return cls(1)
        return cls(1, [[n]])

    @classmethod
    def direct_sum(cls, *groups):
        ngens = sum(g.ngens for g in groups)
        rels = []
        offset = 0
        for g in groups:
            for col in g.relations:
                padded = [0] * offset + list(col) + [0] * (ngens - offset - g.ngens)
                rels.append(padded)
            offset += g.ngens
        return cls(ngens, rels)

    def modulo(self, matrix):
        """This group modulo the columns of a matrix with ngens rows."""
        return FGAbelian(self.ngens, self.relations + mat_transpose(matrix))

    def relation_matrix(self):
        """Generators x relations matrix (relations as columns)."""
        if not self.relations:
            return [[0] for _ in range(self.ngens)] if self.ngens else []
        return mat_transpose(self.relations)

    def hermite_form(self):
        """The column Hermite form of the relation lattice."""
        if self._hnf is None:
            self._hnf = hermite_column_form(self.relation_matrix())
        return self._hnf

    def invariant_factors(self):
        """(free_rank, [torsion invariant factors > 1])."""
        if self.ngens == 0:
            return (0, [])
        facs = invariant_factors(self.hermite_form())
        free_rank = self.ngens - len(facs)
        torsion = [f for f in facs if f != 1]
        return (free_rank, torsion)

    def order(self):
        """Group order, or None when infinite."""
        return _lattice_index(self.hermite_form())

    def is_finite(self):
        return self.order() is not None

    def is_trivial(self):
        return self.order() == 1

    def contains(self, vector):
        """Whether the vector is a relation (i.e. zero in the group), by
        forward substitution down the Hermite form's increasing pivots."""
        if len(vector) != self.ngens:
            raise TowerError("vector length does not match generators")
        form = self.hermite_form()
        rest = list(vector)
        c = 0
        for i in range(self.ngens):
            pivot = form[i][c] if c < len(form[i]) else 0
            if pivot:
                q, r = divmod(rest[i], pivot)
                if r:
                    return False
                for t in range(i + 1, self.ngens):
                    rest[t] -= q * form[t][c]
                c += 1
            elif rest[i]:
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, FGAbelian)
                and self.invariant_factors() == other.invariant_factors())

    def __repr__(self):
        free_rank, torsion = self.invariant_factors()
        bits = ["Z"] * free_rank + ["Z/%d" % f for f in torsion]
        return " x ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# Towers.
# ---------------------------------------------------------------------------


TAIL_POLICIES = ("eventually-constant", "template-repeating", "finite-prefix-only")
# the Hermite forms are generators x (generators + relations), and a
# template walks its repeated level at most 62 steps under these bounds
# (see ENTRY_BOUND); a doubling template of 8 generators on 4 levels, with
# 16 relations each, and one of 4 dense 8 x 8 maps with entries in
# [-40, 40] take 0.08 s and 0.13 s as one CLI call (Python 3.11, 2 vCPUs)
GENS_BOUND = 8
RELATIONS_BOUND = 16
LEVELS_BOUND = 4
# a step multiplies an image index by at most the index of the level's
# first image, below (sqrt(8) * 40)^8 < 2^55 by Hadamard's bound; a torsion
# order is below that bound too, so a template is decided within
# 8 + 55 - 1 = 62 steps and every printed index stays within the
# 4300-digit int-to-str limit
ENTRY_BOUND = 40


class Tower:
    """Inverse system: maps[k] is a matrix inducing levels[k+1] -> levels[k]."""

    def __init__(self, levels, maps, tail="finite-prefix-only"):
        if tail not in TAIL_POLICIES:
            raise TowerError("unknown tail policy %r" % (tail,))
        if not levels:
            raise TowerError("a tower needs at least one level")
        if len(maps) != len(levels) - 1 and not (tail != "finite-prefix-only"
                                                 and len(maps) == len(levels)):
            # template policies may carry one extra map for the repeated tail
            raise TowerError("need one map per adjacent pair of levels")
        if tail == "template-repeating" and not maps:
            raise TowerError("a repeating template needs a map to repeat")
        self.levels = list(levels)
        self.maps = [[list(r) for r in m] for m in maps]
        self.tail = tail
        # a repeating template also acts on the last level by its last map
        for k in range(len(self.maps) + (tail == "template-repeating")):
            m, tgt, src = self.map(k), self.level(k), self.level(k + 1)
            if len(m) != tgt.ngens or any(len(r) != src.ngens for r in m):
                raise TowerError("map %d has the wrong shape" % k)
            if not all(isinstance(x, int) for r in m for x in r):
                raise TowerError("map %d must have integer entries" % k)
            if not all(tgt.contains(mat_apply(m, col)) for col in src.relations):
                raise TowerError("map %d does not send relations into relations" % k)

    def level(self, k):
        if k < len(self.levels):
            return self.levels[k]
        if self.tail == "finite-prefix-only":
            raise TowerError("level %d beyond supplied data" % k)
        return self.levels[-1]

    def map(self, k):
        """Matrix of level_{k+1} -> level_k, honoring the tail policy."""
        if k < len(self.maps):
            return self.maps[k]
        if self.tail == "finite-prefix-only":
            raise TowerError("map %d beyond supplied data" % k)
        if self.tail == "eventually-constant":
            return mat_identity(self.levels[-1].ngens)
        return self.maps[-1]


def _image_chains(tower):
    """chain(k, j): the Hermite form of Im(A_{k+j} -> A_k), None past the data.

    Tower() checks that F_k = map(k) sends R_{k+1} into R_k, so the image is
    F_k Im(A_{k+j} -> A_{k+1}) + R_k: one product and one Hermite form from
    the level above, each computed once.  From level `tail` on, level(k)
    and map(k) no longer change, so those levels share one chain.
    """
    tail = (len(tower.levels) - 1 if tower.tail == "template-repeating"
            else len(tower.maps))
    chains = {}

    def chain(k, j):
        k = min(k, tail)
        if k not in chains:
            chains[k] = [mat_identity(tower.level(k).ngens)]
        forms = chains[k]
        while len(forms) <= j:
            try:
                m = tower.map(k)
            except TowerError:
                return None  # no data beyond the prefix: refuse to guess
            above = chain(k + 1, len(forms) - 1)
            if above is None:
                return None
            forms.append(tower.level(k).modulo(mat_mul(m, above)).hermite_form())
        return forms[j]

    return chain


class MLResult:
    """certificate | refutation | inconclusive, with the evidence."""

    def __init__(self, kind, reason, data=None):
        if kind not in ("certificate", "refutation", "inconclusive"):
            raise TowerError("bad result kind")
        self.kind = kind
        self.reason = reason
        self.data = data or {}

    def __repr__(self):
        return "MLResult(%s: %s)" % (self.kind, self.reason)

    def to_json(self):
        return {"kind": self.kind, "reason": self.reason, "data": self.data}


def check_mittag_leffler(tower):
    """Mittag-Leffler decision for the image chains Im(A_{k+j} -> A_k).

    Certificate when the level groups are all finite or the supplied maps
    all surjective, and otherwise when every chain stabilizes, with
    `stabilized_at[k]` the least j >= 1 with chain(k, j+1) == chain(k, j):

    - eventually-constant: always, as level k's chain is constant from
      step len(maps) - k on;
    - template-repeating: exactly when the chain of the repeated level T
      stabilizes, which it does by step N (below) or never; level k < T
      is then stable at most T - k steps after level T.  Otherwise the
      refutation gives the indices of level T's chain through step N + 1;
    - finite-prefix-only: inconclusive, since the prefix says nothing of
      the levels beyond it.

    The bound: let F be the repeated map of A = level T, of free rank d
    and torsion t, B_j = F^j(A), and N = d + floor(log2 |t|).  Once
    B_{s+1} = B_s the chain is constant, as B_{s+2} = F(B_{s+1}) = F(B_s).
    If B_{j+1} != B_j, then its image in A/t = Z^d or B_j ∩ t shrinks
    strictly, since H ⊆ K with the same image and the same intersection
    with t are equal.  The images G^j(Z^d), for the map G that F induces,
    drop rank at most d times; once the rank holds, G is invertible on
    their rational span W and each step has index |det G|_W| there, the
    same at every step, so the images are stable from that step or never.
    B_j ∩ t shrinks strictly at most Omega(|t|) <= floor(log2 |t|) times.
    So a chain that stabilizes has at most N strict steps before it does.
    """
    # finite groups force stabilization of any decreasing chain; this needs
    # the tail policy to pin the groups beyond the prefix
    if tower.tail != "finite-prefix-only":
        if all(g.is_finite() for g in tower.levels):
            return MLResult("certificate",
                            "all level groups are finite; image chains stabilize",
                            {"orders": [g.order() for g in tower.levels]})

    chain = _image_chains(tower)
    # surjective maps keep every image chain constant at the full group
    if tower.maps and all(_lattice_index(chain(k, 1)) == 1
                          for k in range(len(tower.maps))):
        return MLResult("certificate",
                        "all supplied maps are surjective; image chains are "
                        "constant at the full group",
                        {"levels_checked": len(tower.maps)})

    def stable_step(k, last):
        # the least j <= last with chain(k, j + 1) == chain(k, j), if any
        for j in range(1, last + 1):
            form = chain(k, j + 1)
            if form is None:
                return None
            if form == chain(k, j):
                return j
        return None

    last_level = len(tower.levels) - 1
    if tower.tail == "finite-prefix-only":
        return MLResult("inconclusive",
                        "a finite prefix does not determine the tower beyond it",
                        {"stabilized_at": {k: stable_step(k, last_level)
                                           for k in range(last_level + 1)}})
    if tower.tail == "eventually-constant":
        bounds = [max(len(tower.maps) - k, 1) for k in range(last_level + 1)]
    else:
        free_rank, torsion = tower.levels[last_level].invariant_factors()
        bound = free_rank + prod(torsion).bit_length() - 1
        stable = stable_step(last_level, max(bound, 1))
        if stable is None:
            return MLResult(
                "refutation",
                "the repeated level's image chain does not stabilize by the "
                "bound its group gives, so it never does",
                {"level": last_level, "bound": bound,
                 "indices": [_lattice_index(chain(last_level, j))
                             for j in range(1, bound + 2)]})
        bounds = [stable + last_level - k for k in range(last_level + 1)]
    return MLResult("certificate", "image chains stabilize",
                    {"stabilized_at": {k: stable_step(k, b)
                                       for k, b in enumerate(bounds)}})


class LimResult:
    def __init__(self, group, depth):
        self.group = group
        self.depth = depth

    def __repr__(self):
        return "LimResult(depth=%d, %r, lim1=0)" % (self.depth, self.group)


def lim_of_surjective(tower, depth):
    """Limit approximation for a tower whose maps are surjective to `depth`.

    Surjectivity of every map gives the Mittag-Leffler condition, hence
    lim^1 = 0, and the limit surjects onto every level <= depth.
    """
    if depth < 0:
        raise TowerError("depth must be nonnegative")
    # from k = len(maps) on, map(k) and level(k) no longer change, so that
    # step stands for every later one
    for k in range(min(depth, len(tower.maps) + 1)):
        if tower.level(k).modulo(tower.map(k)).order() != 1:
            raise TowerError("map at level %d is not surjective" % k)
    return LimResult(tower.level(depth), depth)


def milnor_assemble(tower, certificate, elements, depth=None):
    """Assemble a compatible family into the truncated limit element.

    Requires a lim^1-vanishing certificate; compatibility of the family is
    checked exactly, and the element at the requested depth is returned
    (the unique inverse-limit element truncated there).
    """
    if not isinstance(certificate, MLResult) or certificate.kind != "certificate":
        raise TowerError("milnor_assemble needs a lim^1-vanishing certificate")
    if depth is None:
        depth = len(elements) - 1
    if depth >= len(elements):
        raise TowerError("no element supplied at depth %d" % depth)
    for k in range(len(elements) - 1):
        m = tower.map(k)
        src, tgt = tower.level(k + 1), tower.level(k)
        if len(elements[k + 1]) != src.ngens or len(elements[k]) != tgt.ngens:
            raise TowerError("element length does not match level %d" % k)
        image = mat_apply(m, elements[k + 1])
        diff = [a - b for a, b in zip(image, elements[k])]
        if not tgt.contains(diff):
            raise TowerError("family is incompatible at level %d" % k)
    return list(elements[depth])
