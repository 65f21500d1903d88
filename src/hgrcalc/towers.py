"""Inverse systems of finitely generated abelian groups: lim and lim^1.

Groups are cokernel presentations of integer matrices; towers carry a tail
policy saying how the displayed prefix continues.  The module certifies or
refutes the Mittag-Leffler condition, computes limits of surjective towers,
and assembles compatible element families into truncated limit elements.
Full lim^1 of an arbitrary tower is never computed as a group (it can be
uncountable); vanishing certificates are the deliverable.
"""

from . import HgrcalcError
from .polynomial import (hermite_column_form, mat_apply, mat_identity,
                         mat_mul, mat_shape, mat_transpose, smith_normal_form)


class TowerError(HgrcalcError):
    pass


def _solve_smith(smith, b):
    """An integer solution x of a x = b (vectors as columns), or None, for
    the matrix a whose Smith form (U, D, V) is `smith`."""
    u, d, v = smith
    rows, cols = mat_shape(d)
    if len(b) != rows:
        raise TowerError("right-hand side length does not match the matrix")
    ub = mat_apply(u, b)
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return mat_apply(v, y)


# ---------------------------------------------------------------------------
# Finitely generated abelian groups as cokernels.
# ---------------------------------------------------------------------------


class FGAbelian:
    """coker of an integer matrix: ngens generators, relations as columns.

    A group is not changed after it is made: the Smith form of its
    relation matrix is computed once, on first use, and read by
    `invariant_factors`, `order` and `contains`.
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
        self._snf = None

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

    def relation_matrix(self):
        """Generators x relations matrix (relations as columns)."""
        if not self.relations:
            return [[0] for _ in range(self.ngens)] if self.ngens else []
        return mat_transpose(self.relations)

    def _smith_form(self):
        """(U, D, V), the Smith form of the relation matrix."""
        if self._snf is None:
            self._snf = smith_normal_form(self.relation_matrix())
        return self._snf

    def invariant_factors(self):
        """(free_rank, [torsion invariant factors > 1])."""
        if self.ngens == 0:
            return (0, [])
        _, d, _ = self._smith_form()
        facs = [d[t][t] for t in range(min(mat_shape(d))) if d[t][t]]
        free_rank = self.ngens - len(facs)
        torsion = [f for f in facs if f != 1]
        return (free_rank, torsion)

    def order(self):
        """Group order, or None when infinite."""
        free_rank, torsion = self.invariant_factors()
        if free_rank:
            return None
        out = 1
        for f in torsion:
            out *= f
        return out

    def is_finite(self):
        return self.order() is not None

    def is_trivial(self):
        return self.order() == 1

    def contains(self, vector):
        """Whether the vector is a relation (i.e. zero in the group)."""
        if not self.relations:
            return all(x == 0 for x in vector)
        return _solve_smith(self._smith_form(), list(vector)) is not None

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
# each window step takes one more composite and Hermite form, and under a
# doubling template the entries double per step too, so a window's cost
# grows faster than its length
WINDOW_BOUND = 256
# a window runs once per level on matrices of generators x (generators +
# relations); a doubling template of 8 generators on 4 levels, with 16
# relations each, takes about 4 s at the largest window as one CLI call
# (Python 3.11, 2 vCPUs)
GENS_BOUND = 8
RELATIONS_BOUND = 16
LEVELS_BOUND = 4


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
        for k, m in enumerate(self.maps):
            tgt = self.levels[min(k, len(self.levels) - 1)]
            src = self.levels[min(k + 1, len(self.levels) - 1)]
            if len(m) != tgt.ngens or any(len(r) != src.ngens for r in m):
                raise TowerError("map %d has the wrong shape" % k)
            if not all(isinstance(x, int) for r in m for x in r):
                raise TowerError("map %d must have integer entries" % k)
            if not _map_well_defined(m, src, tgt):
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

    def composite(self, k, j):
        """Matrix of level_{k+j} -> level_k."""
        acc = mat_identity(self.level(k).ngens)
        for step in range(j):
            acc = mat_mul(acc, self.map(k + step))
        return acc


def _map_well_defined(matrix, src, tgt):
    return all(tgt.contains(mat_apply(matrix, col)) for col in src.relations)


def _image_subgroup_form(matrix, tgt):
    """Canonical form of span(matrix columns + target relations)."""
    cols = mat_transpose(matrix) + [list(c) for c in tgt.relations]
    if not cols:
        return []
    return hermite_column_form(mat_transpose(cols))


def _image_index(matrix, tgt):
    """Index of the image subgroup in tgt; None when infinite."""
    return FGAbelian(tgt.ngens, mat_transpose(matrix) + tgt.relations).order()


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


def check_mittag_leffler(tower, window):
    """Mittag-Leffler analysis of the image chains Im(A_{k+j} -> A_k).

    Certificate when every inspected chain stabilizes (or the tail policy
    forces it: finite level groups, or surjective repeated maps); refutation
    when a repeating template forces strictly growing image indices through
    the whole window; inconclusive otherwise.
    """
    if not 1 <= window <= WINDOW_BOUND:
        raise TowerError("window must be between 1 and %d" % WINDOW_BOUND)

    # finite groups force stabilization of any decreasing chain; this needs
    # the tail policy to pin the groups beyond the prefix
    if tower.tail != "finite-prefix-only":
        if all(g.is_finite() for g in tower.levels):
            return MLResult("certificate",
                            "all level groups are finite; image chains stabilize",
                            {"orders": [g.order() for g in tower.levels]})

    # surjective maps keep every image chain constant at the full group
    if tower.maps and all(_image_index(tower.maps[k], tower.levels[k]) == 1
                          for k in range(len(tower.maps))):
        return MLResult("certificate",
                        "all supplied maps are surjective; image chains are "
                        "constant at the full group",
                        {"levels_checked": len(tower.maps)})

    stabilized_at = {}
    indices_level0 = []
    for k in range(len(tower.levels)):
        tgt = tower.level(k)
        prev_form = None
        stable = None
        chain_indices = []
        for j in range(1, window + 1):
            try:
                comp = tower.composite(k, j)
            except TowerError:
                break  # no data beyond the prefix: refuse to guess
            form = _image_subgroup_form(comp, tgt)
            chain_indices.append(_image_index(comp, tgt))
            if prev_form is not None and form == prev_form:
                stable = j - 1
                break
            prev_form = form
        if k == 0:
            indices_level0 = chain_indices
        stabilized_at[k] = stable

    if all(s is not None for s in stabilized_at.values()):
        # under a repeating template, one stable step propagates forever:
        # Im(F^{j+1}) = F(Im F^j), so equality persists
        reason = ("image chains stabilize" if tower.tail != "finite-prefix-only"
                  else "image chains stabilize within the supplied prefix")
        return MLResult("certificate", reason, {"stabilized_at": stabilized_at})

    if tower.tail == "template-repeating":
        idx = [i for i in indices_level0 if i is not None]
        if len(idx) == len(indices_level0) and len(idx) == window:
            if all(idx[t] < idx[t + 1] for t in range(len(idx) - 1)):
                return MLResult(
                    "refutation",
                    "image indices at level 0 grow strictly through the window",
                    {"indices": idx})
        # also refute on strictly-decreasing infinite-index patterns: a
        # free group whose image spans shrink strictly under the template
        tgt = tower.level(0)
        forms = [_image_subgroup_form(tower.composite(0, j), tgt)
                 for j in range(1, window + 1)]
        if forms and all(a != b for a, b in zip(forms, forms[1:])):
            return MLResult(
                "refutation",
                "image chain at level 0 is strictly decreasing under the "
                "repeating template",
                {"chain_length": len(forms)})

    return MLResult("inconclusive",
                    "no stabilization within the window and no forcing tail policy",
                    {"stabilized_at": stabilized_at})


class LimResult:
    def __init__(self, group, depth, lim1_zero):
        self.group = group
        self.depth = depth
        self.lim1_zero = lim1_zero

    def __repr__(self):
        return "LimResult(depth=%d, %r, lim1=0: %s)" % (
            self.depth, self.group, self.lim1_zero)


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
        m = tower.map(k)
        tgt = tower.level(k)
        if _image_index(m, tgt) != 1:
            raise TowerError("map at level %d is not surjective" % k)
    return LimResult(tower.level(depth), depth, True)


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
