"""The acceptance battery: every criterion as a self-contained check.

Each criterion returns {"id", "name", "ok", "detail"}; run_all executes the
full battery.  Randomized criteria use fixed seeds so the battery is
deterministic, and the brute-force oracle here (tableau enumeration) is
independent of the code paths it checks.
"""

import random
from math import comb

from . import chainduality, classcalc, forms, geomverify, grassring
from . import pontryagin, symfun, towers
from .coeffs import GWBASE, GW_EPS, GW_ONE
from .polynomial import Poly, PolyRing


def criterion_grassmannian_rank():
    bad = []
    for n in range(0, 8):
        for r in range(0, n + 1):
            ring = grassring.present(r, n)
            if len(ring.basis) != comb(n, r):
                bad.append((r, n))
    return _result(1, "grassmannian-rank",
                   not bad, "all (r, n) with n <= 7" if not bad else str(bad))


def criterion_qpbt_small():
    ok = True
    notes = []
    r12 = grassring.present(1, 2)
    e1 = r12.poly_ring().gen(0)
    ok &= [h for h in r12.ideal_gens] == [e1 * e1]
    ok &= r12.basis == [symfun.EMPTY, symfun.Partition((1,))]
    for n in range(2, 8):
        ring = grassring.present(1, n)
        e1n = ring.poly_ring().gen(0, n)
        if ring.ideal_gens != [e1n]:
            ok = False
            notes.append("ideal of present(1,%d)" % n)
        if ring.basis != [symfun.Partition((k,)) if k else symfun.EMPTY
                          for k in range(n)]:
            ok = False
            notes.append("basis of present(1,%d)" % n)
    return _result(2, "qpbt-small-case", bool(ok),
                   "; ".join(notes) if notes else "ideal (p1^n), basis 1..t^{n-1}")


def criterion_recurrence():
    for r in range(1, 5):
        for k in range(1, 13):
            if (symfun.complete_from_elementary(k, r)
                    != symfun.schur_in_elementary(symfun.Partition((k,)), r)):
                return _result(3, "h-e-recurrence", False, "fails at k=%d r=%d" % (k, r))
    return _result(3, "h-e-recurrence", True,
                   "h_k = s_(k) in e_1..e_r for k <= 12, r <= 4")


# -- independent tableau oracle for the Schur criterion ----------------------


def _variable_ring(m):
    return PolyRing(tuple("x%d" % i for i in range(1, m + 1)))


def _ssyt_polynomial(shape, m):
    ring = _variable_ring(m)
    shape = tuple(shape)
    if not shape:
        return ring.one()
    terms = {}
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]

    def rec(pos, tableau):
        if pos == len(cells):
            e = [0] * m
            for row in tableau:
                for v in row:
                    e[v - 1] += 1
            key = tuple(e)
            terms[key] = terms.get(key, 0) + 1
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, tableau[i][j - 1])
        if i > 0:
            lo = max(lo, tableau[i - 1][j] + 1)
        for v in range(lo, m + 1):
            tableau[i].append(v)
            rec(pos + 1, tableau)
            tableau[i].pop()

    rec(0, [[] for _ in shape])
    return Poly(ring, terms)


def _partitions_of(w):
    if w == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(w, w, [])
    return out


def criterion_schur_oracle():
    rings = {m: _variable_ring(m) for m in (1, 2, 3, 4)}
    elementary = {m: [ring.one()] + pontryagin.elementary_in(
        [ring.gen(i) for i in range(m)], ring) for m, ring in rings.items()}
    monomials = {}  # (m, exps) -> prod_i e_{i+1}^exps[i], for this call only

    def e_monomial(m, exps):
        """One product past the next lower monomial, which drops one factor
        of the last e_i present."""
        mono = monomials.get((m, exps))
        if mono is None:
            last = max((i for i, e in enumerate(exps) if e), default=None)
            if last is None:
                mono = rings[m].one()
            else:
                lower = exps[:last] + (exps[last] - 1,) + exps[last + 1:]
                mono = e_monomial(m, lower) * elementary[m][last + 1]
            monomials[m, exps] = mono
        return mono

    for w in range(0, 9):
        for shape in _partitions_of(w):
            for m in (1, 2, 3, 4):
                lam = symfun.Partition(shape)
                in_e = symfun.schur_in_elementary(lam, m)
                expanded = rings[m].zero()
                for exps, coeff in in_e.terms.items():
                    expanded = expanded + coeff * e_monomial(m, exps)
                want = _ssyt_polynomial(shape, m)
                if expanded != want:
                    return _result(4, "schur-tableau-oracle", False,
                                   "fails at %s in %d vars" % (shape, m))
    return _result(4, "schur-tableau-oracle", True,
                   "all weights <= 8 in 1 to 4 variables")


def criterion_restriction():
    for n in range(1, 7):
        for r in range(0, n + 1):
            tgt = grassring.present(r, n)
            for kind, (sr, sn) in (("alpha", (r, n + 1)), ("beta", (r + 1, n + 1))):
                src = grassring.present(sr, sn)
                rho = grassring.restriction(src, tgt, kind)
                for lam in src.basis:
                    img = rho(src.schur(lam))
                    if lam.fits_in_box(tgt.r, tgt.n - tgt.r):
                        ok = img == tgt.schur(lam)
                    else:
                        ok = img.is_zero()
                    if not ok:
                        return _result(5, "restriction-box-truncation", False,
                                       "%s (r=%d,n=%d) at %r" % (kind, r, n, lam))
    return _result(5, "restriction-box-truncation", True,
                   "alpha and beta for all (r, n) with n <= 6")


def criterion_class_identities():
    formulas = (("gw", classcalc.verify_gw_formula),
                ("k0", classcalc.verify_k0_formula))
    for n in range(1, 5):
        for i in range(-n, n + 1):
            for label, verify in formulas:
                v = verify(n, i)
                if (not v.ok or v.notes["rank_lhs"] != 0
                        or v.notes["rank_rhs"] != 0):
                    return _result(6, "class-identities", False,
                                   "%s-formula fails at n=%d i=%d"
                                   % (label, n, i))
    return _result(6, "class-identities", True,
                   "gw and k0 formulas, 1 <= n <= 4, |i| <= n, rank 0 both sides")


def criterion_tau_consistency():
    for n in range(2, 5):
        big = grassring.present(n, 2 * n, GWBASE)
        mid = grassring.present(n - 1, 2 * n - 1, GWBASE)
        small = grassring.present(n - 1, 2 * n - 2, GWBASE)
        rho_beta = grassring.restriction(big, mid, "beta")
        rho_alpha = grassring.restriction(mid, small, "alpha")
        if pontryagin.tau_element(0, 0, big) != big.p(1):
            return _result(7, "tau-consistency", False,
                           "tau(0, 0) != p1 at n=%d" % n)
        for k in range(3):
            for i in range(-n, n + 1):
                got = rho_alpha(rho_beta(pontryagin.tau_element(k, i, big)))
                if got != pontryagin.tau_element(k, i, small):
                    return _result(7, "tau-consistency", False,
                                   "restriction fails at n=%d k=%d i=%d"
                                   % (n, k, i))
    return _result(7, "tau-consistency", True,
                   "tau(k, i) restricts along beta then alpha to tau(k, i) "
                   "of rank n-1, and tau(0, 0) = p1, for 2 <= n <= 4, "
                   "k <= 2, |i| <= n")


def criterion_ko1():
    res = forms.ko1_euclidean(forms.ZHALF)
    if res.order != 8 or res.structure() != "(Z/2)^3":
        return _result(8, "ko1-euclidean", False, "Z[1/2] gave %r" % res)
    for q in (3, 5, 7, 9):
        r = forms.ko1_euclidean(forms.FiniteField(q))
        if r.order != 4:
            return _result(8, "ko1-euclidean", False, "F%d gave order %d" % (q, r.order))
    return _result(8, "ko1-euclidean", True,
                   "Z[1/2]: (Z/2)^3 of order 8; F_q order 4 for q in {3,5,7,9}")


def criterion_ksp1_witness():
    rng = random.Random(20240)
    qx = forms.QX

    def integer(n2):
        return [rng.randrange(-25, 26) for _ in range(n2)]

    def polynomial(n2):
        v = [qx.from_coeffs([rng.randrange(-3, 4)
                             for _ in range(rng.randrange(1, 3))])
             for _ in range(n2)]
        v[rng.randrange(n2)] = qx.from_coeffs(
            [rng.choice([1, -1, 2]), rng.randrange(-2, 3)])
        return v

    count = 0
    for label, ring, draw in (("integer", forms.ZZ, integer),
                              ("polynomial", qx, polynomial)):
        for n2 in (4, 6):
            for _ in range(25):
                v = draw(n2)
                while not ring.is_unit(ring.gcd_all(v)):
                    v = draw(n2)
                count += 1
                w = list(v)
                for f in forms.sp_reduce_unimodular(v, ring=ring):
                    w = f.apply(w)
                if w != [ring.one()] + [ring.zero()] * (n2 - 1):
                    return _result(9, "ksp1-witness", False,
                                   "%s case %r" % (label, v))
    return _result(9, "ksp1-witness", True,
                   "%d reductions over Z and Q[x] in Sp4 and Sp6; every factor "
                   "preserves J exactly" % count)


def criterion_koszul_suite():
    for n in range(1, 5):
        k = chainduality.koszul(n)
        if not k.is_symmetric() or k.chain_defect() is not None:
            return _result(10, "koszul-suite", False, "Theta at n=%d" % n)
    try:
        chainduality.koszul_tensor_isometry(1, 1)
    except chainduality.ChainError as err:
        return _result(10, "koszul-suite", False, "tensor merge: %s" % err)
    for n in range(1, 4):
        k = chainduality.koszul(n)
        for i in range(1, n + 1):
            try:
                chainduality.contracting_homotopy(k, i)
            except chainduality.ChainError as err:
                return _result(10, "koszul-suite", False,
                               "homotopy n=%d x%d: %s" % (n, i, err))
    return _result(10, "koszul-suite", True,
                   "Theta symmetric n <= 4; koszul(1)^2 = koszul(2) isometry; "
                   "ds+sd = id n <= 3")


def criterion_matrix_suite():
    rep1 = geomverify.verify_M_path()
    if not rep1.ok:
        return _result(11, "matrix-suite", False, str(rep1.checks))
    rep2 = geomverify.verify_M1_factorization()
    if not rep2.ok:
        return _result(11, "matrix-suite", False, str(rep2.checks))
    forms_found = rep1.invariant_forms
    if not forms_found["symmetric"] or not forms_found["skew"]:
        return _result(11, "matrix-suite", False, "missing invariant forms")
    return _result(11, "matrix-suite", True,
                   "M(0)=I, M(1)=M1, det=1, three-factor product, invariant "
                   "forms: %d symmetric, %d skew"
                   % (len(forms_found["symmetric"]), len(forms_found["skew"])))


def _schur_tower(n_range):
    rings = [grassring.present(1, n) for n in n_range]
    levels = [towers.FGAbelian.free(r.rank()) for r in rings]
    maps = []
    for small, big in zip(rings, rings[1:]):
        rho = grassring.restriction(big, small, "alpha")
        m = [[0] * big.rank() for _ in range(small.rank())]
        for (i, j), v in rho.matrix().items():
            m[i][j] = v
        maps.append(m)
    return rings, towers.Tower(levels, maps, tail="finite-prefix-only")


def criterion_tower_suite():
    free, cyclic = towers.FGAbelian.free, towers.FGAbelian.cyclic
    cases = [
        (towers.Tower([free(1)] * 3, [[[1]], [[1]]],
                      tail="eventually-constant"), "certificate",
         "constant tower"),
        (towers.Tower([free(1)], [[[2]]], tail="template-repeating"),
         "refutation", "(Z, x2) template"),
    ]
    for m in ([[3]], [[2]], [[0]], [[5]]):
        cases.append((towers.Tower([cyclic(8)], [m], tail="template-repeating"),
                      "certificate", "finite template %r" % m))
    rings, schur = _schur_tower(range(2, 6))
    cases.append((schur, "certificate", "schur tower certificate"))
    for tower, kind, label in cases:
        cert = towers.check_mittag_leffler(tower)
        if cert.kind != kind:
            return _result(12, "tower-suite", False, label)
    # the loop ends on the schur tower, whose certificate reassembles p1
    family = []
    for ring in rings:
        vec = [0] * ring.rank()
        vec[ring.basis_index[symfun.Partition((1,))]] = 1
        family.append(vec)
    out = towers.milnor_assemble(schur, cert, family, depth=3)
    ring = rings[3]
    got = {ring.basis[i]: c for i, c in enumerate(out) if c}
    ps = grassring.limit_ring(1, 3)
    want = ps.project(ring)(ps.p(1))
    if got != want.coords:
        return _result(12, "tower-suite", False, "milnor reconstruction of p1")
    return _result(12, "tower-suite", True,
                   "constant certified; doubling refuted; finite templates "
                   "certified; schur towers certified and p1 reassembled")


def criterion_eps_algebra():
    """The switch on T^r ^ T^s acts as <-1>^{rs}.

    The Thom class of A^r is the Koszul form koszul(r).  The factor swap of
    koszul(r) @ koszul(s) multiplies the form by the sign `swap_sign`
    observes, read as a class of GWBase (+1 as <1>, -1 as eps = <-1>) and
    compared with eps^{rs}.
    """
    if GW_EPS * GW_EPS != GW_ONE:
        return _result(13, "eps-algebra", False, "eps^2 != 1")
    thom = {r: chainduality.koszul(r) for r in (1, 2, 3)}
    for r in thom:
        for s in thom:
            try:
                sign = chainduality.swap_sign(thom[r], thom[s])
            except chainduality.ChainError as err:
                return _result(13, "eps-algebra", False,
                               "r=%d, s=%d: %s" % (r, s, err))
            want = GW_ONE
            for _ in range(r * s):
                want = want * GW_EPS
            if (GW_ONE if sign == 1 else GW_EPS) != want:
                return _result(13, "eps-algebra", False,
                               "r=%d, s=%d: the swap multiplies the form by "
                               "%+d, not by eps^%d" % (r, s, sign, r * s))
    return _result(13, "eps-algebra", True,
                   "the swap of koszul(r) @ koszul(s) acts as eps^(rs) = "
                   "<-1>^(rs) for 1 <= r, s <= 3; eps^2 = 1")


def criterion_determinism(reported):
    """The reported results against one fresh pass over CRITERIA."""
    import json
    first = json.dumps(list(reported), sort_keys=True)
    second = json.dumps([fn() for fn in CRITERIA], sort_keys=True)
    ok = first == second
    return _result(14, "determinism", ok,
                   "two fresh runs serialize byte-identically" if ok
                   else "reports differ between runs")


def _result(cid, name, ok, detail):
    return {"id": cid, "name": name, "ok": bool(ok), "detail": detail}


CRITERIA = [
    criterion_grassmannian_rank,
    criterion_qpbt_small,
    criterion_recurrence,
    criterion_schur_oracle,
    criterion_restriction,
    criterion_class_identities,
    criterion_tau_consistency,
    criterion_ko1,
    criterion_ksp1_witness,
    criterion_koszul_suite,
    criterion_matrix_suite,
    criterion_tower_suite,
    criterion_eps_algebra,
]


def run_all():
    """Run the full battery, determinism check included."""
    results = [fn() for fn in CRITERIA]
    return results + [criterion_determinism(results)]
