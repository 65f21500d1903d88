"""Command-line front end: batch computation and verification suites.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error
(with --json, a usage error also prints {"error": message} on stdout).
JSON output is deterministic (sorted keys, canonical term and partition
orders), so golden files are byte-stable.  Each subcommand imports the
library modules it runs, so --help loads none.
"""

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import HgrcalcError, _is_integer


class UsageError(HgrcalcError):
    pass


COEFFS = ("Integers", "Rationals", "GWBase")  # descriptor names
# largest rank of a --bundle and of their Cartan sum: the split case
# expands rank/2 elementary symmetric functions, quadratic in rank/2
BUNDLE_RANK_BOUND = 2000
# largest dimension of a --matrix, and largest |numerator| and |denominator|
# of its entries: the O(n^3) reductions at these bounds take under a second
MATRIX_DIMENSION_BOUND = 32
MATRIX_ENTRY_BOUND = 10 ** 6
# largest work of a schur call, the weight w of --partition times the
# number of e-monomials of weight w in e_1..e_gens (the Schur classes the
# Kostka inversion computes): within it, s_(62) in 2 generators takes 0.14 s
# and s_(14) in 14 0.36 s through the CLI; past it, in process, s_(17) in
# 17 (work 5049) takes 2.2 s and s_(268) in 2 (work 36180) 3.3 s.  s_lambda
# is computed in min(gens, w) generators, but the output still carries one
# exponent per generator, so --gens is bounded too: s_(14) in 32
# generators takes 0.39 s through the CLI, in 14 0.36 s
SCHUR_WORK_BOUND = 2000
SCHUR_GENS_BOUND = 32
# largest rank C(n, r) of a hgr-ring or restriction ring: C(18, 9) = 48620
# and the (6, 22) ring take under a second, C(20, 10) = 184756 takes 4.2 s
GRASS_RANK_BOUND = 50000
# largest koszul --n: the output lists every entry of the differentials
# and forms, C(2n, n-1) + C(2n, n) of them, zeros included, and writing
# them costs more than the sparse checks; koszul --n N --invert 1 --json
# takes 0.13 s at n = 8, 0.44 s at n = 10 (5 MB) and 0.8 s at n = 11
# (19 MB)
KOSZUL_N_BOUND = 10
# largest verify quadratic-section --r: the ring has r(r+3)/2 generators;
# r = 48 takes 0.7 s, r = 64 takes 2.1 s
QUADRATIC_SECTION_BOUND = 48


def _emit(args, payload, human_lines):
    text = (json.dumps(payload, sort_keys=True, indent=2) if args.json
            else "\n".join(human_lines)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bidegree_note(w):
    return "weight %d = bidegree (%d, %d)" % (w, 4 * w, 2 * w)


def _schur_work(w, gens):
    """w times the number of partitions of w into at most gens parts; just
    w once that alone is over SCHUR_WORK_BOUND."""
    if w > SCHUR_WORK_BOUND:
        return w
    ways = [1] + [0] * w  # ways[m]: partitions of m into parts <= part
    for part in range(1, min(gens, w) + 1):
        for m in range(part, w + 1):
            ways[m] += ways[m - part]
    return w * ways[w]


def cmd_schur(args):
    from . import grassring, symfun
    fields = args.partition.split(",") if args.partition else []
    for field in fields:
        if not (field.isascii() and field.isdigit()):
            raise UsageError("--partition: %r is not a part; give digits "
                             "separated by commas" % field)
    try:
        lam = symfun.Partition(tuple(map(int, fields)))
    except ValueError as err:
        raise UsageError("--partition: %s" % err)
    if args.gens > SCHUR_GENS_BOUND:
        raise UsageError("--gens %d is over the bound %d"
                         % (args.gens, SCHUR_GENS_BOUND))
    if _schur_work(lam.weight(), args.gens) > SCHUR_WORK_BOUND:
        raise UsageError("--partition: weight %d in %d generators is over "
                         "the work bound %d"
                         % (lam.weight(), args.gens, SCHUR_WORK_BOUND))
    poly = symfun.schur_in_elementary(lam, args.gens)
    payload = {
        "partition": lam.to_json(),
        "gens": args.gens,
        "weight": lam.weight(),
        "bidegree": list(grassring.GrassRing.bidegree_of_weight(lam.weight())),
        "polynomial": symfun.poly_json(poly),
    }
    human = ["s%r in e_1..e_%d  [%s]" % (lam, args.gens,
                                         _bidegree_note(lam.weight())),
             "  " + poly.pretty()]
    _emit(args, payload, human)
    return 0


def _check_grass_rank(option, r, n):
    """Refuse a ring A(HGr(r, n)) of rank C(n, r) over GRASS_RANK_BOUND;
    the binomials are built up only until they pass it."""
    rank = 1
    for i in range(min(r, n - r)):
        rank = rank * (n - i) // (i + 1)  # C(n, i + 1)
        if rank > GRASS_RANK_BOUND:
            raise UsageError("%s: rank C(%d, %d) is over the bound %d"
                             % (option, n, r, GRASS_RANK_BOUND))


def cmd_hgr_ring(args):
    if args.r > args.n:
        raise UsageError("r exceeds n")
    _check_grass_rank("--r/--n", args.r, args.n)
    from . import coeffs, grassring
    coeff = next(c for c in (coeffs.INTEGERS, coeffs.RATIONALS, coeffs.GWBASE)
                 if c.name == args.coeff)
    ring = grassring.present(args.r, args.n, coeff)
    payload = ring.to_json()
    human = ["A(HGr(%d, %d)) over %s" % (args.r, args.n, args.coeff),
             "  rank %d" % ring.rank(),
             "  ideal: " + ", ".join(h.pretty() for h in ring.ideal_gens),
             "  basis: " + ", ".join(repr(l) + " [%s]" % _bidegree_note(l.weight())
                                     for l in ring.basis)]
    _emit(args, payload, human)
    return 0


def cmd_restriction(args):
    _check_grass_rank("--source-r/--source-n", args.source_r, args.source_n)
    _check_grass_rank("--target-r/--target-n", args.target_r, args.target_n)
    from . import grassring
    src = grassring.present(args.source_r, args.source_n)
    tgt = grassring.present(args.target_r, args.target_n)
    rho = grassring.restriction(src, tgt, args.kind)
    payload = rho.to_json()
    payload["kernel"] = [l.to_json() for l in rho.kernel_basis()]
    human = ["restriction %s: (r=%d, n=%d) -> (r=%d, n=%d)"
             % (args.kind, args.source_r, args.source_n,
                args.target_r, args.target_n),
             "  kernel: " + (", ".join(repr(l) for l in rho.kernel_basis())
                             or "0")]
    _emit(args, payload, human)
    return 0


def _parse_json(option, text):
    """The JSON value of an option; a number with a fraction or exponent
    part is read exactly as a Decimal, not rounded through a float."""
    try:
        return json.loads(text, parse_float=Decimal)
    except ValueError as err:  # also integers over the int-to-str digit limit
        raise UsageError("--%s is not valid JSON: %s" % (option, err))


def _parse_bundle(text):
    """A bundle from exactly the keys {"split"} or {"rank", "p"}; a JSON
    boolean is no integer here, as in a tower spec."""
    from . import pontryagin
    desc = _parse_json("bundle", text)
    keys = sorted(desc) if isinstance(desc, dict) else None
    if keys == ["split"]:
        roots = desc["split"]
        if not isinstance(roots, list) or not all(map(_is_integer, roots)):
            raise UsageError("--bundle split: expected a list of integers")
        _check_bundle_rank(2 * len(roots))
        return pontryagin.FormalSymplecticBundle.split(roots)
    if keys == ["p", "rank"]:
        rank, ps = desc["rank"], desc["p"]
        if not _is_integer(rank):
            raise UsageError("--bundle rank: expected an integer")
        if not isinstance(ps, list) or not all(map(_is_integer, ps)):
            raise UsageError("--bundle p: expected a list of integers")
        _check_bundle_rank(rank)
        return pontryagin.FormalSymplecticBundle(rank, ps)
    raise UsageError("--bundle: need exactly {\"split\": [..]} or "
                     "{\"rank\": .., \"p\": [..]}")


def _check_bundle_rank(rank, what="--bundle rank"):
    if rank > BUNDLE_RANK_BOUND:
        raise UsageError("%s %d is over the bound %d"
                         % (what, rank, BUNDLE_RANK_BOUND))


def cmd_pontryagin(args):
    from . import pontryagin
    bundles = [_parse_bundle(text) for text in args.bundle]
    payload = {"bundles": [{"rank": b.rank, "p": b.ps} for b in bundles]}
    human = ["bundle %d: rank %d, p = %s" % (i, b.rank, b.ps)
             for i, b in enumerate(bundles)]
    if len(bundles) >= 2:
        _check_bundle_rank(sum(b.rank for b in bundles), "Cartan sum rank")
        total = bundles[0]
        for b in bundles[1:]:
            ps = pontryagin.cartan_sum(total, b)
            total = pontryagin.FormalSymplecticBundle(total.rank + b.rank, ps)
        payload["cartan_sum"] = {"rank": total.rank, "p": total.ps}
        human.append("cartan sum: rank %d, p = %s" % (total.rank, total.ps))
    _emit(args, payload, human)
    return 0


def cmd_classcheck(args):
    from . import classcalc
    if args.check == "gw-formula":
        v = classcalc.verify_gw_formula(args.n, args.i)
    elif args.check == "k0-formula":
        v = classcalc.verify_k0_formula(args.n, args.i)
    else:
        j = args.j if args.j is not None else args.i
        nf, rel = classcalc.mu_class(args.n, args.i, j)
        payload = {"check": "mu", "n": args.n, "i": args.i, "j": j,
                   "class": nf.to_json(), "rank": rel.rank_of(nf)}
        human = ["mu(n=%d, i=%d, j=%d) = %r" % (args.n, args.i, j, nf),
                 "rank %d (= 4ij = %d)" % (rel.rank_of(nf), 4 * args.i * j)]
        _emit(args, payload, human)
        return 0 if rel.rank_of(nf) == 4 * args.i * j else 1
    payload = v.to_json()
    human = ["%s: %s" % (v.name, "pass" if v.ok else "FAIL"),
             "  lhs normal form: %r" % v.lhs,
             "  rhs normal form: %r" % v.rhs,
             "  rank: lhs %d, rhs %d" % (v.notes["rank_lhs"], v.notes["rank_rhs"]),
             "  rewrite steps: %d" % len(v.trace)]
    _emit(args, payload, human)
    return 0 if v.ok else 1


def _parse_gram(text):
    if text is None:
        raise UsageError("--matrix is required")
    rows = _parse_json("matrix", text)
    if not isinstance(rows, list) or not rows:
        raise UsageError("--matrix: expected a nonempty array of rows")
    if any(not isinstance(row, list) or len(row) != len(rows) for row in rows):
        raise UsageError("--matrix: must be square")
    if len(rows) > MATRIX_DIMENSION_BOUND:
        raise UsageError("--matrix: dimension %d is over the bound %d"
                         % (len(rows), MATRIX_DIMENSION_BOUND))
    if any(isinstance(x, bool) or not isinstance(x, (int, Decimal))
           for row in rows for x in row):
        raise UsageError("--matrix: entries must be finite JSON numbers")
    over = UsageError("--matrix: entry numerators and denominators must be "
                      "at most %d in absolute value" % MATRIX_ENTRY_BOUND)
    # a nonzero x with |x| >= 10^7 or |x| < 10^-6 is over the bound; refuse
    # it before Fraction expands an exponent such as 1e999999999
    if any(isinstance(x, Decimal) and x and not -6 <= x.adjusted() <= 6
           for row in rows for x in row):
        raise over
    gram = [[Fraction(x) for x in row] for row in rows]
    if any(abs(x.numerator) > MATRIX_ENTRY_BOUND
           or x.denominator > MATRIX_ENTRY_BOUND for row in gram for x in row):
        raise over
    return gram


def _descriptor(kind, name):
    """The field (kind "field") or ring (kind "ring") called `name`, or
    GF(q) for a name F<q>."""
    from . import forms
    table = ({"Q": forms.RationalsField(), "RealClosed": forms.RealClosedField()}
             if kind == "field" else
             {"Z": forms.ZZ, "Z[1/2]": forms.ZHALF, "Z1/2": forms.ZHALF,
              "Zhalf": forms.ZHALF, "Q[x]": forms.QX})
    if name in table:
        return table[name]
    if name[:1] == "F" and name[1:].isdecimal():
        try:
            q = int(name[1:])
        except ValueError:  # over the int-to-str digit limit
            raise UsageError("%s F<q>: q has too many digits" % kind)
        return forms.FiniteField(q)
    raise UsageError("unknown %s %r" % (kind, name))


def cmd_gw(args):
    from . import forms
    if args.verb == "diagonalize":
        field = _descriptor("field", args.field)
        gram = _parse_gram(args.matrix)
        try:
            form = forms.BilinearForm(gram, "symmetric", field=field)
            res = forms.diagonalize(form)
        except forms.DegenerateFormError as err:
            payload = {"degenerate": True,
                       "radical_dimension": err.radical_dimension}
            _emit(args, payload, ["degenerate form; radical dimension %d"
                                  % err.radical_dimension])
            return 1
        payload = {"diagonal": [str(e) for e in res.entries],
                   "classes": [str(c) for c in res.classes],
                   "matrix": [[str(x) for x in row] for row in res.matrix]}
        _emit(args, payload, ["diagonal: " + ", ".join(str(e) for e in res.entries),
                              "classes:  <%s>" % ", ".join(str(c) for c in res.classes)])
        return 0
    if args.verb == "symplectic-basis":
        gram = _parse_gram(args.matrix)
        try:
            form = forms.BilinearForm(gram, "skew")
            p = forms.symplectic_basis(form)
        except forms.DegenerateFormError as err:
            _emit(args, {"error": str(err)}, [str(err)])
            return 1
        payload = {"matrix": [[str(x) for x in row] for row in p]}
        _emit(args, payload, ["change of basis:"] +
              ["  " + " ".join(str(x) for x in row) for row in p])
        return 0
    if args.verb == "ko1":
        ring = _descriptor("ring", args.ring)
        res = forms.ko1_euclidean(ring)
        payload = {"ring": ring.name, "order": res.order,
                   "structure": res.structure(),
                   "generators": res.generators()}
        _emit(args, payload, ["KO_1(%s) = %s, order %d"
                              % (ring.name, res.structure(), res.order)])
        return 0
    # karoubi
    ring = _descriptor("ring", args.ring)
    report = forms.karoubi_check(forms.karoubi_table(ring))
    payload = report.to_json()
    human = ["karoubi(%s): %s" % (ring.name, "pass" if report.ok else
                                  "FAIL (%s)" % report.violated)]
    if report.ok:
        human.append("  KO_1 order %d" % report.derived["KO1_order"])
    _emit(args, payload, human)
    return 0 if report.ok else 1


def cmd_koszul(args):
    if args.n > KOSZUL_N_BOUND:
        raise UsageError("--n %d is over the bound %d"
                         % (args.n, KOSZUL_N_BOUND))
    from . import chainduality
    k = chainduality.koszul(args.n)
    payload = k.to_json()
    report = {"theta_symmetric": k.is_symmetric(),
              "chain_map": k.chain_defect() is None,
              "nondegenerate": k.is_nondegenerate()}
    homotopies = {}
    if args.invert is not None:
        chainduality.contracting_homotopy(k, args.invert)
        homotopies[str(args.invert)] = "ds + sd = id verified"
    payload["verification"] = report
    payload["homotopies"] = homotopies
    human = ["koszul(%d): ranks %s" % (args.n,
                                       [k.complex.rank(i) for i in range(args.n + 1)]),
             "  Theta symmetric: %s; chain map: %s; nondegenerate: %s"
             % (report["theta_symmetric"], report["chain_map"],
                report["nondegenerate"])]
    if homotopies:
        human.append("  inverted x%d: ds + sd = id verified" % args.invert)
    _emit(args, payload, human)
    return 0 if all(report.values()) else 1


def _check_entries(matrices):
    """Refuse a --spec entry over the bound; relations go first, because
    building the tower takes their Hermite forms."""
    from .towers import ENTRY_BOUND
    if any(abs(x) > ENTRY_BOUND for m in matrices for row in m for x in row):
        raise UsageError("--spec: map and relation entries must be at most %d "
                         "in absolute value" % ENTRY_BOUND)


def _refuse_unknown_fields(obj, known, what):
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise UsageError("--spec: unknown %s %r" % (what, unknown[0]))


def cmd_tower(args):
    from . import towers
    spec = _parse_json("spec", args.spec)
    if not isinstance(spec, dict):
        raise UsageError("--spec: expected a JSON object")
    _refuse_unknown_fields(spec, ("levels", "maps", "tail"), "field")
    for key in ("levels", "maps"):
        if key not in spec:
            raise UsageError("--spec: missing field %r" % key)
    if isinstance(spec["levels"], list):
        for lv in spec["levels"]:
            if isinstance(lv, dict):
                _refuse_unknown_fields(lv, ("gens", "relations"),
                                       "level field")
    try:
        levels = [towers.FGAbelian(lv["gens"], lv.get("relations", []))
                  for lv in spec["levels"]]
        if len(levels) > towers.LEVELS_BOUND or any(
                g.ngens > towers.GENS_BOUND
                or len(g.relations) > towers.RELATIONS_BOUND for g in levels):
            raise UsageError(
                "--spec: at most %d levels, each with at most %d generators "
                "and %d relations" % (towers.LEVELS_BOUND, towers.GENS_BOUND,
                                      towers.RELATIONS_BOUND))
        _check_entries(g.relations for g in levels)
        tower = towers.Tower(levels, spec["maps"],
                             tail=spec.get("tail", "finite-prefix-only"))
        _check_entries(tower.maps)
    except (KeyError, TypeError) as err:
        raise UsageError("--spec: bad tower data (%s)" % err)
    except towers.TowerError as err:
        raise UsageError("--spec: %s" % err)
    res = towers.check_mittag_leffler(tower)
    payload = res.to_json()
    human = ["%s: %s" % (res.kind, res.reason)]
    if args.depth is not None:
        try:
            lim = towers.lim_of_surjective(tower, args.depth)
            payload["lim"] = {"depth": lim.depth, "group": repr(lim.group),
                              "lim1": "0"}
            human.append("lim at depth %d: %r (lim^1 = 0)"
                         % (lim.depth, lim.group))
        except towers.TowerError as err:
            payload["lim"] = {"error": str(err)}
            human.append("lim: %s" % err)
    _emit(args, payload, human)
    return 0 if res.kind == "certificate" else 1


def cmd_verify(args):
    from . import geomverify
    if args.target == "m-path":
        report = geomverify.verify_M_path()
    elif args.target == "m1-factorization":
        report = geomverify.verify_M1_factorization()
    elif args.target == "quadratic-section":
        if args.r > QUADRATIC_SECTION_BOUND:
            raise UsageError("--r %d is over the bound %d"
                             % (args.r, QUADRATIC_SECTION_BOUND))
        ok = geomverify.quadratic_section_identity(args.r)
        report = geomverify.PathReport({"identity r=%d" % args.r: ok})
    else:  # symplectic-lift
        report = _demo_symplectic_lift()
    payload = report.to_json()
    human = ["%s: %s" % (args.target, "pass" if report.ok else "FAIL")]
    human += ["  %s %s" % ("ok " if v else "FAIL", k)
              for k, v in report.checks.items()]
    _emit(args, payload, human)
    return 0 if report.ok else 1


def _demo_symplectic_lift():
    from . import geomverify
    from .polynomial import PolyRing, mat_identity
    ring = PolyRing(("t",))
    t = ring.gen(0)
    one, zero = ring.one(), ring.zero()
    phi = [[zero, one, t, zero],
           [-one, zero, zero, zero],
           [-t, zero, zero, one],
           [zero, zero, -one, zero]]
    u = mat_identity(4, one, zero)
    v = [[zero] * 4, [zero, zero, one, zero], [zero] * 4, [zero] * 4]
    checks = {
        "first-order witness solves exactly":
            geomverify.verify_symplectic_lift(phi, t, u, v, []),
        "congruence mod g^2":
            geomverify.verify_symplectic_lift(phi, t, u, v, [],
                                              modulus_power=2),
        "perturbed v fails": not geomverify.verify_symplectic_lift(
            phi, t, u, [[zero] * 4, [zero, zero, one, one],
                        [zero] * 4, [zero] * 4], []),
    }
    return geomverify.PathReport(checks)


def cmd_suite(args):
    from . import suite
    results = suite.run_all()
    payload = {"criteria": results,
               "all_pass": all(r["ok"] for r in results)}
    human = ["%s  %2d  %-28s %s" % ("PASS" if r["ok"] else "FAIL",
                                    r["id"], r["name"], r["detail"])
             for r in results]
    human.append("suite: %s" % ("all criteria pass" if payload["all_pass"]
                                else "FAILURES PRESENT"))
    _emit(args, payload, human)
    return 0 if payload["all_pass"] else 1


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hgrcalc",
        description="Exact calculus for quaternionic Grassmannian cohomology, "
                    "Grothendieck-Witt forms, Koszul dualities and towers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit canonical JSON instead of human text")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to a file")

    p = sub.add_parser("schur", help="Schur polynomial in the e-generators")
    p.add_argument("--partition", default="", metavar="P1,P2,..")
    p.add_argument("--gens", type=_nonnegative_int, required=True, metavar="R")
    common(p)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("hgr-ring", help="presentation of A(HGr(r,n))")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coeff", choices=sorted(COEFFS), default="Integers")
    common(p)
    p.set_defaults(func=cmd_hgr_ring)

    p = sub.add_parser("restriction", help="Schur-coordinate restriction map")
    p.add_argument("--source-r", type=int, required=True)
    p.add_argument("--source-n", type=int, required=True)
    p.add_argument("--target-r", type=int, required=True)
    p.add_argument("--target-n", type=int, required=True)
    p.add_argument("--kind", choices=("alpha", "beta"), required=True)
    common(p)
    p.set_defaults(func=cmd_restriction)

    p = sub.add_parser("pontryagin", help="Pontryagin coefficient lists")
    p.add_argument("--bundle", action="append", required=True,
                   metavar="JSON", help="{\"split\": [roots]} or "
                   "{\"rank\": 2r, \"p\": [coeffs]}; repeatable")
    common(p)
    p.set_defaults(func=cmd_pontryagin)

    p = sub.add_parser("classcheck", help="formal class identity verification")
    p.add_argument("--check", choices=("gw-formula", "k0-formula", "mu"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_classcheck)

    p = sub.add_parser("gw", help="bilinear form algebra")
    p.add_argument("verb", choices=("diagonalize", "symplectic-basis",
                                    "ko1", "karoubi"))
    p.add_argument("--matrix", metavar="JSON", default=None)
    p.add_argument("--field", default="Q")
    p.add_argument("--ring", default="Z[1/2]")
    common(p)
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("koszul", help="Koszul complex with its symmetric form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--invert", type=int, default=None,
                   help="verify the contracting homotopy for this variable")
    common(p)
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("tower", help="Mittag-Leffler analysis of a tower")
    p.add_argument("--spec", metavar="JSON", required=True,
                   help="{levels: [{gens, relations}], maps: [..], tail}")
    p.add_argument("--depth", type=_nonnegative_int, default=None,
                   help="also compute the surjective-tower limit at depth")
    common(p)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("verify", help="matrix, section and lift identities")
    p.add_argument("target", choices=("m-path", "m1-factorization",
                                      "quadratic-section", "symplectic-lift"))
    p.add_argument("--r", type=int, default=3,
                   help="rank for quadratic-section")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run the whole acceptance battery")
    common(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HgrcalcError as err:
        if args.json:
            sys.stdout.write(json.dumps({"error": str(err)}, sort_keys=True,
                                        indent=2) + "\n")
        sys.stderr.write("usage error: %s\n" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
