"""The cli-session workload: seeded `python -m hgrcalc.cli` calls and checks.

Each call is one fresh interpreter, so every call pays for start-up and
import.  A call is (argv, check): the check gets (exit code, stdout,
stderr) and returns None when the output is right or a one-line reason.
"""

import json
from fractions import Fraction
from math import comb

import checkers


class Call:
    __slots__ = ("kind", "argv", "check")

    def __init__(self, kind, argv, check):
        self.kind = kind
        self.argv = argv
        self.check = check


def _json_call(kind, argv, check, exit_code=0):
    """A --json call whose exit code must be `exit_code` and whose parsed
    payload goes to `check`."""

    def full_check(code, out, err):
        if code != exit_code:
            return "%s exited %d, expected %d: %s" % (
                kind, code, exit_code, err.strip().splitlines()[-1:] or "")
        try:
            payload = json.loads(out)
        except ValueError:
            return "%s printed no JSON" % kind
        return check(payload)

    return Call(kind, list(argv) + ["--json"], full_check)


def _usage_error_call(kind, argv, fault):
    """An invalid input: the contract is exit 2 with a one-line message."""

    def check(code, out, err):
        lines = err.strip().splitlines()
        if code != 2 or len(lines) != 1 or "Traceback" in err:
            return "%s: exit %d with %d stderr lines (%s)" % (
                kind, code, len(lines), fault)
        return None

    return Call(kind, list(argv), check)


def _schur_expansion_check(terms, lam, rows):
    """terms: [(exps, coeff)] of a polynomial in e_1..e_rows that should be
    s_lam.  Expanding each e-monomial over Schur classes with Kostka
    numbers must give exactly s_lam."""
    total = {}
    for exps, c in terms:
        weight = sum((i + 1) * a for i, a in enumerate(exps))
        for nu, k in checkers.expected_monomial_normal_form(
                tuple(exps), rows, max(weight, 1)).items():
            total[nu] = total.get(nu, 0) + c * k
    total = {nu: c for nu, c in total.items() if c}
    return checkers.check_coords(total, {tuple(lam): 1}, "s%s" % (tuple(lam),))


def _poly_terms(poly_json):
    return [(t["exponents"], int(t["coeff"])) for t in poly_json]


def _schur_call(lam, gens):
    def check(p):
        return _schur_expansion_check(_poly_terms(p["polynomial"]), lam, gens)

    return _json_call("schur", ["schur", "--partition", ",".join(map(str, lam)),
                                "--gens", str(gens)], check)


def _hgr_ring_call(r, n):
    def check(p):
        basis = [tuple(b) for b in p["basis"]]
        if len(basis) != comb(n, r) or len(set(basis)) != len(basis):
            return "hgr-ring: %d basis classes, expected C(%d,%d)" % (len(basis), n, r)
        if any(len(b) > r or (b and b[0] > n - r) for b in basis):
            return "hgr-ring: basis class outside the %dx%d box" % (r, n - r)
        for k, h in zip(range(n - r + 1, n + 1), p["ideal"]):
            reason = _schur_expansion_check(_poly_terms(h), (k,), r)
            if reason:
                return "hgr-ring ideal generator h_%d: %s" % (k, reason)
        return None

    return _json_call("hgr-ring", ["hgr-ring", "--r", str(r), "--n", str(n)], check)


def _restriction_call(r, n, kind):
    sr, sn = (r, n + 1) if kind == "alpha" else (r + 1, n + 1)

    def check(p):
        source = [lam for w in range(sr * (sn - sr) + 1)
                  for lam in checkers.box_partitions(sr, sn - sr, w)]
        kernel = sorted(lam for lam in source
                        if len(lam) > r or (lam and lam[0] > n - r))
        if sorted(tuple(k) for k in p["kernel"]) != kernel:
            return "restriction: wrong kernel"
        if len(p["matrix"]) != comb(n, r):
            return "restriction: %d matrix entries, expected C(%d,%d)" % (
                len(p["matrix"]), n, r)
        return None

    return _json_call("restriction", [
        "restriction", "--source-r", str(sr), "--source-n", str(sn),
        "--target-r", str(r), "--target-n", str(n), "--kind", kind], check)


def _elementary(roots):
    e = [1]
    for x in roots:
        e = [a + x * b for a, b in zip(e + [0], [0] + e)]
    return e[1:]


def _pontryagin_call(root_lists):
    def check(p):
        for got, roots in zip(p["bundles"], root_lists):
            if got["p"] != _elementary(roots):
                return "pontryagin: p of split %s is %s" % (roots, got["p"])
        if len(root_lists) > 1:
            union = [x for roots in root_lists for x in roots]
            if p["cartan_sum"]["p"] != _elementary(union):
                return "pontryagin: Cartan sum %s" % p["cartan_sum"]["p"]
        return None

    argv = ["pontryagin"]
    for roots in root_lists:
        argv += ["--bundle", json.dumps({"split": roots})]
    return _json_call("pontryagin", argv, check)


def _ok_flag(kind):
    return lambda p: None if p.get("ok") is True else "%s: ok is not true" % kind


def _diagonalize_call(g):
    def check(p):
        return checkers.check_diagonalization_q(
            g, [[Fraction(x) for x in row] for row in p["matrix"]],
            [Fraction(x) for x in p["diagonal"]], [Fraction(x) for x in p["classes"]])

    return _json_call("gw-diagonalize", ["gw", "diagonalize", "--matrix",
                                         json.dumps(g)], check)


def _symplectic_basis_call(g):
    n = len(g)

    def check(p):
        got = checkers.fraction_congruence(
            [[Fraction(x) for x in row] for row in p["matrix"]], g)
        want = [[1 if (i % 2 == 0 and j == i + 1) else -1 if (j % 2 == 0 and i == j + 1)
                 else 0 for j in range(n)] for i in range(n)]
        return None if got == want else "symplectic-basis: P^T G P is not J"

    return _json_call("gw-symplectic-basis", ["gw", "symplectic-basis", "--matrix",
                                              json.dumps(g)], check)


def _ko1_call():
    # KO_1(Z[1/2]) = Z/2 x Z[1/2]^x / squares, and the units mod squares
    # are represented by 1, -1, 2, -2
    def check(p):
        return None if p["order"] == 8 else "gw ko1: order %s, expected 8" % p["order"]

    return _json_call("gw-ko1", ["gw", "ko1", "--ring", "Z[1/2]"], check)


def _karoubi_call(q):
    # for odd q, F_q^x / squares = Z/2, so KO_1(F_q) has order 4
    def check(p):
        if p.get("ok") is not True or p["derived"]["KO1_order"] != "4":
            return "gw karoubi F%d: %s" % (q, p.get("derived"))
        return None

    return _json_call("gw-karoubi", ["gw", "karoubi", "--ring", "F%d" % q], check)


def _linear_entry(s, n):
    """Parse a Koszul differential entry: 0, x_i or -x_i."""
    if s == "0":
        return {}
    sign = -1 if s.startswith("-") else 1
    i = int(s.lstrip("-")[1:])
    e = [0] * n
    e[i - 1] = 1
    return {tuple(e): sign}


def _koszul_call(n, invert):
    def check(p):
        cx = p["complex"]
        ranks = {int(k): v for k, v in cx["ranks"].items()}
        diffs = {int(k): [[_linear_entry(s, n) for s in row] for row in m]
                 for k, m in cx["differentials"].items()}
        reason = checkers.check_complex(ranks, diffs,
                                        {k: comb(n, k) for k in range(n + 1)})
        if reason is None and not all(p["verification"].values()):
            reason = "koszul: verification flags %s" % p["verification"]
        return reason

    return _json_call("koszul", ["koszul", "--n", str(n), "--invert", str(invert)],
                      check)


def _tower_call(rel):
    """Two copies of coker(rel) joined by the identity: a finite, constant
    tower whose limit is the level group itself."""
    n = len(rel)
    level = {"gens": n, "relations": [list(col) for col in zip(*rel)]}
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    spec = {"levels": [level, level], "maps": [ident], "tail": "eventually-constant"}

    def check(p):
        divisors = checkers.determinantal_divisors(rel)
        factors = [b // a for a, b in zip([1] + divisors, divisors)]
        want = " x ".join("Z/%d" % f for f in factors if f != 1) or "0"
        order = abs(int(checkers.det(rel)))
        if p["kind"] != "certificate" or p["data"]["orders"] != [order, order]:
            return "tower: %s %s, expected orders %d" % (p["kind"], p.get("data"), order)
        if p["lim"]["group"] != want:
            return "tower: limit %s, determinantal divisors give %s" % (
                p["lim"]["group"], want)
        return None

    return _json_call("tower", ["tower", "--spec", json.dumps(spec), "--depth", "2"],
                      check)


def _suite_call():
    def check(p):
        bad = [c["name"] for c in p["criteria"] if not c["ok"]]
        if p["all_pass"] is not True or bad or len(p["criteria"]) != 14:
            return "suite: all_pass=%s failing=%s" % (p["all_pass"], bad)
        return None

    return _json_call("suite", ["suite"], check)


# The invalid inputs, each named by the fault that makes it exit 1 with a
# traceback instead of the documented exit 2 with a one-line message.
INVALID_CALLS = (
    ("invalid-diagonalize-no-matrix", ["gw", "diagonalize"],
     "TypeError from json.loads(None) escapes cli.main"),
    ("invalid-ko1-f6", ["gw", "ko1", "--ring", "F6"],
     "FormsError is not mapped to exit 2"),
    ("invalid-quadratic-section-r0", ["verify", "quadratic-section", "--r", "0"],
     "GeomError is not mapped to exit 2"),
    ("invalid-symplectic-basis-symmetric", ["gw", "symplectic-basis", "--matrix",
                                            "[[0,1],[1,0]]"],
     "FormsError is not mapped to exit 2"),
)


def _random_nonsingular(rng, n, bound):
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if checkers.det(m):
            return m


def build_cli_session(rng):
    """The calls of one round, in a seeded order.  The suite call comes
    first among them, then the rest shuffled."""
    lam = rng.choice(((2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2)))
    r, n = rng.choice(((2, 4), (2, 5), (3, 6), (2, 6)))
    rr, rn = rng.choice(((2, 4), (2, 5), (3, 5)))
    while True:
        x, y, z = (rng.randint(-6, 6) for _ in range(3))
        if x * z != y * y:
            break
    a = rng.choice((1, 2, 3, 5))
    calls = [
        _schur_call(lam, 3),
        _hgr_ring_call(r, n),
        _restriction_call(rr, rn, rng.choice(("alpha", "beta"))),
        _pontryagin_call([sorted(rng.sample(range(1, 9), 2))]),
        _pontryagin_call([[rng.randint(1, 6)], [rng.randint(1, 6)]]),
        _json_call("classcheck", ["classcheck", "--check", "gw-formula", "--n", "2",
                                  "--i", "-1"], _ok_flag("classcheck gw-formula")),
        _json_call("classcheck", ["classcheck", "--check", "mu", "--n", "1",
                                  "--i", "0", "--j", "0"],
                   lambda p: None if p["rank"] == 0 else "mu: rank %s, expected 4ij = 0"
                   % p["rank"]),
        _diagonalize_call([[x, y], [y, z]]),
        _symplectic_basis_call([[0, a], [-a, 0]]),
        _ko1_call(),
        _karoubi_call(rng.choice((3, 5, 7, 9))),
        _koszul_call(3, rng.randint(1, 3)),
        _tower_call(_random_nonsingular(rng, 3, 9)),
        _json_call("verify", ["verify", "m-path"], _ok_flag("verify m-path")),
        _json_call("verify", ["verify", "m1-factorization"],
                   _ok_flag("verify m1-factorization")),
        _json_call("verify", ["verify", "quadratic-section", "--r", "3"],
                   _ok_flag("verify quadratic-section")),
        _json_call("verify", ["verify", "symplectic-lift"],
                   _ok_flag("verify symplectic-lift")),
    ]
    calls += [_usage_error_call(kind, argv, fault) for kind, argv, fault in INVALID_CALLS]
    rng.shuffle(calls)
    return [_suite_call()] + calls
