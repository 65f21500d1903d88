"""Tests of the benchmark's own checkers.

    python3 -m pytest -q bench

Two kinds: small values known by hand, and real program outputs that the
checkers accept until they are deliberately corrupted.
"""

import json
import os
import random
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checkers  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402
from hgrcalc import forms, grassring, suite  # noqa: E402
from hgrcalc.coeffs import GWBASE, GWElement  # noqa: E402


# ---------------------------------------------------------------------------
# Values known by hand.
# ---------------------------------------------------------------------------


def test_s1_squared():
    assert checkers.expected_product({(1,): 1}, {(1,): 1}, 2, 2) == {(2,): 1, (1, 1): 1}


def test_s1_squared_in_a_one_row_box():
    assert checkers.expected_product({(1,): 1}, {(1,): 1}, 1, 2) == {(2,): 1}


def test_s21_squared():
    assert checkers.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert checkers.expected_product({(2, 1): 1}, {(2, 1): 1}, 6, 6) == {
        (4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1,
        (2, 2, 2): 1, (2, 2, 1, 1): 1}


def test_kostka_and_hooks():
    assert checkers.kostka((2, 1), (1, 1, 1)) == 2
    assert checkers.kostka((3, 2), (2, 2, 1)) == 2
    assert checkers.kostka((2, 2), (3, 1)) == 0
    assert checkers.kostka((3, 1), (3, 1)) == 1
    assert checkers.hook_length_count((3, 2)) == 5
    assert checkers.hook_length_count((3, 2, 1)) == 16
    assert checkers.kostka((3, 2, 1), (1,) * 6) == 16


def test_elementary_monomials():
    # e1^2 = s2 + s11; e1 e2 = s21 + s111, and s111 dies with two rows
    assert checkers.expected_monomial_normal_form((2, 0), 2, 2) == {(2,): 1, (1, 1): 1}
    assert checkers.expected_monomial_normal_form((1, 1, 0), 3, 3) == {
        (2, 1): 1, (1, 1, 1): 1}
    assert checkers.expected_monomial_normal_form((1, 1), 2, 3) == {(2, 1): 1}


def test_determinantal_divisors():
    assert checkers.determinantal_divisors([[2, 4], [6, 8]]) == [2, 8]
    assert checkers.determinantal_divisors([[1, 0], [0, 6]]) == [1, 6]


def test_smith_by_hand():
    ident = [[1, 0], [0, 1]]
    assert checkers.check_smith([[1, 0], [0, 6]], ident, [[1, 0], [0, 6]], ident) is None
    # diagonal, but 2 does not divide 3
    assert checkers.check_smith([[2, 0], [0, 3]], ident, [[2, 0], [0, 3]], ident)
    # U*A*V = D holds, but U is not unimodular, so d_1 is wrong
    assert checkers.check_smith([[1, 0], [0, 6]], [[2, 0], [0, 1]], [[2, 0], [0, 6]], ident)


def test_transvection_by_hand():
    # x -> x + lam*omega(x, e_2)*e_2 with omega(x, e_2) = x_1 sends (1, 1) to (1, 1 + lam)
    ops = checkers.INT_OPS
    assert checkers.check_transvections([1, 1], [([0, 1], -1)], **ops) is None
    assert checkers.check_transvections([1, 1], [([0, 1], 1)], **ops)
    qx = checkers.QX_OPS
    x = [Fraction(0), Fraction(1)]
    assert checkers.check_transvections([[Fraction(1)], x], [([[], [Fraction(1)]], [-c for c in x])],
                                        **qx) is None


def test_diagonalization_by_hand():
    g = [[0, 1], [1, 0]]
    p = [[1, -1], [1, 1]]
    assert checkers.check_diagonalization_q(g, p, [2, -2], [2, -2]) is None
    assert checkers.check_diagonalization_q(g, p, [2, 2], [2, 2])
    assert checkers.check_diagonalization_q(g, p, [2, -2], [1, -2])
    # mod 5: 2 and 3 are both non-squares
    assert checkers.check_diagonalization_fp(g, p, [2, 3], [2, 2], 5) is None
    assert checkers.check_diagonalization_fp(g, p, [2, 3], [1, 2], 5)


def test_koszul_by_hand():
    x1, x2, mx2 = {(1, 0): 1}, {(0, 1): 1}, {(0, 1): -1}
    ranks = {0: 1, 1: 2, 2: 1}
    want = {0: 1, 1: 2, 2: 1}
    assert checkers.check_complex(ranks, {1: [[x1, x2]], 2: [[mx2], [x1]]}, want) is None
    assert checkers.check_complex(ranks, {1: [[x1, x2]], 2: [[x2], [x1]]}, want)
    assert checkers.check_complex({0: 1, 1: 3}, {1: [[x1, x2, x1]]}, want)


def test_gw_by_hand():
    eps = {0: (0, 1)}
    assert checkers.gw_mul(eps, eps) == {0: (1, 0)}
    g1, g2 = {0: (1, 1)}, {1: (2, 0)}
    integer = {(2,): 1, (1, 1): 1}
    good = {(2,): {1: (2, 2)}, (1, 1): {1: (2, 2)}}
    assert checkers.check_gw_product(good, integer, g1, g2) is None
    assert checkers.check_gw_product({(2,): {1: (2, -2)}, (1, 1): {1: (2, 2)}},
                                     integer, g1, g2)


def test_qx_gcd():
    assert checkers.qx_gcd([-1, 0, 1], [-1, 1]) == [-1, 1]
    assert checkers.qx_gcd([1, 1], [2, 1]) == [1]


# ---------------------------------------------------------------------------
# Program outputs, accepted as they are and rejected once corrupted.
# ---------------------------------------------------------------------------


def _bump(coords):
    """The same coordinates with one coefficient changed."""
    out = dict(coords)
    lam = sorted(out)[0]
    out[lam] = out[lam] + 1
    return out


def test_product_check_rejects_corruption():
    ring = grassring.present(3, 6)
    lam, mu = (2, 1), (2, 1)
    op = workloads._product_op("product", ring, ring.schur(lam), ring.schur(mu),
                               {lam: 1}, {mu: 1})
    out = op.call()
    assert op.check(out) is None
    bad = grassring.GrassElement(ring, {grassring.Partition(k): v for k, v in
                                        _bump(workloads._coords(out)).items()})
    assert op.check(bad)
    dropped = grassring.GrassElement(ring, dict(list(out.coords.items())[1:]))
    assert op.check(dropped)


def test_multi_term_product_check_rejects_corruption():
    ring = grassring.present(3, 7)
    rng = random.Random(5)
    x, wx = workloads._component(rng, ring, 3)
    y, wy = workloads._component(rng, ring, 4)
    op = workloads._product_op("multi-term-product", ring, x, y, wx, wy)
    out = op.call()
    assert op.check(out) is None
    assert op.check(out + ring.schur((4, 3)))


def test_gw_product_check_rejects_corruption():
    ring = grassring.present(3, 6, GWBASE)
    op = workloads._gw_product_op(ring, (2, 1), (1,), {1: (2, 1)}, {0: (1, -1)})
    out = op.call()
    assert op.check(out) is None
    eps = GWElement.scalar(0, 1)
    assert op.check(out.scale(eps))


def test_normal_form_check_rejects_corruption():
    ring = grassring.present(3, 7)
    op = workloads._normal_form_op(ring, (3, 1, 1))
    out = op.call()
    assert op.check(out) is None
    assert op.check(out + ring.schur((4, 2)))
    p1 = workloads._normal_form_op(ring, (5, 0, 0))
    out = p1.call()
    assert p1.check(out) is None
    assert p1.check(out - ring.schur((2, 2, 1)))


def test_restriction_check_rejects_corruption():
    source, target = grassring.present(3, 7), grassring.present(3, 6)
    x = source.schur((4, 1)) + source.schur((3, 2)).scale(2) + source.schur((1,))
    op = workloads._restriction_op(source, target, "alpha", x)
    out = op.call()
    assert op.check(out) is None
    assert op.check(out + target.schur((3,)))
    assert op.check(target.zero())


def test_transvection_checks_reject_corruption():
    qx_v = [forms.QX.from_coeffs(c) for c in ([1, 1], [2, 0, 1], [0, 1], [3])]
    for kind, v, ring, scalar, arith in (
            ("sp-reduce-z", [6, 10, 15, 4], forms.ZZ, workloads._int, checkers.INT_OPS),
            ("sp-reduce-qx", qx_v, forms.QX, workloads._qx_list, checkers.QX_OPS)):
        op = workloads._sp_op(kind, v, ring, scalar, arith)
        factors = op.call()
        assert op.check(factors) is None
        assert op.check(factors[1:])
        f = factors[0]
        flipped = forms.SympFactor(ring, f.u, -f.lam, len(v))
        assert op.check([flipped] + factors[1:])


def test_diagonalization_checks_reject_corruption():
    g = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    op = workloads._diag_q_op(g)
    res = op.call()
    assert op.check(res) is None
    res.entries[0] *= 4
    assert op.check(res)
    res = op.call()
    res.classes[1] = res.classes[1] * 2
    assert op.check(res)
    op = workloads._diag_fq_op(g, 7)
    res = op.call()
    assert op.check(res) is None
    res.entries[0] = res.entries[0] + res.entries[0]
    assert op.check(res)
    res = op.call()
    # classes <1, 3, 3>: 1 is a square mod 7 and 3 is not
    res.classes[0], res.classes[1] = res.classes[1], res.classes[0]
    assert op.check(res)


def test_smith_and_hermite_checks_reject_corruption():
    a = [[4, 6, 2], [8, 3, 5], [1, 7, 9]]
    op = workloads._smith_op(a)
    u, d, v = op.call()
    assert op.check((u, d, v)) is None
    d2 = [row[:] for row in d]
    d2[-1][-1] *= 2
    assert op.check((u, d2, v))
    rng = random.Random(3)
    hop = workloads._hermite_op(a, workloads._random_unimodular(rng, 3))
    h = hop.call()
    assert hop.check(h) is None
    h2 = [row[:] for row in h]
    h2[0][0] += 1
    assert hop.check(h2)


def test_koszul_checks_reject_corruption():
    op = workloads._koszul_op(3)
    ksym = op.call()
    assert op.check(ksym) is None
    d2 = ksym.complex.diffs[2]
    d2[0][0] = -d2[0][0]
    assert op.check(ksym)
    top = workloads._koszul_tensor_op(1, 2)
    res = top.call()
    assert top.check(res) is None
    res[0].complex.ranks[1] += 1
    assert top.check(res)


def _call_check(call, payload, code=0):
    return call.check(code, json.dumps(payload), "")


def test_cli_checks_reject_corruption():
    lam = (2, 1)
    schur = session._schur_call(lam, 3)
    # s21 = e1 e2 - e3 in three variables
    good = {"polynomial": [{"exponents": [1, 1, 0], "coeff": "1"},
                           {"exponents": [0, 0, 1], "coeff": "-1"}]}
    assert _call_check(schur, good) is None
    bad = {"polynomial": [{"exponents": [1, 1, 0], "coeff": "1"}]}
    assert _call_check(schur, bad)
    assert _call_check(schur, good, code=1)

    rel = [[2, 0, 0], [0, 6, 0], [0, 0, 4]]
    tower = session._tower_call(rel)
    good = {"kind": "certificate", "data": {"orders": [48, 48]},
            "lim": {"group": "Z/2 x Z/2 x Z/12"}}
    assert _call_check(tower, good) is None
    assert _call_check(tower, dict(good, lim={"group": "Z/2 x Z/24"}))

    suite_call = session._suite_call()
    crit = [{"name": "c%d" % i, "ok": True} for i in range(14)]
    assert _call_check(suite_call, {"all_pass": True, "criteria": crit}) is None
    crit[3]["ok"] = False
    assert _call_check(suite_call, {"all_pass": True, "criteria": crit})

    pont = session._pontryagin_call([[2, 3]])
    assert _call_check(pont, {"bundles": [{"p": [5, 6]}]}) is None
    assert _call_check(pont, {"bundles": [{"p": [5, 5]}]})


def test_invalid_call_contract():
    call = session._usage_error_call("x", ["gw", "ko1"], "fault")
    assert call.check(2, "", "usage error: not a prime power\n") is None
    assert call.check(1, "", "Traceback (most recent call last):\n  ...\nFormsError: x\n")


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    names = ["suite.%s_s" % fn.__name__[len("criterion_"):].replace("_", "-")
             for fn in suite.CRITERIA]
    assert names == ["suite.%s_s" % c for c in run.SUITE_CRITERIA]
