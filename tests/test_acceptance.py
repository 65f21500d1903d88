"""Acceptance battery: one test per criterion, plus CLI-level determinism.

Every criterion is exact; there are no numerical tolerances anywhere in
this suite.  Each test prints its own pass/fail line.
"""

import os
import subprocess
import sys

import pytest

from hgrcalc import chainduality, forms, pontryagin, suite


RESULTS = {fn.__name__: fn() for fn in suite.CRITERIA}


def _report(result):
    line = "%s  %2d  %-28s %s" % ("PASS" if result["ok"] else "FAIL",
                                  result["id"], result["name"],
                                  result["detail"])
    print(line)
    assert result["ok"], result


@pytest.mark.parametrize("name", sorted(RESULTS, key=lambda n: RESULTS[n]["id"]))
def test_criterion(name):
    _report(RESULTS[name])


def test_ksp1_witness_failure_carries_the_vector(monkeypatch):
    # a reduction over Q[x] that returns no factors leaves v where it was;
    # the failing criterion names that vector
    real = forms.sp_reduce_unimodular

    def no_factors_over_qx(v, ring=forms.ZZ):
        return [] if ring is forms.QX else real(v, ring)

    monkeypatch.setattr(forms, "sp_reduce_unimodular", no_factors_over_qx)
    result = suite.criterion_ksp1_witness()
    assert not result["ok"]
    assert result["detail"].startswith("polynomial case [")
    assert "x" in result["detail"]


@pytest.mark.parametrize("broken, detail", [
    # the rank-3 tau on component 1 loses its periodicity twist, so it no
    # longer restricts to the rank-2 tau
    (lambda real, k, i, ring: real(0 if (ring.r, i) == (3, 1) else k, i, ring),
     "restriction fails at n=3 k=1 i=1"),
    # every component index off by one: the restrictions still agree, but
    # tau(0, 0) is p1 + h
    (lambda real, k, i, ring: real(k, i + 1, ring), "tau(0, 0) != p1 at n=2"),
], ids=["restriction", "p1"])
def test_tau_consistency_failure_names_the_case(monkeypatch, broken, detail):
    real = pontryagin.tau_element
    monkeypatch.setattr(pontryagin, "tau_element",
                        lambda k, i, ring: broken(real, k, i, ring))
    result = suite.criterion_tau_consistency()
    assert not result["ok"]
    assert result["detail"] == detail


def test_recurrence_failure_names_the_case(monkeypatch):
    # h_5 in two generators loses its e_1^5 term, so it no longer equals
    # the Kostka inversion of s_(5)
    real = suite.symfun.complete_from_elementary

    def broken(k, r):
        h = real(k, r)
        if (k, r) == (5, 2):
            h = h - h.ring.monomial((5, 0))
        return h

    monkeypatch.setattr(suite.symfun, "complete_from_elementary", broken)
    result = suite.criterion_recurrence()
    assert not result["ok"]
    assert result["detail"] == "fails at k=5 r=2"


def _keeps_the_form_at_1_3(real, msym, nsym):
    # the swap of koszul(1) @ koszul(3) keeps the form, where eps^3 flips it
    if (msym.degree, nsym.degree) == (1, 3):
        return 1
    return real(msym, nsym)


def _neither_sign(real, msym, nsym):
    raise chainduality.ChainError("the swapped form is neither plus nor "
                                  "minus the form at degree 2")


@pytest.mark.parametrize("broken, detail", [
    (_keeps_the_form_at_1_3,
     "r=1, s=3: the swap multiplies the form by +1, not by eps^3"),
    # the ChainError's degree reaches the detail
    (_neither_sign, "r=1, s=1: the swapped form is neither plus nor minus "
                    "the form at degree 2"),
], ids=["sign", "degree"])
def test_eps_algebra_failure_names_the_case(monkeypatch, broken, detail):
    real = chainduality.swap_sign
    monkeypatch.setattr(chainduality, "swap_sign",
                        lambda msym, nsym: broken(real, msym, nsym))
    result = suite.criterion_eps_algebra()
    assert not result["ok"]
    assert result["detail"] == detail


def test_criterion_14_determinism_in_process():
    _report(suite.criterion_determinism(list(RESULTS.values())))


def test_criterion_14_catches_a_changing_report(monkeypatch):
    # a criterion whose detail changes from one run to the next
    runs = []

    def drifting():
        runs.append(None)
        return suite._result(99, "drifting", True, "run %d" % len(runs))

    monkeypatch.setattr(suite, "CRITERIA", [drifting])
    results = suite.run_all()
    assert len(runs) == 2
    assert results[0]["detail"] == "run 1"
    assert results[-1] == {"id": 14, "name": "determinism", "ok": False,
                           "detail": "reports differ between runs"}


def test_criterion_14_determinism_cli_bytes():
    # running `suite --json` twice yields byte-identical output, even with
    # different string-hash seeds (so no output order leaks hash order)
    cmd = [sys.executable, "-m", "hgrcalc.cli", "suite", "--json"]
    env1 = dict(os.environ, PYTHONHASHSEED="1")
    env2 = dict(os.environ, PYTHONHASHSEED="20240")
    first = subprocess.run(cmd, capture_output=True, check=True, env=env1)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env2)
    assert first.stdout == second.stdout
    assert first.returncode == 0
    print("PASS  14  determinism-cli             byte-identical suite --json runs")
