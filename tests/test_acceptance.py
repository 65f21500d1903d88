"""Acceptance battery: one test per criterion, plus CLI-level determinism.

Every criterion is exact; there are no numerical tolerances anywhere in
this suite.  Each test prints its own pass/fail line.
"""

import os
import subprocess
import sys

import pytest

from hgrcalc import forms, suite


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


def test_criterion_14_determinism_in_process():
    _report(suite.criterion_determinism())


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
