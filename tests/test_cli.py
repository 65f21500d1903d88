import json
import os
import subprocess
import sys

import pytest

import hgrcalc
from deadline import alarm
from hgrcalc.cli import main
from hgrcalc.polynomial import mat_transpose
from test_polynomial import SIX_BY_SEVEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv, timeout=120):
    src = os.path.dirname(os.path.dirname(hgrcalc.__file__))
    return subprocess.run([sys.executable, "-m", "hgrcalc.cli"] + argv,
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=src))


class TestSchur:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--partition", "2", "--gens", "2",
                               "--json")
        assert code == 0
        data = json.loads(out)
        assert data["partition"] == [2]
        # e1^2 - e2 in graded-lex order: e2 (weight 2 exps (0,1)) vs e1^2
        coeffs = {tuple(t["exponents"]): t["coeff"] for t in data["polynomial"]}
        assert coeffs == {(0, 1): "-1", (2, 0): "1"}

    def test_bad_partition(self, capsys):
        code, _, err = run_cli(capsys, "schur", "--partition", "1,2",
                               "--gens", "2")
        assert code == 2
        assert "partition" in err

    def test_weight_one_thousand(self):
        # the Bareiss determinant of the 1000 x 1000 dual Jacobi-Trudi
        # matrix did not finish here
        proc = run_subprocess(["schur", "--partition", "1000", "--gens", "1"],
                              timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1].strip() == "e1^1000"

    def test_negative_gens_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schur", "--gens", "-1"])
        assert exc.value.code == 2
        assert "--gens" in capsys.readouterr().err


class TestHgrRing:
    def test_rank_six(self, capsys):
        code, out, _ = run_cli(capsys, "hgr-ring", "--r", "2", "--n", "4",
                               "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["basis"]) == 6
        assert data["r"] == 2 and data["n"] == 4

    def test_r_exceeds_n(self, capsys):
        code, _, err = run_cli(capsys, "hgr-ring", "--r", "3", "--n", "2")
        assert code == 2
        assert "r exceeds n" in err

    def test_human_mode_prints_bidegrees(self, capsys):
        code, out, _ = run_cli(capsys, "hgr-ring", "--r", "1", "--n", "2")
        assert code == 0
        assert "bidegree (4, 2)" in out


class TestRestriction:
    def test_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "restriction", "--source-r", "1",
                               "--source-n", "3", "--target-r", "1",
                               "--target-n", "2", "--kind", "alpha", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kernel"] == [[2]]
        assert sorted(map(tuple, data["matrix"])) == [(0, 0), (1, 1)]

    def test_bad_parameters(self, capsys):
        code, _, err = run_cli(capsys, "restriction", "--source-r", "1",
                               "--source-n", "3", "--target-r", "1",
                               "--target-n", "1", "--kind", "alpha")
        assert code == 2


class TestPontryagin:
    def test_split_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "pontryagin", "--bundle",
                               '{"split": [2, 3]}', "--json")
        assert code == 0
        data = json.loads(out)
        assert data["bundles"][0] == {"rank": 4, "p": [5, 6]}

    def test_cartan_sum(self, capsys):
        code, out, _ = run_cli(capsys, "pontryagin",
                               "--bundle", '{"split": [2]}',
                               "--bundle", '{"split": [3]}', "--json")
        assert code == 0
        data = json.loads(out)
        assert data["cartan_sum"] == {"rank": 4, "p": [5, 6]}

    def test_cartan_sum_mixed_sizes(self, capsys):
        code, out, _ = run_cli(capsys, "pontryagin",
                               "--bundle", '{"split": [1]}',
                               "--bundle", '{"split": [2, 3]}', "--json")
        assert code == 0
        data = json.loads(out)
        # roots {1, 2, 3}: e1 = 6, e2 = 11, e3 = 6
        assert data["cartan_sum"] == {"rank": 6, "p": [6, 11, 6]}

    def test_cartan_sum_split_with_abstract(self, capsys):
        code, out, _ = run_cli(capsys, "pontryagin",
                               "--bundle", '{"split": [1, 2]}',
                               "--bundle", '{"rank": 2, "p": [3]}', "--json")
        assert code == 0
        data = json.loads(out)
        assert data["cartan_sum"] == {"rank": 6, "p": [6, 11, 6]}

    def test_bad_bundle(self, capsys):
        code, _, err = run_cli(capsys, "pontryagin", "--bundle", '{"rank": 3, "p": [1]}')
        assert code == 2
        assert "even" in err


class TestClasscheck:
    def test_gw_formula(self, capsys):
        code, out, _ = run_cli(capsys, "classcheck", "--check", "gw-formula",
                               "--n", "2", "--i", "-1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["trace"]

    def test_mu(self, capsys):
        code, out, _ = run_cli(capsys, "classcheck", "--check", "mu",
                               "--n", "1", "--i", "0", "--j", "0", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 0

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "classcheck", "--check", "gw-formula",
                               "--n", "2", "--i", "5")
        assert code == 2


class TestGW:
    def test_diagonalize(self, capsys):
        code, out, _ = run_cli(capsys, "gw", "diagonalize", "--matrix",
                               "[[0, 1], [1, 0]]", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["classes"] == ["2", "-2"]

    def test_ko1(self, capsys):
        code, out, _ = run_cli(capsys, "gw", "ko1", "--ring", "Z[1/2]", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 8
        assert data["structure"] == "(Z/2)^3"

    def test_ko1_large_prime_field(self, capsys):
        code, out, _ = run_cli(capsys, "gw", "ko1", "--ring", "F1000003", "--json")
        assert code == 0
        assert json.loads(out)["order"] == 4

    def test_ko1_square_of_a_large_prime(self, capsys):
        # GF(31607^2): the nonsquare search must skip GF(31607), all squares there
        with alarm(2):
            code, out, _ = run_cli(capsys, "gw", "ko1", "--ring", "F999002449",
                                   "--json")
        assert code == 0
        assert json.loads(out)["order"] == 4

    def test_ko1_integers_fails(self, capsys):
        code, out, _ = run_cli(capsys, "gw", "ko1", "--ring", "Z", "--json")
        assert code == 1
        assert "2 not invertible" in json.loads(out)["error"]

    def test_karoubi(self, capsys):
        code, out, _ = run_cli(capsys, "gw", "karoubi", "--ring", "Z[1/2]",
                               "--json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_symplectic_basis(self, capsys):
        code, out, _ = run_cli(capsys, "gw", "symplectic-basis", "--matrix",
                               "[[0, 2], [-2, 0]]", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["matrix"] == [["1", "0"], ["0", "1/2"]]


class TestKoszulCmd:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "koszul", "--n", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verification"]["theta_symmetric"] is True
        assert data["complex"]["ranks"] == {"0": 1, "1": 2, "2": 1}

    def test_with_homotopy(self, capsys):
        code, out, _ = run_cli(capsys, "koszul", "--n", "2", "--invert", "1",
                               "--json")
        assert code == 0
        assert "1" in json.loads(out)["homotopies"]


class TestTowerCmd:
    def test_doubling_refuted(self, capsys):
        spec = json.dumps({"levels": [{"gens": 1}], "maps": [[[2]]],
                           "tail": "template-repeating"})
        code, out, _ = run_cli(capsys, "tower", "--spec", spec, "--json")
        assert code == 1
        assert json.loads(out)["kind"] == "refutation"

    def test_constant_certified_with_lim(self, capsys):
        spec = json.dumps({"levels": [{"gens": 1}, {"gens": 1}, {"gens": 1}],
                           "maps": [[[1]], [[1]]],
                           "tail": "eventually-constant"})
        code, out, _ = run_cli(capsys, "tower", "--spec", spec, "--depth", "2",
                               "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "certificate"
        assert data["lim"]["group"] == "Z"

    @pytest.mark.parametrize("length", [1, 2], ids=["one-level", "two-levels"])
    def test_six_by_seven_relations(self, capsys, length):
        # coker of the ROADMAP item 3 matrix is Z/2; its Smith form did not
        # finish, so neither did these calls
        level = {"gens": 6, "relations": mat_transpose(SIX_BY_SEVEN)}
        ident = [[int(i == j) for j in range(6)] for i in range(6)]
        spec = json.dumps({"levels": [level] * length,
                           "maps": [ident] * (length - 1),
                           "tail": "eventually-constant"})
        with alarm(2):
            code, out, _ = run_cli(capsys, "tower", "--spec", spec,
                                   "--depth", str(length - 1), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "certificate"
        assert data["data"]["orders"] == [2] * length
        assert data["lim"]["group"] == "Z/2"

    def test_bad_spec(self, capsys):
        code, _, err = run_cli(capsys, "tower", "--spec", "{}")
        assert code == 2
        assert "levels" in err


class TestVerifyCmd:
    def test_m_path(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "m-path", "--json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_m1_factorization(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "m1-factorization", "--json")
        assert code == 0

    def test_quadratic_section(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "quadratic-section", "--r", "2",
                               "--json")
        assert code == 0

    def test_symplectic_lift(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "symplectic-lift", "--json")
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestOutFile(object):
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        code, out, _ = run_cli(capsys, "hgr-ring", "--r", "1", "--n", "2",
                               "--json", "--out", str(path))
        assert code == 0
        assert out == ""
        data = json.loads(path.read_text())
        assert data["r"] == 1


# Inputs the library refuses: each exits 2 with one stderr line.
LIBRARY_ERRORS = [
    ["gw", "diagonalize"],
    ["gw", "ko1", "--ring", "F6"],
    ["verify", "quadratic-section", "--r", "0"],
    ["gw", "symplectic-basis", "--matrix", "[[0,1],[1,0]]"],
    ["gw", "diagonalize", "--field", "Fx", "--matrix", "[[1]]"],
    ["gw", "ko1", "--ring", "Fx"],
    ["gw", "karoubi", "--ring", "Fx"],
    ["gw", "diagonalize", "--matrix", "[[1e400]]"],
    ["gw", "diagonalize", "--matrix", "[[1000000000000000000000,0],[0,1]]"],
    ["gw", "diagonalize", "--matrix", '[["1e5000"]]'],
    ["gw", "diagonalize", "--matrix", "[[%s]]" % ("1" * 5000)],
    ["gw", "diagonalize", "--matrix", '[["1e3000000"]]'],
    ["tower", "--spec", '{"levels":[{"gens":%s}],"maps":[]}' % ("1" * 5000)],
    ["pontryagin", "--bundle", '{"split":[%s]}' % ("1" * 5000)],
    ["gw", "ko1", "--ring", "F1000000007"],
    ["gw", "ko1", "--ring", "F" + "1" * 5000],
]
LIBRARY_ERROR_IDS = [
    "diagonalize-no-matrix", "ko1-F6", "quadratic-section-r0",
    "symplectic-basis-symmetric", "diagonalize-Fx", "ko1-Fx", "karoubi-Fx",
    "diagonalize-inf", "diagonalize-square-class-bound",
    "diagonalize-5001-digits", "diagonalize-json-digit-limit",
    "diagonalize-string-exponent", "tower-json-digit-limit",
    "pontryagin-json-digit-limit", "ko1-field-over-bound",
    "ko1-field-digit-limit"]


@pytest.mark.parametrize("argv", LIBRARY_ERRORS, ids=LIBRARY_ERROR_IDS)
def test_library_errors_exit_two(argv):
    proc = run_subprocess(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("usage error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", LIBRARY_ERRORS, ids=LIBRARY_ERROR_IDS)
def test_library_errors_under_json(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1
    message = err[len("usage error: "):-1]
    assert out == json.dumps({"error": message}, sort_keys=True, indent=2) + "\n"
