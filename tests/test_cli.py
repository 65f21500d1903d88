import io
import json
import os
import random
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import hgrcalc
from deadline import alarm
from hgrcalc import polynomial, towers
from hgrcalc.cli import main
from hgrcalc.polynomial import mat_transpose
from hgrcalc.pontryagin import FormalSymplecticBundle
from test_polynomial import SIX_BY_SEVEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv, timeout=120, code=None):
    """`python -m hgrcalc.cli argv`, or `python -c code argv`."""
    src = os.path.dirname(os.path.dirname(hgrcalc.__file__))
    entry = ["-m", "hgrcalc.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable] + entry + argv,
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

    @pytest.mark.parametrize("argv, message", [
        (["--partition", "15", "--gens", "15"],
         "--partition: weight 15 in 15 generators is over the work bound 2000"),
        (["--partition", "63", "--gens", "2"],
         "--partition: weight 63 in 2 generators is over the work bound 2000"),
        (["--partition", "1", "--gens", "33"], "--gens 33 is over the bound 32"),
    ], ids=["weight", "weight-in-two", "gens"])
    def test_over_the_bound_refused(self, capsys, argv, message):
        # s_(15) in 15 generators took 0.9 s and s_(20) in 20 took 21 s
        with alarm(2):
            code, _, err = run_cli(capsys, "schur", *argv)
        assert code == 2
        assert err == "usage error: %s\n" % message

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

    def test_rank_over_the_bound_refused(self, capsys):
        # rank C(20, 10) = 184756 took 4.2 s, (12, 24) over 30 s
        with alarm(2):
            code, _, err = run_cli(capsys, "hgr-ring", "--r", "10", "--n", "20")
        assert code == 2
        assert err == ("usage error: --r/--n: rank C(20, 10) is over the "
                       "bound 50000\n")

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

    def test_rank_over_the_bound_refused(self, capsys):
        with alarm(2):
            code, _, err = run_cli(capsys, "restriction", "--source-r", "10",
                                   "--source-n", "21", "--target-r", "10",
                                   "--target-n", "20", "--kind", "alpha")
        assert code == 2
        assert err == ("usage error: --source-r/--source-n: rank C(21, 10) "
                       "is over the bound 50000\n")


class TestPontryagin:
    def test_split_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "pontryagin", "--bundle",
                               '{"split": [2, 3]}', "--json")
        assert code == 0
        data = json.loads(out)
        assert data["bundles"][0] == {"rank": 4, "p": [5, 6]}

    def test_split_over_integers_matches_the_library(self, capsys):
        # split() read roots[0].ring and raised on plain integers
        code, out, _ = run_cli(capsys, "pontryagin", "--bundle",
                               '{"split": [1, 2]}', "--json")
        assert code == 0
        assert (json.loads(out)["bundles"][0]["p"]
                == FormalSymplecticBundle.split([1, 2]).ps)

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

    def test_negative_rank_refused(self, capsys):
        # it used to print a Cartan sum of rank -2 and exit 0
        code, _, err = run_cli(capsys, "pontryagin",
                               "--bundle", '{"rank": -4, "p": [1]}',
                               "--bundle", '{"split": [1]}')
        assert code == 2
        assert "nonnegative" in err

    @pytest.mark.parametrize("bundles", [
        ['{"rank": 200000000, "p": [1]}', '{"split": [1]}'],
        ['{"rank": 2002, "p": [1]}'],
        ['{"split": [%s]}' % ", ".join(["1"] * 1001)],
        ['{"rank": 2000, "p": [1]}', '{"split": [1]}'],
    ], ids=["abstract-huge", "abstract-over", "split-over", "cartan-sum-over"])
    def test_rank_over_the_bound_refused(self, capsys, bundles):
        argv = ["pontryagin"]
        for text in bundles:
            argv += ["--bundle", text]
        with alarm(2):
            code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "over the bound 2000" in err

    def test_rank_at_the_bound(self, capsys):
        with alarm(2):
            code, out, _ = run_cli(capsys, "pontryagin",
                                   "--bundle", '{"rank": 1998, "p": [1]}',
                                   "--bundle", '{"split": [2]}', "--json")
        assert code == 0
        p = json.loads(out)["cartan_sum"]["p"]
        assert p[:2] == [3, 2] and len(p) == 1000 and not any(p[2:])


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
        # a ring KO_1 is not computed over is a refused input, not a failed
        # verification
        code, out, _ = run_cli(capsys, "gw", "ko1", "--ring", "Z", "--json")
        assert code == 2
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

    def test_square_class_bound_within_the_matrix_bounds(self, capsys):
        code, out, err = run_cli(
            capsys, "gw", "diagonalize", "--matrix",
            "[[10000,1,0,0],[1,10000,1,0],[0,1,10000,1],[0,0,1,10000]]")
        assert code == 2 and out == ""
        assert "square class" in err

    @pytest.mark.parametrize("verb, field", [("diagonalize", "F999999937"),
                                             ("symplectic-basis", "Q")])
    def test_matrix_at_the_bounds(self, capsys, verb, field):
        # 32 x 32 with entries up to 10^6 in absolute value: under a second
        # as one CLI call
        rng = random.Random(32)
        g = [[0] * 32 for _ in range(32)]
        for i in range(32):
            for j in range(i, 32):
                x = rng.randint(-10 ** 6, 10 ** 6)
                if verb == "diagonalize":
                    g[i][j] = g[j][i] = x
                elif i != j:
                    g[i][j], g[j][i] = x, -x
        with alarm(10):
            code, out, _ = run_cli(capsys, "gw", verb, "--field", field,
                                   "--matrix", json.dumps(g), "--json")
        assert code == 0
        assert len(json.loads(out)["matrix"]) == 32


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

    def test_n_over_the_bound_refused(self, capsys):
        # n = 8 took 2.8 s, n = 10 did not return within 20 s
        with alarm(2):
            code, out, err = run_cli(capsys, "koszul", "--n", "8", "--json")
        assert code == 2
        assert json.loads(out) == {"error": "--n 8 is over the bound 7"}
        assert err == "usage error: --n 8 is over the bound 7\n"


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

    @pytest.mark.parametrize("spec, stabilized_at", [
        # Z/32 + Z under diag(2, 1) stabilizes at step 5
        ({"levels": [{"gens": 2, "relations": [[32, 0]]}],
          "maps": [[[2, 0], [0, 1]]], "tail": "template-repeating"}, {"0": 5}),
        # the nilpotent shift on Z^4 reaches 0 at step 4
        ({"levels": [{"gens": 4}],
          "maps": [[[int(j == i + 1) for j in range(4)] for i in range(4)]],
          "tail": "template-repeating"}, {"0": 4}),
        # an eventually-constant tower is always Mittag-Leffler
        ({"levels": [{"gens": 1}] * 4, "maps": [[[2]]] * 4,
          "tail": "eventually-constant"}, {"0": 4, "1": 3, "2": 2, "3": 1}),
        # the level over the repeated one reads its torsion, one step later
        ({"levels": [{"gens": 1, "relations": [[8]]},
                     {"gens": 2, "relations": [[8, 0]]}],
          "maps": [[[1, 0]], [[2, 0], [0, 1]]], "tail": "template-repeating"},
         {"0": 4, "1": 3}),
    ], ids=["torsion", "nilpotent-shift", "eventually-constant",
            "levels-over-the-template"])
    def test_certified_at_the_first_stable_step(self, capsys, spec,
                                                stabilized_at):
        code, out, _ = run_cli(capsys, "tower", "--spec", json.dumps(spec),
                               "--json")
        assert code == 0
        assert json.loads(out) == {"kind": "certificate",
                                   "reason": "image chains stabilize",
                                   "data": {"stabilized_at": stabilized_at}}

    def test_window_option_refused(self, capsys):
        # the step bound comes from the tower, so there is no window to set
        spec = json.dumps({"levels": [{"gens": 1}], "maps": [[[2]]],
                           "tail": "template-repeating"})
        with pytest.raises(SystemExit) as exc:
            main(["tower", "--spec", spec, "--window", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window 4" in capsys.readouterr().err

    @staticmethod
    def doubling_spec(gens, levels, relations):
        """A doubling template (2 on the diagonal, 1 above it) on `levels`
        levels, each with `relations` multiples of the first generator."""
        m = [[2 if j == i else int(j == i + 1) for j in range(gens)]
             for i in range(gens)]
        rels = [[7 + 2 * k] + [0] * (gens - 1) for k in range(relations)]
        return json.dumps({"levels": [{"gens": gens, "relations": rels}] * levels,
                           "maps": [m] * levels, "tail": "template-repeating"})

    @pytest.mark.parametrize("gens, levels, relations", [
        (towers.GENS_BOUND + 1, 1, 0), (12, 1, 0),
        (2, towers.LEVELS_BOUND + 1, 0), (2, 1, towers.RELATIONS_BOUND + 1)],
        ids=["gens", "twelve-gens", "levels", "relations"])
    def test_spec_over_a_bound_refused(self, capsys, gens, levels, relations):
        spec = self.doubling_spec(gens, levels, relations)
        with alarm(2):
            code, _, err = run_cli(capsys, "tower", "--spec", spec)
        assert code == 2
        assert err == ("usage error: --spec: at most %d levels, each with at "
                       "most %d generators and %d relations\n"
                       % (towers.LEVELS_BOUND, towers.GENS_BOUND,
                          towers.RELATIONS_BOUND))

    def test_spec_at_the_bounds(self, capsys):
        spec = self.doubling_spec(towers.GENS_BOUND, towers.LEVELS_BOUND,
                                  towers.RELATIONS_BOUND)
        with alarm(2):
            code, out, _ = run_cli(capsys, "tower", "--spec", spec, "--json")
        assert code == 1
        assert json.loads(out)["kind"] == "refutation"

    @pytest.mark.parametrize("where", ["maps", "relations"])
    def test_spec_entry_over_the_bound_refused(self, capsys, where):
        # 4000-digit entries made each chain step multiply numbers of
        # millions of digits
        big = int("9" * 4000)
        level = {"gens": 2}
        maps = [[[big, 1], [0, big]]]
        if where == "relations":
            level["relations"] = [[big, 0]]
            maps = [[[2, 1], [0, 2]]]
        spec = json.dumps({"levels": [level], "maps": maps,
                           "tail": "template-repeating"})
        with alarm(2):
            code, out, err = run_cli(capsys, "tower", "--spec", spec)
        assert code == 2
        assert out == ""
        assert err == ("usage error: --spec: map and relation entries must be "
                       "at most %d in absolute value\n" % towers.ENTRY_BOUND)

    def test_spec_entries_at_the_bound(self, capsys):
        # every entry at +-ENTRY_BOUND, on the largest levels; the group
        # Z/40 + Z^7 gives the bound 7 + 5 = 12, and the printed indices
        # stay under the int-to-str digit limit
        e, n = towers.ENTRY_BOUND, towers.GENS_BOUND
        m = [[e if j == i else -e if j == i + 1 else 0 for j in range(n)]
             for i in range(n)]
        rels = [[e] + [0] * (n - 1)] * towers.RELATIONS_BOUND
        spec = json.dumps({"levels": [{"gens": n, "relations": rels}]
                           * towers.LEVELS_BOUND,
                           "maps": [m] * towers.LEVELS_BOUND,
                           "tail": "template-repeating"})
        with alarm(5):
            code, out, _ = run_cli(capsys, "tower", "--spec", spec, "--json")
        assert code == 1
        data = json.loads(out)
        assert data["kind"] == "refutation"
        assert data["data"]["level"] == towers.LEVELS_BOUND - 1
        assert data["data"]["bound"] == 12
        assert len(data["data"]["indices"]) == 13

    def test_repeated_map_of_the_wrong_shape_refused(self, capsys):
        # the template's map from Z^2 to Z cannot repeat on Z^2; the chain
        # used to multiply it by itself and raise a ValueError
        spec = json.dumps({"levels": [{"gens": 1}, {"gens": 2}],
                           "maps": [[[2, 0]]], "tail": "template-repeating"})
        code, _, err = run_cli(capsys, "tower", "--spec", spec)
        assert code == 2
        assert err == "usage error: --spec: map 1 has the wrong shape\n"

    def test_depth_past_the_data(self, capsys):
        # the tail repeats after the supplied maps, so a deep limit costs
        # no more than a shallow one
        spec = json.dumps({"levels": [{"gens": 1, "relations": [[4]]}],
                           "maps": [[[3]]], "tail": "template-repeating"})
        with alarm(2):
            code, out, _ = run_cli(capsys, "tower", "--spec", spec,
                                   "--depth", "1000000000", "--json")
        assert code == 0
        assert json.loads(out)["lim"] == {"depth": 1000000000,
                                          "group": "Z/4", "lim1": "0"}

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

    @pytest.mark.parametrize("depth, most", [(None, 2), ("1", 3)])
    def test_one_smith_form_per_group(self, capsys, monkeypatch, depth, most):
        # at most one Smith form per group (the two levels and, with
        # --depth, the limit group); only printed invariant factors take one
        original = polynomial.smith_normal_form
        calls = []

        def counting(a):
            calls.append(a)
            return original(a)

        for name, module in list(sys.modules.items()):
            if name.startswith("hgrcalc") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
        assert towers.smith_normal_form is counting
        level = {"gens": 6, "relations": mat_transpose(SIX_BY_SEVEN)}
        ident = [[int(i == j) for j in range(6)] for i in range(6)]
        spec = json.dumps({"levels": [level] * 2, "maps": [ident],
                           "tail": "eventually-constant"})
        argv = ["tower", "--spec", spec] + (["--depth", depth] if depth else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("certificate: all level groups are finite")
        assert len(calls) <= most

    def test_bad_spec(self, capsys):
        code, _, err = run_cli(capsys, "tower", "--spec", "{}")
        assert code == 2
        assert "levels" in err

    def test_negative_depth_rejected(self, capsys):
        # level(-1) would index the last level from the end
        spec = json.dumps({"levels": [{"gens": 1}], "maps": []})
        with pytest.raises(SystemExit) as exc:
            main(["tower", "--spec", spec, "--depth", "-1"])
        assert exc.value.code == 2
        assert "--depth" in capsys.readouterr().err


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

    def test_quadratic_section_over_the_bound_refused(self, capsys):
        # r = 100 took 11.6 s, r = 200 over 15 s
        with alarm(2):
            code, _, err = run_cli(capsys, "verify", "quadratic-section",
                                   "--r", "49")
        assert code == 2
        assert err == "usage error: --r 49 is over the bound 48\n"

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
    # within the --matrix bounds; only the last pivot, about 10^28, is over
    # the square-class bound
    ["gw", "diagonalize", "--matrix",
     "[[10000,1,0,0],[1,10000,1,0],[0,1,10000,1],[0,0,1,10000]]"],
    ["gw", "diagonalize", "--matrix", '[["1e5000"]]'],
    ["gw", "diagonalize", "--matrix", "[[%s]]" % ("1" * 5000)],
    ["gw", "diagonalize", "--matrix", '[["1e3000000"]]'],
    ["tower", "--spec", '{"levels":[{"gens":%s}],"maps":[]}' % ("1" * 5000)],
    ["pontryagin", "--bundle", '{"split":[%s]}' % ("1" * 5000)],
    ["gw", "ko1", "--ring", "F1000000007"],
    ["gw", "ko1", "--ring", "F" + "1" * 5000],
    ["pontryagin", "--bundle", "null"],
    ["pontryagin", "--bundle", '{"rank": "2", "p": [1]}'],
    ["tower", "--spec", "[]"],
    ["tower", "--spec", '{"levels": [], "maps": [], "tail": "eventually-constant"}'],
    ["tower", "--spec", '{"levels": [{"gens": 1}], "maps": [], '
                        '"tail": "template-repeating"}'],
    ["tower", "--spec", '{"levels": [{"gens": 1.0}], "maps": [], '
                        '"tail": "eventually-constant"}'],
    ["tower", "--spec", '{"levels": [{"gens": 1, "relations": [[0.5]]}], '
                        '"maps": [], "tail": "eventually-constant"}'],
    ["gw", "ko1", "--ring", "Z"],
    ["gw", "ko1", "--ring", "Q[x]"],
    ["gw", "diagonalize", "--matrix", json.dumps(
        [[int(i == j) for j in range(33)] for i in range(33)])],
    ["gw", "symplectic-basis", "--matrix", "[[0,1000001],[-1000001,0]]"],
    ["gw", "diagonalize", "--matrix", "[[1,0],[0,0.0000001]]"],
]
LIBRARY_ERROR_IDS = [
    "diagonalize-no-matrix", "ko1-F6", "quadratic-section-r0",
    "symplectic-basis-symmetric", "diagonalize-Fx", "ko1-Fx", "karoubi-Fx",
    "diagonalize-inf", "diagonalize-square-class-bound",
    "diagonalize-5001-digits", "diagonalize-json-digit-limit",
    "diagonalize-string-exponent", "tower-json-digit-limit",
    "pontryagin-json-digit-limit", "ko1-field-over-bound",
    "ko1-field-digit-limit", "pontryagin-not-an-object",
    "pontryagin-string-rank", "tower-not-an-object", "tower-no-levels",
    "tower-template-without-map", "tower-float-gens",
    "tower-float-relation", "ko1-Z", "ko1-Qx", "diagonalize-dimension-bound",
    "symplectic-basis-entry-bound", "diagonalize-denominator-bound"]


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


# What a fresh interpreter loads: the CLI imports per subcommand, and the
# package root imports no submodule.
LIBRARY = {"hgrcalc." + name for name in (
    "chainduality", "classcalc", "coeffs", "forms", "geomverify", "grassring",
    "polynomial", "pontryagin", "suite", "symfun", "towers")}

MODULES_AFTER_MAIN = (
    "import sys\n"
    "from hgrcalc.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "except SystemExit:\n"
    "    pass\n"
    "print('\\n' + ' '.join(sorted(sys.modules)))\n")


def modules_after(argv=(), code=MODULES_AFTER_MAIN):
    proc = run_subprocess(list(argv), timeout=60, code=code)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestImportFootprint:
    def test_package_root_loads_no_submodule(self):
        loaded = modules_after(
            code="import sys, hgrcalc\nprint(' '.join(sorted(sys.modules)))")
        assert "hgrcalc" in loaded
        assert not [m for m in loaded if m.startswith("hgrcalc.")]

    def test_help_loads_no_library_module(self):
        assert not modules_after(["--help"]) & LIBRARY

    def test_gw_loads_only_the_form_layers(self):
        loaded = modules_after(["gw", "ko1", "--ring", "F7"])
        assert "hgrcalc.forms" in loaded
        assert not loaded & {"hgrcalc." + name for name in (
            "grassring", "symfun", "chainduality", "classcalc", "geomverify",
            "suite")}

    def test_pontryagin_loads_no_class_calculus(self):
        loaded = modules_after(["pontryagin", "--bundle", '{"split": [2, 3]}'])
        assert "hgrcalc.pontryagin" in loaded
        assert not loaded & {"hgrcalc." + name for name in (
            "classcalc", "forms", "towers", "chainduality", "geomverify",
            "suite")}

    def test_schur_loads_no_matrix_layer(self):
        loaded = modules_after(["schur", "--partition", "2,1", "--gens", "3"])
        assert "hgrcalc.symfun" in loaded
        assert not loaded & {"hgrcalc.forms", "hgrcalc.towers",
                             "hgrcalc.chainduality"}

    @pytest.mark.parametrize("argv", [
        ["--help"], ["gw", "ko1", "--ring", "F7"],
        ["classcheck", "--check", "mu", "--n", "1", "--i", "0"],
        ["pontryagin", "--bundle", '{"split": [2, 3]}']],
        ids=["help", "gw", "classcheck", "pontryagin"])
    def test_no_call_loads_dataclasses(self, argv):
        assert "dataclasses" not in modules_after(argv)

    def test_whole_library_loads_no_dataclasses(self):
        # suite imports every module
        loaded = modules_after(
            code="import sys, hgrcalc.suite\nprint(' '.join(sorted(sys.modules)))")
        assert LIBRARY <= loaded
        assert "dataclasses" not in loaded


def readme_cli_calls():
    """The `hgrcalc` lines of the README's CLI block as argv lists, with
    backslash continuations joined and comments dropped."""
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as f:
        block = f.read().split("\n## CLI\n", 1)[1].split("```\n")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("hgrcalc ")]


def test_readme_cli_block_runs(capsys):
    # every example exits 0, but the tower one, a refutation, exits 1
    calls = readme_cli_calls()
    assert len(calls) == 17
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        assert code == (1 if argv[0] == "tower" else 0), argv
        assert out and err == "", argv


# One call per subcommand in a fresh interpreter: each command's own
# imports, run end to end.
FRESH_CALLS = [
    ["schur", "--partition", "2,1", "--gens", "3"],
    ["hgr-ring", "--r", "2", "--n", "4", "--coeff", "GWBase"],
    ["restriction", "--source-r", "2", "--source-n", "3", "--target-r", "1",
     "--target-n", "2", "--kind", "beta"],
    ["pontryagin", "--bundle", '{"split": [2]}', "--bundle",
     '{"rank": 2, "p": [3]}'],
    ["classcheck", "--check", "k0-formula", "--n", "2", "--i", "1"],
    ["gw", "karoubi", "--ring", "F9"],
    ["koszul", "--n", "2", "--invert", "1"],
    ["tower", "--spec", '{"levels": [{"gens": 1}, {"gens": 1}], '
     '"maps": [[[1]]], "tail": "eventually-constant"}', "--depth", "1"],
    ["verify", "symplectic-lift"],
]


@pytest.mark.parametrize("argv", FRESH_CALLS, ids=[a[0] for a in FRESH_CALLS])
def test_each_subcommand_in_a_fresh_interpreter(argv):
    proc = run_subprocess(argv, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout and proc.stderr == ""


# The CLI contract under generated input: exit 0, 1 or 2, no exception but
# argparse's SystemExit(2), and every call within CALL_BOUND_S seconds.
CALL_BOUND_S = 10
SMALL = st.integers(-2, 4)
JSON_LEAF = st.one_of(st.none(), st.booleans(), SMALL,
                      st.floats(-2, 2, width=16), st.text("a1", max_size=2))
JSON_ANY = st.recursive(JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["split", "rank", "p", "gens",
                                     "relations", "levels", "maps", "tail"]),
                    inner, max_size=3)), max_leaves=6)
ENTRY = st.one_of(SMALL, JSON_LEAF)
NAMES = st.sampled_from(["Q", "RealClosed", "Z", "Z[1/2]", "Zhalf", "Q[x]",
                         "F3", "F4", "F9", "F6", "F1", "F0", "Fx", ""])


def vectors(entry, size=3):
    return st.lists(entry, max_size=size)


def square_matrices(entry):
    return st.integers(0, 3).flatmap(lambda k: st.lists(
        st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))


BUNDLES = st.one_of(st.fixed_dictionaries({"split": vectors(ENTRY)}),
                    st.fixed_dictionaries({"rank": ENTRY, "p": vectors(ENTRY)}),
                    JSON_ANY)
LEVELS = st.one_of(st.fixed_dictionaries(
    {"gens": st.one_of(st.integers(0, 3), JSON_LEAF)},
    optional={"relations": vectors(vectors(ENTRY))}), JSON_ANY)
SPECS = st.one_of(st.fixed_dictionaries(
    {"levels": vectors(LEVELS), "maps": vectors(vectors(vectors(ENTRY)))},
    optional={"tail": st.sampled_from(["eventually-constant",
                                       "template-repeating",
                                       "finite-prefix-only", "x"])}),
    JSON_ANY)


@st.composite
def cli_argv(draw):
    """A small argv for one of the nine computing subcommands."""
    command = draw(st.sampled_from(["schur", "hgr-ring", "restriction",
                                    "pontryagin", "classcheck", "gw", "koszul",
                                    "tower", "verify"]))
    argv = [command]

    def option(flag, values, required=False):
        if required or draw(st.booleans()):
            argv.extend([flag, str(draw(values))])

    def json_option(flag, values, required=False):
        option(flag, values.map(json.dumps), required)

    if command == "schur":
        option("--partition", vectors(SMALL).map(lambda p: ",".join(map(str, p))))
        option("--gens", SMALL, True)
    elif command == "hgr-ring":
        option("--r", SMALL, True)
        option("--n", SMALL, True)
        option("--coeff", st.sampled_from(["Integers", "Rationals", "GWBase"]))
    elif command == "restriction":
        for flag in ("--source-r", "--source-n", "--target-r", "--target-n"):
            option(flag, SMALL, True)
        option("--kind", st.sampled_from(["alpha", "beta"]), True)
    elif command == "pontryagin":
        for _ in range(draw(st.integers(1, 3))):
            json_option("--bundle", BUNDLES, True)
    elif command == "classcheck":
        option("--check", st.sampled_from(["gw-formula", "k0-formula", "mu"]),
               True)
        for flag in ("--n", "--i"):
            option(flag, SMALL, True)
        option("--j", SMALL)
    elif command == "gw":
        argv.append(draw(st.sampled_from(["diagonalize", "symplectic-basis",
                                          "ko1", "karoubi"])))
        json_option("--matrix", st.one_of(square_matrices(SMALL),
                                          square_matrices(ENTRY), JSON_ANY))
        option("--field", NAMES)
        option("--ring", NAMES)
    elif command == "koszul":
        option("--n", st.integers(-1, 4), True)
        option("--invert", SMALL)
    elif command == "tower":
        json_option("--spec", SPECS, True)
        option("--depth", SMALL)
    else:
        argv.append(draw(st.sampled_from(["m-path", "m1-factorization",
                                          "quadratic-section",
                                          "symplectic-lift"])))
        option("--r", SMALL)
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_generated_calls_keep_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with alarm(CALL_BOUND_S), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: "), argv
