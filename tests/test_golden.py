"""Byte-exact golden outputs for the canonical JSON serializations.

These pin the graded-lexicographic term and partition orders that golden
files downstream depend on.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from hgrcalc.cli import main


def capture(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


GOLDEN_SCHUR_21 = """\
{
  "bidegree": [
    12,
    6
  ],
  "gens": 2,
  "partition": [
    2,
    1
  ],
  "polynomial": [
    {
      "coeff": "-1",
      "exponents": [
        0,
        0,
        1
      ]
    },
    {
      "coeff": "1",
      "exponents": [
        1,
        1,
        0
      ]
    }
  ],
  "weight": 3
}
"""


def test_schur_golden_bytes(capsys):
    # s_(2,1) = e1*e2 - e3, with e3 = 0 only when gens < 3; at gens = 2 the
    # determinant is computed with a 2x2 dual Jacobi-Trudi block over
    # conjugate (2,1): keep the full golden to pin the order
    code, out = capture(capsys, "schur", "--partition", "2,1", "--gens", "3",
                        "--json")
    assert code == 0
    assert out == GOLDEN_SCHUR_21.replace('"gens": 2', '"gens": 3')


GOLDEN_RING_12 = """\
{
  "basis": [
    [],
    [
      1
    ]
  ],
  "coeff": "Integers",
  "ideal": [
    [
      {
        "coeff": "1",
        "exponents": [
          2
        ]
      }
    ]
  ],
  "n": 2,
  "r": 1
}
"""


def test_hgr_ring_golden_bytes(capsys):
    code, out = capture(capsys, "hgr-ring", "--r", "1", "--n", "2", "--json")
    assert code == 0
    assert out == GOLDEN_RING_12


# sha256 of the --json output of matrix-layer calls: the Koszul complex with
# its homotopy, one diagonalization over Q and over F7 (a zero diagonal, so
# the first pivot comes from mixing two basis vectors) and one symplectic
# basis
GOLDEN_DIGESTS = [
    (("koszul", "--n", "4", "--invert", "2"),
     "c5db4448e000e318f7972970b4985db96515a255d86c0db9545632b05032593e"),
    (("gw", "diagonalize", "--matrix",
      "[[0,1,2,3],[1,0,1,2],[2,1,0,1],[3,2,1,0]]"),
     "9d939f304557651f4e2264e9737944832eb82875974288758b4c60fe48f97ea6"),
    (("gw", "diagonalize", "--field", "F7", "--matrix",
      "[[0,1,2,3],[1,0,1,2],[2,1,0,1],[3,2,1,0]]"),
     "eece9ed2fab733ed548cd21eda7a26a882224cc4adc7ff40940cc67b680c789e"),
    (("gw", "symplectic-basis", "--matrix",
      "[[0,2,1,-1],[-2,0,3,1],[-1,-3,0,4],[1,-1,-4,0]]"),
     "6890fe41c698089de427874703f196f460aa0e5a0995f98082b7452d2b4c6edb"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS,
                         ids=["koszul", "diagonalize-q", "diagonalize-f7",
                              "symplectic-basis"])
def test_matrix_layer_golden_digests(capsys, argv, digest):
    code, out = capture(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_identical_invocations_byte_identical(capsys):
    pairs = [
        ("hgr-ring", "--r", "2", "--n", "5", "--json"),
        ("classcheck", "--check", "gw-formula", "--n", "3", "--i", "2",
         "--json"),
        ("restriction", "--source-r", "2", "--source-n", "5", "--target-r",
         "2", "--target-n", "4", "--kind", "alpha", "--json"),
        ("koszul", "--n", "3", "--json"),
        ("verify", "m1-factorization", "--json"),
    ]
    for argv in pairs:
        _, first = capture(capsys, *argv)
        _, second = capture(capsys, *argv)
        assert first == second, argv


def test_cross_process_hash_seed_independence():
    cmd = [sys.executable, "-m", "hgrcalc.cli", "classcheck", "--check",
           "k0-formula", "--n", "4", "--i", "-3", "--json"]
    outs = []
    for seed in ("0", "7", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        res = subprocess.run(cmd, capture_output=True, check=True, env=env)
        outs.append(res.stdout)
    assert outs[0] == outs[1] == outs[2]
    json.loads(outs[0])  # well-formed
