import random

import pytest

from hgrcalc.classcalc import (BundleSymbol, ClassCalcError, FormalClass,
                               RelationSet, expand, gw_relations, k0_relations,
                               mu_class, verify_gw_formula, verify_k0_formula)


def FC(*word):
    return FormalClass.of(*word)


def swap_factors(x):
    """Formal transposition of all length-two tensor words."""
    res = {}
    for w, c in x.terms.items():
        key = tuple(reversed(w)) if len(w) == 2 else w
        res[key] = res.get(key, 0) + c
    return FormalClass(res)


class TestFormalClass:
    def test_rank_is_multiplicative_on_words(self):
        rel = gw_relations(2)
        assert rel.rank_of(FC("U2n", "U")) == 4 * 2
        assert rel.rank_of(FC("H+")) == 2
        assert rel.rank_of(3 * FC("H") - FC("U")) == 4

    def test_zero(self):
        rel = gw_relations(1)
        nf, trace = expand(FormalClass(), rel)
        assert nf == FormalClass()
        assert trace == []

    def test_symplectic_odd_rank_rejected(self):
        with pytest.raises(ClassCalcError):
            BundleSymbol("bad", 3, "symplectic")

    def test_tensor_bilinear(self):
        a = FC("U") - 2 * FC("H")
        b = FC("U") + FC("H")
        prod = a.tensor(b)
        assert prod.terms[("U", "U")] == 1
        assert prod.terms[("U", "H")] == 1
        assert prod.terms[("H", "U")] == -2
        assert prod.terms[("H", "H")] == -2


class TestExpand:
    def test_complement_pair(self):
        rel = gw_relations(3)
        nf, trace = expand(FC("U2n") + FC("U2n_perp"), rel)
        assert nf == 6 * FC("H")
        assert any(step["rule"].startswith("complement") for step in trace)

    def test_h_box_h(self):
        rel = gw_relations(1)
        nf, _ = expand(FC("H", "H"), rel)
        assert nf == 2 * FC("H+")

    def test_unknown_symbol(self):
        rel = gw_relations(1)
        with pytest.raises(ClassCalcError):
            expand(FC("mystery"), rel)

    def test_rank_preserved_along_trace(self):
        rel = gw_relations(2)
        x = FC("U2n_perp", "U_perp") + 3 * FC("H", "H")
        before = rel.rank_of(x)
        nf, _ = expand(x, rel)
        assert rel.rank_of(nf) == before

    def test_confluence_under_term_order(self):
        # expansion is deterministic, and shuffling the input terms does
        # not change the normal form
        rng = random.Random(3)
        rel = gw_relations(2)
        words = [("U2n_perp", "U"), ("H", "U_perp"), ("H", "H"),
                 ("U2n", "H"), ("H+",)]
        base = FormalClass({w: rng.randrange(-3, 4) or 1 for w in words})
        reference, _ = expand(base, rel)
        for _ in range(10):
            items = list(base.terms.items())
            rng.shuffle(items)
            shuffled = FormalClass(dict(items))
            nf, _ = expand(shuffled, rel)
            assert nf == reference

    def test_k0_unit_absorption(self):
        rel = k0_relations(2)
        nf, _ = expand(FC("O", "U'1"), rel)
        assert nf == FC("U'1")
        nf, _ = expand(FC("O", "O"), rel)
        assert nf == FC("O")


class TestGWFormula:
    def test_small_case(self):
        v = verify_gw_formula(1, 0)
        assert v.ok
        assert v.notes["rank_lhs"] == 0
        assert v.notes["rank_rhs"] == 0

    def test_negative_component(self):
        assert verify_gw_formula(2, -1).ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_components(self, n):
        for i in range(-n, n + 1):
            v = verify_gw_formula(n, i)
            assert v.ok, (n, i)
            assert v.notes["rank_lhs"] == 0

    def test_component_out_of_range(self):
        with pytest.raises(ClassCalcError):
            verify_gw_formula(2, 3)

    def test_trace_retained(self):
        v = verify_gw_formula(1, 1)
        assert v.trace, "verification must retain its rewrite trace"
        names = {step["rule"].split(":")[0] for step in v.trace}
        assert "complement" in names


class TestK0Formula:
    def test_small_case(self):
        assert verify_k0_formula(1, 0).ok

    def test_spec_case(self):
        assert verify_k0_formula(3, 2).ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_components(self, n):
        for i in range(-n, n + 1):
            v = verify_k0_formula(n, i)
            assert v.ok, (n, i)
            assert v.notes["rank_lhs"] == 0


class TestMuClass:
    def test_top_component_is_plain_square(self):
        nf, rel = mu_class(2, 2, 2)
        assert nf == FC("U", "U")

    def test_zero_component_rank_one(self):
        nf, rel = mu_class(1, 0, 0)
        expect = (FC("U", "U") - FC("U", "H") - FC("H", "U")
                  + 2 * FC("H+"))
        assert nf == expect

    @pytest.mark.parametrize("n,i,j", [(1, 0, 0), (2, 1, -1), (3, 2, 1),
                                       (2, 2, 0), (4, -3, 3)])
    def test_rank_formula(self, n, i, j):
        nf, rel = mu_class(n, i, j)
        assert rel.rank_of(nf) == 4 * i * j

    def test_swap_symmetry(self):
        for (n, i, j) in [(1, 0, 1), (2, -1, 2), (3, 1, 2)]:
            a, _ = mu_class(n, i, j)
            b, _ = mu_class(n, j, i)
            assert a == swap_factors(b)


class TestHBoxHAgainstForms:
    def test_tensor_gram_is_two_split_planes(self):
        # the rewrite [H % H] -> 2[H+] is validated against the explicit
        # 4x4 Gram matrix of the tensor of two standard symplectic planes:
        # J (x) J is symmetric and congruent to two split planes
        from fractions import Fraction
        from hgrcalc.forms import BilinearForm, diagonalize
        from hgrcalc.polynomial import mat_mul, mat_transpose
        j = [[0, 1], [-1, 0]]
        gram = [[Fraction(j[a][c] * j[b][d]) for (c, d) in
                 ((0, 0), (0, 1), (1, 0), (1, 1))]
                for (a, b) in ((0, 0), (0, 1), (1, 0), (1, 1))]
        form = BilinearForm(gram, "symmetric")
        # explicit congruence onto H+ hyperbolic planes:
        # basis e1, e4, e2, -e3 turns J (x) J into [[0,1],[1,0]]^{+2}
        p = mat_transpose([[1, 0, 0, 0], [0, 0, 0, 1],
                           [0, 1, 0, 0], [0, 0, -1, 0]])
        p = [[Fraction(x) for x in row] for row in p]
        got = mat_mul(mat_mul(mat_transpose(p), gram), p)
        split_two = [[0, 1, 0, 0], [1, 0, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]]
        assert got == [[Fraction(v) for v in row] for row in split_two]
        # square-class data agrees with the double split plane as well
        res = diagonalize(form)
        split = diagonalize(BilinearForm([[0, 1], [1, 0]], "symmetric"))
        assert sorted(res.classes) == sorted(split.classes * 2)


class TestSymmetryBookkeeping:
    def test_rules_preserve_rank_on_registration(self):
        with pytest.raises(ClassCalcError):
            rel = RelationSet([BundleSymbol("A", 2, "symplectic"),
                               BundleSymbol("B", 2, "symplectic"),
                               BundleSymbol("T", 2, "symplectic")])
            rel.add_complement("A", "B", "T", 5)
