import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from hgrcalc.grassring import present, restriction
from hgrcalc.symfun import Partition
from hgrcalc import towers
from hgrcalc.towers import (TAIL_POLICIES, FGAbelian, MLResult,
                            Tower, TowerError, check_mittag_leffler,
                            hermite_column_form, lim_of_surjective,
                            milnor_assemble, smith_normal_form)
from hgrcalc.polynomial import (invariant_factors, mat_apply, mat_mul,
                                mat_transpose)
from oracles import mittag_leffler_by_composites, solve_integer


def snf_check(a):
    u, d, v = smith_normal_form(a)
    prod = mat_mul(mat_mul(u, a), v)
    assert prod == d
    # diagonal with divisibility
    rows, cols = len(d), len(d[0]) if d else 0
    diag = []
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
        if i < cols:
            diag.append(d[i][i])
    nz = [x for x in diag if x]
    for i in range(len(nz) - 1):
        assert nz[i + 1] % nz[i] == 0
    assert all(x >= 0 for x in diag)
    return diag


class TestSmithNormalForm:
    def test_diagonal_divisibility(self):
        snf_check([[2, 4], [6, 8]])
        snf_check([[1, 0, 0], [0, 0, 0]])
        snf_check([[6, 10], [15, 4], [2, 2]])

    def test_idempotent_and_congruence_invariant(self):
        rng = random.Random(9)
        for _ in range(25):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            a = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
            base = invariant_factors(a)
            # unimodular row/col mixes preserve the factors
            b = [list(r) for r in a]
            for _ in range(4):
                i, j = rng.randrange(rows), rng.randrange(rows)
                if i != j:
                    c = rng.randrange(-2, 3)
                    for k in range(cols):
                        b[i][k] += c * b[j][k]
            assert invariant_factors(b) == base
            # SNF of the SNF diagonal is itself
            _, d, _ = smith_normal_form(a)
            assert invariant_factors(d) == base

    def test_solver(self):
        a = [[2, 0], [0, 3]]
        assert solve_integer(a, [4, 9]) == [2, 3]
        assert solve_integer(a, [1, 0]) is None


class TestHermite:
    def test_span_invariance(self):
        rng = random.Random(21)
        for _ in range(20):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
            h1 = hermite_column_form(a)
            # shuffle columns and add multiples of one column to another
            b = [list(r) for r in a]
            for _ in range(4):
                j1, j2 = rng.randrange(cols), rng.randrange(cols)
                if j1 != j2:
                    c = rng.randrange(-2, 3)
                    for k in range(rows):
                        b[k][j1] += c * b[k][j2]
            perm = list(range(cols))
            rng.shuffle(perm)
            b = [[b[k][j] for j in perm] for k in range(rows)]
            assert hermite_column_form(b) == h1


class TestFGAbelian:
    def test_free(self):
        g = FGAbelian.free(3)
        assert g.invariant_factors() == (3, [])
        assert g.order() is None

    def test_cyclic(self):
        assert FGAbelian.cyclic(8).order() == 8
        assert FGAbelian.cyclic(0).order() is None
        assert FGAbelian.cyclic(1).is_trivial()

    def test_direct_sum(self):
        g = FGAbelian.direct_sum(FGAbelian.cyclic(2), FGAbelian.cyclic(4),
                                 FGAbelian.free(1))
        free, torsion = g.invariant_factors()
        assert free == 1
        assert sorted(torsion) == [2, 4]

    def test_contains(self):
        g = FGAbelian.cyclic(6)
        assert g.contains([6])
        assert g.contains([0])
        assert not g.contains([3])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_contains_matches_the_smith_solver(self, data):
        rows = data.draw(st.integers(1, 8))
        cols = data.draw(st.integers(1, 8))
        entry = st.integers(-20, 20)
        a = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
        if data.draw(st.booleans()):  # a vector in the span
            x = data.draw(st.lists(entry, min_size=cols, max_size=cols))
            v = mat_apply(a, x)
        else:
            v = data.draw(st.lists(entry, min_size=rows, max_size=rows))
        group = FGAbelian(rows, mat_transpose(a))
        assert group.contains(v) == (solve_integer(a, v) is not None)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_invariant_factors_match_the_smith_form(self, data):
        # read off the Hermite form, against the Smith diagonal of the
        # generators x relations matrix itself
        rows = data.draw(st.integers(1, 8))
        cols = data.draw(st.integers(1, 16))
        entry = st.integers(-20, 20)
        a = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
        _, d, _ = smith_normal_form(a)
        diagonal = [d[t][t] for t in range(min(rows, cols)) if d[t][t]]
        want = (rows - len(diagonal), [x for x in diagonal if x != 1])
        assert FGAbelian(rows, mat_transpose(a)).invariant_factors() == want

    def test_contains_checks_the_length(self):
        with pytest.raises(TowerError):
            FGAbelian.cyclic(6).contains([1, 0])

    @pytest.mark.parametrize("ngens, relations", [
        (1.0, []), ("2", []), (1, [[0.5]]), (2, [[1, "x"]])],
        ids=["float-gens", "string-gens", "float-relation", "string-relation"])
    def test_non_integer_data_rejected(self, ngens, relations):
        with pytest.raises(TowerError):
            FGAbelian(ngens, relations)


def constant_tower(group, length=3, tail="eventually-constant"):
    n = group.ngens
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    return Tower([group] * length, [ident] * (length - 1), tail=tail)


class TestMittagLeffler:
    def test_constant_tower_certificate(self):
        t = constant_tower(FGAbelian.free(1))
        res = check_mittag_leffler(t)
        assert res.kind == "certificate"

    def test_times_two_refuted(self):
        # Z has free rank 1 and no torsion, so the bound is one step
        t = Tower([FGAbelian.free(1)], [[[2]]], tail="template-repeating")
        res = check_mittag_leffler(t)
        assert res.kind == "refutation"
        assert res.data == {"level": 0, "bound": 1, "indices": [2, 4]}

    def test_step_bound_is_reached(self):
        # Z/2^20 + Z has the bound N = 1 + 20 = 21; under diag(2, 1) the
        # torsion shrinks at each of the first 20 steps, and under
        # diag(1, 2) the free part shrinks forever
        group = FGAbelian(2, [[2 ** 20, 0]])
        res = check_mittag_leffler(Tower([group], [[[2, 0], [0, 1]]],
                                         tail="template-repeating"))
        assert res.data == {"stabilized_at": {0: 20}}
        res = check_mittag_leffler(Tower([group], [[[1, 0], [0, 2]]],
                                         tail="template-repeating"))
        assert res.kind == "refutation"
        assert res.data == {"level": 0, "bound": 21,
                            "indices": [2 ** j for j in range(1, 23)]}

    def test_finite_template_certified(self):
        for matrix in ([[3]], [[2]], [[5]], [[0]]):
            t = Tower([FGAbelian.cyclic(8)], [matrix], tail="template-repeating")
            res = check_mittag_leffler(t)
            assert res.kind == "certificate", matrix

    def test_finite_prefix_is_inconclusive_without_stabilization(self):
        t = Tower([FGAbelian.free(1), FGAbelian.free(1)], [[[2]]],
                  tail="finite-prefix-only")
        res = check_mittag_leffler(t)
        assert res.kind == "inconclusive"
        assert res.data == {"stabilized_at": {0: None, 1: None}}

    def test_ill_formed_map_rejected(self):
        # Z/4 -> Z/8 by generator -> generator sends the relation 4 to 4,
        # which is not a relation of Z/8
        with pytest.raises(TowerError):
            Tower([FGAbelian.cyclic(8), FGAbelian.cyclic(4)], [[[1]]])
        # the canonical surjection Z/8 -> Z/4 is fine
        Tower([FGAbelian.cyclic(4), FGAbelian.cyclic(8)], [[[1]]])

    def test_ill_formed_towers_rejected(self):
        with pytest.raises(TowerError):
            Tower([], [], tail="eventually-constant")
        with pytest.raises(TowerError):  # no map to repeat
            Tower([FGAbelian.free(1)], [], tail="template-repeating")
        with pytest.raises(TowerError):
            Tower([FGAbelian.free(1), FGAbelian.free(1)], [[[1.5]]])

    def test_repeated_template_map_checked_on_the_last_level(self):
        # the last map of a template also acts on the last level
        with pytest.raises(TowerError, match="map 1 has the wrong shape"):
            Tower([FGAbelian.free(1), FGAbelian.free(2)], [[[2, 0]]],
                  tail="template-repeating")
        # the swap sends the relation (1, 0) of level 0 to (0, 1), but
        # level 1 has only (1, 0)
        with pytest.raises(TowerError, match="map 1 does not send relations"):
            Tower([FGAbelian(2, [[0, 1]]), FGAbelian(2, [[1, 0]])],
                  [[[0, 1], [1, 0]]], tail="template-repeating")

    def test_surjective_tower_certificate(self):
        # coordinate projections Z^2 -> Z
        t = Tower([FGAbelian.free(1), FGAbelian.free(2)], [[[1, 0]]],
                  tail="eventually-constant")
        res = check_mittag_leffler(t)
        assert res.kind == "certificate"


def random_tower(rng):
    """A seeded draw of a small tower: 1 to 3 levels of 0 to 3 generators,
    free, torsion or mixed, with map entries in [-3, 3]; None when the
    draw is not a tower (a map that does not respect the relations)."""
    tail = rng.choice(TAIL_POLICIES)
    levels = []
    for _ in range(rng.randint(1, 3)):
        n = rng.choice((0, 1, 1, 2, 2, 3))
        kind = rng.randrange(3)
        if kind == 0:
            rels = []
        elif kind == 1:  # diagonal torsion, some of it trivial or free
            rels = [[rng.choice((0, 1, 2, 3, 4, 6)) * int(i == j)
                     for i in range(n)] for j in range(n)]
        else:
            rels = [[rng.randint(-4, 4) for _ in range(n)]
                    for _ in range(rng.randint(1, 3))]
        levels.append(FGAbelian(n, rels))
    n_maps = len(levels) - 1
    # a template needs a map to repeat; either tail may carry one extra map
    if tail != "finite-prefix-only" and (not n_maps or rng.random() < 0.5):
        n_maps += 1
    maps = []
    for k in range(n_maps):
        tgt = levels[min(k, len(levels) - 1)]
        src = levels[min(k + 1, len(levels) - 1)]
        # a multiple of the target's torsion exponent keeps many draws
        # well defined
        scale = rng.choice((1, 1, 12))
        maps.append([[scale * rng.randint(-3, 3) for _ in range(src.ngens)]
                     for _ in range(tgt.ngens)])
    try:
        return Tower(levels, maps, tail=tail)
    except TowerError:
        return None


class TestImageChains:
    def test_matches_the_composite_route(self):
        # against the oracle at a window past every step the decision can
        # walk: N steps on the repeated level and one more per level above
        rng = random.Random(1301)
        seen = set()
        done = 0
        while done < 300:
            tower = random_tower(rng)
            if tower is None:
                continue
            done += 1
            last = len(tower.levels) - 1
            free_rank, torsion = tower.levels[last].invariant_factors()
            window = free_rank + prod(torsion).bit_length() + last + 2
            res = check_mittag_leffler(tower)
            kind, reason, data = mittag_leffler_by_composites(tower, window)
            where = ([(g.ngens, g.relations) for g in tower.levels],
                     tower.maps, tower.tail)
            if kind == "certificate":
                assert (res.kind, res.reason, res.data) == (kind, reason,
                                                            data), where
            elif tower.tail == "template-repeating":
                assert res.kind == "refutation", where
                assert data["stabilized_at"][last] is None, where
            else:
                assert tower.tail == "finite-prefix-only", where
                assert res.kind == "inconclusive", where
                assert res.data == data, where
            seen.add((tower.tail, res.kind))
            seen.add(("torsion", any(g.relations for g in tower.levels)))
            if "stabilized_at" in res.data and res.kind == "certificate":
                seen.add(("walked", tower.tail))
        # torsion levels occur, both tails that walk the chains certify by
        # walking, and every tail gives each kind it can give
        assert {("torsion", True), ("walked", "template-repeating"),
                ("walked", "eventually-constant")} <= seen
        assert {(t, k) for t, k in seen if t in TAIL_POLICIES} == {
            ("template-repeating", "certificate"),
            ("template-repeating", "refutation"),
            ("eventually-constant", "certificate"),
            ("finite-prefix-only", "certificate"),
            ("finite-prefix-only", "inconclusive")}

    # the surjectivity test stops at the first map, level 0's, which is
    # not onto; then the decision walks:
    # - doubling: level 0 (Z, so N = 1) through step N + 1 = 2;
    # - torsion-template: the repeated level 2 (Z^2, N = 2) through step
    #   3, after (0, 1);
    # - finite-prefix: every (level, step) the prefix holds, (0, 1), (0, 2)
    #   and (1, 1);
    # - eventually-constant: level 0 through step 3 = len(maps) + 1, which
    #   takes (1, 1), (1, 2) and the tail's (2, 1) along
    @pytest.mark.parametrize("levels, maps, tail, hermite", [
        ([FGAbelian.free(1)], [[[2]]], "template-repeating", 2),
        ([FGAbelian(2, [[0, 6]]), FGAbelian(2, [[0, 6]]), FGAbelian.free(2)],
         [[[2, 0], [0, 1]], [[3, 1], [0, 2]], [[2, 1], [0, 1]]],
         "template-repeating", 4),
        ([FGAbelian.free(2)] * 3, [[[2, 0], [0, 1]], [[1, 1], [0, 3]]],
         "finite-prefix-only", 3),
        ([FGAbelian(2, [[4, 0]])] * 2, [[[1, 0], [0, 2]]] * 2,
         "eventually-constant", 6),
    ], ids=["doubling", "torsion-template", "finite-prefix", "eventually-constant"])
    def test_one_hermite_form_per_level_and_step(self, monkeypatch, levels,
                                                 maps, tail, hermite):
        tower = Tower(levels, maps, tail=tail)
        for g in tower.levels:
            g.order()  # the level groups' own forms are cached first
        calls = {"hermite": 0, "smith": 0}

        def counting(name, fn):
            def wrapper(a):
                calls[name] += 1
                return fn(a)
            return wrapper

        monkeypatch.setattr(towers, "hermite_column_form",
                            counting("hermite", towers.hermite_column_form))
        monkeypatch.setattr(towers, "smith_normal_form",
                            counting("smith", towers.smith_normal_form))
        check_mittag_leffler(tower)
        assert calls["smith"] == 0
        # one Hermite form per (level, step)
        assert calls["hermite"] == hermite


class TestLimOfSurjective:
    def test_constant(self):
        t = constant_tower(FGAbelian.free(2), length=4)
        res = lim_of_surjective(t, depth=3)
        assert res.group.invariant_factors() == (2, [])

    def test_error_names_level(self):
        zero_map = [[0]]
        t = Tower([FGAbelian.free(1), FGAbelian.free(1), FGAbelian.free(1)],
                  [[[1]], zero_map])
        with pytest.raises(TowerError) as err:
            lim_of_surjective(t, depth=2)
        assert "level 1" in str(err.value)

    def test_negative_depth_rejected(self):
        # level(-1) would index the last level from the end
        with pytest.raises(TowerError):
            lim_of_surjective(constant_tower(FGAbelian.cyclic(2)), depth=-1)

    def test_depth_outputs_map_compatibly(self):
        # the depth-d approximation surjects onto the depth-(d-1) one
        rings = [present(1, n) for n in range(2, 6)]
        levels = [FGAbelian.free(r.rank()) for r in rings]
        maps = []
        for small, big in zip(rings, rings[1:]):
            rho = restriction(big, small, "alpha")
            m = [[0] * big.rank() for _ in range(small.rank())]
            for (i, j), v in rho.matrix().items():
                m[i][j] = v
            maps.append(m)
        t = Tower(levels, maps)
        for d in range(1, 4):
            deep = lim_of_surjective(t, depth=d)
            shallow = lim_of_surjective(t, depth=d - 1)
            # the connecting map from the deep group is one of the tower maps,
            # already certified surjective by lim_of_surjective
            assert deep.group.ngens >= shallow.group.ngens

    def test_schur_coordinate_towers(self):
        # restriction towers of present(1, n): free groups with projections
        rings = [present(1, n) for n in range(2, 6)]
        levels = [FGAbelian.free(r.rank()) for r in rings]
        maps = []
        for small, big in zip(rings, rings[1:]):
            rho = restriction(big, small, "alpha")
            entries = rho.matrix()
            m = [[0] * big.rank() for _ in range(small.rank())]
            for (i, j), v in entries.items():
                m[i][j] = v
            maps.append(m)
        t = Tower(levels, maps, tail="finite-prefix-only")
        res = lim_of_surjective(t, depth=3)
        assert res.group.invariant_factors() == (rings[3].rank(), [])


class TestMilnorAssemble:
    def test_constant_family(self):
        t = constant_tower(FGAbelian.free(1), length=3)
        cert = check_mittag_leffler(t)
        out = milnor_assemble(t, cert, [[5], [5], [5]], depth=2)
        assert out == [5]

    def test_incompatible_family(self):
        t = constant_tower(FGAbelian.free(1), length=3)
        cert = check_mittag_leffler(t)
        with pytest.raises(TowerError) as err:
            milnor_assemble(t, cert, [[5], [5], [6]])
        assert "level 1" in str(err.value)

    def test_requires_certificate(self):
        t = constant_tower(FGAbelian.free(1), length=3)
        bad = MLResult("inconclusive", "made up")
        with pytest.raises(TowerError):
            milnor_assemble(t, bad, [[1], [1], [1]])

    def test_pontryagin_tower_reconstructs_p1(self):
        from hgrcalc.grassring import limit_ring
        rings = [present(1, n) for n in range(2, 6)]
        levels = [FGAbelian.free(r.rank()) for r in rings]
        maps = []
        for small, big in zip(rings, rings[1:]):
            rho = restriction(big, small, "alpha")
            m = [[0] * big.rank() for _ in range(small.rank())]
            for (i, j), v in rho.matrix().items():
                m[i][j] = v
            maps.append(m)
        t = Tower(levels, maps, tail="finite-prefix-only")
        cert = check_mittag_leffler(t)
        assert cert.kind == "certificate"
        # the p1 coordinate family: one in the s_(1) slot at every level
        family = []
        for ring in rings:
            vec = [0] * ring.rank()
            vec[ring.basis_index[Partition((1,))]] = 1
            family.append(vec)
        out = milnor_assemble(t, cert, family, depth=3)
        ring = rings[3]
        got = {ring.basis[i]: c for i, c in enumerate(out) if c}
        ps = limit_ring(1, 3)
        proj = ps.project(ring)(ps.p(1))
        assert got == proj.coords
