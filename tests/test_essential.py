"""Essential cell bases, projector, graded product, decomposition."""

import json
import math
import re
import warnings
from itertools import product

import numpy as np
import pytest

from esspath import (
    EssentialSpace,
    EsspathError,
    InputError,
    NonEssentialInputWarning,
    NumericError,
    PathVector,
    TensorPathVector,
    annihilate,
    build_ade,
    builtin_graph,
    concat,
    elementary,
    enumerate_paths,
    fused_matrices,
    inner,
    perron_frobenius,
    reverse_star,
    space,
)
from esspath import essential as essential_module
from esspath.paths import DROP_TOL
from esspath.verify import VerifyConfig, check_decomposition
from reference_checks import (bullet_reconstruct, gamma_coproduct_paths, path_vector_bullet,
                              per_cell_transfers)

TOL = 1e-9
S3 = math.sqrt(3)


def combo(g, *terms):
    out = PathVector()
    for coeff, labels in terms:
        out = out + elementary(g, labels, coeff)
    return out


def normalized(v):
    return v * (1.0 / v.norm())


class TestCellBases:
    def test_e6_length2_loop_cell(self, sp_e6):
        cell = sp_e6.cell(2, 2, 2)
        assert cell.dim == 2
        assert cell.gram_residual <= 1e-12
        assert cell.annihilator_residual <= 1e-10

    def test_e6_length4_loop_cell(self, sp_e6):
        assert sp_e6.cell(2, 2, 4).dim == 3

    def test_length_one_cells(self, sp_e6):
        g = sp_e6.graph
        for a in range(6):
            for b in range(6):
                cell = sp_e6.cell(g.label(a), g.label(b), 1)
                expect = 1 if b in g.neighbors[a] else 0
                assert cell.dim == expect
                if expect:
                    assert cell.vector(0) == elementary(g, [g.label(a), g.label(b)])

    def test_empty_cell(self, sp_a2):
        assert sp_a2.cell(1, 1, 1).dim == 0

    def test_sign_convention(self, sp_e6):
        for length in range(5):
            for cell in sp_e6.grade_basis(length).cells:
                for row in cell.coordinates:
                    lead = row[np.abs(row) > TOL]
                    assert lead.size == 0 or lead[0] > 0

    def test_annihilated_by_all_ck(self, sp_e6):
        from esspath import annihilate
        cell = sp_e6.cell(2, 2, 4)
        for i in range(cell.dim):
            v = cell.vector(i)
            for k in range(1, 4):
                assert annihilate(sp_e6.graph, k, v).norm() <= 1e-10

    def test_closed_form_generators_span_length2_cell(self, sp_e6):
        # the cell admits the generators  [2,3,2] - c [2,1,2]  and
        # [2,5,2] - (c/sqrt 3) [2,3,2] - (1/sqrt 3) [2,1,2],  c = sqrt(rt3-1)
        g = sp_e6.graph
        c = math.sqrt(S3 - 1)
        e1 = combo(g, (-c, [2, 1, 2]), (1.0, [2, 3, 2]))
        e2 = combo(g, (-1 / S3, [2, 1, 2]), (-c / S3, [2, 3, 2]),
                   (1.0, [2, 5, 2]))
        for v in (e1, e2):
            assert sp_e6.is_essential(v)
        assert inner(e1, e2) == pytest.approx(0.0, abs=TOL)


class TestDims:
    def test_e6(self, sp_e6):
        assert sp_e6.dims() == [6, 10, 14, 18, 20, 20, 20, 18, 14, 10, 6]
        assert sum(sp_e6.dims()) == 156

    def test_a2(self, sp_a2):
        assert sp_a2.dims() == [2, 2]

    def test_a3(self, sp_a3):
        assert sp_a3.dims() == [3, 4, 3]

    @pytest.mark.parametrize("name,cap", [
        ("A1", None), ("A2", None), ("A3", None), ("A4", None), ("A5", None),
        ("A6", None), ("A7", None), ("A8", None),
        ("D4", None), ("D5", None), ("D6", None), ("D7", None),
        ("E6", None),
        # capped: the prefix read through grade_basis (full length: test_cli)
        ("D8", 8), ("E7", 6), ("E8", 6),
    ])
    def test_kernel_dims_match_fused_sums(self, name, cap):
        # independent cross-check: SVD kernel ranks vs integer recurrence
        g = builtin_graph(name)
        sp = space(g)
        sums = fused_matrices(g).sums
        if cap is None:
            assert tuple(sp.dims()) == sums
        else:
            got = [sp.grade_basis(l).dim for l in range(cap + 1)]
            assert tuple(got) == sums[:cap + 1]

    @pytest.mark.parametrize("name", ["A6", "E8"])
    def test_grades_past_the_last_are_built_and_empty(self, name):
        # grade_basis has no shortcut past max_length: the grades are built,
        # each checked, and each one is empty
        sp = EssentialSpace(builtin_graph(name))
        top = 2 * sp.max_length
        assert sp.grade_basis(top).dim == 0
        assert len(sp._grade_dims) == top + 1
        for length in range(sp.max_length + 1, top + 1):
            assert not sp._grade_dims[length].any(), length
            assert sp.grade_basis(length).cells == (), length

    def test_needs_cap_without_kappa(self):
        from esspath import parse_graph
        import json
        text = json.dumps({
            "vertices": ["c", "1", "2", "3", "4"],
            "edges": [["c", "1"], ["c", "2"], ["c", "3"], ["c", "4"]],
        })
        sp = EssentialSpace(parse_graph(text))
        with pytest.raises(InputError, match="cap"):
            sp.dims()
        capped = sp.dims(max_length=3)
        assert len(capped) == 4
        assert all(d > 0 for d in capped)


class TestProjector:
    def test_fixes_essential(self, sp_e6):
        cell = sp_e6.cell(2, 2, 4)
        for i in range(cell.dim):
            v = cell.vector(i)
            assert (sp_e6.project(v) - v).norm() <= 1e-10

    def test_kills_pure_backtrack_on_a2(self, sp_a2):
        g = sp_a2.graph
        v = elementary(g, [1, 2, 1])
        assert not sp_a2.project(v)

    def test_identity_on_short_paths(self, sp_e6):
        g = sp_e6.graph
        for labels in ([0], [2], [0, 1], [2, 5]):
            v = elementary(g, labels)
            assert (sp_e6.project(v) - v).norm() <= 1e-12

    def test_idempotent_and_self_adjoint(self, sp_e6):
        rng = np.random.default_rng(5)
        g = sp_e6.graph
        from esspath import enumerate_paths
        paths = enumerate_paths(g, "2", "2", 4)
        for _ in range(10):
            x = PathVector({p: rng.standard_normal() for p in paths})
            y = PathVector({p: rng.standard_normal() for p in paths})
            px = sp_e6.project(x)
            assert (sp_e6.project(px) - px).norm() <= 1e-10
            assert inner(px, y) == pytest.approx(inner(x, sp_e6.project(y)),
                                                 abs=1e-10)

    def test_commutes_with_reversal(self, sp_e6):
        rng = np.random.default_rng(6)
        from esspath import enumerate_paths
        g = sp_e6.graph
        for (a, b, l) in [("2", "2", 4), ("0", "2", 3), ("1", "5", 2)]:
            paths = enumerate_paths(g, a, b, l)
            x = PathVector({p: rng.standard_normal() for p in paths})
            assert (reverse_star(sp_e6.project(x))
                    - sp_e6.project(reverse_star(x))).norm() <= 1e-10

    def test_rejects_non_path_terms(self, sp_a2):
        with pytest.raises(InputError):
            sp_a2.project(PathVector({(0, 0): 1.0}))

    @pytest.mark.parametrize("term", [
        (2, 0, 2),  # a non-edge whose cell 2|2|2 is populated
        (0, 2),  # a non-edge whose cell 0|2|1 is empty
        (-1, 0),
        (0, 9),
        (),
    ])
    def test_rejects_non_path_terms_a6(self, term):
        sp = space(build_ade("A", 6))
        assert sp.grade_basis(2).cell_at(2, 2)[0] is not None
        assert sp.grade_basis(1).cell_at(0, 2)[0] is None
        with pytest.raises(InputError, match="not an elementary path"):
            sp.project(PathVector({(2, 1, 2): 0.5, term: 1.0}))
        # (0, 1, 0) is a path of the empty cell 0|0|2: dropped, not rejected
        assert sp.grade_basis(2).cell_at(0, 0)[0] is None
        assert not sp.project(PathVector({(0, 1, 0): 1.0}))
        assert (sp.project(PathVector({(2, 1, 2): 0.5, (0, 1, 0): 1.0}))
                == sp.project(PathVector({(2, 1, 2): 0.5})))

    def test_row_finds_exactly_the_cell_paths(self, sp_e6):
        cell = sp_e6.cell(2, 2, 4)
        assert [cell.row(p) for p in cell.paths] == list(range(len(cell.paths)))
        for bad in [(2, 0, 2, 0, 2), (2, 2, 2, 2, 2), (2, 3, 2), (), (9, 9, 9, 9, 9)]:
            assert bad not in cell.paths and cell.row(bad) is None

    @pytest.mark.parametrize("name", ["A3", "D4", "E6", "D7"])
    def test_star_matrix_matches_reversal_lookup(self, name):
        sp = space(builtin_graph(name))
        for length in range(sp.max_length + 1):
            gb = sp.grade_basis(length)
            expect = np.zeros((gb.dim, gb.dim))
            for cell, off in zip(gb.cells, gb.offsets):
                target, toff = gb.cell_at(cell.end, cell.start)
                index = {p: i for i, p in enumerate(target.paths)}
                rev = np.zeros((cell.dim, len(target.paths)))
                rev[:, [index[p[::-1]] for p in cell.paths]] = cell.coordinates
                expect[toff:toff + target.dim, off:off + cell.dim] = (
                    target.coordinates @ rev.T)
            assert np.array_equal(sp.star_matrix(length), expect)


class TestBullet:
    def test_unit_law(self, sp_e6):
        one = sp_e6.unit_essential()
        cell = sp_e6.cell(2, 2, 2)
        for i in range(cell.dim):
            v = cell.vector(i)
            assert (sp_e6.bullet(one, v) - v).norm() <= 1e-10
            assert (sp_e6.bullet(v, one) - v).norm() <= 1e-10

    def test_a2_nilpotents(self, sp_a2):
        g = sp_a2.graph
        r = elementary(g, [1, 2])
        l = elementary(g, [2, 1])
        for x, y in [(r, r), (l, l), (r, l), (l, r)]:
            assert not sp_a2.bullet(x, y)

    def test_grade_additive(self, sp_e6):
        g = sp_e6.graph
        out = sp_e6.bullet(elementary(g, [2, 1, 0]), elementary(g, [0, 1, 2]))
        assert out.lengths() == {4}

    def test_warns_and_projects_non_essential(self, sp_a2):
        g = sp_a2.graph
        bad = elementary(g, [1, 2, 1])  # not essential
        with pytest.warns(NonEssentialInputWarning):
            out = sp_a2.bullet(bad, elementary(g, [1]))
        assert not out

    def test_projector_identity_random(self, sp_e6):
        from esspath import enumerate_paths
        rng = np.random.default_rng(7)
        g = sp_e6.graph
        for _ in range(30):
            l1, l2 = rng.integers(0, 5, size=2)
            a, v, b = rng.integers(0, 6, size=3)
            p1s = enumerate_paths(g, g.label(a), g.label(v), int(l1))
            p2s = enumerate_paths(g, g.label(v), g.label(b), int(l2))
            if not p1s or not p2s:
                continue
            p1 = PathVector({p: rng.standard_normal() for p in p1s})
            p2 = PathVector({p: rng.standard_normal() for p in p2s})
            lhs = sp_e6.project(concat(sp_e6.project(p1), sp_e6.project(p2)))
            rhs = sp_e6.project(concat(p1, p2))
            assert (lhs - rhs).norm() <= TOL * max(1.0, rhs.norm())

    @pytest.mark.parametrize("left", [True, False])
    def test_non_path_factor_rejected(self, sp_e6, left):
        bad = PathVector({(2, 1, 2): 0.5, (2, 0, 2): 1.0})  # 0 and 2 are not adjacent
        good = sp_e6.cell(2, 2, 2).vector(0)
        with pytest.raises(InputError,
                           match=re.escape("term (2, 0, 2) is not an elementary path")):
            sp_e6.bullet(*((bad, good) if left else (good, bad)))


def test_small_product_term_dropped_before_projection(sp_e6):
    # (1, 2, 1) gets only 1e-8 * 1e-7, which concat drops: the projection
    # of (1, 0, 1) must not see it
    e = PathVector({(1, 0): 1.0, (1, 2): 1e-8})
    f = PathVector({(0, 1): 1.0, (2, 1): 1e-7})
    assert sp_e6.bullet(e, f).terms == path_vector_bullet(sp_e6, e, f).terms


def test_small_factor_term_dropped_before_product(sp_e6):
    # projected basis vectors hold rounding-level entries up to DROP_TOL,
    # which project drops; times 1e6 they would exceed it
    big = 1e6 * sp_e6.unit_essential()
    for n in range(sp_e6.max_length + 1):
        for cell in sp_e6.grade_basis(n).cells:
            for e in cell.vectors:
                assert sp_e6.bullet(e, big).terms == path_vector_bullet(sp_e6, e, big).terms


def test_products_summed_in_left_factor_order():
    # (0, 1, 2, 3) on A6 is reached at three splits, and every cell here has
    # only essential paths: 2^20 + 2^-33 + 2^-33 is 2^20 summed in the left
    # factor's order, as concat sums, and 2^20 + 2^-32 in the right one's
    sp = space(build_ade("A", 6))
    e = PathVector({(0,): 1.0, (0, 1): 1.0, (0, 1, 2): 1.0})
    f = PathVector({(2, 3): 2.0**-33, (1, 2, 3): 2.0**-33, (0, 1, 2, 3): 2.0**20})
    want = {(0, 1, 2, 3): 2.0**20}
    assert sp.bullet(e, f).terms == path_vector_bullet(sp, e, f).terms == want


def random_cell_vector(rng, cell):
    """A random essential vector of one cell, over all of its paths."""
    coords = rng.standard_normal(cell.dim) @ cell.coordinates
    return PathVector(dict(zip(cell.paths, coords.tolist())))


def bullet_cases(sp, rng, count):
    """Random homogeneous pairs of composable cells, sums over three random
    cells on each side, and the unit on either side of a cell vector."""
    cells = [c for n in range(sp.max_length + 1) for c in sp.grade_basis(n).cells]
    one = sp.unit_essential()
    cases = []
    for _ in range(count):
        c1 = cells[rng.integers(len(cells))]
        right = [c for c in cells if c.start == c1.end]
        e = random_cell_vector(rng, c1)
        cases.append((e, random_cell_vector(rng, right[rng.integers(len(right))])))
        sums = [sum((random_cell_vector(rng, cells[rng.integers(len(cells))])
                     for _ in range(3)), PathVector()) for _ in range(2)]
        cases += [tuple(sums), (one, e), (e, one)]
    return cases


def warnings_of(call, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call(*args)
    return out, sum(issubclass(w.category, NonEssentialInputWarning) for w in caught)


@pytest.mark.parametrize("name", ["A2", "A6", "E6", "D7"])
class TestBulletInCellCoordinates:
    """bullet scatters outer products of the projected factors' cells into
    the target cells; it gives the same bits as projecting the
    concatenation of the projected factors as path vectors."""

    def test_same_terms_as_path_vector_bullet(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        for e, f in bullet_cases(sp, np.random.default_rng(11), 25):
            assert sp.bullet(e, f).terms == path_vector_bullet(sp, e, f).terms

    def test_same_warnings_as_path_vector_bullet(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        cell = sp.grade_basis(1).cells[0]
        raw = PathVector({cell.paths[0] + cell.paths[0][-2::-1]: 1.0})  # backtracks
        good = sp.unit_essential()
        for e, f, count in [(raw, good, 1), (good, raw, 1), (raw, raw, 2)]:
            got, got_warned = warnings_of(sp.bullet, e, f)
            want, want_warned = warnings_of(path_vector_bullet, sp, e, f)
            assert got_warned == want_warned == count
            assert got.terms == want.terms


# the six coefficients of the worked length-4 example: products of
# length-2 generators hitting the second basis vector of the (2 -> 2)
# length-4 cell, written in closed form
E6_LENGTH4_COEFFS = [
    ("20.02", math.sqrt(1 - 1 / S3)),
    ("e1.e1", -1 / math.sqrt(6 * S3)),
    ("e1.e2", -math.sqrt(1.5 + S3) / 3),
    ("e2.e1", -math.sqrt(-4 / 3 + 7 / (3 * S3))),
    ("e2.e2", -math.sqrt(-3 + 2 * S3) / 3),
    ("24.42", math.sqrt(1.5 - 5 / (2 * S3))),
]


def e6_closed_form_vectors(g):
    c = math.sqrt(1 + S3)
    d = math.sqrt(S3 - 1)
    e1_22 = normalized(combo(g, (-d, [2, 1, 2]), (1.0, [2, 3, 2])))
    e2_22 = normalized(combo(g, (-1.0, [2, 1, 2]), (-d, [2, 3, 2]),
                             (S3, [2, 5, 2])))
    e2_4 = normalized(combo(
        g,
        (c, [2, 1, 0, 1, 2]),
        (-1.0, [2, 1, 2, 1, 2]), (1.0, [2, 1, 2, 5, 2]),
        (S3 / 2 * d, [2, 3, 2, 1, 2]), (-S3 / 2 * d, [2, 3, 2, 5, 2]),
        (0.5 * (S3 - 1), [2, 5, 2, 1, 2]), (-0.5 * (S3 - 1), [2, 5, 2, 5, 2]),
        (d / math.sqrt(2), [2, 5, 4, 5, 2]),
    ))
    return e1_22, e2_22, e2_4


class TestE6WorkedExample:
    def test_vectors_are_essential_and_orthonormal(self, sp_e6):
        e1, e2, e4 = e6_closed_form_vectors(sp_e6.graph)
        for v in (e1, e2, e4):
            assert sp_e6.is_essential(v)
            assert v.norm() == pytest.approx(1.0, abs=1e-12)
        assert inner(e1, e2) == pytest.approx(0.0, abs=TOL)

    def test_six_product_coefficients(self, sp_e6):
        g = sp_e6.graph
        e1, e2, e4 = e6_closed_form_vectors(g)
        p20 = elementary(g, [2, 1, 0])
        p02 = elementary(g, [0, 1, 2])
        p24 = elementary(g, [2, 5, 4])
        p42 = elementary(g, [4, 5, 2])
        products = {
            "20.02": sp_e6.bullet(p20, p02),
            "e1.e1": sp_e6.bullet(e1, e1),
            "e1.e2": sp_e6.bullet(e1, e2),
            "e2.e1": sp_e6.bullet(e2, e1),
            "e2.e2": sp_e6.bullet(e2, e2),
            "24.42": sp_e6.bullet(p24, p42),
        }
        total = 0.0
        for key, expected in E6_LENGTH4_COEFFS:
            got = inner(e4, products[key])
            assert got == pytest.approx(expected, abs=TOL), key
            total += got * got
        assert total == pytest.approx(1.0, abs=TOL)

    def test_norm_identity_basis_independent(self, sp_e6):
        g = sp_e6.graph
        raw = concat(elementary(g, [2, 1, 0]), elementary(g, [0, 1, 2]))
        proj = sp_e6.project(raw)
        cell = sp_e6.cell(2, 2, 4)
        coeff_sq = sum(inner(cell.vector(k), raw) ** 2 for k in range(cell.dim))
        assert proj.norm() ** 2 == pytest.approx(coeff_sq, abs=1e-12)


class TestStructureConstants:
    def test_a2_zero_grade_products(self, sp_a2):
        mul = sp_a2.structure_constants(0, 0)
        # a_i * a_j = delta_ij a_i
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expect = 1.0 if i == j == k else 0.0
                    assert mul[i, j, k] == pytest.approx(expect, abs=1e-12)

    def test_a2_mixed_grades(self, sp_a2):
        mul = sp_a2.structure_constants(0, 1)
        # basis order: grade 0 = (a1, a2); grade 1 = (r, l)
        assert mul[0, 0, 0] == pytest.approx(1.0)   # a1 * r = r
        assert mul[1, 0, 0] == pytest.approx(0.0)   # a2 * r = 0
        assert mul[1, 1, 1] == pytest.approx(1.0)   # a2 * l = l
        assert mul[0, 1, 1] == pytest.approx(0.0)   # a1 * l = 0

    def test_empty_target_grade(self, sp_a2):
        mul = sp_a2.structure_constants(1, 1)
        assert mul.shape == (2, 2, 0)

    def test_matches_bullet_inner(self, sp_e6):
        mul = sp_e6.structure_constants(2, 2)
        gb2 = sp_e6.grade_basis(2)
        gb4 = sp_e6.grade_basis(4)
        rng = np.random.default_rng(11)
        for _ in range(20):
            i, j = rng.integers(0, gb2.dim, size=2)
            k = int(rng.integers(0, gb4.dim))
            direct = inner(gb4.vector(k),
                           sp_e6.bullet(gb2.vector(int(i)), gb2.vector(int(j))))
            assert mul[i, j, k] == pytest.approx(direct, abs=1e-10)

    def test_endpoint_chaining_support(self, sp_e6):
        mul = sp_e6.structure_constants(1, 1)
        gb1 = sp_e6.grade_basis(1)
        gb2 = sp_e6.grade_basis(2)

        def endpoints(gb, index):
            cell, _ = gb.locate(int(index))
            return cell.start, cell.end

        nz = np.argwhere(np.abs(mul) > 1e-12)
        assert len(nz)
        for i, j, k in nz:
            (si, ei), (sj, ej), (sk, ek) = (endpoints(gb1, i), endpoints(gb1, j),
                                            endpoints(gb2, k))
            assert ei == sj
            assert sk == si
            assert ek == ej


class TestDecomposition:
    def test_e6_sum_squares_one(self, sp_e6):
        cell = sp_e6.cell(2, 2, 4)
        for k in range(cell.dim):
            d = sp_e6.decompose(cell.vector(k), 2)
            assert d.sum_squares == pytest.approx(1.0, abs=TOL)

    def test_intermediate_vertices_of_worked_example(self, sp_e6):
        _, _, e4 = e6_closed_form_vectors(sp_e6.graph)
        d = sp_e6.decompose(e4, 2)
        vs = {sp_e6.graph.label(v) for v, _, _, _ in d.entries}
        assert vs == {"0", "2", "4"}

    def test_invalid_split_rejected(self, sp_a2):
        r = elementary(sp_a2.graph, [1, 2])
        for split in (0, 1, 2):
            with pytest.raises(InputError):
                sp_a2.decompose(r, split)

    def test_non_essential_rejected(self, sp_a2):
        v = elementary(sp_a2.graph, [1, 2, 1])
        with pytest.raises(InputError, match="essential"):
            sp_a2.decompose(v, 1)

    def test_mixed_cells_rejected(self, sp_e6):
        g = sp_e6.graph
        v = elementary(g, [0, 1]) + elementary(g, [0, 1, 2])
        with pytest.raises(InputError, match="homogeneous"):
            sp_e6.decompose(v, 1)

    def test_empty_path_rejected(self, sp_a3):
        with pytest.raises(InputError, match="not an elementary path"):
            sp_a3.decompose(PathVector({(): 1.0}), 1)

    def test_reconstruction_random_a3(self, sp_a3):
        rng = np.random.default_rng(3)
        gb = sp_a3.grade_basis(2)
        for _ in range(10):
            w = rng.standard_normal(gb.dim)
            cellv = {}
            for idx in range(gb.dim):
                cell, local = gb.locate(idx)
                cellv.setdefault((cell.start, cell.end), PathVector())
            # decompose per cell to keep endpoints fixed
            for cell in gb.cells:
                vec = PathVector()
                for local in range(cell.dim):
                    vec = vec + float(rng.standard_normal()) * cell.vector(local)
                if not vec:
                    continue
                d = sp_a3.decompose(vec, 1)
                assert (sp_a3.reconstruct(d) - vec).norm() <= 1e-9
                assert d.sum_squares == pytest.approx(vec.norm() ** 2, abs=1e-9)

    def test_gamma_matches_structure_constants(self, sp_e6):
        # the decomposition coefficients are the graded product coefficients
        mul = sp_e6.structure_constants(2, 2)
        gb2 = sp_e6.grade_basis(2)
        gb4 = sp_e6.grade_basis(4)
        for k in range(gb4.dim):
            cell, local = gb4.locate(k)
            d = sp_e6.decompose(cell.vector(local), 2)
            for v, i, j, gamma in d.entries:
                lcell, loff = gb2.cell_at(cell.start, v)
                rcell, roff = gb2.cell_at(v, cell.end)
                assert mul[loff + i, roff + j, k] == pytest.approx(gamma,
                                                                   abs=1e-10)


class TestCoproductPaths:
    def test_empty_path_rejected(self, sp_a3):
        with pytest.raises(InputError, match="not an elementary path"):
            sp_a3.coproduct_paths(PathVector({(): 1.0}))

    def test_includes_trivial_end_cuts(self, sp_e6):
        g = sp_e6.graph
        _, _, e4 = e6_closed_form_vectors(g)
        d = sp_e6.coproduct_paths(e4)
        # the (0,4) and (4,0) pieces are [2] (x) e4 and e4 (x) [2]
        for p, c in e4.items():
            assert d.coefficient((2,), p) == pytest.approx(c, abs=1e-10)
            assert d.coefficient(p, (2,)) == pytest.approx(c, abs=1e-10)

    def test_duality_with_graded_product(self, sp_e6):
        # <D(e), p (x) q> = <e, p * q> for essential p, q of matching grades
        rng = np.random.default_rng(14)
        gb2 = sp_e6.grade_basis(2)
        gb4 = sp_e6.grade_basis(4)
        for _ in range(15):
            e = gb4.vector(int(rng.integers(gb4.dim)))
            p = gb2.vector(int(rng.integers(gb2.dim)))
            q = gb2.vector(int(rng.integers(gb2.dim)))
            d = sp_e6.coproduct_paths(e)
            lhs = sum(
                c * inner(PathVector.single(p1), p) * inner(PathVector.single(p2), q)
                for (p1, p2), c in d.items()
                if len(p1) == 3 and len(p2) == 3
            )
            rhs = inner(e, sp_e6.bullet(p, q))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_length2_piece_matches_products(self, sp_e6):
        g = sp_e6.graph
        e1, e2, e4 = e6_closed_form_vectors(g)
        d = sp_e6.coproduct_paths(e4)
        got = sum(
            c * inner(PathVector.single(p1), e1)
            * inner(PathVector.single(p2), e2)
            for (p1, p2), c in d.items()
            if len(p1) == 3 and len(p2) == 3
        )
        assert got == pytest.approx(-math.sqrt(1.5 + S3) / 3, abs=TOL)

    @pytest.mark.parametrize("length", [0, 1, 4])
    @pytest.mark.parametrize("scale", [2.0, -0.5])
    def test_linear(self, sp_e6, length, scale):
        # at length 0 the end pieces [v] (x) e and e (x) [v] are one term;
        # scaling by a power of 2 is exact, so both sides agree to the bit
        for cell in sp_e6.grade_basis(length).cells:
            for e in cell.vectors:
                assert (sp_e6.coproduct_paths(scale * e).terms
                        == (scale * sp_e6.coproduct_paths(e)).terms)

    def test_one_projection_per_call(self, e6, monkeypatch):
        # the read path projects each vector once, in cell coordinates
        sp = EssentialSpace(e6)
        calls = []
        projected = sp._projected
        monkeypatch.setattr(sp, "_projected",
                            lambda *a, **k: calls.append(a) or projected(*a, **k))
        e = sp.cell(2, 2, 4).vector(1)
        sp.coproduct_paths(e)
        assert len(calls) == 1
        sp.decompose(e, 2)
        assert len(calls) == 2
        sp.bullet(sp.cell(2, 1, 1).vector(0), sp.cell(1, 2, 3).vector(0))
        assert len(calls) == 5  # each factor once, the product once


class TestReadPathInputErrors:
    """Each InputError branch of the two homogeneous read-path queries."""

    @staticmethod
    def query(sp, which, e):
        return sp.coproduct_paths(e) if which == "coproduct_paths" else sp.decompose(e, 1)

    @pytest.mark.parametrize("which", ["coproduct_paths", "decompose"])
    def test_non_essential(self, sp_e6, which):
        with pytest.raises(InputError, match=f"{which} needs an essential input vector"):
            self.query(sp_e6, which, PathVector({(2, 1, 2): 1.0}))

    @pytest.mark.parametrize("which", ["coproduct_paths", "decompose"])
    def test_tiny_vector_in_empty_cell(self, sp_e6, which):
        # within tolerance of 0, so essential, but its cell 0|1|11 is empty
        assert sp_e6._cell(0, 1, 11).dim == 0
        with pytest.raises(InputError, match=re.escape(
                f"{which}: cell 0|1|11 of E6 holds no essential path")):
            self.query(sp_e6, which, PathVector({(0, 1) * 6: 1e-12}))

    @pytest.mark.parametrize("which", ["coproduct_paths", "decompose"])
    def test_populated_and_empty_cell(self, sp_e6, which):
        # the empty cell 0|1|11 counts as one of the cells
        assert sp_e6._cell(2, 2, 2).dim and not sp_e6._cell(0, 1, 11).dim
        with pytest.raises(InputError, match=re.escape(
                f"{which} needs a vector with fixed endpoints and homogeneous "
                "length; found 2 cells")):
            self.query(sp_e6, which, PathVector({(2, 1, 2): 1.0, (0, 1) * 6: 1.0}))

    @pytest.mark.parametrize("which", ["coproduct_paths", "decompose"])
    def test_terms_keyed_once(self, e6, which, monkeypatch):
        sp = EssentialSpace(e6)
        e = sp.cell(2, 2, 4).vector(1)
        self.query(sp, which, e)  # the cells are built before counting
        calls = []
        monkeypatch.setattr(essential_module, "path_length",
                            lambda p: calls.append(p) or len(p) - 1)
        self.query(sp, which, e)
        assert len(calls) == len(e) > 1

    @pytest.mark.parametrize("which", ["coproduct_paths", "decompose"])
    @pytest.mark.parametrize("terms,bad,populated", [
        ({(2, 1, 2): 0.5, (2, 0, 2): 1.0}, (2, 0, 2), True),
        ({(0, 2, 0): 1.0}, (0, 2, 0), False),
    ])
    def test_non_path_term(self, sp_e6, which, terms, bad, populated):
        assert bool(sp_e6._cell(bad[0], bad[-1], 2).dim) == populated
        with pytest.raises(InputError, match=re.escape(
                f"term {bad} is not an elementary path")):
            self.query(sp_e6, which, PathVector(terms))


def basis_vectors(sp, max_length=None):
    top = sp.max_length if max_length is None else max_length
    return [cell.vector(i) for n in range(top + 1)
            for cell in sp.grade_basis(n).cells for i in range(cell.dim)]


def agrees_with_gamma_reference(sp, e) -> bool:
    got, want = sp.coproduct_paths(e).terms, gamma_coproduct_paths(sp, e).terms
    return got.keys() == want.keys() and max(abs(got[k] - want[k]) for k in got) <= 1e-12


class TestCoproductAsDeconcatenation:
    """coproduct_paths reads the projected vector at every split instead of
    rebuilding each split from its decomposition; both give the same terms."""

    @pytest.mark.parametrize("name,max_length", [
        ("A2", None), ("A3", None), ("D4", None), ("A6", None), ("E6", None),
        ("D7", None), ("D8", None), ("E7", 11)])
    def test_matches_gamma_reference(self, name, max_length):
        sp = space(build_ade(name[0], int(name[1:])))
        for e in basis_vectors(sp, max_length):
            assert agrees_with_gamma_reference(sp, e)

    @pytest.mark.parametrize("name", ["E6", "D7"])
    def test_legs_are_cell_path_objects(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        for e in basis_vectors(sp):
            for legs, _ in sp.coproduct_paths(e).items():
                for p in legs:
                    cell = sp._cell(p[0], p[-1], len(p) - 1)
                    i = cell.row(p)
                    assert i is not None and cell.paths[i] is p

    def test_small_projected_coefficient_dropped_at_every_split(self, sp_e6):
        rounding_level = 0
        for e in basis_vectors(sp_e6):
            (a, b, total), = {(p[0], p[-1], len(p) - 1) for p, _ in e.items()}
            cell = sp_e6._cell(a, b, total)
            x = np.zeros(len(cell.paths))
            for p, c in e.items():
                x[cell.row(p)] = c
            y = cell.coordinates.T @ (cell.coordinates @ x)
            small = {cell.paths[i] for i in np.flatnonzero(np.abs(y) <= DROP_TOL)}
            rounding_level += int(np.count_nonzero((np.abs(y) <= DROP_TOL) & (y != 0)))
            assert not any(p1 + p2[1:] in small
                           for (p1, p2), _ in sp_e6.coproduct_paths(e).items())
        assert rounding_level  # some small coefficients are not exact zeros

    @pytest.mark.parametrize("name,key,shape", [
        ("D4", (1, 1, 4), (3, 3)), ("E6", (1, 2, 5), (2, 4))])
    def test_transposed_legs_fail_reference(self, name, key, shape, monkeypatch):
        # a block of shape (P1, P2) paired in column-major order, not lex
        sp = EssentialSpace(build_ade(name[0], int(name[1:])))
        cell = sp._cell(*key)
        a, b, total = key
        assert any((len(sp._cell(a, v, s).paths), len(sp._cell(v, b, total - s).paths))
                   == shape for s in range(total + 1)
                   for v in range(sp.graph.n_vertices))
        assert all(agrees_with_gamma_reference(sp, e) for e in cell.vectors)
        monkeypatch.setattr(essential_module, "product",
                            lambda left, right: ((p, q) for q in right for p in left))
        assert not any(agrees_with_gamma_reference(sp, e) for e in cell.vectors)

    def test_path_count_mismatch_raises(self, e6, monkeypatch):
        sp = EssentialSpace(e6)
        e = sp.cell(1, 2, 5).vector(0)
        left = sp._cell(1, 1, 2)
        monkeypatch.setitem(left.__dict__, "paths", left.paths[:-1])
        with pytest.raises(NumericError, match="through 1 are not 1 x 4"):
            sp.coproduct_paths(e)


class TestReconstructAsOneScatter:
    """reconstruct writes the block C_left^T gamma_v C_right of every
    intermediate vertex v into the target cell and projects once."""

    @pytest.mark.parametrize("name", ["A3", "D4", "A6", "E6", "D7", "D8"])
    def test_matches_bullet_reference(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        for total in range(2, sp.max_length + 1):
            for cell in sp.grade_basis(total).cells:
                for e, split in product(cell.vectors, range(1, total)):
                    d = sp.decompose(e, split)
                    got, want = sp.reconstruct(d).terms, bullet_reconstruct(sp, d).terms
                    assert max((abs(got.get(k, 0.0) - want.get(k, 0.0))
                                for k in got.keys() | want.keys()), default=0.0) <= 1e-12

    def test_one_projection_and_no_product(self, e6, monkeypatch):
        sp = EssentialSpace(e6)
        ds = [sp.decompose(e, s) for e in sp.cell(2, 2, 4).vectors for s in (1, 2, 3)]

        def fail(*_):
            raise AssertionError("reconstruct called a product or a sum")

        calls = []
        projected = sp._projected
        monkeypatch.setattr(sp, "_projected",
                            lambda *a: calls.append(a) or projected(*a))
        monkeypatch.setattr(sp, "bullet", fail)
        monkeypatch.setattr(PathVector, "__add__", fail)
        for k, d in enumerate(ds, 1):
            sp.reconstruct(d)
            assert len(calls) == k

    @pytest.mark.parametrize("name", ["A6", "E6"])
    @pytest.mark.parametrize("fault", ["dropped", "negated"])
    def test_planted_fault_fails_decomposition(self, name, fault, monkeypatch):
        # the block of the first intermediate vertex is left out or negated
        sp = EssentialSpace(build_ade(name[0], int(name[1:])))
        assert check_decomposition(sp, VerifyConfig()).passed
        scatter = sp._scatter

        def planted(blocks):
            (cell, left, right, block), *rest = blocks
            first = [] if fault == "dropped" else [(cell, left, right, -block)]
            return scatter(first + rest)

        monkeypatch.setattr(sp, "_scatter", planted)
        rep = check_decomposition(sp, VerifyConfig())
        assert not rep.passed
        assert rep.residual >= 0.5


def reference_decompose(sp, e, split):
    """decompose by the path-space formula, one path pair at a time:
    gamma_{vij} = sum_{p1, p2} <e_i, p1> <e_j, p2> <e, p1 p2>."""
    (a, b, total), = {(p[0], p[-1], len(p) - 1) for p, _ in e.items()}
    entries = []
    for v in range(sp.graph.n_vertices):
        left = sp._cell(a, v, split)
        right = sp._cell(v, b, total - split)
        if not left.dim or not right.dim:
            continue
        x = np.zeros((len(left.paths), len(right.paths)))
        for i1, p1 in enumerate(left.paths):
            for i2, p2 in enumerate(right.paths):
                x[i1, i2] = e.coefficient(p1 + p2[1:])
        gam = np.einsum("ip,jq,pq->ij", left.coordinates, right.coordinates, x)
        entries += [(v, i, j, gam[i, j]) for i in range(left.dim)
                    for j in range(right.dim) if abs(gam[i, j]) > 1e-14]
    return entries


def reference_coproduct(sp, e):
    """coproduct_paths as [a] (x) e + e (x) [b] plus, for each inner split,
    sum gamma_{vij} e_i (x) e_j summed term by term over path pairs."""
    (a, b, total), = {(p[0], p[-1], len(p) - 1) for p, _ in e.items()}
    out = {}

    def put(lv, rv, coeff):
        for p1, c1 in lv.items():
            for p2, c2 in rv.items():
                out[(p1, p2)] = out.get((p1, p2), 0.0) + coeff * c1 * c2

    put(PathVector.single((a,)), e, 1.0)
    if total:
        put(e, PathVector.single((b,)), 1.0)
    for split in range(1, total):
        for v, i, j, gamma in reference_decompose(sp, e, split):
            put(sp._cell(a, v, split).vector(i),
                sp._cell(v, b, total - split).vector(j), gamma)
    return TensorPathVector(out).terms


def reference_structure_constants(sp, n, m):
    """mul[i, j, K] = sum_{p1, p2} <e_i, p1> <e_j, p2> <e_K, p1 p2>, with the
    spliced path p1 p2 looked up by value in the target cell."""
    gn, gm, gt = sp.grade_basis(n), sp.grade_basis(m), sp.grade_basis(n + m)
    out = np.zeros((gn.dim, gm.dim, gt.dim))
    for c1, o1 in zip(gn.cells, gn.offsets):
        for c2, o2 in zip(gm.cells, gm.offsets):
            c3, o3 = gt.cell_at(c1.start, c2.end)
            if c1.end != c2.start or c3 is None:
                continue
            tindex = {p: i for i, p in enumerate(c3.paths)}
            splice = np.array([[tindex[p1 + p2[1:]] for p2 in c2.paths]
                               for p1 in c1.paths])
            out[o1:o1 + c1.dim, o2:o2 + c2.dim, o3:o3 + c3.dim] = np.einsum(
                "ip,jq,Kpq->ijK", c1.coordinates, c2.coordinates,
                c3.coordinates[:, splice], optimize=True)
    return out


@pytest.mark.parametrize("name", ["A3", "D4", "A6", "E6"])
class TestAgainstPathSpaceReference:
    """The block gathers against the one-path-pair-at-a-time formulas, on
    every basis vector and split: the same entries, within 1e-12."""

    def test_decompose_and_coproduct(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        for length in range(sp.max_length + 1):
            for cell in sp.grade_basis(length).cells:
                for e in cell.vectors:
                    got, want = sp.coproduct_paths(e).terms, reference_coproduct(sp, e)
                    assert got.keys() == want.keys()
                    assert max(abs(got[k] - want[k]) for k in got) <= 1e-12
                    for split in range(1, length):
                        got = sp.decompose(e, split).entries
                        want = reference_decompose(sp, e, split)
                        assert [t[:3] for t in got] == [t[:3] for t in want]
                        assert all(abs(g[3] - w[3]) <= 1e-12 for g, w in zip(got, want))

    def test_structure_constants(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        for n in range(sp.max_length + 1):
            for m in range(sp.max_length + 2 - n):
                got = sp.structure_constants(n, m)
                want = reference_structure_constants(sp, n, m)
                assert np.array_equal(np.abs(got) > 1e-14, np.abs(want) > 1e-14)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


class TestBulletAlgebraLaws:
    def test_associative_on_random_essential_triples(self, sp_e6):
        from esspath.verify import VerifyConfig, check_bullet_associativity
        cfg = VerifyConfig(tolerance=1e-9, seed=21, samples=25)
        rep = check_bullet_associativity(sp_e6, cfg)
        assert rep.passed, rep.witness

    @pytest.mark.parametrize("rank, cap, check, witness", [
        (60, 0, "bullet_unit", "50/50 samples"),
        (6, None, "bullet_associativity", "50 random essential triples"),
    ], ids=["A60-bullet_unit", "A6-bullet_associativity"])
    def test_sparse_cells_draw_every_sample(self, rank, cap, check, witness):
        # few (a, b, length) cells hold essential paths here (at length 0
        # only the 60 cells a = b); draws from populated cells never come up
        # short, where rejection sampling drew 31/50 and 27/50
        from esspath.verify import VerifyConfig, run_suite
        rep, = run_suite(EssentialSpace(build_ade("A", rank)), check,
                         VerifyConfig(max_length=cap))
        assert rep.residual == 0.0
        assert rep.passed
        assert rep.witness == witness

    def test_gamma_gram_identity(self, sp_e6):
        # coefficient vectors of one cell's basis are orthonormal per split
        from esspath.verify import VerifyConfig, check_gamma_orthonormality
        cfg = VerifyConfig(tolerance=1e-9)
        rep = check_gamma_orthonormality(sp_e6, cfg)
        assert rep.passed, rep.witness


class TestScaleInvariance:
    def test_rescaled_mu_gives_same_space(self, e6):
        pf = perron_frobenius(e6)
        from esspath import PerronData
        scaled = PerronData(beta=pf.beta, mu=10.0 * pf.mu, kappa=pf.kappa)
        sp1 = EssentialSpace(e6)
        sp2 = EssentialSpace(e6, pf=scaled)
        for length in range(5):
            assert sp1.grade_basis(length).dim == sp2.grade_basis(length).dim
            for a in range(6):
                for b in range(6):
                    c1 = sp1._cell(a, b, length)
                    c2 = sp2._cell(a, b, length)
                    p1 = c1.coordinates.T @ c1.coordinates
                    p2 = c2.coordinates.T @ c2.coordinates
                    assert np.allclose(p1, p2, atol=TOL)


@pytest.mark.parametrize("bad", [0.0, -1e-9, math.inf, math.nan])
def test_tolerances_must_be_finite_and_positive(a3, bad):
    for make in (lambda: EssentialSpace(a3, tol=bad),
                 lambda: VerifyConfig(tolerance=bad)):
        with pytest.raises(InputError, match="tolerances must be finite and positive"):
            make()


class TestCellInvariants:
    """Every cell is checked where it is made: its transfer matrix R when it
    is built, its path coordinates when they are first read."""

    @pytest.mark.parametrize("corrupt", [
        lambda paths, coords: (paths, np.array([[1.0, 0.0]])),  # not essential
        lambda paths, coords: (paths, np.vstack([coords, coords])),  # too many rows
        lambda paths, coords: (paths[::-1], coords),            # wrong path order
    ], ids=["annihilator", "dimension", "paths"])
    def test_invalid_coordinates_raise(self, a3, corrupt):
        sp = EssentialSpace(a3)
        cell = sp._cell(1, 1, 2)  # paths [1,0,1] and [1,2,1], dim 1
        paths, coords = corrupt(cell.paths, cell.coordinates)
        with pytest.raises(NumericError, match=r"cell 1\|1\|2 of A3"):
            sp._checked_cell(1, 1, 2, np.array(paths), coords)

    @staticmethod
    def _constraints(sp, a, b, length):
        """[C_1; ...; C_{l-1}] over the cell's paths, one column per unit
        path vector, from paths.annihilate; rows are the nonzero images."""
        g = sp.graph
        paths = enumerate_paths(g, g.label(a), g.label(b), length)
        images = [{(k, q): c for k in range(1, length)
                   for q, c in annihilate(g, k, PathVector.single(p), sp.pf).items()}
                  for p in paths]
        index = {r: i for i, r in enumerate(sorted(set().union(*images)))}
        mat = np.zeros((len(index), len(paths)))
        for j, image in enumerate(images):
            for r, c in image.items():
                mat[index[r], j] = c
        return mat

    @classmethod
    def _null_space(cls, sp, a, b, length):
        mat = cls._constraints(sp, a, b, length)
        if not mat.size:
            return np.eye(mat.shape[1])
        _, svals, vt = np.linalg.svd(mat)
        return vt[int(np.sum(svals > 1e-10 * svals[0])):]

    @pytest.mark.parametrize("name", ["A3", "D4", "E6"])
    def test_annihilator_residual_matches_dense_constraints(self, name):
        # the grouped re-check against the dense matrix, on coordinates that
        # are not essential, so that every C_k has a nonzero image
        sp = EssentialSpace(build_ade(name[0], int(name[1:])))
        rng = np.random.default_rng(5)
        checked = 0
        for length in range(2, 7):
            for a in range(sp.graph.n_vertices):
                for b in range(sp.graph.n_vertices):
                    g = sp.graph
                    walks = np.array(enumerate_paths(g, g.label(a), g.label(b), length))
                    if not walks.size:
                        continue
                    coords = rng.standard_normal((2, len(walks)))
                    mat = self._constraints(sp, a, b, length)
                    worst = sp._annihilator_residual(walks, coords)
                    dense = np.max(np.abs(mat @ coords.T), initial=0.0)
                    assert worst == pytest.approx(dense, rel=1e-12, abs=1e-15)
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("name", ["A3", "D4", "A6", "E6", "A60", "affine-D4"])
    def test_projectors_match_path_space_null_space(self, name):
        # independent of the length recursion: the null space of the stacked
        # constraints [C_1; ...; C_{l-1}] over the cell's elementary paths
        if name == "affine-D4":  # spectral radius 2, no Coxeter number
            from esspath import parse_graph
            g = parse_graph(json.dumps({
                "vertices": ["c", "1", "2", "3", "4"],
                "edges": [["c", "1"], ["c", "2"], ["c", "3"], ["c", "4"]],
            }))
        else:
            g = build_ade(name[0], int(name[1:]))
        sp = EssentialSpace(g)
        cap = 4 if sp.max_length is None or sp.max_length > 10 else sp.max_length
        checked = 0
        for length in range(cap + 1):
            for a in range(g.n_vertices):
                for b in range(g.n_vertices):
                    cell = sp._cell(a, b, length)
                    null = self._null_space(sp, a, b, length)
                    assert cell.dim == null.shape[0]
                    if cell.dim:
                        got = cell.coordinates.T @ cell.coordinates
                        assert np.max(np.abs(got - null.T @ null)) <= 1e-12
                        checked += 1
        assert checked > 0

    def test_scaled_transfer_row_raises(self, d4, monkeypatch):
        kernels = EssentialSpace._kernels

        def scaled(self, stack):
            vt = kernels(self, stack)
            rows = stack.shape[1]
            vt[:, rows:rows + 1] *= 1.5  # every cell with a real constraint
            return vt

        monkeypatch.setattr(EssentialSpace, "_kernels", scaled)
        with pytest.raises(NumericError, match=r"of D4: \|Q Q\^T - I\| is 1.25 "):
            EssentialSpace(d4).dims()

    def test_wrong_kernel_of_right_size_raises(self, d4, monkeypatch):
        kernels = EssentialSpace._kernels

        def wrong(self, stack):
            # rows[rows:] are the first unit vectors, not the kernel
            rows, cols = stack.shape[1:]
            kernels(self, stack)
            return np.stack([np.roll(np.eye(cols), rows, axis=0)] * len(stack))

        monkeypatch.setattr(EssentialSpace, "_kernels", wrong)
        with pytest.raises(NumericError, match=r"^cell \d+\|\d+\|\d+ of D4: \|Q Q\^T - I\|"):
            EssentialSpace(d4).dims()

    def test_fault_in_one_member_of_a_stack_names_that_cell(self, e6, monkeypatch):
        # one scaled kernel row, in the last member with a nonempty kernel of
        # the first stack where that member is not the first
        kernels = EssentialSpace._kernels
        planted = []

        def faulty(self, stack):
            vt = kernels(self, stack)
            rows, cols = stack.shape[1:]
            if not planted and rows < cols and len(stack) > 1:
                vt[-1, rows] *= 1.5
                planted.append((stack[-1].copy(), stack[0].copy()))
            return vt

        monkeypatch.setattr(EssentialSpace, "_kernels", faulty)
        with pytest.raises(NumericError, match=r"\|Q Q\^T - I\| is 1.25 ") as raised:
            EssentialSpace(e6).dims()
        (faulty_k, first_k), = planted
        built = EssentialSpace(e6)
        built.dims()
        solved = [key for key in built_cells(built) if all(candidates_and_rows(built, *key))]

        def cells_with(k):
            return [key for key in solved if np.array_equal(constraint_matrix(built, *key), k)]

        (a, b, length), = cells_with(faulty_k)
        assert (a, b, length) not in cells_with(first_k)
        assert str(raised.value).startswith(f"cell {a}|{b}|{length} of E6: ")

    @pytest.mark.parametrize("name", ["E6", "five-leaf star", "affine D4", "5-cycle"])
    def test_lost_kernel_vector_raises(self, monkeypatch, name):
        # one member of one stack loses a kernel vector to a vector of its
        # K's row space: the basis keeps its size and is orthonormal, but K
        # does not annihilate it, on graphs without a Coxeter number too
        g = builtin_graph(name) if name == "E6" else edge_graph(OTHER_GRAPHS[name])
        cap = None if name == "E6" else 6
        built = EssentialSpace(g)
        built.dims(cap)
        planted = swap_kernel_vector(monkeypatch)
        with pytest.raises(NumericError) as raised:
            EssentialSpace(g).dims(cap)
        assert_names_swapped_cell(raised, g.name, planted,
                                  lambda key: constraint_matrix(built, *key))

    @pytest.mark.parametrize("name", ["E6", "A6", "five-leaf star", "5-cycle"])
    def test_weight_fault_raises(self, name):
        # one constraint weight off by 1e-8: every kernel keeps its size and
        # is orthonormal, and its path-space residuals stay near 1e-8, but
        # K K^T = c_l I fails at the first K that reads the weight
        g = builtin_graph(name) if name in ("E6", "A6") else edge_graph(OTHER_GRAPHS[name])
        sp = EssentialSpace(g)
        b = scale_weight(sp)
        with pytest.raises(NumericError, match=rf"^cell {b}\|{b}\|2 of {re.escape(g.name)}: "
                                               r"\|Q Q\^T - I\| is "):
            sp.dims(None if sp.max_length is not None else 6)

    @pytest.mark.parametrize("name", ["E6", "five-leaf star"])
    def test_block_at_wrong_column_raises(self, monkeypatch, name):
        # one block of one K written a column to the left of its place, over
        # the last column of the block before it, and then solved: its
        # kernel is orthonormal and annihilated by the wrong K
        g = builtin_graph(name) if name == "E6" else edge_graph(OTHER_GRAPHS[name])
        cap = None if name == "E6" else 6
        built = EssentialSpace(g)
        built.dims(cap)
        k, lo, hi, length = next(
            (k, lo, hi, key[2]) for key in built_cells(built)
            if all(candidates_and_rows(built, *key))
            for k in [constraint_matrix(built, *key)]
            for lo, hi in [sorted((s.start, s.stop) for s in built._cell(*key).blocks.values()
                                  if s.stop > s.start)[-1]]
            if lo and k[:, lo - 1].any())
        kernels = EssentialSpace._kernels
        planted = []

        def shifted(self, stack):
            for t, member in enumerate(stack):  # views of the build's own K
                if (not planted and len(self._grade_dims) == length
                        and np.array_equal(member, k)):
                    member[:, lo - 1:hi - 1] = k[:, lo:hi]
                    member[:, hi - 1] = 0.0
                    planted.append(t)
            return kernels(self, stack)

        monkeypatch.setattr(EssentialSpace, "_kernels", shifted)
        with pytest.raises(NumericError) as raised:
            EssentialSpace(g).dims(cap)
        assert planted
        a, b, got = map(int, re.match(rf"cell (\d+)\|(\d+)\|(\d+) of {re.escape(g.name)}: "
                                      r"\|Q Q\^T - I\| is ", str(raised.value)).groups())
        assert got == length
        assert np.array_equal(constraint_matrix(built, a, b, length), k)

    def test_wrong_stored_transfer_fails_path_check(self, a3):
        import dataclasses
        sp = EssentialSpace(a3)
        cell = sp._cell(1, 1, 2)
        # candidates [1,0] (x) [0,1] and [1,2] (x) [2,1]; the kernel of
        # C_1 mixes both, a single candidate is not essential
        sp._cells[(1, 1, 2)] = dataclasses.replace(
            cell, transfer=np.array([[1.0, 0.0]]))
        with pytest.raises(NumericError, match="annihilator residual"):
            sp._cell(1, 1, 2).coordinates

    def test_dropped_space_is_freed_without_a_collection(self, a3):
        # cells refer to their space weakly, so no reference cycle keeps a
        # dropped space (and all its cell data) alive
        import weakref
        sp = EssentialSpace(a3)
        sp.dims()
        sp.structure_constants(1, 1)
        sp.star_matrix(1)
        cell = sp._cell(1, 1, 2)
        cell.coordinates
        gone = weakref.ref(sp)
        del sp
        assert gone() is None
        assert cell.dim == 1
        fresh = EssentialSpace(a3)._cell(1, 1, 0)  # path coordinates never read
        with pytest.raises(EsspathError, match="no longer exists"):
            fresh.paths

    def test_dims_enumerate_no_paths(self, monkeypatch):
        import esspath.essential

        def refuse(*args):
            raise AssertionError("enumerate_paths called")

        monkeypatch.setattr(esspath.essential, "enumerate_paths", refuse)
        sp = EssentialSpace(builtin_graph("E8"))
        assert sp.dims() == list(fused_matrices(sp.graph).sums)


ALL_BUILTINS = ([f"A{n}" for n in range(2, 13)] + [f"D{n}" for n in range(4, 9)]
                + ["E6", "E7", "E8"])


def built_cells(sp):
    """Every (a, b, length) of the grades ``sp`` has built, in the order
    the grades build them: by length, then start, then end."""
    n = sp.graph.n_vertices
    return [(a, b, length) for length in range(len(sp._grade_dims))
            for a in range(n) for b in range(n)]


def constraint_matrix(sp, a, b, length):
    """The constraint matrix K of a built cell with candidates and
    constraint rows, from the cells (a, v, length - 1), v ~ b."""
    mu = sp.pf.mu
    return np.hstack([math.sqrt(mu[v] / mu[b]) * c.transfer[:, c.blocks[b]].T
                      for v in sp.graph.neighbors[b] for c in [sp._cell(a, v, length - 1)]])


def candidates_and_rows(sp, a, b, length):
    """The sizes of the constraint matrix K of a built cell: its candidates
    and the dimension of the cell (a, b, length - 2)."""
    if length == 0:
        return int(a == b), 0
    count = sum(sp._cell(a, v, length - 1).dim for v in sp.graph.neighbors[b])
    return count, sp._cell(a, b, length - 2).dim if length > 1 else 0


OTHER_GRAPHS = {  # graphs without a Coxeter number, by their edges
    "triangle": [("a", "b"), ("b", "c"), ("c", "a")],
    "4-cycle": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    "5-cycle": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    "6-cycle with a leaf": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
                            ("f", "a"), ("c", "x")],
    "affine D4": [("c", "1"), ("c", "2"), ("c", "3"), ("c", "4")],
    "five-leaf star": [("c", "1"), ("c", "2"), ("c", "3"), ("c", "4"), ("c", "5")],
    "K4": [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
}


def edge_graph(edges):
    from esspath import parse_graph
    vertices = sorted({v for edge in edges for v in edge})
    return parse_graph(json.dumps({"vertices": vertices, "edges": edges}), allow_cycles=True)


def swap_kernel_vector(monkeypatch, at_length=None):
    """Patch `_kernels` so that the last member of the first stack with a
    nonempty kernel (in grade ``at_length`` when given) trades its first
    kernel row for the last row of its K's row space: its R keeps its size
    and is orthonormal, but has lost a kernel vector.  Returns the list that
    receives (length, K) of that member."""
    kernels = EssentialSpace._kernels
    planted = []

    def swapped(self, stack):
        vt = kernels(self, stack)
        rows, cols = stack.shape[1:]
        length = len(self._grade_dims)  # the grade being built
        if not planted and rows < cols and at_length in (None, length):
            vt[-1, [rows - 1, rows]] = vt[-1, [rows, rows - 1]]
            planted.append((length, stack[-1].copy()))
        return vt

    monkeypatch.setattr(EssentialSpace, "_kernels", swapped)
    return planted


def assert_names_swapped_cell(raised, graph_name, planted, k_of):
    """The NumericError in ``raised`` names a cell whose K, read by ``k_of``
    from a fault-free build, is the K that `swap_kernel_vector` planted, and
    its |Q Q^T - I|: about 1, as K does not annihilate the swapped row."""
    (length, k), = planted
    match = re.fullmatch(r"cell (\d+)\|(\d+)\|(\d+) of (.+): \|Q Q\^T - I\| is (\S+) for "
                         r"Q = \[K / sqrt\(c_(\d+)\); R\], not within tolerance 1e-09",
                         str(raised.value))
    a, b, got, name, worst, c_of = match.groups()
    assert (int(got), int(c_of), name) == (length, length, graph_name)
    assert np.array_equal(k_of((int(a), int(b), length)), k)
    assert 0.1 < float(worst) <= 2.0


def scale_weight(sp, factor=1 + 1e-8):
    """Scale the constraint weight sqrt(mu_v / mu_b) of the first edge
    (v, b) of ``sp``'s graph, before its first build.  Returns b: the first
    K to read the weight is that of the cell (b, b, 2), the only cell of
    grade 2 to read it, [sqrt(mu_u / mu_b)] over u ~ b."""
    v, b = sp.graph.edges[0]
    sp._weight[v][b] *= factor
    return b


class TestIdentityTransfers:
    """A cell with no candidate or no constraint row takes R = I without a
    kernel solve, and has nothing to check; the other cells of a grade are
    solved in one stacked SVD per shape of K, and each K and R must make
    [K / sqrt(c_l); R] orthogonal.  The transfers are compared bit for bit
    with `per_cell_transfers`, which reads each kernel with a rank threshold
    of its own, and every dimension matrix with the fused matrices, an
    oracle independent of the build."""

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_cells_match_kernel_route(self, name):
        # bit for bit against one SVD per cell, built without EssentialSpace
        g = builtin_graph(name)
        sp = EssentialSpace(g)
        fused = fused_matrices(g).matrices
        assert sp.dims() == [int(m.sum()) for m in fused]
        assert len(sp._grade_dims) == len(fused) + 1  # and the first empty grade
        for length, dims in enumerate(sp._grade_dims):
            want = fused[length] if length < len(fused) else np.zeros_like(dims)
            assert np.array_equal(dims, want), length
        ref = per_cell_transfers(g, sp.max_length + 1)
        assert ref.keys() == set(built_cells(sp))
        for key in built_cells(sp):
            cell, (transfer, blocks) = sp._cell(*key), ref[key]
            assert cell.transfer.shape == transfer.shape, key
            assert np.array_equal(cell.transfer, transfer), key
            assert cell.blocks == blocks, key

    @pytest.mark.parametrize("name", ["triangle", "4-cycle", "6-cycle with a leaf",
                                      "affine D4", "five-leaf star", "5-cycle", "K4"])
    def test_cells_match_kernel_route_without_coxeter_number(self, name):
        # on a cycle an identity cell can have several nonzero candidate
        # blocks, so the one a longer cell's K reads may not start at column 0
        g = edge_graph(OTHER_GRAPHS[name])
        cap = 6
        sp = EssentialSpace(g)
        sp.dims(cap)
        ref = per_cell_transfers(g, cap)
        assert ref.keys() == set(built_cells(sp))
        for key in built_cells(sp):
            cell, (transfer, blocks) = sp._cell(*key), ref[key]
            assert cell.transfer.shape == transfer.shape, key
            assert np.array_equal(cell.transfer, transfer), key
            assert cell.blocks == blocks, key

    @pytest.mark.parametrize("name,solved", [("E6", 126), ("D7", 155)])
    def test_kernel_only_with_candidates_and_constraints(self, name, solved,
                                                         monkeypatch):
        shapes = []
        kernels = EssentialSpace._kernels

        def counted(self, stack):
            shapes.extend([stack.shape[1:]] * len(stack))
            return kernels(self, stack)

        monkeypatch.setattr(EssentialSpace, "_kernels", counted)
        sp = EssentialSpace(builtin_graph(name))
        sp.dims()
        both = [key for key in built_cells(sp) if all(candidates_and_rows(sp, *key))]
        assert len(shapes) == len(both) == solved
        assert sorted(shapes) == sorted(candidates_and_rows(sp, *key)[::-1]
                                        for key in both)


class TestWenzlIdentity:
    """Every solved K satisfies K K^T = ([l] / [l - 1]) I (Wenzl, 1987), so
    the build reads each rank as a row count and checks each cell within
    the space's one tolerance, down to 1e-14."""

    @pytest.mark.parametrize("name", ["A6", "E6", "E8", "five-leaf star", "5-cycle", "K4"])
    def test_every_constraint_matrix_satisfies_identity(self, name):
        # K from the cell objects and [k] from the float recurrence
        # [k] = beta [k - 1] - [k - 2], not from the build's sine formula
        g = builtin_graph(name) if name[0] in "ADE" else edge_graph(OTHER_GRAPHS[name])
        sp = EssentialSpace(g)
        sp.dims(None if sp.max_length is not None else 6)
        q = [0.0, 1.0]
        while len(q) < len(sp._grade_dims):
            q.append(sp.pf.beta * q[-1] - q[-2])
        solved = [key for key in built_cells(sp) if all(candidates_and_rows(sp, *key))]
        for a, b, length in solved:
            k = constraint_matrix(sp, a, b, length)
            want = q[length] / q[length - 1] * np.eye(len(k))
            assert np.max(np.abs(k @ k.T - want)) <= 1e-11, (a, b, length)
        assert solved

    @pytest.mark.parametrize("name", ["A1"] + ALL_BUILTINS)
    def test_tight_tolerance_keeps_dims(self, name):
        g = builtin_graph(name)
        assert EssentialSpace(g, tol=1e-14).dims() == EssentialSpace(g).dims()

    @pytest.mark.parametrize("name", OTHER_GRAPHS)
    def test_tight_tolerance_keeps_dims_without_coxeter_number(self, name):
        g = edge_graph(OTHER_GRAPHS[name])
        assert EssentialSpace(g, tol=1e-14).dims(7) == EssentialSpace(g).dims(7)


class TestCellsMadeOnRead:
    """A grade is kept as arrays; a cell object is made on the first read
    of the cell, and `dims` reads none."""

    @staticmethod
    def refuse_cell_objects(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell object was made")

        monkeypatch.setattr(essential_module, "EssentialCellBasis", refuse)
        monkeypatch.setattr(essential_module, "GradeBasis", refuse)

    def test_dims_makes_no_cell_object(self, monkeypatch):
        g = builtin_graph("E8")
        self.refuse_cell_objects(monkeypatch)
        assert EssentialSpace(g).dims() == list(fused_matrices(g).sums)

    def test_dims_still_checks_each_cell(self, monkeypatch):
        # a weight fault planted just before the last grade with a solved
        # cell, so every earlier grade passes and that grade must fail
        g = builtin_graph("E8")
        built = EssentialSpace(g)
        built.dims()
        length = max(k for k, solved in enumerate(built._solved) if solved)
        sp = EssentialSpace(g)
        sp._built(length - 1)
        scale_weight(sp)
        self.refuse_cell_objects(monkeypatch)
        with pytest.raises(NumericError, match=rf"^cell \d+\|\d+\|{length} of E8: "
                                               r"\|Q Q\^T - I\| is "):
            sp.dims()

    @pytest.mark.parametrize("name", ["E6", "D7"])
    def test_first_read_after_dims_matches_a_fresh_space(self, name):
        g = builtin_graph(name)
        sp = EssentialSpace(g)
        sp.dims()
        for length in range(len(sp._grade_dims)):
            fresh = EssentialSpace(g)  # its first read builds the grades up to length
            for a, b in product(range(g.n_vertices), repeat=2):
                got, want = sp._cell(a, b, length), fresh._cell(a, b, length)
                assert got.transfer.shape == want.transfer.shape, (a, b, length)
                assert np.array_equal(got.transfer, want.transfer), (a, b, length)
                assert got.blocks == want.blocks, (a, b, length)
            assert len(fresh._grade_dims) == length + 1
