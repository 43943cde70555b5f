"""Graded endomorphism algebra: products, coproducts, weak-bialgebra checks,
antipode obstruction, star operation."""

import math
from functools import lru_cache

import numpy as np
import pytest

from esspath import (
    EndoTensor,
    EssentialSpace,
    InputError,
    antipode_infeasibility,
    build_ade,
    check_comonoidality,
    check_delta_homomorphism,
    check_gram_condition,
    check_star,
    check_unit_not_grouplike,
    conv_bullet,
    convolution_coproduct,
    coproduct,
    counit,
    essential_algebra,
    space,
    truncated_paths_algebra,
    unit_endo,
)
from esspath import endo, essential
from esspath.endo import check_coalgebra_axioms, check_convolution_coproduct
from esspath.graphs import fused_matrices

TOL = 1e-9


def rho(sp, name):
    """A2 generators by name over the canonical basis order (a1,a2 | r,l)."""
    table = {
        "11": (0, 0, 0), "12": (0, 0, 1), "21": (0, 1, 0), "22": (0, 1, 1),
        "rr": (1, 0, 0), "rl": (1, 0, 1), "lr": (1, 1, 0), "ll": (1, 1, 1),
    }
    return EndoTensor.monomial(sp, *table[name])


def random_blocks(sp, rng, grades=None):
    return {n: rng.standard_normal((d, d)) for n, d in enumerate(sp.dims())
            if d and (grades is None or n in grades)}


def random_endo(sp, rng, grades=None):
    return EndoTensor.from_blocks(sp, random_blocks(sp, rng, grades))


def grades(r):
    """The populated grades of an element of B."""
    return sorted(n for (n,) in r.dense_blocks())


class TestCompose:
    def test_matrix_units(self, sp_a2):
        assert (rho(sp_a2, "12").compose(rho(sp_a2, "21"))
                - rho(sp_a2, "11")).norm() <= TOL

    def test_cross_grade_zero(self, sp_a2):
        assert rho(sp_a2, "12").compose(rho(sp_a2, "rr")).norm() == 0.0
        assert rho(sp_a2, "rr").compose(rho(sp_a2, "12")).norm() == 0.0

    def test_identity_blocks(self, sp_a3):
        rng = np.random.default_rng(0)
        r = random_endo(sp_a3, rng)
        one = EndoTensor.identity(sp_a3, range(len(sp_a3.dims())))
        assert (one.compose(r) - r).norm() <= 1e-12
        assert (r.compose(one) - r).norm() <= 1e-12

    def test_associative(self, sp_d4):
        rng = np.random.default_rng(1)
        a, b, c = (random_endo(sp_d4, rng) for _ in range(3))
        assert (a.compose(b).compose(c)
                - a.compose(b.compose(c))).norm() <= 1e-9


class TestConvBullet:
    def test_grade_one_squares_vanish_on_a2(self, sp_a2):
        for x in ("rr", "rl", "lr", "ll"):
            for y in ("rr", "rl", "lr", "ll"):
                assert conv_bullet(rho(sp_a2, x), rho(sp_a2, y)).norm() == 0.0

    def test_action_of_grade_zero(self, sp_a2):
        # (a1 (x) a1) * (r (x) r) = r (x) r since a1 * r = r
        assert (conv_bullet(rho(sp_a2, "11"), rho(sp_a2, "rr"))
                - rho(sp_a2, "rr")).norm() <= TOL
        assert conv_bullet(rho(sp_a2, "22"), rho(sp_a2, "rr")).norm() == 0.0

    def test_unit(self, sp_a3):
        rng = np.random.default_rng(2)
        one = unit_endo(sp_a3)
        r = random_endo(sp_a3, rng)
        assert (conv_bullet(one, r) - r).norm() <= 1e-10
        assert (conv_bullet(r, one) - r).norm() <= 1e-10

    def test_grade_additive(self, sp_e6):
        r = EndoTensor.monomial(sp_e6, 2, 0, 1)
        s = EndoTensor.monomial(sp_e6, 3, 2, 2)
        assert grades(conv_bullet(r, s)) in ([], [5])

    def test_associative(self, sp_d4):
        rng = np.random.default_rng(3)
        a = random_endo(sp_d4, rng, grades={0, 1})
        b = random_endo(sp_d4, rng, grades={0, 2})
        c = random_endo(sp_d4, rng, grades={0, 1})
        assert (conv_bullet(conv_bullet(a, b), c)
                - conv_bullet(a, conv_bullet(b, c))).norm() <= 1e-8


class TestUnitCounit:
    def test_counit_of_unit_counts_vertices(self, sp_a2, sp_e6):
        assert counit(unit_endo(sp_a2)) == pytest.approx(2.0)
        assert counit(unit_endo(sp_e6)) == pytest.approx(6.0)

    def test_counit_is_trace(self, sp_a2):
        assert counit(rho(sp_a2, "12")) == 0.0
        assert counit(rho(sp_a2, "11")) == 1.0
        assert counit(rho(sp_a2, "rr")) == 1.0

    def test_unit_block_is_all_ones(self, sp_e6):
        blocks = unit_endo(sp_e6).dense_blocks()
        assert list(blocks) == [(0,)]
        assert np.array_equal(blocks[(0,)], np.ones((6, 6)))

    def test_counit_laws(self, sp_d4):
        rng = np.random.default_rng(4)
        r = random_endo(sp_d4, rng)
        d = coproduct(r)
        assert (d.contract_counit(0) - r).norm() <= 1e-10
        assert (d.contract_counit(1) - r).norm() <= 1e-10


class TestCoproduct:
    def test_a2_rr_expands_over_grade_one_basis(self, sp_a2):
        d = coproduct(rho(sp_a2, "rr"))
        expect = {
            (((1, 0, 0)), ((1, 0, 0))): 1.0,  # (r (x) r#) (x) (r (x) r#)
            (((1, 0, 1)), ((1, 1, 0))): 1.0,  # (r (x) l#) (x) (l (x) r#)
        }
        assert d.terms == expect

    def test_coassociative(self, sp_e6):
        r = EndoTensor.monomial(sp_e6, 2, 3, 5, 1.7)
        d = coproduct(r)
        assert (d.coproduct_leg(0) - d.coproduct_leg(1)).norm() <= 1e-12

    def test_unit_not_grouplike(self, sp_a2, sp_e6):
        for sp, nverts in ((sp_a2, 2), (sp_e6, 6)):
            rep = check_unit_not_grouplike(sp)
            assert rep.passed
            # squared gap: |V|^3 - 2|V|^2 + |V|^2 (|V|-1) terms of 1
            one = unit_endo(sp)
            gap = (coproduct(one) - one.tensor(one)).norm()
            assert rep.residual == pytest.approx(gap)
            assert gap > 0.5

    def test_convolution_coproduct_on_a2(self, sp_a2):
        # cuts of r (x) r#: (a1 (x) a1#) (x) (r (x) r#) + (r (x) r#) (x) (a2 (x) a2#)
        d = convolution_coproduct(rho(sp_a2, "rr"))
        expect = {
            ((0, 0, 0), (1, 0, 0)): 1.0,
            ((1, 0, 0), (0, 1, 1)): 1.0,
        }
        assert d.terms == expect

    def test_convolution_coproduct_grouplike_on_grade_zero(self, sp_a2):
        d = convolution_coproduct(rho(sp_a2, "11"))
        assert d.terms == {((0, 0, 0), (0, 0, 0)): 1.0}


class TestDeltaHomomorphism:
    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_small_graphs(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        rep = check_delta_homomorphism(sp)
        assert rep.passed, rep.witness
        assert rep.residual <= 1e-9

    def test_e6(self, sp_e6):
        rep = check_delta_homomorphism(sp_e6)
        assert rep.passed
        assert rep.residual <= 1e-9

    def test_e6_restricted_cell_gram(self, sp_e6):
        # the length (2,2) -> 4 Gram matrix restricted to the loop cell at 2
        mul = sp_e6.structure_constants(2, 2)
        gb4 = sp_e6.grade_basis(4)
        cell, off = gb4.cell_at(2, 2)
        gram = np.einsum("ijK,ijL->KL", mul[:, :, off:off + cell.dim],
                         mul[:, :, off:off + cell.dim])
        assert np.max(np.abs(gram - np.eye(cell.dim))) <= 1e-10

    def test_truncated_paths_instance(self, sp_a3):
        alg = truncated_paths_algebra(sp_a3.graph, 4)
        rep = check_gram_condition(alg, tol=0.0)
        assert rep.passed
        assert rep.residual == 0.0

    def test_essential_algebra_wrapper(self, sp_a2):
        alg = essential_algebra(sp_a2)
        assert alg.dims == {0: 2, 1: 2}
        rep = check_gram_condition(alg)
        assert rep.passed

    def test_dual_direction(self, sp_a3):
        rep = check_convolution_coproduct(sp_a3)
        assert rep.passed
        assert rep.residual <= 1e-10

    def test_exhaustive_monomial_pairs_on_a2(self, sp_a2):
        # every one of the 64 monomial pairs, not just random samples
        import itertools
        from esspath import coproduct
        monos = [(n, i, j) for n in (0, 1) for i in range(2) for j in range(2)]
        worst = 0.0
        for m1, m2 in itertools.product(monos, repeat=2):
            r1 = EndoTensor.monomial(sp_a2, *m1)
            r2 = EndoTensor.monomial(sp_a2, *m2)
            lhs = coproduct(conv_bullet(r1, r2))
            rhs = coproduct(r1).bullet(coproduct(r2))
            worst = max(worst, (lhs - rhs).norm())
        assert worst <= 1e-12


class TestComonoidality:
    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_small(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        rep = check_comonoidality(sp)
        assert rep.passed
        assert rep.residual <= 1e-9

    def test_raw_term_count(self, sp_a2):
        d2 = coproduct(unit_endo(sp_a2)).coproduct_leg(0)
        assert len(d2) == 2 ** 4

    def test_weak_counit_multiplicativity_fails(self, sp_a2):
        from esspath.endo import counit_weak_multiplicativity_residual
        assert counit_weak_multiplicativity_residual(sp_a2) >= 0.5

    @pytest.mark.parametrize("caps", [(1, 3), (2, 4), (3, 3), (0, 4)])
    @pytest.mark.parametrize("name", ["A2", "A3", "D4", "A6", "E6"])
    def test_counit_scan_matches_triple_loop(self, name, caps):
        from esspath.endo import counit_weak_multiplicativity_residual
        sp = shared_space(name)
        assert (counit_weak_multiplicativity_residual(sp, *caps)
                == reference_counit_weak_mult(sp, *caps))


def reference_counit_weak_mult(sp, max_grade, index_cap):
    """The counit scan as one Python loop over monomial triples."""
    sizes = [sp.grade_basis(n).dim for n in range(max_grade + 1)]
    monos = [
        (n, i, j)
        for n in range(max_grade + 1)
        for i in range(min(sizes[n], index_cap))
        for j in range(min(sizes[n], index_cap))
    ]
    worst = 0.0
    for n, i, j in monos:
        for m, k, l in monos:
            m_nm = sp.structure_constants(n, m)
            for s, p, q in monos:
                m_ts = sp.structure_constants(n + m, s)
                if m_ts.shape[2]:
                    full = float((m_nm[i, k] @ m_ts[:, p, :])
                                 @ (m_nm[j, l] @ m_ts[:, q, :]))
                else:
                    full = 0.0
                m_ms = sp.structure_constants(m, s)
                if m_ms.shape[2]:
                    split1 = float((m_nm[j] @ m_nm[i, k])
                                   @ (m_ms[:, p, :] @ m_ms[l, q]))
                    split2 = float((m_nm[i] @ m_nm[j, l])
                                   @ (m_ms[:, q, :] @ m_ms[k, p]))
                else:
                    split1 = split2 = 0.0
                worst = max(worst, abs(full - split1), abs(full - split2))
    return worst


MATMUL_GRAPHS = ("A2", "A3", "D4", "A6", "E6", "D7")


def populated_pairs(sp, budget=None):
    """The grade pairs (n, m) with a populated target grade n + m; with a
    budget, only those where dn^2 dm^2 dt^2, the size of an unoptimized
    einsum over two endomorphisms and two structure-constant tensors, is
    within it."""
    d = sp.dims()
    return [(n, m) for n in range(len(d)) for m in range(len(d) - n)
            if budget is None or (d[n] * d[m] * d[n + m]) ** 2 <= budget]


def monomial_batch(sp, rng, n, count):
    """``count`` random-coefficient matrix units of grade n, shape (count, d, d)."""
    d = sp.grade_basis(n).dim
    out = np.zeros((count, d, d))
    out[np.arange(count), rng.integers(d, size=count), rng.integers(d, size=count)] = (
        rng.standard_normal(count))
    return out


def einsum_ref(subscripts, *operands):
    return np.einsum(subscripts, *operands, optimize=False)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13


@pytest.mark.parametrize("name", MATMUL_GRAPHS)
class TestContractionsAsMatmuls:
    """Each structure-constant contraction, written as reshapes and matmuls,
    against np.einsum of its subscripts without optimization, within 1e-13."""

    def test_structure_constants(self, name):
        sp = shared_space(name)
        for n, m in populated_pairs(sp):
            gn, gm, gt = sp.grade_basis(n), sp.grade_basis(m), sp.grade_basis(n + m)
            want = np.zeros((gn.dim, gm.dim, gt.dim))
            for c1, o1 in zip(gn.cells, gn.offsets):
                for c2, o2 in zip(gm.cells, gm.offsets):
                    c3, o3 = gt.cell_at(c1.start, c2.end)
                    if c1.end == c2.start and c3 is not None:
                        want[o1:o1 + c1.dim, o2:o2 + c2.dim, o3:o3 + c3.dim] = einsum_ref(
                            "ip,jq,Kpq->ijK", c1.coordinates, c2.coordinates,
                            essential._through(c3.coordinates, c3, c1, c2))
            assert_close(sp.structure_constants(n, m), want)

    def test_conv_bullet_and_batched_bullet(self, name):
        sp = shared_space(name)
        rng = np.random.default_rng(40)
        for n, m in populated_pairs(sp, budget=2e6):
            mul = sp.structure_constants(n, m)
            x, y = monomial_batch(sp, rng, n, 3), monomial_batch(sp, rng, m, 2)
            got = conv_bullet(EndoTensor.from_blocks(sp, {n: x[0]}),
                              EndoTensor.from_blocks(sp, {m: y[0]})).dense_blocks()
            want = einsum_ref("ij,kl,ikK,jlL->KL", x[0], y[0], mul, mul)
            assert_close(got.get((n + m,), np.zeros_like(want)), want)
            # EndoTensor.bullet runs this contraction once per leg
            want = einsum_ref("tij,skl,ikK,jlL->tsKL", x, y, mul, mul)
            assert_close(endo._convolve(x, y, mul), want)

    def test_tensor_star(self, name):
        sp = shared_space(name)
        rng = np.random.default_rng(41)
        dims = sp.dims()
        for n in range(len(dims)):
            m = len(dims) - 1 - n
            x, y = monomial_batch(sp, rng, n, 3), monomial_batch(sp, rng, m, 3)
            got = EndoTensor._of(sp, 2, [((n, m), (x, y))]).star().dense_blocks()
            tn, tm = sp.star_matrix(n), sp.star_matrix(m)
            want = einsum_ref("tij,tkl->ijkl", einsum_ref("pi,tij,qj->tpq", tn, x, tn),
                              einsum_ref("pi,tij,qj->tpq", tm, y, tm))
            assert_close(got.get((n, m), np.zeros_like(want)), want)

    def test_convolution_coproduct(self, name):
        sp = shared_space(name)
        rng = np.random.default_rng(42)
        cheap = populated_pairs(sp, budget=2e6)
        for n in range(len(sp.dims())):
            mat = monomial_batch(sp, rng, n, 1)[0]
            got = convolution_coproduct(EndoTensor.from_blocks(sp, {n: mat})).dense_blocks()
            for s in (s for s in range(n + 1) if (n - s, s) in cheap):
                mul = sp.structure_constants(n - s, s)
                want = einsum_ref("ab,ija,klb->ikjl", mat, mul, mul)
                assert_close(got.get((n - s, s), np.zeros_like(want)), want)

    def test_gram_matrices(self, name):
        sp = shared_space(name)
        for n, m in populated_pairs(sp):
            mul = sp.structure_constants(n, m)
            assert_close(endo._gram(mul), einsum_ref("ijK,ijL->KL", mul, mul))


ANTIPODE_GRAPHS = ("A2", "A3", "A4", "D4", "D5", "A6", "E6", "D7", "D8")


@lru_cache(maxsize=None)
def fused_sums(name):
    return fused_matrices(build_ade(name[0], int(name[1:]))).sums


@lru_cache(maxsize=None)
def shared_space(name):
    return space(build_ade(name[0], int(name[1:])))


class TestAntipode:
    def test_a2_full_system(self, sp_a2):
        rep = antipode_infeasibility(sp_a2, 1)
        assert rep.passed
        # two diagonal monomials, each contributing |V| = 2
        assert rep.residual == pytest.approx(2.0, abs=1e-12)
        assert rep.residual >= 1.0

    def test_a2_single_monomial_bound(self, sp_a2):
        rep = antipode_infeasibility(sp_a2, 1, monomials=[(0, 0)])
        assert rep.residual == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_a2_offdiagonal_monomial_feasible(self, sp_a2):
        # the right side vanishes for i != j, so the system is solvable
        rep = antipode_infeasibility(sp_a2, 1, monomials=[(0, 1)])
        assert rep.residual <= 1e-12
        assert not rep.passed

    @pytest.mark.parametrize("name,expect", [("A3", math.sqrt(12)),
                                             ("D4", math.sqrt(24))])
    def test_small_graphs(self, name, expect):
        sp = space(build_ade(name[0], int(name[1:])))
        rep = antipode_infeasibility(sp, 1)
        assert rep.passed
        assert rep.residual > 0.5
        # residual equals the norm of the unreachable grade-zero right side
        assert rep.residual == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("name,n", [
        (name, n) for name in ANTIPODE_GRAPHS
        for n in range(1, len(fused_sums(name)))])
    def test_higher_grade_input(self, name, n):
        # same obstruction at every grade: the right side lies in grade 0,
        # of squared norm |V| = d_0 for each of the d_n diagonal monomials
        sums = fused_sums(name)
        rep = antipode_infeasibility(shared_space(name), n)
        assert rep.passed
        assert rep.residual ** 2 == pytest.approx(sums[0] * sums[n], rel=1e-12)

    def test_scaled_unit_coproduct_fails(self, sp_a3, monkeypatch):
        # 2 Delta(1) still clears the floor; only the closed form catches it
        real = endo.coproduct
        monkeypatch.setattr(endo, "coproduct", lambda r: real(r) * 2.0)
        rep = antipode_infeasibility(sp_a3, 1)
        assert rep.residual == pytest.approx(2 * math.sqrt(12), abs=1e-12)
        assert not rep.passed
        assert rep.witness.endswith("!= |V| * diagonal monomials = 12")

    @pytest.mark.parametrize("stray", [((1, 0, 0), (0, 0, 0)),
                                       ((0, 0, 0), (1, 0, 0))])
    def test_unit_coproduct_leg_outside_grade_zero_fails(self, sp_a3,
                                                         monkeypatch, stray):
        real = endo.coproduct
        extra = EndoTensor(sp_a3, 2, {stray: 1.0})
        monkeypatch.setattr(endo, "coproduct", lambda r: real(r) + extra)
        rep = antipode_infeasibility(sp_a3, 1)
        assert not rep.passed
        profile = tuple(n for n, _, _ in stray)
        assert rep.witness.endswith(
            f"Delta(1) has a leg outside grade 0, grade profile {profile}")

    def test_builds_one_structure_constant_block(self):
        sp = EssentialSpace(build_ade("E", 6))
        antipode_infeasibility(sp, 1)
        assert list(sp._mul) == [(1, 0)]

    def test_grade_zero_rejected(self, sp_a2):
        with pytest.raises(InputError):
            antipode_infeasibility(sp_a2, 0)

    def test_empty_grade_rejected(self, sp_a2):
        with pytest.raises(InputError):
            antipode_infeasibility(sp_a2, 2)


class TestStar:
    def test_a2_exchanges_r_and_l(self, sp_a2):
        assert (rho(sp_a2, "rl").star() - rho(sp_a2, "lr")).norm() <= 1e-12
        assert (rho(sp_a2, "rr").star() - rho(sp_a2, "ll")).norm() <= 1e-12

    def test_unit_fixed(self, sp_e6):
        one = unit_endo(sp_e6)
        assert (one.star() - one).norm() <= 1e-12

    def test_star_matrix_orthogonal(self, sp_e6):
        for n, d in enumerate(sp_e6.dims()):
            if d:
                t = sp_e6.star_matrix(n)
                assert np.max(np.abs(t @ t.T - np.eye(d))) <= 1e-10

    def test_involution(self, sp_d4):
        rng = np.random.default_rng(8)
        r = random_endo(sp_d4, rng)
        assert (r.star().star() - r).norm() <= 1e-10

    @pytest.mark.parametrize("name", ["A2", "A3", "D4", "E6"])
    def test_suite(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        rep = check_star(sp)
        assert rep.passed, rep.witness
        assert rep.residual <= TOL


class TestCoalgebraAxioms:
    @pytest.mark.parametrize("name", ["A2", "D4", "E6"])
    def test_all(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        rep = check_coalgebra_axioms(sp)
        assert rep.passed
        assert rep.residual <= 1e-10


class TestEndoTensorOps:
    def test_tensor_and_norm(self, sp_a2):
        both = rho(sp_a2, "11").tensor(rho(sp_a2, "rr"))
        assert both.legs == 2
        assert both.norm() == pytest.approx(1.0)

    def test_bullet_matches_graded_product(self, sp_a3):
        """The one-leg bullet (conv_bullet) against np.einsum over the
        structure constants of every pair of blocks."""
        rng = np.random.default_rng(10)
        a = random_blocks(sp_a3, rng, grades={0, 1})
        b = random_blocks(sp_a3, rng, grades={0, 1})
        want = EndoTensor(sp_a3, 1)
        for n, x in a.items():
            for m, y in b.items():
                mul = sp_a3.structure_constants(n, m)
                if mul.shape[2]:
                    want = want + EndoTensor.from_blocks(sp_a3, {n + m: einsum_ref(
                        "ij,kl,ikK,jlL->KL", x, y, mul, mul)})
        assert grades(want) == [0, 1, 2]
        got = conv_bullet(EndoTensor.from_blocks(sp_a3, a), EndoTensor.from_blocks(sp_a3, b))
        assert (got - want).norm() <= 1e-12

    def test_compose_legwise_matches(self, sp_a3):
        """The one-leg compose against x @ y per grade."""
        rng = np.random.default_rng(11)
        a, b = random_blocks(sp_a3, rng), random_blocks(sp_a3, rng)
        want = EndoTensor.from_blocks(sp_a3, {n: a[n] @ b[n] for n in a})
        assert grades(want) == [0, 1, 2]
        got = EndoTensor.from_blocks(sp_a3, a).compose(EndoTensor.from_blocks(sp_a3, b))
        assert (got - want).norm() <= 1e-12

    def test_compose_two_legs_matches(self, sp_a3):
        """The two-leg compose against the dense legwise product
        out[i, p, k, q] = sum_{j, l} x[i, j, k, l] y[j, p, l, q] per profile;
        terms of different profiles compose to zero."""
        rng = np.random.default_rng(13)
        x = EndoTensor(sp_a3, 2, random_monomials(sp_a3, rng, 2, 12))
        y = EndoTensor(sp_a3, 2, random_monomials(sp_a3, rng, 2, 12))
        got = x.compose(y).dense_blocks()
        xd, yd = x.dense_blocks(), y.dense_blocks()
        want = {p: einsum_ref("ijkl,jplq->ipkq", xd[p], yd[p]) for p in xd.keys() & yd.keys()}
        assert want and got.keys() <= want.keys()
        for p, w in want.items():
            assert_close(got.get(p, np.zeros_like(w)), w)

    def test_star_legwise_matches(self, sp_a3):
        """The one-leg star against T_n a T_n^T per grade."""
        rng = np.random.default_rng(12)
        a = random_blocks(sp_a3, rng)
        stars = {n: sp_a3.star_matrix(n) for n in a}
        want = EndoTensor.from_blocks(sp_a3, {
            n: einsum_ref("pi,ij,qj->pq", stars[n], x, stars[n]) for n, x in a.items()})
        assert grades(want) == sorted(a) != []
        assert (EndoTensor.from_blocks(sp_a3, a).star() - want).norm() <= 1e-12

    def test_block_shape_validation(self, sp_a2):
        with pytest.raises(InputError, match="block 0 must be 2x2"):
            EndoTensor.from_blocks(sp_a2, {0: np.ones((3, 3))})


def reference_bullet(sp, xs, ys):
    """Legwise convolution product of two monomial dicts: per term pair, the
    product over legs of the outer products of structure-constant rows
    mul[i, k, :] and mul[j, l, :]."""
    out = {}
    for kx, cx in xs.items():
        for ky, cy in ys.items():
            part = {(): cx * cy}
            for (n, i, j), (m, k, l) in zip(kx, ky):
                rows = np.outer(sp.structure_constants(n, m)[i, k],
                                sp.structure_constants(n, m)[j, l])
                part = {key + ((n + m, int(a), int(b)),): c * rows[a, b]
                        for key, c in part.items()
                        for a, b in zip(*np.nonzero(rows))}
            for key, c in part.items():
                out[key] = out.get(key, 0.0) + c
    return out


def random_monomials(sp, rng, legs, count, grades=(0, 1)):
    terms = {}
    for _ in range(count):
        key = []
        for _ in range(legs):
            n = int(rng.choice(grades))
            d = sp.grade_basis(n).dim
            key.append((n, int(rng.integers(d)), int(rng.integers(d))))
        terms[tuple(key)] = float(rng.standard_normal())
    return terms


def dense_leg(sp, rng, n):
    """A random dense single-grade endomorphism and its monomial dict."""
    d = sp.grade_basis(n).dim
    mat = rng.standard_normal((d, d))
    return (EndoTensor.from_blocks(sp, {n: mat}),
            {((n, i, j),): float(mat[i, j]) for i in range(d) for j in range(d)})


def monomial_tensor(a, b):
    return {ka + kb: ca * cb for ka, ca in a.items() for kb, cb in b.items()}


def merged(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0.0) + c
    return out


def assert_terms_close(got, expect, tol=1e-12):
    for key in got.keys() | expect.keys():
        assert abs(got.get(key, 0.0) - expect.get(key, 0.0)) <= tol, key


class TestFactoredBullet:
    """EndoTensor.bullet against a term-by-term monomial reference, on
    operands mixing matrix-unit terms with dense legs of grades 0 and 1."""

    def test_two_legs_mixed_grades(self, sp_a3):
        rng = np.random.default_rng(30)
        ops = []
        for grades in ((0, 1), (1, 0)):
            mono = random_monomials(sp_a3, rng, 2, 6)
            (r1, t1), (r2, t2) = (dense_leg(sp_a3, rng, n) for n in grades)
            tensor = EndoTensor(sp_a3, 2, mono) + r1.tensor(r2)
            ops.append((tensor, merged(mono, monomial_tensor(t1, t2))))
        (x, tx), (y, ty) = ops
        assert_terms_close(x.bullet(y).terms, reference_bullet(sp_a3, tx, ty))

    def test_three_legs_mixed_grades(self, sp_a3):
        rng = np.random.default_rng(31)
        ops = []
        for n in (1, 0):
            mono = random_monomials(sp_a3, rng, 3, 5)
            pair = random_monomials(sp_a3, rng, 2, 4)
            r, t = dense_leg(sp_a3, rng, n)
            tensor = EndoTensor(sp_a3, 3, mono) + r.tensor(EndoTensor(sp_a3, 2, pair))
            ops.append((tensor, merged(mono, monomial_tensor(t, pair))))
        (x, tx), (y, ty) = ops
        assert_terms_close(x.bullet(y).terms, reference_bullet(sp_a3, tx, ty))

    def test_comonoidality_products_by_reference(self, sp_a3):
        # the two products of check_comonoidality, recomputed term by term
        one = unit_endo(sp_a3)
        d1 = coproduct(one)
        left = d1.tensor(one).bullet(one.tensor(d1))
        expect = reference_bullet(sp_a3, d1.tensor(one).terms, one.tensor(d1).terms)
        assert left.terms == expect


class TestExactResiduals:
    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_comonoidality_residual_is_zero(self, name):
        rep = check_comonoidality(space(build_ade(name[0], int(name[1:]))))
        assert rep.residual == 0.0
        assert rep.witness.startswith("left 0.000e+00, right 0.000e+00;")

    @pytest.mark.parametrize("name,expect", [
        ("A2", 2.0), ("A3", 3.4641016151377544), ("D4", 4.898979485566356),
        ("A6", 7.745966692414834)])
    def test_antipode_residual(self, name, expect):
        rep = antipode_infeasibility(space(build_ade(name[0], int(name[1:]))), 1)
        assert rep.passed
        assert rep.residual == pytest.approx(expect, abs=1e-12)
