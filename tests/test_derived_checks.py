"""The checks read from the structure constants (Gram matrices and the star
identity): they bound the sampled loops they replaced, and `verify` fails
on planted faults in the cached algebra data."""

import math
from functools import lru_cache

import numpy as np
import pytest

from esspath import EndoTensor, EssentialSpace, InputError, build_ade, space, verify
from esspath.endo import counit_weak_multiplicativity_residual, gram_condition_residual
from esspath.verify import (
    DECOMPOSITION_CAP,
    VerifyConfig,
    check_comonoidality,
    check_conv_unit,
    check_convolution_coproduct,
    check_delta_homomorphism,
    check_gamma_orthonormality,
    check_star,
    run_suite,
)

import reference_checks as ref

CFG = VerifyConfig()


@pytest.mark.parametrize("name", ["A3", "D4", "A6", "E6"])
class TestDerivedBoundsReferences:
    """Each reference, drawn as `verify` drew it (its samples and seed), is
    at most the derived residual plus 1e-15."""

    def test_delta_homomorphism(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        spot = ref.delta_spot_residual(sp, CFG.samples, CFG.seed)
        assert spot <= check_delta_homomorphism(sp, CFG).residual + 1e-15

    def test_convolution_coproduct(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        loop = ref.convolution_coproduct_residual(sp, CFG.samples, CFG.seed)
        assert loop <= check_convolution_coproduct(sp, CFG).residual + 1e-15

    def test_gamma_orthonormality(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        loop = ref.gamma_orthonormality_residual(
            sp, min(CFG.cap(sp), DECOMPOSITION_CAP))
        assert loop <= check_gamma_orthonormality(sp, CFG).residual + 1e-15

    def test_star(self, name):
        sp = space(build_ade(name[0], int(name[1:])))
        sampled = ref.star_sampled_residuals(sp, CFG.samples, CFG.seed)
        assert max(sampled) <= check_star(sp, CFG).residual + 1e-15


# ---------------------------------------------------------------------------
# planted faults


@lru_cache(maxsize=None)
def warmed(name):
    """A private space (faults must not reach the shared one) with every
    structure constant and star matrix of `verify --suite all` cached."""
    sp = EssentialSpace(build_ade(name[0], int(name[1:])))
    assert all(r.passed for r in run_suite(sp, "all", CFG))
    return sp


def _block(sp, n, m, a, b, c):
    """Index of the cell-triple block a|b|n x b|c|m -> a|c|n+m of m_nm."""
    cells = [sp.grade_basis(k).cell_at(s, e) for k, s, e in
             ((n, a, b), (m, b, c), (n + m, a, c))]
    return tuple(slice(off, off + cell.dim) for cell, off in cells)


def negated_block(n, m, a, b, c):
    def plant(sp, monkeypatch):
        mul = sp.structure_constants(n, m).copy()
        idx = _block(sp, n, m, a, b, c)
        assert np.any(mul[idx])
        mul[idx] *= -1.0
        monkeypatch.setitem(sp._mul, (n, m), mul)
    return plant


def rotated_targets(n, m, a, b, c, angle):
    """Rotate the target vectors of one block, in a 2-dim target cell."""
    def plant(sp, monkeypatch):
        mul = sp.structure_constants(n, m).copy()
        idx = _block(sp, n, m, a, b, c)
        cs, sn = math.cos(angle), math.sin(angle)
        mul[idx] = mul[idx] @ np.array([[cs, sn], [-sn, cs]])
        monkeypatch.setitem(sp._mul, (n, m), mul)
    return plant


def negated_star_row(n, row):
    def plant(sp, monkeypatch):
        t = sp.star_matrix(n).copy()
        t[row] *= -1.0
        monkeypatch.setitem(sp._star, n, t)
    return plant


def doubled_unit_coproduct(sp, monkeypatch):
    real = verify.coproduct
    monkeypatch.setattr(verify, "coproduct", lambda r: real(r) * 2.0)


STAR = "star_suite"
UNIT = "convolution_unit"
DELTA = "delta_homomorphism[bullet]"
ANTIPODE = "antipode_infeasibility[n=1] (pass iff residual > tolerance)"

# A6 has no cell of dimension 2, so the rotation is planted on E6 only
FAULTS = [
    ("A6", "mul(1,1) 0|1x1|2->0|2 negated", negated_block(1, 1, 0, 1, 2), STAR),
    ("A6", "star grade 2 row 1 negated", negated_star_row(2, 1), STAR),
    ("A6", "2 Delta(1)", doubled_unit_coproduct, ANTIPODE),
    ("A6", "mul(0,2) 0|0x0|2->0|2 negated", negated_block(0, 2, 0, 0, 2), UNIT),
    ("E6", "mul(2,3) 0|2x2|1->0|1 negated", negated_block(2, 3, 0, 2, 1), STAR),
    ("E6", "mul(1,1) 0|1x1|2->0|2 negated", negated_block(1, 1, 0, 1, 2), STAR),
    ("E6", "star grade 3 row 0 negated", negated_star_row(3, 0), STAR),
    ("E6", "star grade 5 row 7 negated", negated_star_row(5, 7), STAR),
    ("E6", "mul(1,1) 2|1x1|2->2|2 rotated 0.3 rad",
     rotated_targets(1, 1, 2, 1, 2, 0.3), DELTA),
    ("E6", "2 Delta(1)", doubled_unit_coproduct, ANTIPODE),
    ("E6", "mul(2,0) 0|2x2|2->0|2 negated", negated_block(2, 0, 0, 2, 2), UNIT),
]


class TestPlantedFaults:
    @pytest.mark.parametrize("name", ["A6", "E6"])
    def test_unplanted_passes_and_names_no_pair(self, name):
        reports = run_suite(warmed(name), "all", CFG)
        assert all(r.passed for r in reports)
        assert not any("worst" in (r.witness or "") for r in reports)

    @pytest.mark.parametrize("name, fault, plant, check", FAULTS,
                             ids=[f"{g}-{f}" for g, f, _, _ in FAULTS])
    def test_fault_fails_a_named_check(self, name, fault, plant, check, monkeypatch):
        sp = warmed(name)
        plant(sp, monkeypatch)
        failed = {r.name for r in run_suite(sp, "all", CFG) if not r.passed}
        assert check in failed, fault

    def test_rotation_names_its_grade_pair(self, monkeypatch):
        sp = warmed("E6")
        rotated_targets(1, 1, 2, 1, 2, 0.3)(sp, monkeypatch)
        rep = check_delta_homomorphism(sp, CFG)
        assert rep.residual == pytest.approx(0.178, abs=5e-4)
        assert rep.witness == f"gram residual {rep.residual:.3e} (worst pair (1, 1))"

    def test_rotation_bounds_the_references(self, monkeypatch):
        sp = warmed("E6")
        rotated_targets(1, 1, 2, 1, 2, 0.3)(sp, monkeypatch)
        pairs = [
            (ref.delta_spot_residual(sp, 200, 3), check_delta_homomorphism(sp, CFG)),
            (ref.convolution_coproduct_residual(sp, 200, 3),
             check_convolution_coproduct(sp, CFG)),
        ]
        for loop, rep in pairs:
            assert not rep.passed
            assert loop <= rep.residual + 1e-15, rep.name

    def test_nan_sample_fails_a_sampled_check(self):
        # one NaN among the samples makes the worst residual NaN, which no
        # tolerance admits
        values = iter([0.0, math.nan, 0.0])
        worst = verify._worst_sample(VerifyConfig(samples=3), 0, lambda rng: next(values))
        assert math.isnan(worst)
        assert not verify.CheckReport.within("sampled", worst, 1e-9).passed


def nan_at_origin(n, m):
    """A NaN in place of entry [0, 0, 0] of m_nm."""
    def plant(sp, monkeypatch):
        mul = sp.structure_constants(n, m).copy()
        mul[0, 0, 0] = math.nan
        monkeypatch.setitem(sp._mul, (n, m), mul)
    return plant


NAN_CHECKS = [((1, 1), check) for check in (
    check_delta_homomorphism, check_gamma_orthonormality, check_star,
    check_convolution_coproduct)] + [((0, 2), check_conv_unit)]


class TestPlantedNaN:
    """A NaN in the algebra data makes the residual of every check that reads
    it NaN, which no tolerance admits."""

    @pytest.mark.parametrize("grades, check", NAN_CHECKS,
                             ids=[f"{c.__name__}-mul{n}{m}" for (n, m), c in NAN_CHECKS])
    def test_nan_structure_constant_fails(self, grades, check, monkeypatch):
        sp = warmed("A3")
        nan_at_origin(*grades)(sp, monkeypatch)
        rep = check(sp, CFG)
        assert math.isnan(rep.residual)
        assert not rep.passed

    def test_nan_names_its_grade_pair(self, monkeypatch):
        sp = warmed("A3")
        nan_at_origin(1, 1)(sp, monkeypatch)
        assert check_delta_homomorphism(sp, CFG).witness == \
            "gram residual nan (worst pair (1, 1))"

    def test_nan_reaches_the_counit_scan(self, monkeypatch):
        sp = warmed("A3")
        assert math.isfinite(counit_weak_multiplicativity_residual(sp))
        nan_at_origin(1, 1)(sp, monkeypatch)
        assert math.isnan(counit_weak_multiplicativity_residual(sp))
        assert check_comonoidality(sp, CFG).witness.endswith(
            "counit weak multiplicativity measured residual nan (not asserted)")

    def test_gram_scan_keeps_the_first_nan(self):
        # finite residuals after a NaN neither hide it nor move its pair
        def mul(n, k):
            return np.full((1, 1, 1), math.nan if (n, k) == (0, 1) else 2.0)
        residual, pair = gram_condition_residual({0: 1, 1: 1, 2: 1}, mul)
        assert math.isnan(residual) and pair == (0, 1)

    def test_nan_block_entry_has_nan_norm(self):
        sp = warmed("A3")
        block = np.eye(sp.grade_basis(1).dim)
        block[0, 0] = math.nan
        assert math.isnan(EndoTensor.from_blocks(sp, {1: block}).norm())


@pytest.mark.parametrize("max_length", [-1, -7])
def test_negative_cap_is_an_input_error(max_length):
    # as the CLI's own config rejects it, before any check draws a sample
    with pytest.raises(InputError, match="max length cap must be >= 0"):
        run_suite(space(build_ade("A", 3)), "core", VerifyConfig(max_length=max_length))
