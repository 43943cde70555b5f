"""Two-point diagram goldens: graded vs filtered structure."""

import numpy as np
import pytest

from esspath import InputError
from esspath import a2 as a2mod
from esspath.a2 import (
    A2Element,
    A2Endo,
    BULLET_ENDO_TABLE,
    BULLET_TABLE,
    COMPOSE_ENDO_TABLE,
    ELEMENT_NAMES,
    ENDO_NAMES,
    STAR_ENDO_TABLE,
    STAR_TABLE,
    a2_reports,
    bullet_product,
    bullet_product_endo,
    compose_endo,
    grassmann_check,
    star_product,
    star_product_endo,
)


def el(name):
    return A2Element.basis(name)


def en(name):
    return A2Endo.basis(name)


class TestElementTables:
    def test_star_examples(self):
        assert star_product(el("r"), el("l")).coeffs == el("a1").coeffs
        assert star_product(el("l"), el("r")).coeffs == el("a2").coeffs
        assert star_product(el("r"), el("r")).coeffs == (0, 0, 0, 0)
        assert star_product(el("a1"), el("r")).coeffs == el("r").coeffs
        assert star_product(el("r"), el("a2")).coeffs == el("r").coeffs
        assert star_product(el("a2"), el("r")).coeffs == (0, 0, 0, 0)

    def test_bullet_examples(self):
        assert bullet_product(el("r"), el("l")).coeffs == (0, 0, 0, 0)
        assert bullet_product(el("a1"), el("a1")).coeffs == el("a1").coeffs
        assert bullet_product(el("a1"), el("a2")).coeffs == (0, 0, 0, 0)
        assert bullet_product(el("a2"), el("l")).coeffs == el("l").coeffs

    def test_difference_is_exactly_the_two_entries(self):
        rep = a2mod.check_star_differs_only_on_backtracks()
        assert rep.passed

    def test_idempotents(self):
        for table, prod in ((BULLET_TABLE, bullet_product),
                            (STAR_TABLE, star_product)):
            for a in ("a1", "a2"):
                assert prod(el(a), el(a)).coeffs == el(a).coeffs

    def test_element_arithmetic(self):
        v = 2.0 * el("r") + el("a1")
        assert v.coeffs == (1.0, 0.0, 2.0, 0.0)
        assert str(v) == "+1*a1 +2*r"


class TestEndoTables:
    def test_star_endo_matrix_unit_example(self):
        # rrr * rll = r11 under the filtered product
        got = star_product_endo(en("rrr"), en("rll"))
        assert got.coeffs == en("r11").coeffs

    def test_filtered_square_of_rrr_vanishes(self):
        assert star_product_endo(en("rrr"), en("rrr")).coeffs == (0,) * 8

    def test_bullet_endo_from_table(self):
        # r11 * rrr = rrr; rrr * rll = 0 under the graded product
        assert bullet_product_endo(en("r11"), en("rrr")).coeffs == en("rrr").coeffs
        assert bullet_product_endo(en("rrr"), en("rll")).coeffs == (0,) * 8

    def test_compose_endo(self):
        assert compose_endo(en("r12"), en("r21")).coeffs == en("r11").coeffs
        assert compose_endo(en("r12"), en("rrr")).coeffs == (0,) * 8

    def test_rho_rl_star_rho_lr(self):
        got = star_product_endo(en("rrl"), en("rlr"))
        assert got.coeffs == en("r12").coeffs

    def test_star_endo_associative(self):
        rep = a2mod.check_star_associative()
        assert rep.passed

    def test_tables_are_zero_one(self):
        for t in (BULLET_TABLE, STAR_TABLE, COMPOSE_ENDO_TABLE,
                  BULLET_ENDO_TABLE, STAR_ENDO_TABLE):
            assert set(np.unique(t)) <= {0, 1}


class TestCoproductGoldens:
    def test_graded_path_coproducts(self):
        assert a2mod.GRADED_COPRODUCT["r"] == (("a1", "r"), ("r", "a2"))
        assert a2mod.GRADED_COPRODUCT["l"] == (("a2", "l"), ("l", "a1"))

    def test_filtered_path_coproduct_adds_backtrack_cut(self):
        assert set(a2mod.FILTERED_COPRODUCT["a1"]) == {("a1", "a1"), ("r", "l")}

    def test_filtered_endo_coproducts(self):
        rep = a2mod.check_filtered_coproducts_consistent()
        assert rep.passed, rep.witness

    def test_compose_unit_coproduct_has_eight_terms(self):
        assert len(a2mod.FILTERED_COPRODUCT_OF_COMPOSE_UNIT) == 8


class TestGrassmann:
    def test_realization(self):
        rep = grassmann_check()
        assert rep.passed, rep.witness

    def test_theta_squared_is_zero(self):
        # rrr * rll maps to a matrix with theta * theta = 0
        m = a2mod._grassmann_mul(a2mod.GRASSMANN_REALIZATION["rrr"],
                                 a2mod.GRASSMANN_REALIZATION["rll"])
        assert not m.any()

    def test_r11_acts_as_unit_on_rrr(self):
        m = a2mod._grassmann_mul(a2mod.GRASSMANN_REALIZATION["r11"],
                                 a2mod.GRASSMANN_REALIZATION["rrr"])
        assert np.array_equal(m, a2mod.GRASSMANN_REALIZATION["rrr"])

    def test_realization_is_faithful(self):
        flat = np.stack([a2mod.GRASSMANN_REALIZATION[n].ravel()
                         for n in ENDO_NAMES])
        assert np.linalg.matrix_rank(flat) == 8


class TestMatrixUnits:
    def test_compose_sets(self):
        rep = a2mod.matrix_unit_check(
            COMPOSE_ENDO_TABLE,
            (("r11", "r12", "r21", "r22"), ("rrr", "rrl", "rlr", "rll")),
            "compose")
        assert rep.passed, rep.witness

    def test_filtered_sets(self):
        rep = a2mod.matrix_unit_check(
            STAR_ENDO_TABLE,
            (("r11", "rrr", "rll", "r22"), ("r12", "rrl", "rlr", "r21")),
            "filtered")
        assert rep.passed, rep.witness

    def test_graded_families_not_matrix_units(self):
        # the graded product is not semisimple: the same family fails
        rep = a2mod.matrix_unit_check(
            BULLET_ENDO_TABLE,
            (("r11", "rrr", "rll", "r22"), ("r12", "rrl", "rlr", "r21")),
            "graded")
        assert not rep.passed


class TestAgainstGenericMachinery:
    def test_all_reports_pass(self):
        for rep in a2_reports():
            assert rep.passed, f"{rep.name}: {rep.witness}"

    def test_bullet_table_recomputed(self):
        got = a2mod.generic_bullet_table()
        assert np.max(np.abs(got - BULLET_TABLE)) <= 1e-12

    def test_rendered_tables_shape(self):
        rows = a2mod.product_rows(BULLET_TABLE, ELEMENT_NAMES)
        assert len(rows) == 5 and all(len(r) == 5 for r in rows)
        rows = a2mod.product_rows(STAR_ENDO_TABLE, ENDO_NAMES)
        assert len(rows) == 9 and all(len(r) == 9 for r in rows)


class TestCombinations:
    """A2Element and A2Endo share one coefficient class; each keeps its
    names and its error text."""

    @pytest.mark.parametrize("cls, names, message", [
        (A2Element, ELEMENT_NAMES, "unknown basis element 'x'"),
        (A2Endo, ENDO_NAMES, "unknown generator 'x'"),
    ])
    def test_basis_arithmetic_and_errors(self, cls, names, message):
        first, last = cls.basis(names[0]), cls.basis(names[-1])
        assert len(first.coeffs) == len(names)
        assert str(2 * first + last * -0.5) == f"+2*{names[0]} -0.5*{names[-1]}"
        assert str(first * 0.0) == "0"
        assert type(first + last) is cls and first + last == last + first
        with pytest.raises(InputError) as exc:
            cls.basis("x")
        assert str(exc.value) == message
