"""Acceptance criteria, one test per criterion, each printing a status line.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines as they
pass; tolerances are fixed here and nowhere else.
"""

import math
import time

from esspath import (
    EssentialSpace,
    build_ade,
    fused_matrices,
    perron_frobenius,
    space,
)
from esspath.a2 import a2_reports
from esspath.endo import gram_condition_residual
from esspath.verify import (
    VerifyConfig,
    antipode_infeasibility,
    check_comonoidality,
    check_decomposition,
    check_delta_homomorphism,
    check_projector_identity,
    check_star,
    check_unit_not_grouplike,
    truncated_paths_algebra,
)

from reference_checks import delta_spot_residual, star_sampled_residuals

E6_DIMS = (6, 10, 14, 18, 20, 20, 20, 18, 14, 10, 6)
GRAPH_SET = ("A2", "A3", "A4", "D4", "E6")


def graph_of(name):
    return build_ade(name[0], int(name[1:]))


def _criterion(cid, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {cid}: {status} - {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {cid} failed: {desc} {detail}"


def test_criterion_01_e6_graded_dimensions():
    start = time.monotonic()
    sp = EssentialSpace(build_ade("E", 6))  # fresh space: honest timing
    kernel_dims = tuple(sp.dims())
    fused_sums = fused_matrices(sp.graph).sums
    elapsed = time.monotonic() - start
    ok = (kernel_dims == E6_DIMS and fused_sums == E6_DIMS
          and sum(kernel_dims) == 156 and elapsed < 10.0)
    _criterion(1, "E6 graded dimensions by kernel and fused matrices",
               ok, f"dims={kernel_dims}, {elapsed:.2f}s")


def test_criterion_02_endomorphism_dimensions():
    expected = {"A2": 8, "A3": 34, "E6": 2512}
    got = {name: sum(d * d for d in space(graph_of(name)).dims())
           for name in expected}
    _criterion(2, "graded endomorphism dimensions 8 / 34 / 2512",
               got == expected, f"{got}")


def test_criterion_03_e6_perron_ratio():
    g = build_ade("E", 6)
    pf = perron_frobenius(g)
    ratio = pf.mu[g.vertex_index("3")] / pf.mu[g.vertex_index("1")]
    err = abs(ratio - (math.sqrt(3) - 1))
    _criterion(3, "E6 mu_3/mu_1 = sqrt(3) - 1 within 1e-9",
               err <= 1e-9, f"error {err:.2e}")


def test_criterion_04_projector_identity():
    worst = {}
    for name in GRAPH_SET:
        sp = space(graph_of(name))
        cfg = VerifyConfig(tolerance=1e-9, seed=41, samples=200)
        rep = check_projector_identity(sp, cfg)
        worst[name] = rep.residual
    ok = all(r <= 1e-9 for r in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _criterion(4, "P(P(p1)P(p2)) = P(p1 p2) on 200 random pairs per graph",
               ok, detail)


def test_criterion_05_decomposition_lemma_e6():
    sp = space(build_ade("E", 6))
    cfg = VerifyConfig(tolerance=1e-9)
    rep = check_decomposition(sp, cfg)  # lengths <= 6, tolerances 1e-8 and 1e-9
    _criterion(5, "decomposition of every E6 basis vector, lengths <= 6",
               rep.passed, rep.witness)


def test_criterion_06_weak_bialgebra_condition():
    details = []
    ok = True
    for name in GRAPH_SET:
        sp = space(graph_of(name))
        gram, _ = gram_condition_residual(dict(enumerate(sp.dims())),
                                          sp.structure_constants)
        delta = check_delta_homomorphism(sp, VerifyConfig(tolerance=1e-9))
        spots = delta_spot_residual(sp, pairs=100, seed=43)
        ok = (ok and gram <= 1e-8 and delta.passed and delta.tolerance == 1e-8
              and spots <= 1e-8)
        details.append(f"{name}: gram {gram:.1e}, "
                       f"spots {spots:.1e}")
    _criterion(6, "structure-constant Gram matrices equal identity (1e-8) "
                  "plus 100 coproduct spot checks per graph",
               ok, "; ".join(details))


def test_criterion_07_comonoidality():
    ok = True
    details = []
    for name in ("A2", "E6"):
        sp = space(graph_of(name))
        cfg = VerifyConfig(tolerance=1e-9)
        rep = check_comonoidality(sp, cfg)
        gap = check_unit_not_grouplike(sp, cfg)
        ok = (ok and rep.passed and rep.tolerance == 1e-9
              and gap.passed and gap.residual > 0.5)
        details.append(f"{name}: identities {rep.residual:.1e}, "
                       f"unit gap {gap.residual:.2f}")
    _criterion(7, "both comonoidality identities (1e-9) and non-group-like "
                  "unit (gap > 0.5)", ok, "; ".join(details))


def test_criterion_08_antipode_nonexistence():
    floors = {"A2": 1.0, "A3": 0.5, "D4": 0.5}
    got = {}
    ok = True
    for name, floor in floors.items():
        rep = antipode_infeasibility(space(graph_of(name)), VerifyConfig())
        got[name] = rep.residual
        # the check's own floor is 0.5; the stricter floors are asserted here
        ok = ok and rep.passed and rep.residual > floor
    ok = ok and got["A2"] >= 1.0
    _criterion(8, "antipode residual >= 1.0 on A2, > 0.5 on "
                  "A3 and D4", ok,
               ", ".join(f"{k}={v:.3f}" for k, v in got.items()))


def test_criterion_09_a2_goldens():
    reports = a2_reports()
    ok = all(r.passed for r in reports)
    failing = [r.name for r in reports if not r.passed]
    _criterion(9, "every A2 golden (products, coproducts, matrix units, "
                  "nilpotent-matrix realization, filtered tables)",
               ok, f"{len(reports)} checks" + (f"; failing {failing}" if failing else ""))


def test_criterion_10_star_suite():
    ok = True
    details = []
    for name in GRAPH_SET:
        sp = space(graph_of(name))
        rep = check_star(sp, VerifyConfig(tolerance=1e-9))
        sampled = max(star_sampled_residuals(sp, pairs=100, seed=47))
        ok = ok and rep.passed and sampled <= 1e-9
        details.append(f"{name}={max(rep.residual, sampled):.1e}")
    _criterion(10, "star suite (closure, unit, anti-automorphism on every "
                   "grade pair) plus anti-homomorphism, coproduct and counit "
                   "on 100 random pairs per graph", ok, ", ".join(details))


def test_criterion_11_truncated_paths_exact():
    residual, _ = gram_condition_residual(*truncated_paths_algebra(build_ade("A", 3), 4))
    _criterion(11, "truncated concatenation algebra on A3 (lengths <= 4) "
                   "satisfies the compatibility condition exactly",
               residual == 0.0, f"residual {residual}")
