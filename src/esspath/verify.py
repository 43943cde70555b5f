"""Named verification checks and suites for the command-line front end.

Every check returns a CheckReport; a suite is an ordered list of check
names.  All randomness is seeded, so a suite run is deterministic for a
given graph and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .endo import (
    CheckReport,
    _gram,
    antipode_infeasibility,
    check_coalgebra_axioms,
    check_comonoidality,
    check_convolution_coproduct,
    check_delta_homomorphism,
    check_gram_condition,
    check_star,
    check_unit_not_grouplike,
    truncated_paths_algebra,
)
from .errors import InputError
from .essential import EssentialSpace
from .graphs import check_tolerances, fused_matrices
from .paths import (
    PathVector,
    concat,
    enumerate_paths,
    grouplike_coproduct,
    inner,
    reverse_star,
    tensor,
    tensor_concat,
    unit,
)


@dataclass(frozen=True)
class VerifyConfig:
    tolerance: float = 1e-9
    seed: int = 2024
    samples: int = 50
    max_length: Optional[int] = None

    def __post_init__(self):
        check_tolerances(self.tolerance)
        if self.samples < 1:
            raise InputError(f"samples must be >= 1, got {self.samples}")

    def cap(self, sp: EssentialSpace) -> int:
        if sp.max_length is not None:
            return sp.max_length if self.max_length is None \
                else min(self.max_length, sp.max_length)
        if self.max_length is None:
            raise InputError(
                "graph has spectral radius >= 2; supply a max path length cap"
            )
        return self.max_length


# longest cell decomposed, or whose gamma Gram matrices are formed, by
# `check_decomposition` and `check_gamma_orthonormality`
DECOMPOSITION_CAP = 6


def _path_cells(sp: EssentialSpace, cap: int) -> list[tuple[int, int, int]]:
    """Cells (a, b, length), length <= cap, holding an elementary path:
    those with (A^length)[a, b] > 0."""
    adj = sp.graph.adjacency > 0
    walks = np.eye(sp.graph.n_vertices, dtype=bool)
    cells = []
    for length in range(cap + 1):
        cells += [(int(a), int(b), length) for a, b in zip(*np.nonzero(walks))]
        walks = walks @ adj
    return cells


def _essential_cells(sp: EssentialSpace, cap: int) -> list[tuple[int, int, int]]:
    """Cells (a, b, length), length <= cap, holding an essential path."""
    return [(c.start, c.end, length) for length in range(cap + 1)
            for c in sp.grade_basis(length).cells]


def _draw_cell(rng, cells, budget: int,
               start: Optional[int] = None) -> tuple[int, int, int]:
    """A cell drawn uniformly from those in ``cells`` of length <= budget
    (and starting at ``start`` when given).  Both cell lists hold the
    length-0 cell of every vertex, so the pool is never empty."""
    pool = [c for c in cells if c[2] <= budget and start in (None, c[0])]
    return pool[int(rng.integers(len(pool)))]


def _random_cell_paths(sp, rng, cell, max_terms=10) -> PathVector:
    a, b, length = cell
    paths = enumerate_paths(sp.graph, sp.graph.label(a), sp.graph.label(b), length)
    take = min(len(paths), max_terms)
    chosen = rng.choice(len(paths), size=take, replace=False)
    coeffs = rng.standard_normal(take)
    vec = PathVector({paths[int(i)]: float(c) for i, c in zip(chosen, coeffs)})
    return vec * (1.0 / vec.norm())


def _random_essential(sp, rng, cell) -> PathVector:
    basis = sp._cell(*cell)
    weights = rng.standard_normal(basis.dim)
    coords = (weights / np.linalg.norm(weights)) @ basis.coordinates
    return PathVector._of(basis.paths, coords.tolist())


def check_pf_eigen(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """A mu = beta mu within tolerance, mu positive and 1 at the base point."""
    g, pf = sp.graph, sp.pf
    residual = float(np.max(np.abs(g.adjacency @ pf.mu - pf.beta * pf.mu)))
    ok = residual <= cfg.tolerance and pf.mu[g.distinguished] == 1.0 \
        and bool(np.all(pf.mu > 0))
    return CheckReport(
        name="perron_frobenius_residual",
        residual=residual,
        tolerance=cfg.tolerance,
        passed=ok,
        witness=f"beta={pf.beta!r}, kappa={pf.kappa}",
    )


def check_dims_vs_fused(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Graded dimensions from kernel computations equal the entry sums of the
    fused matrices, as exact integers.  An explicit cap compares the prefix
    only (full-length kernels on the largest diagrams are expensive)."""
    sums = fused_matrices(sp.graph, sp.tol).sums
    if cfg.max_length is None:
        kernel_dims = tuple(sp.dims())
        expected = sums
        scope = "full range"
    else:
        cap = min(cfg.max_length, len(sums) - 1)
        kernel_dims = tuple(sp.grade_basis(l).dim for l in range(cap + 1))
        expected = sums[:cap + 1]
        scope = f"lengths 0..{cap}"
    mismatch = 0 if kernel_dims == expected else 1
    return CheckReport(
        name="dims_vs_fused_matrices",
        residual=float(mismatch),
        tolerance=0.0,
        passed=mismatch == 0,
        witness=f"{scope}: kernel {kernel_dims}, fused {expected}",
    )


def check_projector_identity(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """P(P(p1) P(p2)) = P(p1 p2) on random homogeneous path vectors."""
    rng = np.random.default_rng(cfg.seed)
    cap = cfg.cap(sp)
    cells = _path_cells(sp, cap)
    worst = 0.0
    for _ in range(cfg.samples):
        c1 = _draw_cell(rng, cells, cap)
        c2 = _draw_cell(rng, cells, cap - c1[2], start=c1[1])
        p1 = _random_cell_paths(sp, rng, c1)
        p2 = _random_cell_paths(sp, rng, c2)
        lhs = sp.project(concat(sp.project(p1), sp.project(p2)))
        rhs = sp.project(concat(p1, p2))
        worst = max(worst, (lhs - rhs).norm())
    return CheckReport(
        name="projector_identity",
        residual=worst,
        tolerance=cfg.tolerance,
        passed=worst <= cfg.tolerance,
        witness=f"{cfg.samples} random homogeneous pairs",
    )


def check_bullet_associativity(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """(e * f) * h = e * (f * h) on random essential triples."""
    rng = np.random.default_rng(cfg.seed + 1)
    cap = cfg.cap(sp)
    cells = _essential_cells(sp, cap)
    worst = 0.0
    for _ in range(cfg.samples):
        c1 = _draw_cell(rng, cells, cap)
        c2 = _draw_cell(rng, cells, cap - c1[2], start=c1[1])
        c3 = _draw_cell(rng, cells, cap - c1[2] - c2[2], start=c2[1])
        e, f, h = (_random_essential(sp, rng, c) for c in (c1, c2, c3))
        lhs = sp.bullet(sp.bullet(e, f), h)
        rhs = sp.bullet(e, sp.bullet(f, h))
        worst = max(worst, (lhs - rhs).norm())
    return CheckReport(
        name="bullet_associativity",
        residual=worst,
        tolerance=cfg.tolerance,
        passed=worst <= cfg.tolerance,
        witness=f"{cfg.samples} random essential triples",
    )


def check_bullet_unit(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """The sum of zero-length paths is a two-sided unit for the graded
    product."""
    rng = np.random.default_rng(cfg.seed + 2)
    cap = cfg.cap(sp)
    cells = _essential_cells(sp, cap)
    one = sp.unit_essential()
    worst = 0.0
    for _ in range(cfg.samples):
        e = _random_essential(sp, rng, _draw_cell(rng, cells, cap))
        worst = max(worst, (sp.bullet(one, e) - e).norm(),
                    (sp.bullet(e, one) - e).norm())
    return CheckReport(
        name="bullet_unit",
        residual=worst,
        tolerance=cfg.tolerance,
        passed=worst <= cfg.tolerance,
        witness=f"{cfg.samples}/{cfg.samples} samples",
    )


def check_projector_star_commute(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Orientation reversal commutes with the essential projector."""
    rng = np.random.default_rng(cfg.seed + 3)
    cap = cfg.cap(sp)
    cells = _path_cells(sp, cap)
    worst = 0.0
    for _ in range(cfg.samples):
        p = _random_cell_paths(sp, rng, _draw_cell(rng, cells, cap))
        worst = max(worst, (reverse_star(sp.project(p))
                            - sp.project(reverse_star(p))).norm())
    return CheckReport(
        name="projector_star_commute",
        residual=worst,
        tolerance=cfg.tolerance,
        passed=worst <= cfg.tolerance,
        witness=f"{cfg.samples} samples",
    )


def check_decomposition(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Every canonical basis vector decomposes through every split with unit
    coefficient-square sum and exact reconstruction."""
    lmax = min(cfg.cap(sp), DECOMPOSITION_CAP)
    recon_tol, norm_tol = 1e-8, cfg.tolerance
    worst_recon = 0.0
    worst_norm = 0.0
    count = 0
    for total in range(2, lmax + 1):
        for cell in sp.grade_basis(total).cells:
            for k in range(cell.dim):
                e = cell.vector(k)
                for split in range(1, total):
                    d = sp.decompose(e, split)
                    worst_norm = max(worst_norm, abs(d.sum_squares - 1.0))
                    worst_recon = max(worst_recon,
                                      (sp.reconstruct(d) - e).norm())
                    count += 1
    passed = worst_recon <= recon_tol and worst_norm <= norm_tol
    return CheckReport(
        name="decomposition_lemma",
        residual=max(worst_recon, worst_norm),
        tolerance=max(recon_tol, norm_tol),
        passed=passed,
        witness=(
            f"{count} (vector, split) pairs up to length {lmax}; "
            f"reconstruction {worst_recon:.3e} (tol {recon_tol:g}), "
            f"norm rule {worst_norm:.3e} (tol {norm_tol:g})"
        ),
    )


def check_gamma_orthonormality(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """For each cell and split, the decomposition coefficient vectors of the
    canonical basis form an orthonormal family.  At split s, basis vector
    K of a length-L cell has coefficients gamma_K[i, j] = m[i, j, K] with
    m = structure_constants(s, L - s), i and j running over the factor
    cells through every intermediate vertex, so the family's Gram matrix is
    the cell's diagonal block of _gram(m).  The blocks between different
    cells vanish exactly (their coefficients have disjoint supports), so
    the whole Gram matrix of each split is compared with the identity."""
    lmax = min(cfg.cap(sp), DECOMPOSITION_CAP)
    worst = 0.0
    for total in range(2, lmax + 1):
        eye = np.eye(sp.grade_basis(total).dim)
        for split in range(1, total):
            gram = _gram(sp.structure_constants(split, total - split))
            worst = max(worst, float(np.max(np.abs(gram - eye))))
    return CheckReport(
        name="decomposition_gamma_orthonormality",
        residual=worst,
        tolerance=cfg.tolerance,
        passed=worst <= cfg.tolerance,
        witness=f"cells up to length {lmax}",
    )


def check_grouplike_coalgebra(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """The group-like coproduct on raw paths: coassociative, an algebra
    homomorphism, counit laws, and a non-group-like unit."""
    g = sp.graph
    rng = np.random.default_rng(cfg.seed + 4)
    cap = min(cfg.cap(sp), 3)
    cells = _path_cells(sp, cap)
    worst = 0.0
    for _ in range(cfg.samples):
        c1 = _draw_cell(rng, cells, cap)
        c2 = _draw_cell(rng, cells, cap, start=c1[1])
        p = _random_cell_paths(sp, rng, c1, max_terms=4)
        q = _random_cell_paths(sp, rng, c2, max_terms=4)
        dp, dq = grouplike_coproduct(p), grouplike_coproduct(q)
        worst = max(worst, (grouplike_coproduct(concat(p, q))
                            - tensor_concat(dp, dq)).norm())
        # counit law (id x eps) Delta = id
        back = PathVector()
        for (p1, p2), c in dp.items():
            back = back + PathVector.single(p1, c)
        worst = max(worst, (back - p).norm())
    one = unit(g)
    gap = (grouplike_coproduct(one) - tensor(one, one)).norm()
    ok = worst <= cfg.tolerance and (gap > 0.5 or g.n_vertices < 2)
    return CheckReport(
        name="grouplike_coalgebra",
        residual=worst,
        tolerance=cfg.tolerance,
        passed=ok,
        witness=f"unit non-group-like gap {gap:.3f} (must exceed 0.5)",
    )


def check_concat_inner(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """<p q, p q'> = <q, q'> for an elementary prefix with matching
    endpoints."""
    rng = np.random.default_rng(cfg.seed + 5)
    cap = cfg.cap(sp)
    cells = _path_cells(sp, cap)
    worst = 0.0
    for _ in range(cfg.samples):
        head = _draw_cell(rng, cells, cap)
        tail = _draw_cell(rng, cells, cap, start=head[1])
        p = _random_cell_paths(sp, rng, head, max_terms=1)  # one path, up to sign
        q = _random_cell_paths(sp, rng, tail, max_terms=5)
        q2 = _random_cell_paths(sp, rng, tail, max_terms=5)
        worst = max(worst, abs(inner(concat(p, q), concat(p, q2)) - inner(q, q2)))
    return CheckReport(
        name="concat_inner_compatibility",
        residual=worst,
        tolerance=cfg.tolerance,
        passed=worst <= cfg.tolerance,
        witness=f"{cfg.samples} samples",
    )


def check_truncated_paths(sp: EssentialSpace, cfg: VerifyConfig,
                          cap: int = 4) -> CheckReport:
    """The length-truncated concatenation algebra satisfies the Gram
    condition exactly, and cut-then-concatenate returns every elementary
    path unchanged."""
    g = sp.graph
    alg = truncated_paths_algebra(g, cap)
    gram = check_gram_condition(alg, tol=0.0)
    # the dual-cut coproduct of p, concatenated back, is column p of the Gram
    # matrices asserted above; what is left is that cutting p once at each
    # k and concatenating the two pieces gives p back
    cut_fail = 0
    for a, b, n in _path_cells(sp, cap):
        for p in enumerate_paths(g, g.label(a), g.label(b), n):
            for k in range(n + 1):
                back = concat(PathVector.single(p[:n - k + 1]),
                              PathVector.single(p[n - k:]))
                if back.terms != {p: 1.0}:
                    cut_fail += 1
    residual = max(gram.residual, float(cut_fail))
    return CheckReport(
        name=f"truncated_paths_bialgebra[cap={cap}]",
        residual=residual,
        tolerance=0.0,
        passed=residual == 0.0,
        witness=(f"{gram.witness or 'all grade pairs exact'}; "
                 f"{cut_fail} cut-concat failures"),
    )


def check_conv_unit(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """The convolution unit 1 = sum_{v,w} e_v (x) e^w is two-sided on all of
    B, read from the structure constants of the grade pairs (0, n), (n, 0).

    For r of grade n, 1 * r = sum_{v,w,k,l} r[k,l] (e_v * e_k) (x) (e^w * e^l)
    has block U^T r U with U = sum_v m_0n[v, :, :], and r * 1 has block
    V^T r V with V = sum_v m_n0[:, v, :].  So U = I = V in every grade is
    sufficient.  It is necessary up to sign: U^T E_kl U = E_kl for every
    matrix unit makes row k of U a multiple c_k e_k with c_k c_l = 1, so
    -I is the only other solution.  The residual is the largest entry of
    U - I or V - I over all grades; no endomorphism is built."""
    worst = 0.0
    sizes = sp.dims(cfg.max_length)
    for n, d in enumerate(sizes):
        for vertex_sum in (sp.structure_constants(0, n).sum(axis=0),
                           sp.structure_constants(n, 0).sum(axis=1)):
            worst = max(worst, float(np.max(np.abs(vertex_sum - np.eye(d)), initial=0.0)))
    return CheckReport(
        name="convolution_unit",
        residual=worst,
        tolerance=cfg.tolerance,
        passed=worst <= cfg.tolerance,
        witness=f"vertex sums of m_0n and m_n0 against I in grades 0..{len(sizes) - 1}",
    )


# ---------------------------------------------------------------------------
# suite registry


CHECKS: dict[str, Callable[[EssentialSpace, VerifyConfig], CheckReport]] = {
    "perron_frobenius": check_pf_eigen,
    "dims_vs_fused": check_dims_vs_fused,
    "projector_identity": check_projector_identity,
    "bullet_associativity": check_bullet_associativity,
    "bullet_unit": check_bullet_unit,
    "projector_star_commute": check_projector_star_commute,
    "decomposition": check_decomposition,
    "gamma_orthonormality": check_gamma_orthonormality,
    "grouplike_coalgebra": check_grouplike_coalgebra,
    "concat_inner": check_concat_inner,
    "truncated_paths": check_truncated_paths,
    "delta_homomorphism": lambda sp, cfg: check_delta_homomorphism(
        sp, tol=max(cfg.tolerance, 1e-8), max_length=cfg.max_length),
    "convolution_coproduct": lambda sp, cfg: check_convolution_coproduct(
        sp, tol=max(cfg.tolerance, 1e-8), max_length=cfg.max_length),
    "coalgebra_axioms": lambda sp, cfg: check_coalgebra_axioms(
        sp, samples=cfg.samples, seed=cfg.seed, tol=cfg.tolerance,
        max_length=cfg.max_length),
    "comonoidality": lambda sp, cfg: check_comonoidality(sp, tol=cfg.tolerance),
    "unit_not_grouplike": lambda sp, cfg: check_unit_not_grouplike(sp),
    "convolution_unit": check_conv_unit,
    "antipode": lambda sp, cfg: antipode_infeasibility(sp),
    "star": lambda sp, cfg: check_star(sp, tol=cfg.tolerance, max_length=cfg.max_length),
}

SUITES: dict[str, tuple[str, ...]] = {
    "core": ("perron_frobenius", "dims_vs_fused", "projector_identity",
             "bullet_associativity", "bullet_unit", "projector_star_commute",
             "decomposition", "gamma_orthonormality"),
    "paths": ("grouplike_coalgebra", "concat_inner", "truncated_paths"),
    "bialgebra": ("delta_homomorphism", "convolution_coproduct",
                  "coalgebra_axioms", "comonoidality", "unit_not_grouplike",
                  "convolution_unit"),
    "antipode": ("antipode",),
    "star": ("star",),
}
SUITES["all"] = (SUITES["core"] + SUITES["paths"] + SUITES["bialgebra"]
                 + SUITES["antipode"] + SUITES["star"])


def _not_applicable(sp: EssentialSpace, name: str) -> Optional[str]:
    """Why check ``name`` does not apply to the graph of ``sp``, or None."""
    if name == "dims_vs_fused" and sp.pf.kappa is None:
        return "a graph without a Coxeter number has no fused matrices"
    if name == "antipode" and sp.grade_basis(1).dim < 1:
        return "the obstruction argument needs a populated grade 1"
    if name == "unit_not_grouplike" and sp.graph.n_vertices < 2:
        return "on one vertex the unit is group-like"
    return None


def run_suite(sp: EssentialSpace, suite: str, cfg: VerifyConfig) -> list[CheckReport]:
    """The reports of the checks of ``suite`` that apply to the graph.
    Raises InputError on an unknown suite, or naming each check and why it
    does not apply when none does, as a suite of no checks passes
    vacuously."""
    names = SUITES.get(suite)
    if names is None:
        if suite in CHECKS:
            names = (suite,)
        else:
            raise InputError(
                f"unknown suite {suite!r}; choose one of "
                f"{', '.join(sorted(SUITES))} or a single check name"
            )
    reports = [CHECKS[n](sp, cfg) for n in names if _not_applicable(sp, n) is None]
    if not reports:
        raise InputError("; ".join(f"check {n!r} does not apply to {sp.graph.name}: "
                                   f"{_not_applicable(sp, n)}" for n in names))
    return reports
