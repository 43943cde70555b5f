"""Every verification check, and the suites that run them.

A check is a module-level function ``(sp: EssentialSpace, cfg: VerifyConfig)
-> CheckReport``; CHECKS maps each check name to one, and a suite is an
ordered tuple of check names.  Every setting a check reads comes from
``cfg``; what is policy rather than setting is a constant inside the check
(the 1e-8 floor of the Gram tolerances, the 0.5 floors of the two
non-existence checks, grade 1 for the antipode obstruction, length 4 for
the truncated path algebra).

One pass rule: a check passes when its residual is at most its tolerance
(CheckReport.within).  The two non-existence checks, unit_not_grouplike and
antipode, pass when the residual exceeds their floor, and perron_frobenius,
decomposition and grouplike_coalgebra add conditions of their own; these
five build their report with an explicit rule.

The randomized path checks draw cfg.samples samples each from a generator
seeded at cfg.seed plus a per-check offset, so a suite run is deterministic
for a given graph and configuration.  The checks of B that reduce to the
structure constants read them once over every grade pair, with no sampled
monomials: both readings of the homomorphism property are Gram-matrix
residuals, and orientation reversal is checked as an anti-automorphism of
the graded product (derivations in each check).  The coalgebra axioms are
sampled: random monomials with Gaussian coefficients, summed grade by grade
into one combination whose one coproduct gives both sides of
coassociativity and of both counit laws.  The identities are linear, so a
combination passes, almost surely, only when every sampled monomial does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .endo import (
    CheckReport,
    EndoTensor,
    _gram,
    _nonzero_terms,
    _scaled,
    _worst,
    coproduct,
    counit_weak_multiplicativity_residual,
    gram_condition_residual,
    unit_endo,
)
from .errors import InputError
from .essential import EssentialSpace
from .graphs import Graph, check_tolerances, fused_matrices
from .paths import (
    DROP_TOL,
    Path,
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
        if self.max_length is not None and self.max_length < 0:
            raise InputError("max length cap must be >= 0")

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

# largest k d^3 of one combination in check_coalgebra_axioms: without a cap,
# the 7 samples of a 33-dimensional E7 grade raised the peak RSS of
# `verify --graph E7 --suite all` from 130 MB to 147 MB
_COMBINATION_FLOATS = 1 << 16


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


def _drawer(cells: list[tuple[int, int, int]]):
    """draw(rng, budget, start=None): a cell drawn uniformly from those in
    ``cells`` of length <= budget (and starting at ``start`` when given).
    Each pool, the matching cells in the order of ``cells``, is built on its
    first draw and kept.  Both cell lists hold the length-0 cell of every
    vertex, so no pool is empty."""
    pools: dict[tuple[int, Optional[int]], list[tuple[int, int, int]]] = {}

    def draw(rng, budget: int, start: Optional[int] = None) -> tuple[int, int, int]:
        key = (budget, start)
        if key not in pools:
            pools[key] = [c for c in cells if c[2] <= budget and start in (None, c[0])]
        return pools[key][int(rng.integers(len(pools[key])))]

    return draw


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


def _worst_sample(cfg: VerifyConfig, offset: int,
                  residual: Callable[[np.random.Generator], float]) -> float:
    """The largest ``residual(rng)`` over cfg.samples calls, all drawing from
    one generator seeded at cfg.seed + offset; NaN if any call gives NaN."""
    rng = np.random.default_rng(cfg.seed + offset)
    return _worst(*[residual(rng) for _ in range(cfg.samples)])


# ---------------------------------------------------------------------------
# the essential path algebra


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
    cap = None if cfg.max_length is None else min(cfg.max_length, len(sums) - 1)
    kernel_dims = tuple(sp.dims(cap))
    expected = sums if cap is None else sums[:cap + 1]
    scope = "full range" if cap is None else f"lengths 0..{cap}"
    return CheckReport.within(
        "dims_vs_fused_matrices", float(kernel_dims != expected), 0.0,
        f"{scope}: kernel {kernel_dims}, fused {expected}")


def check_projector_identity(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """P(P(p1) P(p2)) = P(p1 p2) on random homogeneous path vectors."""
    cap = cfg.cap(sp)
    draw = _drawer(_path_cells(sp, cap))

    def residual(rng) -> float:
        c1 = draw(rng, cap)
        c2 = draw(rng, cap - c1[2], start=c1[1])
        p1 = _random_cell_paths(sp, rng, c1)
        p2 = _random_cell_paths(sp, rng, c2)
        lhs = sp.project(concat(sp.project(p1), sp.project(p2)))
        return (lhs - sp.project(concat(p1, p2))).norm()

    return CheckReport.within("projector_identity", _worst_sample(cfg, 0, residual),
                              cfg.tolerance, f"{cfg.samples} random homogeneous pairs")


def check_bullet_associativity(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """(e * f) * h = e * (f * h) on random essential triples."""
    cap = cfg.cap(sp)
    draw = _drawer(_essential_cells(sp, cap))

    def residual(rng) -> float:
        c1 = draw(rng, cap)
        c2 = draw(rng, cap - c1[2], start=c1[1])
        c3 = draw(rng, cap - c1[2] - c2[2], start=c2[1])
        e, f, h = (_random_essential(sp, rng, c) for c in (c1, c2, c3))
        return (sp.bullet(sp.bullet(e, f), h) - sp.bullet(e, sp.bullet(f, h))).norm()

    return CheckReport.within("bullet_associativity", _worst_sample(cfg, 1, residual),
                              cfg.tolerance, f"{cfg.samples} random essential triples")


def check_bullet_unit(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """The sum of zero-length paths is a two-sided unit for the graded
    product."""
    cap = cfg.cap(sp)
    draw = _drawer(_essential_cells(sp, cap))
    one = sp.unit_essential()

    def residual(rng) -> float:
        e = _random_essential(sp, rng, draw(rng, cap))
        return _worst((sp.bullet(one, e) - e).norm(), (sp.bullet(e, one) - e).norm())

    return CheckReport.within("bullet_unit", _worst_sample(cfg, 2, residual),
                              cfg.tolerance, f"{cfg.samples}/{cfg.samples} samples")


def check_projector_star_commute(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Orientation reversal commutes with the essential projector."""
    cap = cfg.cap(sp)
    draw = _drawer(_path_cells(sp, cap))

    def residual(rng) -> float:
        p = _random_cell_paths(sp, rng, draw(rng, cap))
        return (reverse_star(sp.project(p)) - sp.project(reverse_star(p))).norm()

    return CheckReport.within("projector_star_commute", _worst_sample(cfg, 3, residual),
                              cfg.tolerance, f"{cfg.samples} samples")


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
            for k, row in enumerate(cell.coordinates):
                e = cell.vector(k)
                x = np.where(np.abs(row) > DROP_TOL, row, 0.0)  # as e holds it
                for split in range(1, total):
                    d = sp._decompose(cell, x, split)
                    worst_norm = _worst(worst_norm, abs(d.sum_squares - 1.0))
                    worst_recon = _worst(worst_recon, (sp.reconstruct(d) - e).norm())
                    count += 1
    # each part is held to its own tolerance
    passed = worst_recon <= recon_tol and worst_norm <= norm_tol
    return CheckReport(
        name="decomposition_lemma",
        residual=_worst(worst_recon, worst_norm),
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
            worst = _worst(worst, float(np.max(np.abs(gram - eye))))
    return CheckReport.within("decomposition_gamma_orthonormality", worst,
                              cfg.tolerance, f"cells up to length {lmax}")


# ---------------------------------------------------------------------------
# elementary paths


def check_grouplike_coalgebra(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """The group-like coproduct on raw paths: coassociative, an algebra
    homomorphism, counit laws, and a non-group-like unit.  On one vertex
    the unit is group-like, so the gap is not asserted there."""
    g = sp.graph
    cap = min(cfg.cap(sp), 3)
    draw = _drawer(_path_cells(sp, cap))

    def residual(rng) -> float:
        c1 = draw(rng, cap)
        c2 = draw(rng, cap, start=c1[1])
        p = _random_cell_paths(sp, rng, c1, max_terms=4)
        q = _random_cell_paths(sp, rng, c2, max_terms=4)
        dp, dq = grouplike_coproduct(p), grouplike_coproduct(q)
        # counit law (id x eps) Delta = id
        back = PathVector()
        for (p1, p2), c in dp.items():
            back = back + PathVector.single(p1, c)
        return _worst((grouplike_coproduct(concat(p, q)) - tensor_concat(dp, dq)).norm(),
                      (back - p).norm())

    worst = _worst_sample(cfg, 4, residual)
    one = unit(g)
    gap = (grouplike_coproduct(one) - tensor(one, one)).norm()
    asserted = g.n_vertices >= 2
    return CheckReport(
        name="grouplike_coalgebra",
        residual=worst,
        tolerance=cfg.tolerance,
        # the residual within tolerance, and the gap when asserted
        passed=worst <= cfg.tolerance and (gap > 0.5 or not asserted),
        witness=f"unit non-group-like gap {gap:.3f} "
                + ("(must exceed 0.5)" if asserted else "(not asserted on one vertex)"),
    )


def check_concat_inner(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """<p q, p q'> = <q, q'> for an elementary prefix with matching
    endpoints."""
    cap = cfg.cap(sp)
    draw = _drawer(_path_cells(sp, cap))

    def residual(rng) -> float:
        head = draw(rng, cap)
        tail = draw(rng, cap, start=head[1])
        p = _random_cell_paths(sp, rng, head, max_terms=1)  # one path, up to sign
        q = _random_cell_paths(sp, rng, tail, max_terms=5)
        q2 = _random_cell_paths(sp, rng, tail, max_terms=5)
        return abs(inner(concat(p, q), concat(p, q2)) - inner(q, q2))

    return CheckReport.within("concat_inner_compatibility", _worst_sample(cfg, 5, residual),
                              cfg.tolerance, f"{cfg.samples} samples")


def truncated_paths_algebra(g: Graph, cap: int) -> tuple[
        dict[int, int], Callable[[int, int], np.ndarray]]:
    """The concatenation algebra on all elementary paths of length <= cap,
    with the elementary paths as orthonormal basis, as the dimensions of its
    populated grades and its structure constants by grade pair.  Structure
    constants are exact integers: one path splices from exactly one
    (prefix, suffix) pair."""
    basis: dict[int, list[Path]] = {}
    for n in range(cap + 1):
        grade: list[Path] = []
        for a in range(g.n_vertices):
            for b in range(g.n_vertices):
                grade.extend(enumerate_paths(g, g.label(a), g.label(b), n))
        basis[n] = sorted(grade)
    index = {n: {p: i for i, p in enumerate(ps)} for n, ps in basis.items()}

    def mul(n: int, k: int) -> np.ndarray:
        tgt = basis.get(n + k, [])
        out = np.zeros((len(basis[n]), len(basis[k]), len(tgt)))
        if tgt:
            tidx = index[n + k]
            for i, p in enumerate(basis[n]):
                for j, q in enumerate(basis[k]):
                    if p[-1] == q[0]:
                        out[i, j, tidx[p + q[1:]]] = 1.0
        return out

    return {n: len(ps) for n, ps in basis.items() if ps}, mul


def check_truncated_paths(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """The length-truncated concatenation algebra (lengths <= 4) satisfies
    the Gram condition exactly, and cut-then-concatenate returns every
    elementary path unchanged."""
    g = sp.graph
    cap = 4
    gram, pair = gram_condition_residual(*truncated_paths_algebra(g, cap))
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
    return CheckReport.within(
        f"truncated_paths_bialgebra[cap={cap}]", _worst(gram, float(cut_fail)), 0.0,
        f"{f'worst grade pair {pair}' if gram else 'all grade pairs exact'}; "
        f"{cut_fail} cut-concat failures")


# ---------------------------------------------------------------------------
# the endomorphism algebra B


def check_delta_homomorphism(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Homomorphism property of the composition coproduct for the graded
    convolution, read from the Gram matrices G = _gram(m_nm) of every grade
    pair.  For monomials r = e_i (x) e^j of grade n and s = e_k (x) e^l of
    grade m, Delta(r * s) - Delta(r) * Delta(s) is
    sum_{K,A,B,L} m_nm[i,k,K] (delta_AB - G[A,B]) m_nm[j,l,L]
    (e_K (x) e^A) (x) (e_B (x) e^L), so the coproduct is a homomorphism
    exactly when every G is the identity.  No structure constant exceeds 1
    in size (it pairs a unit vector with a product of unit vectors), so no
    entry of the difference exceeds the Gram residual, which is the
    residual here; the worst pair is named only above the tolerance.  A
    Gram entry sums many products, so the tolerance is at least 1e-8."""
    tol = max(cfg.tolerance, 1e-8)
    residual, pair = gram_condition_residual(dict(enumerate(sp.dims(cfg.max_length))),
                                             sp.structure_constants)
    return CheckReport.within(
        "delta_homomorphism[bullet]", residual, tol,
        f"gram residual {residual:.3e}" + ("" if residual <= tol else f" (worst pair {pair})"))


def check_convolution_coproduct(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Dual reading of the compatibility: the coproduct Delta' built from the
    graded product is an algebra homomorphism for composition, read from
    the Gram matrices G_s = _gram(m_{n-s,s}) of the splits s of each grade n.

    Seen as an endomorphism of E_{n-s} (x) E_s, the split-s part of
    Delta'(e_i (x) e^j) is the rank-one U_i U_j^T with U_i = m_{n-s,s}[:, :, i],
    and legwise composition is composition there.  So for monomials of
    grade n, Delta'(e_i (x) e^j) o Delta'(e_k (x) e^l) is
    sum_s G_s[j,k] U_i U_l^T, while Delta' of the composite
    delta_jk e_i (x) e^l has delta_jk in place of G_s[j,k].  The splits sit
    on different grade profiles, so the difference has squared norm
    sum_s (G_s[j,k] - delta_jk)^2 G_s[i,i] G_s[l,l]; monomials of different
    grades compose to zero on both sides.  The residual is the square root
    of its upper bound max_{j,k} sum_s (G_s[j,k] - delta_jk)^2 c_s^2,
    c_s = max_i G_s[i,i], over every grade; the bound is the maximum over
    all monomial pairs when each Gram diagonal is constant.  As for
    delta_homomorphism, the tolerance is at least 1e-8."""
    worst = 0.0
    sizes = sp.dims(cfg.max_length)
    for n, d in enumerate(sizes):
        grams = np.stack([_gram(sp.structure_constants(n - s, s)) for s in range(n + 1)])
        scale = np.max(np.diagonal(grams, axis1=1, axis2=2), axis=1) ** 2
        dev = ((grams - np.eye(d)) ** 2).reshape(n + 1, -1)
        worst = _worst(worst, float(np.max(scale @ dev)))
    return CheckReport.within(
        "convolution_coproduct_homomorphism[compose]", math.sqrt(worst),
        max(cfg.tolerance, 1e-8),
        f"every monomial pair of grades 0..{len(sizes) - 1}, from "
        f"{len(sizes) * (len(sizes) + 1) // 2} split Gram matrices")


def check_coalgebra_axioms(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Coassociativity of the composition coproduct and the two counit laws,
    on random combinations of monomials, one grade at a time.  Each sample
    draws a monomial e_i (x) e^j of a populated grade n and a Gaussian
    coefficient c; the samples of grade n make one rank-one batch
    rho = sum c e_i (x) e^j, and one coproduct d = Delta(rho) gives both
    sides of coassociativity, (Delta (x) id)(d) = (id (x) Delta)(d), and of
    both counit laws, (id (x) eps)(d) = rho = (eps (x) id)(d).  The
    identities are linear in rho, so each difference is the sum over
    samples of c times that monomial's difference.  Unless every sampled
    monomial passes, the c for which the sum vanishes form a proper
    subspace, which Gaussian c miss almost surely.  The residual is the
    largest of the three norms over the combinations.  The coassociativity
    sides of k samples of dimension d hold about 10 k d^3 floats, so a
    grade's samples are split into combinations of at most
    _COMBINATION_FLOATS // d^3 (one at least)."""
    rng = np.random.default_rng(cfg.seed)
    sizes = sp.dims(cfg.max_length)  # every grade listed is populated
    drawn: dict[int, list[tuple[int, int, float]]] = {}
    for _ in range(cfg.samples):
        n = int(rng.choice(len(sizes)))
        i, j = int(rng.integers(sizes[n])), int(rng.integers(sizes[n]))
        drawn.setdefault(n, []).append((i, j, float(rng.standard_normal())))
    worst = 0.0
    combinations = 0
    for n, picks in sorted(drawn.items()):
        eye = np.eye(sizes[n])
        step = max(1, _COMBINATION_FLOATS // sizes[n] ** 3)
        for lo in range(0, len(picks), step):
            i, j, c = map(list, zip(*picks[lo:lo + step]))
            rho = EndoTensor._of(sp, 1, _nonzero_terms((n,), (_scaled((eye[i], eye[j]), c),)))
            d = coproduct(rho)
            worst = _worst(worst, (d.coproduct_leg(0) - d.coproduct_leg(1)).norm(),
                           (d.contract_counit(1) - rho).norm(),
                           (d.contract_counit(0) - rho).norm())
            combinations += 1
    return CheckReport.within(
        "coalgebra_axioms", worst, cfg.tolerance,
        f"{cfg.samples} random monomials as {combinations} Gaussian "
        f"combinations in grades {', '.join(map(str, sorted(drawn)))}")


def check_comonoidality(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Both comonoidality identities for the unit, by explicit triple-tensor
    expansion; the counit weak-multiplicativity residual is measured and
    reported in the witness without asserting a direction."""
    one = unit_endo(sp)
    d1 = coproduct(one)
    d2 = d1.coproduct_leg(0)
    res_left = (d2 - d1.tensor(one).bullet(one.tensor(d1))).norm()
    res_right = (d2 - one.tensor(d1).bullet(d1.tensor(one))).norm()
    weak = counit_weak_multiplicativity_residual(sp)
    return CheckReport.within(
        "comonoidality", _worst(res_left, res_right), cfg.tolerance,
        f"left {res_left:.3e}, right {res_right:.3e}; counit weak "
        f"multiplicativity measured residual {weak:.3e} (not asserted)")


def check_unit_not_grouplike(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Delta(1) differs from 1 (x) 1: pass means the residual EXCEEDS the
    floor 0.5 (weak bialgebra, not a bialgebra)."""
    one = unit_endo(sp)
    gap = (coproduct(one) - one.tensor(one)).norm()
    return CheckReport(
        name="unit_not_grouplike (pass iff residual > tolerance)",
        residual=gap,
        tolerance=0.5,
        passed=gap > 0.5,
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
            worst = _worst(worst, float(np.max(np.abs(vertex_sum - np.eye(d)), initial=0.0)))
    return CheckReport.within(
        "convolution_unit", worst, cfg.tolerance,
        f"vertex sums of m_0n and m_n0 against I in grades 0..{len(sizes) - 1}")


def antipode_infeasibility(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Closed-form obstruction to the antipode axiom on grade-1 inputs.

    The axiom S(x_(1)) * x_(2) = 1_(1) eps(x 1_(2)) is imposed for every
    basis monomial x of grade 1.  Delta(x) has both legs in grade 1, so for
    every linear S the left side lies in grades >= 1.  Delta(1) has both
    legs in grade 0, so the right side lies in grade 0.  The two sides
    share no grade, and the smallest residual over all S is the norm of the
    right side, attained by S = 0; pass means it stays ABOVE the floor 0.5.

    The right side is built from Delta(1) by the machinery, and two facts
    are asserted on it, either failure being a FAIL:

    1. Delta(1) has no leg outside grade 0 (the grade argument needs it).
    2. residual^2 = |V| * #{diagonal monomials (i, i)}.  Delta(1) is
       sum_{v,u,w} (e_v (x) e^u) (x) (e_u (x) e^w) over vertices, and
       e_i * [u] = delta(u, end(e_i)) e_i, so
       eps((e_i (x) e^j) * (e_u (x) e^w)) = delta_ij delta(u, end e_i)
       delta(w, end e_i).  The right side of x = e_i (x) e^j is therefore
       delta_ij times the grade-0 block whose column end(e_i) is all ones,
       of squared norm |V|.

    Raises InputError when grade 1 is empty, as the argument needs it
    populated.
    """
    d1 = sp.grade_basis(1).dim
    if d1 < 1:
        raise InputError(f"grade 1 is empty on {sp.graph.name}")
    # right side rhs[(i, j), (v, x)] = sum over Delta(1) terms t1 (x) t2 of
    # t1 eps(x * t2), from the machinery, no shortcut.  The counit of
    # (e_i (x) e^j) * (e_k (x) e^l) is sum_K mul[i,k,K] mul[j,l,K], so the
    # grade-(0, 0) block of Delta(1) is one contraction for every monomial.
    d0 = sp.grade_basis(0).dim
    blocks = coproduct(unit_endo(sp)).dense_blocks()
    one = blocks.pop((0, 0), np.zeros((d0,) * 4))
    mul = sp.structure_constants(1, 0)
    # eps[i, j, k, l] = sum_K mul[i, k, K] mul[j, l, K], over rows (i, k)
    flat = mul.reshape(-1, d1)
    eps = (flat @ flat.T).reshape(d1, d0, d1, d0).transpose(0, 2, 1, 3)
    rhs = eps.reshape(d1 * d1, -1) @ one.reshape(d0 * d0, -1).T
    residual_sq = float(np.sum(rhs ** 2))
    residual = math.sqrt(residual_sq)
    expected = d0 * d1
    faults = [f"Delta(1) has a leg outside grade 0, grade profile {p}"
              for p in sorted(blocks)]
    if abs(residual_sq - expected) > 1e-9 * expected:
        faults.append(f"residual^2 {residual_sq:.12g} != |V| * diagonal "
                      f"monomials = {expected}")
    return CheckReport(
        name="antipode_infeasibility[n=1] (pass iff residual > tolerance)",
        residual=residual,
        tolerance=0.5,
        passed=residual > 0.5 and not faults,
        witness="; ".join([
            f"{d1 * d1} grade-1 monomial conditions; norm {residual:.6f} "
            "of the right-hand side sits in grades no product can reach",
            *faults]),
    )


def check_star(sp: EssentialSpace, cfg: VerifyConfig) -> CheckReport:
    """Star suite: per-grade closure of the basis under reversal (the star
    matrix T_n is orthogonal), the fixed unit, and reversal as an
    anti-automorphism of the graded product, over every grade pair with a
    populated target:
    T_{n+m} m_nm[i,j,:] = sum_{i',j'} T_n[i',i] T_m[j',j] m_mn[j',i',:],
    the coordinates of reverse(e_i * e_j) = reverse(e_j) * reverse(e_i).
    The convolution product of monomials is built legwise from m_nm, so
    its anti-homomorphism follows.  Compatibility with the coproduct and
    the counit follows from closure: Delta(T r T^T) is T (x) T applied
    legwise to Delta(r), because sum_I T e_I (x) T e_I = sum_I e_I (x) e_I
    for orthogonal T, and trace(T r T^T) = trace(r).  A sign change of a
    block that reversal maps onto itself (n = m, cells a|b x b|a -> a|a)
    flips both sides alike, so the identity cannot see it."""
    sizes = sp.dims(cfg.max_length)
    stars = [sp.star_matrix(n) for n in range(len(sizes))]
    closure = _worst(*[float(np.max(np.abs(t @ t.T - np.eye(len(t))))) for t in stars])
    one = unit_endo(sp)
    unit_res = (one.star() - one).norm()
    anti = 0.0
    pairs = 0
    for n, tn in enumerate(stars):
        for m, tm in enumerate(stars[:len(sizes) - n]):
            dn, dm, dt = len(tn), len(tm), sizes[n + m]
            lhs = sp.structure_constants(n, m).reshape(-1, dt) @ stars[n + m].T
            # swapped[j, i', :] = sum_{j'} T_m[j', j] m_mn[j', i', :]
            swapped = tm.T @ sp.structure_constants(m, n).reshape(dm, -1)
            rhs = tn.T @ swapped.reshape(dm, dn, dt).swapaxes(0, 1).reshape(dn, -1)
            anti = _worst(anti, float(np.max(np.abs(lhs.reshape(dn, -1) - rhs))))
            pairs += 1
    return CheckReport.within(
        "star_suite", _worst(closure, unit_res, anti), cfg.tolerance,
        f"closure {closure:.3e}, unit {unit_res:.3e}, anti-automorphism "
        f"{anti:.3e} over {pairs} grade pairs")


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
    "delta_homomorphism": check_delta_homomorphism,
    "convolution_coproduct": check_convolution_coproduct,
    "coalgebra_axioms": check_coalgebra_axioms,
    "comonoidality": check_comonoidality,
    "unit_not_grouplike": check_unit_not_grouplike,
    "convolution_unit": check_conv_unit,
    "antipode": antipode_infeasibility,
    "star": check_star,
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
