"""References for computations that now take a shorter route.

The sampled references are the monomial loops that `verify` once ran for the
checks now read from the structure constants, kept to confirm that the
derived residuals bound what the loops measure.  Each draws its monomials
with `_monomial_pairs`, as the loops did, so a (pairs, seed) pair
reproduces an earlier run's samples.

`per_cell_transfers` builds every cell's transfer matrix as cells were once
built, start by start and one cell at a time, each constraint matrix with
its own SVD, before the cells of a grade were built together with one
stacked SVD per shape.

`gamma_coproduct_paths` is the path coproduct as it was computed from the
decompositions of every split, before it became a deconcatenation,
`path_vector_bullet` the graded product as it was computed on path vectors,
before it moved to cell coordinates, and `bullet_reconstruct` the sum of a
decomposition as it was computed with one graded product per coefficient,
before it became one scatter into the target cell.

`antipode_right_side` is the right side of the antipode axiom at any input
grade, summed term by term over Delta(1), where the antipode check reads
grade 1 only.
"""

import math
import warnings

import numpy as np

from esspath import (
    EndoTensor,
    NonEssentialInputWarning,
    PathVector,
    TensorPathVector,
    concat,
    perron_frobenius,
)
from esspath.endo import (
    _gram,
    conv_bullet,
    convolution_coproduct,
    coproduct,
    counit,
    unit_endo,
)
from esspath.essential import _through


def _monomial_pairs(sp, rng, count, max_total=None):
    """Random monomial pairs ((n,i,j), (m,k,l)) with populated grades."""
    sizes = sp.dims(max_total)
    grades = [n for n, d in enumerate(sizes) if d > 0]
    out = []
    for _ in range(count):
        n = int(rng.choice(grades))
        m = int(rng.choice([g for g in grades if g + n < len(sizes)] or grades))
        dn, dm = sizes[n], sizes[m]
        out.append(((n, int(rng.integers(dn)), int(rng.integers(dn))),
                    (m, int(rng.integers(dm)), int(rng.integers(dm)))))
    return out


def delta_spot_residual(sp, pairs, seed, max_length=None):
    """Largest entry of Delta(r * s) - Delta(r) * Delta(s) over random
    monomial pairs, each side written out through the structure constants
    and the Gram matrix of the pair's grades."""
    rng = np.random.default_rng(seed)
    spot = 0.0
    for (n, i, j), (m, k, l) in _monomial_pairs(sp, rng, pairs, max_length):
        mul = sp.structure_constants(n, m)
        dt = mul.shape[2]
        if dt == 0:
            spot = max(spot, conv_bullet(EndoTensor.monomial(sp, n, i, j),
                                         EndoTensor.monomial(sp, m, k, l)).norm())
            continue
        # lhs[K,I,Ip,L] of Delta(rho * rho'); the middle legs carry delta_{I,Ip}
        outer = mul[i, k][:, None, None, None]
        lhs = outer * np.eye(dt)[:, :, None] * mul[j, l]
        rhs = outer * _gram(mul)[:, :, None] * mul[j, l]
        spot = max(spot, float(np.max(np.abs(lhs - rhs))))
    return spot


def convolution_coproduct_residual(sp, pairs, seed, max_length=None):
    """Largest norm of Delta'(r o s) - Delta'(r) o Delta'(s) over random
    monomial pairs, Delta' the coproduct dual to the graded product."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for (n, i, j), (m, k, l) in _monomial_pairs(sp, rng, pairs, max_length):
        rho = EndoTensor.monomial(sp, n, i, j)
        sig = EndoTensor.monomial(sp, m, k, l)
        lhs = convolution_coproduct(rho.compose(sig))
        rhs = convolution_coproduct(rho).compose(convolution_coproduct(sig))
        worst = max(worst, (lhs - rhs).norm())
    return worst


def gamma_orthonormality_residual(sp, lmax):
    """Largest entry of G - I, G the Gram matrix of the decomposition
    coefficient vectors of one cell's basis at one split, from `decompose`."""
    worst = 0.0
    for total in range(2, lmax + 1):
        for cell in sp.grade_basis(total).cells:
            for split in range(1, total):
                rows = []
                for k in range(cell.dim):
                    d = sp.decompose(cell.vector(k), split)
                    rows.append({(v, i, j): g for v, i, j, g in d.entries})
                keys = sorted({key for row in rows for key in row})
                mat = np.array([[row.get(key, 0.0) for key in keys]
                                for row in rows])
                gram = mat @ mat.T
                worst = max(worst, float(np.max(np.abs(gram - np.eye(cell.dim)))))
    return worst


def star_sampled_residuals(sp, pairs, seed, max_length=None):
    """(anti-homomorphism, coproduct, counit) residuals of the star on random
    monomial pairs with random coefficients."""
    rng = np.random.default_rng(seed)
    anti = co = eps = 0.0
    for (na, ia, ja), (nb, ib, jb) in _monomial_pairs(sp, rng, pairs, max_length):
        rho = EndoTensor.monomial(sp, na, ia, ja, float(rng.standard_normal()))
        sig = EndoTensor.monomial(sp, nb, ib, jb, float(rng.standard_normal()))
        anti = max(anti, (conv_bullet(rho, sig).star()
                          - conv_bullet(sig.star(), rho.star())).norm())
        co = max(co, (coproduct(rho.star()) - coproduct(rho).star()).norm())
        eps = max(eps, abs(counit(rho.star()) - counit(rho)))
    return anti, co, eps


def antipode_right_side(sp, n):
    """rhs[i, j] = sum over the terms c t1 (x) t2 of Delta(1) of
    c eps(x * t2) t1, the right side of the antipode axiom for the grade-n
    monomial x = e_i (x) e^j, as a dense grade-0 block; one Python loop over
    the monomial terms of Delta(1).  The counit of
    (e_i (x) e^j) * (e_u (x) e^w) is sum_K m_n0[i,u,K] m_n0[j,w,K]."""
    mul = sp.structure_constants(n, 0)
    dn, d0 = sp.grade_basis(n).dim, sp.grade_basis(0).dim
    rhs = np.zeros((dn, dn, d0, d0))
    for ((n1, v, x), (n2, u, w)), c in coproduct(unit_endo(sp)).terms.items():
        assert (n1, n2) == (0, 0)
        rhs[:, :, v, x] += c * (mul[:, u, :] @ mul[:, w, :].T)
    return rhs


def gamma_coproduct_paths(sp, e):
    """The coproduct of a homogeneous essential vector e from a to b as the
    direct sum over splits of its decompositions: [a] (x) e and e (x) [b],
    then for each inner split s and vertex v the block
    left.coordinates^T gamma right.coordinates on the path pairs, gamma as
    in `decompose` with entries up to 1e-14 set to 0."""
    cell, x, _ = sp._cell_vector(e, "coproduct_paths")
    a, b, total = cell.start, cell.end, cell.length
    paths, values = map(list, zip(*e.items()))
    pairs = [((a,), p) for p in paths]
    if total:  # at length 0 the two end pieces are the same term [a] (x) [a]
        pairs += [(p, (b,)) for p in paths]
        values += values
    for split in range(1, total):
        for v in range(sp.graph.n_vertices):
            left, right = sp._cell(a, v, split), sp._cell(v, b, total - split)
            if not (left.dim and right.dim):
                continue
            gam = left.coordinates @ _through(x, cell, left, right) @ right.coordinates.T
            gam[np.abs(gam) <= 1e-14] = 0.0
            block = left.coordinates.T @ gam @ right.coordinates
            i, j = np.nonzero(block)
            pairs += zip(map(left.paths.__getitem__, i.tolist()),
                         map(right.paths.__getitem__, j.tolist()))
            values += block[i, j].tolist()
    return TensorPathVector._of(pairs, values)


def path_vector_bullet(sp, e, f):
    """The graded product P(concat(e, f)) on path vectors: each factor is
    projected, with a warning if it is not essential, the two are
    concatenated and the concatenation is projected."""
    def ensure_essential(p):
        proj = sp.project(p)
        if (proj - p).norm() > sp.tol * (1.0 + p.norm()):
            warnings.warn("bullet: input was not essential and has been projected",
                          NonEssentialInputWarning, stacklevel=3)
        return proj

    return sp.project(concat(ensure_essential(e), ensure_essential(f)))


def bullet_reconstruct(sp, d):
    """The vector sum gamma_{vij} e_i(a, v) * e_j(v, b) of a decomposition,
    one graded product of two basis vectors per coefficient, summed as path
    vectors."""
    out = PathVector()
    for v, i, j, gamma in d.entries:
        left = sp._cell(d.start, v, d.split).vector(i)
        right = sp._cell(v, d.end, d.total_length - d.split).vector(j)
        out = out + gamma * sp.bullet(left, right)
    return out


def per_cell_transfers(g, max_length, rank_tol):
    """The transfer matrix and candidate blocks of every cell (a, b, l) of
    ``g`` with l <= max_length, built start by start and one cell at a
    time, independently of `EssentialSpace`: the candidates of cell
    (a, b, l) are the rows of the cells (a, v, l - 1) over v ~ b, the
    constraint matrix K = [sqrt(mu_v / mu_b) R_{(a,v,l-1)}[:, block b]^T]_v
    has as many rows as the cell (a, b, l - 2) has dimensions, and R is the
    identity when K has no entry, else the rows of its own SVD past the
    rank, singular values up to rank_tol times the largest counting as
    zero."""
    mu = perron_frobenius(g).mu
    nbrs = g.neighbors
    out = {}
    for a in range(g.n_vertices):
        for length in range(max_length + 1):
            for b in range(g.n_vertices):
                if length == 0:
                    blocks, candidates, rows = {}, int(a == b), 0
                else:
                    prev = [out[(a, v, length - 1)] for v in nbrs[b]]
                    edges = np.cumsum([0] + [t.shape[0] for t, _ in prev]).tolist()
                    blocks = {v: slice(lo, hi) for v, lo, hi in zip(nbrs[b], edges, edges[1:])}
                    candidates = edges[-1]
                    rows = out[(a, b, length - 2)][0].shape[0] if length > 1 else 0
                if not (candidates and rows):
                    transfer = np.eye(candidates)
                else:
                    k = np.zeros((rows, candidates))
                    for v, (t, tb) in zip(nbrs[b], prev):
                        k[:, blocks[v]] = math.sqrt(mu[v] / mu[b]) * t[:, tb[b]].T
                    _, svals, vt = np.linalg.svd(k)
                    thresh = rank_tol * (svals[0] if svals[0] > 0 else 1.0)
                    transfer = vt[int(np.sum(svals > thresh)):]
                out[(a, b, length)] = transfer, blocks
    return out
