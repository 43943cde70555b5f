"""Essential paths: cell bases, the orthogonal projector, the graded product.

A path vector is *essential* when every backtrack-removal operator C_k kills
it.  Cell bases are built by length, one edge at a time (Ocneanu, *Paths on
Coxeter diagrams*, 1999): an essential path of length l from a to b is a
combination of e_j^{(l-1)}(a, v) (x) [v, b] over the neighbours v of b,
because C_k with k < l - 1 acts inside the prefix.  Only C_{l-1} is a new
constraint, and in the bases of length l - 1 and l - 2 it is a small matrix
K; the cell's transfer matrix R spans its kernel, found by SVD with a
relative rank threshold.  Dimensions therefore come from R alone, with no
path enumerated.  The coordinates of a cell over its elementary paths,
<e_i, p> = the product of R blocks along p, are built on first read and
canonicalized (reduced echelon over the lex path order, Gram-Schmidt, sign
fix) so runs are reproducible; golden values should nevertheless be
basis-independent (dimensions, norms, Gram data) because any orthonormal
basis of the same kernel is equally valid.  Each R and each set of path
coordinates is checked as it is made: dimension against the fused matrices,
orthonormality, and annihilation by its constraints.  Path coordinates are
read by gathers over the lex order: the paths of cell (a, b, l) at v after s
steps are, in lex order, the paths of (a, v, s) times those of (v, b, l - s),
so decompositions, the coproduct and the structure constants read them as
one block per v, and the graded product writes into them the same way.  The
coproduct takes each block of the projected vector as it is; every other
contraction with a block is a plain matmul, two for a structure-constant
block: (d3 P1, P2) @ (P2, d2), then (d1, P1) @ (P1, d2) per target vector.

The graded product is e * f = P(concat(e, f)) where P is the orthogonal
projector onto the essential subspace; it is associative because
P(P(p)P(q)) = P(pq).  Queries work in cell coordinates: each input is
gathered once into the coordinates of its cells, with one binary search per
term, and each cell is projected once; a homogeneous query counts its cells
from the same keys.  Writing into a cell is one scatter: a product adds the
outer product of two projected factor cells into its target cell's block
through each intermediate vertex, a reconstruction the block
C_left^T gamma_v C_right, and each target cell is projected once, so no
spliced path is built.
"""

from __future__ import annotations

import bisect
import math
import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, product
from typing import Callable, Optional

import numpy as np

from .errors import EsspathError, InputError, NonEssentialInputWarning, NumericError
from .graphs import (DEFAULT_TOL, Graph, PerronData, check_tolerances, fused_matrices,
                     perron_frobenius)
from .paths import (
    DROP_TOL,
    Path,
    PathVector,
    TensorPathVector,
    enumerate_paths,
    path_length,
)

DEFAULT_RANK_TOL = 1e-7


@dataclass(frozen=True)
class CellCoordinates:
    """A cell basis over the lex-ordered elementary paths of the cell, with
    the residuals it was checked against.  Row r of ``walks`` is paths[r]."""

    paths: tuple[Path, ...]
    walks: np.ndarray  # (len(paths), length + 1) vertex indices
    coordinates: np.ndarray  # (dim, len(paths))
    gram_residual: float
    annihilator_residual: float

    @property
    def dim(self) -> int:
        return self.coordinates.shape[0]


@dataclass(frozen=True, eq=False)
class EssentialCellBasis:
    """Orthonormal basis e_0, ..., e_{dim-1} of the essential paths from
    ``start`` to ``end`` of a fixed length.

    ``transfer`` is the basis in candidate coordinates: row i writes e_i as
    a combination of e_j^{(length-1)}(start, v) (x) [v, end] over the
    neighbours v of ``end``, whose columns are ``blocks[v]``.  The
    coordinates over the cell's elementary paths are built by the space
    that made the cell on the first read of ``paths`` or ``coordinates``,
    so that space must still be alive then; a cell of dimension 0 has no
    paths and enumerates none.  The cell refers to its space weakly: the
    space holds its cells, and a cycle would keep a dropped space in memory
    until the next full garbage collection."""

    start: int
    end: int
    length: int
    transfer: np.ndarray  # (dim, candidates)
    blocks: dict[int, slice]
    space: weakref.ReferenceType = field(repr=False)

    @property
    def dim(self) -> int:
        return self.transfer.shape[0]

    @cached_property
    def _in_paths(self) -> CellCoordinates:
        if not self.dim:
            return CellCoordinates((), np.zeros((0, self.length + 1), dtype=int),
                                   np.zeros((0, 0)), 0.0, 0.0)
        space = self.space()
        if space is None:
            raise EsspathError("the EssentialSpace of this cell no longer exists; "
                               "keep a reference to it to read path coordinates")
        return space._compute_cell(self.start, self.end, self.length)

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        return self._in_paths.paths

    @cached_property
    def walks(self) -> np.ndarray:
        return self._in_paths.walks

    @cached_property
    def coordinates(self) -> np.ndarray:
        return self._in_paths.coordinates

    @cached_property
    def gram_residual(self) -> float:
        return self._in_paths.gram_residual

    @cached_property
    def annihilator_residual(self) -> float:
        return self._in_paths.annihilator_residual

    def row(self, path: Path) -> Optional[int]:
        """Position of ``path`` in ``paths``, or None when it is not a path
        of the cell.  ``paths`` is in lex order (checked where it is made),
        so the lookup is a binary search and the cell keeps no index."""
        i = bisect.bisect_left(self.paths, path)
        return i if i < len(self.paths) and self.paths[i] == path else None

    def vector(self, i: int) -> PathVector:
        return PathVector._of(self.paths, self.coordinates[i].tolist())

    @property
    def vectors(self) -> list[PathVector]:
        return [self.vector(i) for i in range(self.dim)]


@dataclass(frozen=True)
class GradeBasis:
    """Concatenation of all cell bases of one length, cells ordered by
    (start, end) vertex index.  Global indices are used by the endomorphism
    blocks and the structure-constant tensors."""

    length: int
    cells: tuple[EssentialCellBasis, ...]
    offsets: tuple[int, ...]
    dim: int
    starts: np.ndarray
    ends: np.ndarray

    def cell_at(self, start: int, end: int) -> tuple[Optional[EssentialCellBasis], int]:
        for cell, off in zip(self.cells, self.offsets):
            if cell.start == start and cell.end == end:
                return cell, off
        return None, 0

    def vector(self, i: int) -> PathVector:
        cell, k = self.locate(i)
        return cell.vector(k)

    def locate(self, i: int) -> tuple[EssentialCellBasis, int]:
        for cell, off in zip(self.cells, self.offsets):
            if off <= i < off + cell.dim:
                return cell, i - off
        raise IndexError(i)


@dataclass(frozen=True)
class Decomposition:
    """Coefficients gamma_{vij} writing an essential path of length L as a
    sum of graded products of essential paths of lengths l and L - l over
    intermediate vertices v.  The squared coefficients sum to the squared
    norm of the decomposed vector."""

    start: int
    end: int
    total_length: int
    split: int
    entries: tuple[tuple[int, int, int, float], ...]  # (v, i, j, gamma)

    @property
    def sum_squares(self) -> float:
        return sum(g * g for *_, g in self.entries)


def _rref(mat: np.ndarray, pivot_tol: float = 1e-8) -> np.ndarray:
    """Reduced row echelon form with partial pivoting; rows spanning the
    same subspace always yield the same result."""
    m = mat.astype(float).copy()
    nrows, ncols = m.shape
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        piv = r + int(np.argmax(np.abs(m[r:, col])))
        if abs(m[piv, col]) <= pivot_tol:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] / m[r, col]
        for other in range(nrows):
            if other != r and abs(m[other, col]) > 0:
                m[other] -= m[other, col] * m[r]
        r += 1
    return m[:r]


def _gram_schmidt(rows: np.ndarray) -> np.ndarray:
    out = rows.astype(float).copy()
    for i in range(out.shape[0]):
        for j in range(i):
            out[i] -= (out[j] @ out[i]) * out[j]
        nrm = np.linalg.norm(out[i])
        out[i] = out[i] / nrm
    return out


def _split_mask(cell: EssentialCellBasis, left: EssentialCellBasis,
                right: EssentialCellBasis) -> np.ndarray:
    """The paths of ``cell`` that are p1 + p2[1:] with p1 in left.paths and
    p2 in right.paths, as a mask over ``cell.paths``.  Those are the paths
    of ``cell`` at left.end after left.length steps, and lex order lists
    them as left.paths x right.paths in row-major order.  Raises
    NumericError unless there are len(left.paths) * len(right.paths)."""
    hit = cell.walks[:, left.length] == left.end
    if np.count_nonzero(hit) != len(left.paths) * len(right.paths):
        raise NumericError(f"cell {cell.start}|{cell.end}|{cell.length}: its paths "
                           f"through {left.end} are not {len(left.paths)} x "
                           f"{len(right.paths)}")
    return hit


def _through(x: np.ndarray, cell: EssentialCellBasis, left: EssentialCellBasis,
             right: EssentialCellBasis) -> np.ndarray:
    """The entries of ``x``, whose last axis runs over the paths of
    ``cell``, on the paths of `_split_mask`, as an array of shape (...,
    len(left.paths), len(right.paths))."""
    return x[..., _split_mask(cell, left, right)].reshape(
        x.shape[:-1] + (len(left.paths), len(right.paths)))


# A vector in cell coordinates: (cell, x) for each populated cell, x over
# the cell's paths; projected, (cell, x, y) with y the projection of x.
Gathered = list[tuple[EssentialCellBasis, np.ndarray]]
Empty = list[tuple[EssentialCellBasis, float]]  # an empty cell, |terms|^2
Projected = list[tuple[EssentialCellBasis, np.ndarray, np.ndarray]]


def _path_vector(projected: Projected) -> PathVector:
    """The vector with coefficients y in each (cell, x, y)."""
    paths: list[Path] = []
    values: list[float] = []
    for cell, _, y in projected:
        paths += cell.paths
        values += y.tolist()
    return PathVector._of(paths, values)


class EssentialSpace:
    """All cached essential-path data of one graph.

    Cell bases, grade bases, structure-constant tensors and the star
    (orientation reversal) matrices are computed once and then read-only.
    """

    def __init__(self, graph: Graph, pf: Optional[PerronData] = None,
                 tol: float = DEFAULT_TOL, rank_tol: float = DEFAULT_RANK_TOL):
        check_tolerances(tol, rank_tol)
        self.graph = graph
        self.tol = tol
        self.rank_tol = rank_tol
        self.pf = pf if pf is not None else perron_frobenius(graph, tol)
        # (F_l)_{ab} is the dimension of cell (a, b, l) on an ADE graph
        self._fused = fused_matrices(graph, tol).matrices if self.pf.kappa else None
        self._cells: dict[tuple[int, int, int], EssentialCellBasis] = {}
        self._grades: dict[int, GradeBasis] = {}
        self._mul: dict[tuple[int, int], np.ndarray] = {}
        self._star: dict[int, np.ndarray] = {}

    # -- cell bases -----------------------------------------------------

    @property
    def max_length(self) -> Optional[int]:
        """Largest length carrying essential paths (kappa - 2), or None when
        the spectral radius is >= 2 and every length is populated."""
        return None if self.pf.kappa is None else self.pf.kappa - 2

    def cell(self, a, b, length: int) -> EssentialCellBasis:
        """Cell basis with endpoints given by vertex labels."""
        return self._cell(self.graph.vertex_index(a), self.graph.vertex_index(b),
                          length)

    def _cell(self, ai: int, bi: int, length: int) -> EssentialCellBasis:
        if length < 0:
            raise InputError(f"length must be >= 0, got {length}")
        got = self._cells.get((ai, bi, length))
        if got is None:
            # a cell is made from the cells one shorter with the same start,
            # so the missing lengths of start ai are built shortest first
            for k in range(length + 1):
                for b in range(self.graph.n_vertices):
                    if (ai, b, k) not in self._cells:
                        self._cells[(ai, b, k)] = self._transfer_cell(ai, b, k)
            got = self._cells[(ai, bi, length)]
        return got

    def _transfer_cell(self, a: int, b: int, length: int) -> EssentialCellBasis:
        """Cell (a, b, length) from the cells (a, v, length - 1), v ~ b.

        Its candidates e_j^{(length-1)}(a, v) (x) [v, b] are orthonormal and
        killed by every C_k with k < length - 1, because those C_k act inside
        the prefix.  The one new constraint C_{length-1} maps a candidate
        into the cell (a, b, length - 2); in that cell's basis it is
        K = [sqrt(mu_v / mu_b) R_{(a,v,length-1)}[:, block b]^T]_v, so the
        cell's transfer matrix R spans the kernel of K and no path is
        involved."""
        if length == 0:
            blocks: dict[int, slice] = {}
            k = np.zeros((0, int(a == b)))
        else:
            nbrs = self.graph.neighbors[b]
            prev = [self._cells[(a, v, length - 1)] for v in nbrs]
            edges = np.cumsum([0] + [c.dim for c in prev]).tolist()
            blocks = {v: slice(lo, hi) for v, lo, hi in zip(nbrs, edges, edges[1:])}
            k = np.zeros((self._cells[(a, b, length - 2)].dim if length > 1 else 0,
                          edges[-1]))
            if k.size:
                mu = self.pf.mu
                for v, c in zip(nbrs, prev):
                    k[:, blocks[v]] = math.sqrt(mu[v] / mu[b]) * c.transfer[:, c.blocks[b]].T
        transfer = self._kernel(k)
        ann = k @ transfer.T
        self._checked_kernel(a, b, length, transfer,
                             float(np.abs(ann).max()) if ann.size else 0.0,
                             lambda: float(np.linalg.norm(k)))
        return EssentialCellBasis(a, b, length, transfer, blocks, weakref.ref(self))

    def _kernel(self, constraints: np.ndarray) -> np.ndarray:
        """Orthonormal rows spanning the kernel of ``constraints``; singular
        values up to rank_tol times the largest one count as zero."""
        if not constraints.size:
            return np.eye(constraints.shape[1])
        _, svals, vt = np.linalg.svd(constraints)
        thresh = self.rank_tol * (svals[0] if svals[0] > 0 else 1.0)
        return vt[int(np.sum(svals > thresh)):]

    def _checked_kernel(self, a: int, b: int, length: int, rows: np.ndarray,
                        ann_res: float, scale: Callable[[], float]) -> float:
        """Gram residual of the basis ``rows`` of cell (a, b, length), given
        ``ann_res``, the largest entry of its image under its constraints.
        Raises NumericError unless dim = (F_l)_{ab} on graphs with a Coxeter
        number and both residuals are within rank_tol, the bound on the
        kernel's relative singular values; ann_res may instead be within
        rank_tol times the Frobenius norm of the constraints, ``scale()``,
        which is called only then."""
        where = f"cell {a}|{b}|{length} of {self.graph.name}"
        dim = rows.shape[0]
        fm = self._fused
        if fm is not None and dim != (fm[length][a, b] if length < len(fm) else 0):
            raise NumericError(f"{where}: dimension {dim} is not the fused-matrix entry")
        gram_res = float(np.max(np.abs(rows @ rows.T - np.eye(dim)))) if dim else 0.0
        tol = self.rank_tol  # the Frobenius norm bounds the largest singular value
        if not (gram_res <= tol and (ann_res <= tol or ann_res <= tol * scale())):
            raise NumericError(f"{where}: Gram residual {gram_res:.3g}, "
                               f"annihilator residual {ann_res:.3g}")
        return gram_res

    def _compute_cell(self, a: int, b: int, length: int) -> CellCoordinates:
        """Canonical path coordinates of a built cell of nonzero dimension."""
        walks, rows = self._path_rows(a, b, length)
        order = np.lexsort(walks.T[::-1])
        return self._checked_cell(a, b, length, walks[order],
                                  self._canonical(rows[:, order]))

    def _path_rows(self, a: int, b: int,
                   length: int) -> tuple[np.ndarray, np.ndarray]:
        """The walks from a to b of the given length, one row of vertex
        indices each, and the cell's basis on them: <e_i, p> is the product
        of the transfer blocks along p, grown one edge at a time over the
        walks that can still reach b."""
        nbrs = self.graph.neighbors
        reach = [{b}]  # reach[r]: the vertices r steps from b
        for _ in range(length):
            reach.append({v for u in reach[-1] for v in nbrs[u]})
        vertex = np.min_scalar_type(self.graph.n_vertices)  # walk entry type
        level = {a: (np.array([[a]], dtype=vertex), np.ones((1, 1)))}
        for k in range(1, length + 1):
            nxt = {}
            for u in reach[length - k]:
                cell = self._cells[(a, u, k)]
                parts = [(v, level[v]) for v in nbrs[u] if v in level]
                if parts:
                    walks = np.vstack([w for _, (w, _) in parts])
                    nxt[u] = (np.column_stack([walks, np.full(len(walks), u, vertex)]),
                              np.hstack([cell.transfer[:, cell.blocks[v]] @ x
                                         for v, (_, x) in parts]))
            level = nxt
        return level[b]

    def _annihilator_residual(self, walks: np.ndarray,
                              coords: np.ndarray) -> tuple[float, float]:
        """The largest entry of C_k coords^T over k = 1, ..., l - 1 and the
        Frobenius norm of [C_1; ...; C_{l-1}], for coordinates over the
        walks of length l in the rows of ``walks``.  A walk w that
        backtracks at k (w_{k-1} = w_{k+1}) maps to the shorter walk without
        w_k and w_{k+1}, with weight sqrt(mu_{w_k} / mu_{w_{k-1}}); the
        walks that map to one shorter walk are grouped and summed.  The rows
        of ``walks`` must be all such walks in lex order, which
        `_checked_cell` checks first: then the backtracking walks with one
        prefix w_0 ... w_{k-1} come in runs, one per w_k, each over the same
        suffixes w_{k+1} ... w_l in the same order, and each walk is grouped
        onto the row of its suffix in the prefix's first run.  No shorter
        walk is enumerated, and the transfer matrices are not read, so the
        check stays independent of the build."""
        mu = self.pf.mu
        worst = norm_sq = 0.0
        for k in range(1, walks.shape[1] - 1):
            hit = np.flatnonzero(walks[:, k - 1] == walks[:, k + 1])
            if not hit.size:
                continue
            h = walks[hit]
            w = np.sqrt(mu[h[:, k]] / mu[h[:, k - 1]])
            norm_sq += float(w @ w)
            rows = np.arange(len(h))
            new_prefix = np.ones(len(h), dtype=bool)
            new_prefix[1:] = (h[1:, :k] != h[:-1, :k]).any(axis=1)
            new_run = new_prefix.copy()
            new_run[1:] |= h[1:, k] != h[:-1, k]
            group = (rows - np.maximum.accumulate(np.where(new_run, rows, 0))
                     + np.maximum.accumulate(np.where(new_prefix, rows, 0)))
            image = [np.bincount(group, weights=w * x, minlength=len(h))
                     for x in coords[:, hit]]
            worst = max(worst, float(np.max(np.abs(image))))
        return worst, math.sqrt(norm_sq)

    def _canonical(self, rows: np.ndarray) -> np.ndarray:
        """The canonical orthonormal basis of the row span of ``rows``."""
        basis = _gram_schmidt(_rref(rows))
        for i in range(basis.shape[0]):  # first |coeff| > tol in lex order positive
            lead = np.flatnonzero(np.abs(basis[i]) > self.tol)
            if lead.size and basis[i, lead[0]] < 0:
                basis[i] = -basis[i]
        return basis

    def _checked_cell(self, a: int, b: int, length: int, walks: np.ndarray,
                      coords: np.ndarray) -> CellCoordinates:
        """The cell basis with rows ``coords`` over the walks in the rows of
        ``walks``, residuals computed here.  Raises NumericError unless the
        walks are the cell's lex-ordered elementary paths from
        `enumerate_paths`, the shape is (cell dimension from the transfer
        matrix, number of paths) and `_checked_kernel` holds against the
        path-space constraints [C_1; ...; C_{l-1}], which
        `_annihilator_residual` applies to the walks."""
        paths = tuple(enumerate_paths(self.graph, self.graph.label(a),
                                      self.graph.label(b), length))
        if (not np.array_equal(walks, np.reshape(paths, (-1, length + 1)))
                or coords.shape != (self._cells[(a, b, length)].dim, len(paths))):
            raise NumericError(f"cell {a}|{b}|{length} of {self.graph.name}: "
                               "coordinates are not over its paths and dimension")
        ann_res, scale = self._annihilator_residual(walks, coords)
        gram_res = self._checked_kernel(a, b, length, coords, ann_res, lambda: scale)
        return CellCoordinates(paths, walks, coords, gram_res, ann_res)

    # -- grade bases ------------------------------------------------------

    def grade_basis(self, length: int) -> GradeBasis:
        got = self._grades.get(length)
        if got is not None:
            return got
        ml = self.max_length
        if ml is not None and length > ml + 1:
            # Grade ml+1 is computed honestly below and must come out empty
            # (its cells are checked against (F_{ml+1})_{ab} = 0); an
            # essential path of length L splits into essential paths of
            # lengths l and L-l for any 0 < l < L, so emptiness propagates to
            # every longer grade.  Building the longer grades would add
            # nothing.
            self.grade_basis(ml + 1)
            empty = GradeBasis(length, (), (), 0,
                               np.zeros(0, dtype=int), np.zeros(0, dtype=int))
            self._grades[length] = empty
            return empty
        cells = []
        offsets = []
        dim = 0
        for a in range(self.graph.n_vertices):
            for b in range(self.graph.n_vertices):
                cell = self._cell(a, b, length)
                if cell.dim:
                    cells.append(cell)
                    offsets.append(dim)
                    dim += cell.dim
        starts = np.zeros(dim, dtype=int)
        ends = np.zeros(dim, dtype=int)
        for cell, off in zip(cells, offsets):
            starts[off:off + cell.dim] = cell.start
            ends[off:off + cell.dim] = cell.end
        gb = GradeBasis(length, tuple(cells), tuple(offsets), dim, starts, ends)
        self._grades[length] = gb
        return gb

    def dims(self, max_length: Optional[int] = None) -> list[int]:
        """Dimensions of the graded components, length 0 up to the last
        nonzero one.  Each entry is an honest kernel computation on the
        transfer matrices, with no path enumerated; on graphs without a
        Coxeter number a cap must be supplied because the list never
        terminates."""
        if max_length is None:
            if self.pf.kappa is None:
                raise InputError(
                    "graph has spectral radius >= 2; dims needs an explicit "
                    "max_length cap"
                )
            cap = self.pf.kappa - 1
        else:
            if max_length < 0:
                raise InputError("max_length must be >= 0")
            cap = max_length
        out: list[int] = []
        for length in range(cap + 1):
            d = self.grade_basis(length).dim
            if d == 0:
                break
            out.append(d)
        return out

    # -- projector and graded product ------------------------------------

    def _check_walks(self, walks: list[Path]) -> None:
        """Raise InputError on the first of ``walks``, tuples of one length,
        that is not an elementary path: one test of the vertex indices and
        one adjacency lookup for all of them."""
        w = np.array(walks)
        ok = ((w >= 0) & (w < self.graph.n_vertices) & (w % 1 == 0)).all(axis=1)
        steps = w[ok].astype(np.intp)
        ok[ok] = self.graph.adjacency[steps[:, :-1], steps[:, 1:]].all(axis=1)
        if not ok.all():
            raise InputError(f"term {walks[int(np.argmin(ok))]} is not an "
                             "elementary path of the graph")

    def _gather(self, p: PathVector) -> tuple[Gathered, Empty]:
        """The terms of ``p`` in cell coordinates, cells in the order of
        their first term, and each empty cell it meets with the squared norm
        of its terms there; each term is keyed once.  Raises InputError on a
        term that is not an elementary path: a term of a populated cell must
        be one of the cell's paths (`row`), and the terms of an empty cell
        must pass `_check_walks`."""
        nverts = self.graph.n_vertices
        by_cell: dict[tuple[int, int, int], list[tuple[Path, float]]] = {}
        for pp, c in p.items():
            if not (pp and 0 <= pp[0] < nverts and 0 <= pp[-1] < nverts):
                raise InputError(f"term {pp} is not an elementary path of the graph")
            by_cell.setdefault((pp[0], pp[-1], path_length(pp)), []).append((pp, c))
        cells = []
        empty = []
        for key, terms in by_cell.items():
            cell = self._cell(*key)
            if not cell.dim:
                self._check_walks([pp for pp, _ in terms])
                empty.append((cell, sum(c * c for _, c in terms)))
                continue
            x = np.zeros(len(cell.paths))
            for pp, c in terms:
                i = cell.row(pp)
                if i is None:
                    raise InputError(f"term {pp} is not an elementary path of the graph")
                x[i] = c
            cells.append((cell, x))
        return cells, empty

    @staticmethod
    def _projected(cells: Gathered) -> Projected:
        """The orthogonal projection y = C^T (C x) of each (cell, x), C the
        cell's coordinates.  The projector is the identity on a cell whose
        paths are all essential (its C is the identity), so y is x there."""
        return [(cell, x, x if cell.dim == len(cell.paths)
                 else cell.coordinates.T @ (cell.coordinates @ x)) for cell, x in cells]

    def _checked(self, cells: Gathered, empty: Empty) -> tuple[Projected, bool]:
        """A vector gathered by `_gather`, projected (`_projected`), with
        entries of y up to DROP_TOL set to 0 as `project` drops them, and
        whether it is essential: |y - x| <= tol (1 + |x|), its terms in
        empty cells counted in both norms.  Cells whose paths are all
        essential are skipped: y is x there, and a PathVector holds no term
        up to DROP_TOL."""
        rest = sum(s for _, s in empty)
        projected = self._projected(cells)
        off_sq = rest
        for cell, x, y in projected:
            if cell.dim < len(cell.paths):
                y[np.abs(y) <= DROP_TOL] = 0.0
                d = y - x
                off_sq += float(d @ d)
        if not off_sq:
            return projected, True
        norm = math.sqrt(rest + sum(float(x @ x) for _, x, _ in projected))
        return projected, math.sqrt(off_sq) <= self.tol * (1.0 + norm)

    def project(self, p: PathVector) -> PathVector:
        """Orthogonal projection onto the essential subspace, cell by cell.
        Raises InputError on a term that is not an elementary path
        (`_gather`)."""
        return _path_vector(self._projected(self._gather(p)[0]))

    def is_essential(self, p: PathVector) -> bool:
        return self._checked(*self._gather(p))[1]

    def _ensure_essential(self, p: PathVector, who: str) -> Projected:
        """``p`` projected, in cell coordinates (`_checked`); warns
        NonEssentialInputWarning, naming the caller's caller, if ``p`` is not
        essential."""
        projected, essential = self._checked(*self._gather(p))
        if not essential:
            warnings.warn(f"{who}: input was not essential and has been projected",
                          NonEssentialInputWarning, stacklevel=3)
        return projected

    def _scatter(self, blocks) -> Projected:
        """The sum of the (cell, left, right, block) of ``blocks``, each
        block flat over left.paths x right.paths and written to the paths of
        ``cell`` through left.end after left.length steps (`_split_mask`),
        projected.  A cell's first block is set, as 0 + v is v, later ones
        are added in order, entries up to DROP_TOL are set to 0 as a
        PathVector drops them, and one `_projected` call projects all."""
        sums: dict[EssentialCellBasis, np.ndarray] = {}
        for cell, left, right, block in blocks:
            mask = _split_mask(cell, left, right)
            z = sums.get(cell)
            if z is None:
                sums[cell] = z = np.zeros(len(cell.paths))
                z[mask] = block
            else:
                z[mask] += block
        for z in sums.values():
            z[np.abs(z) <= DROP_TOL] = 0.0
        return self._projected(list(sums.items()))

    def bullet(self, e: PathVector, f: PathVector) -> PathVector:
        """Graded product P(concat(e, f)) in cell coordinates.  Each factor
        is projected once (a non-essential one with a warning, which cannot
        change the result); each pair of a cell (a, v, n) of e and (v, b, m)
        of f scatters the outer product of their projections into cell
        (a, b, n + m) (`_scatter`), in the order of e's cells, so a path
        reached at several splits sums its terms in the order concat does."""
        lefts = self._ensure_essential(e, "bullet")
        rights = self._ensure_essential(f, "bullet")
        blocks = []
        for c1, _, y1 in lefts:
            for c2, _, y2 in rights:
                if c1.end == c2.start:
                    cell = self._cell(c1.start, c2.end, c1.length + c2.length)
                    if cell.dim:
                        blocks.append((cell, c1, c2, np.multiply.outer(y1, y2).ravel()))
        return _path_vector(self._scatter(blocks))

    def unit_essential(self) -> PathVector:
        """Sum of the zero-length paths: the unit for the graded product."""
        return PathVector({(v,): 1.0 for v in range(self.graph.n_vertices)})

    # -- structure constants ---------------------------------------------

    def structure_constants(self, n: int, m: int) -> np.ndarray:
        """Tensor mul[i, j, k] = <e_k^{(n+m)}, e_i^{(n)} e_j^{(m)}> over the
        global graded bases.  Self-adjointness of the projector makes the
        concatenation inner product equal the graded-product one, so no
        projection is applied: each block contracts the two factor cells'
        coordinates with the target cell's coordinates on the spliced paths,
        gathered by `_through` as an array G of shape (d3, P1, P2).  Two
        matmuls do it: G, seen as (d3 P1, P2), times the (P2, d2) transpose
        of the right factor's coordinates, then the (d1, P1) left factor's
        coordinates times each of the d3 resulting (P1, d2) slices."""
        key = (n, m)
        got = self._mul.get(key)
        if got is not None:
            return got
        gn, gm, gt = self.grade_basis(n), self.grade_basis(m), self.grade_basis(n + m)
        out = np.zeros((gn.dim, gm.dim, gt.dim))
        if gt.dim:
            for c1, o1 in zip(gn.cells, gn.offsets):
                for c2, o2 in zip(gm.cells, gm.offsets):
                    if c1.end != c2.start:
                        continue
                    c3, o3 = gt.cell_at(c1.start, c2.end)
                    if c3 is None:
                        continue
                    gathered = _through(c3.coordinates, c3, c1, c2)  # (d3, P1, P2)
                    half = gathered.reshape(-1, gathered.shape[2]) @ c2.coordinates.T
                    block = c1.coordinates @ half.reshape(c3.dim, -1, c2.dim)
                    out[o1:o1 + c1.dim, o2:o2 + c2.dim, o3:o3 + c3.dim] = (
                        block.transpose(1, 2, 0))
        out.setflags(write=False)
        self._mul[key] = out
        return out

    # -- decomposition -----------------------------------------------------

    def _cell_vector(self, e: PathVector, who: str
                     ) -> tuple[EssentialCellBasis, np.ndarray, np.ndarray]:
        """The one cell of a homogeneous vector, the vector's coefficients x
        over the cell's paths and their projection y, from one `_gather`,
        whose cells (empty ones included) are the cells counted, and one
        `_projected` call.  Raises InputError on a term that is not an
        elementary path, unless there is exactly one cell, and unless the
        vector is essential and its cell populated."""
        if e.coefficient(()):  # stored terms are nonzero
            raise InputError(f"{who}: term () is not an elementary path of the graph")
        cells, empty = self._gather(e)
        if len(cells) + len(empty) != 1:
            raise InputError(
                f"{who} needs a vector with fixed endpoints and homogeneous "
                f"length; found {len(cells) + len(empty)} cells"
            )
        projected, essential = self._checked(cells, empty)
        if not essential:
            raise InputError(f"{who} needs an essential input vector")
        if not projected:  # e is within tolerance of 0
            cell = empty[0][0]
            raise InputError(f"{who}: cell {cell.start}|{cell.end}|{cell.length} of "
                             f"{self.graph.name} holds no essential path")
        return projected[0]

    def decompose(self, e: PathVector, split: int) -> Decomposition:
        """Write an essential vector of length L as a combination of graded
        products of essential paths of lengths split and L - split:
        gamma_{vij} = <e_i^{(split)}(a, v) e_j^{(L-split)}(v, b), e>, with
        the coefficients of e on the paths through v gathered as one block
        (`_through`).  The entries are ordered by v, then i, then j."""
        cell, x, _ = self._cell_vector(e, "decompose")
        a, b, total = cell.start, cell.end, cell.length
        if not (0 < split < total):
            raise InputError(
                f"split must satisfy 0 < split < {total}, got {split}"
            )
        entries = []
        for v in range(self.graph.n_vertices):
            left, right = self._cell(a, v, split), self._cell(v, b, total - split)
            if left.dim and right.dim:
                gam = left.coordinates @ _through(x, cell, left, right) @ right.coordinates.T
                gam[np.abs(gam) <= 1e-14] = 0.0
                entries += [(v, int(i), int(j), float(gam[i, j]))
                            for i, j in zip(*np.nonzero(gam))]
        return Decomposition(a, b, total, split, tuple(entries))

    def reconstruct(self, d: Decomposition) -> PathVector:
        """The sum over v of gamma_{vij} e_i(a, v) e_j(v, b): the gamma_v
        of each intermediate vertex v give the block
        C_left^T gamma_v C_right of the target cell on its paths through v,
        so the sum is one scatter and one projection (`_scatter`)."""
        inner = d.total_length - d.split
        factors: dict[int, tuple[EssentialCellBasis, EssentialCellBasis, np.ndarray]] = {}
        for v, i, j, gamma in d.entries:
            if v not in factors:
                left, right = self._cell(d.start, v, d.split), self._cell(v, d.end, inner)
                factors[v] = left, right, np.zeros((left.dim, right.dim))
            factors[v][2][i, j] = gamma
        cell = self._cell(d.start, d.end, d.total_length)
        return _path_vector(self._scatter(
            (cell, left, right, (left.coordinates.T @ gam @ right.coordinates).ravel())
            for left, right, gam in factors.values()))

    def coproduct_paths(self, e: PathVector) -> TensorPathVector:
        """Coproduct dual to the graded product, for a homogeneous essential
        vector x of length L from a to b: <Delta x, p (x) q> = <P x, pq> for
        essential p, q, P being self-adjoint, so Delta x is the
        deconcatenation of y = P x over the splits s = 0, ..., L; the end
        splits are [a] (x) y and y (x) [b].  No split needs a decomposition:
        a C_k with k < s acts inside the first s steps and keeps the vertex v
        at step s, so it kills the slice of y through v as it kills y (and
        likewise for k > s); the slice therefore already lies in
        E(a, v, s) (x) E(v, b, L - s) and is its own sum over gamma as in
        `decompose`.  A coefficient of y up to DROP_TOL is dropped once, so
        its path is missing at every split; the legs are the factor cells'
        own path tuples."""
        cell, _, y = self._cell_vector(e, "coproduct_paths")
        a, b, total = cell.start, cell.end, cell.length
        kept = y != 0.0
        paths, values = list(compress(cell.paths, kept.tolist())), y[kept].tolist()
        first, last = self._cell(a, a, 0).paths[0], self._cell(b, b, 0).paths[0]
        pairs = [(first, p) for p in paths]
        if total:  # at length 0 the two end splits are the same term [a] (x) [a]
            pairs += [(p, last) for p in paths]
            values += values
        for split in range(1, total):
            for v in range(self.graph.n_vertices):
                left, right = self._cell(a, v, split), self._cell(v, b, total - split)
                if left.dim and right.dim:
                    block = _through(y, cell, left, right).ravel()
                    kept = block != 0.0
                    pairs += compress(product(left.paths, right.paths), kept.tolist())
                    values += block[kept].tolist()
        return TensorPathVector._of(pairs, values, dropped=True)

    # -- star -------------------------------------------------------------

    def star_matrix(self, length: int) -> np.ndarray:
        """Orthogonal matrix of orientation reversal in the global graded
        basis: T[p, i] = <f_p, reverse(e_i)>.  Computed once per grade."""
        got = self._star.get(length)
        if got is not None:
            return got
        gb = self.grade_basis(length)
        t = np.zeros((gb.dim, gb.dim))
        for cell, off in zip(gb.cells, gb.offsets):
            target, toff = gb.cell_at(cell.end, cell.start)
            if target is None:
                continue
            # the reversed paths, sorted by lex order, are the target's paths;
            # take (unlike [:, order]) returns C order, so the product below
            # runs the same BLAS call, and gives the same bits, as before
            order = np.lexsort(cell.walks.T)
            if not np.array_equal(cell.walks[order, ::-1], target.walks):
                raise NumericError(f"cell {cell.start}|{cell.end}|{length}: its "
                                   "reversed paths are not the paths of "
                                   f"{target.start}|{target.end}|{length}")
            t[toff:toff + target.dim, off:off + cell.dim] = (
                target.coordinates @ cell.coordinates.take(order, axis=1).T
            )
        t.setflags(write=False)
        self._star[length] = t
        return t


_SPACES: dict[Graph, EssentialSpace] = {}


def space(g: Graph) -> EssentialSpace:
    """Shared per-graph instance with default tolerances."""
    got = _SPACES.get(g)
    if got is None:
        got = _SPACES.setdefault(g, EssentialSpace(g))
    return got


def essential_basis(g: Graph, a, b, length: int) -> EssentialCellBasis:
    return space(g).cell(a, b, length)


def project(g: Graph, p: PathVector) -> PathVector:
    return space(g).project(p)


def bullet(g: Graph, e: PathVector, f: PathVector) -> PathVector:
    return space(g).bullet(e, f)


def structure_constants(g: Graph, n: int, m: int) -> np.ndarray:
    return space(g).structure_constants(n, m)


def decompose(g: Graph, e: PathVector, split: int) -> Decomposition:
    return space(g).decompose(e, split)


def dims(g: Graph, max_length: Optional[int] = None) -> list[int]:
    return space(g).dims(max_length)


def unit_essential(g: Graph) -> PathVector:
    return space(g).unit_essential()


def coproduct_paths(g: Graph, e: PathVector) -> TensorPathVector:
    return space(g).coproduct_paths(e)
