"""Essential paths: cell bases, the orthogonal projector, the graded product.

A path vector is *essential* when every backtrack-removal operator C_k kills
it.  Cell bases are built by length, one edge at a time (Ocneanu, *Paths on
Coxeter diagrams*, 1999): an essential path of length l from a to b is a
combination of e_j^{(l-1)}(a, v) (x) [v, b] over the neighbours v of b,
because C_k with k < l - 1 acts inside the prefix.  Only C_{l-1} is a new
constraint, and in the bases of length l - 1 and l - 2 it is a small matrix
K with K K^T = ([l] / [l - 1]) I, so of full row rank; the cell's transfer
matrix R spans its kernel, the rows of K's SVD past its row count.  All
cells of one length depend only on shorter lengths, so they are built
together, a grade at a time for every start: the sizes of every K come from
the dimension matrices of the two shorter grades, and the matrices K of one
shape are solved by one stacked SVD.  When K has no entry, because the cell
has no candidate or the cell (a, b, l - 2) is empty, R = I exactly and no K
is built.  Dimensions therefore come from the sizes of K alone, with no path
enumerated.  A grade is kept as arrays: its dimension matrix D_l and the R
of its solved cells; an identity R is stored nowhere and enters a longer
cell's K as unit entries.  A cell object, with its R and the column blocks
of its candidates, is made on the first read of that cell, so `dims` makes
none.
The coordinates of a cell over its elementary paths, <e_i, p> = the
product of R blocks along p, are built on first read and canonicalized
(reduced echelon over the lex path order, Gram-Schmidt, sign fix) so runs
are reproducible; golden values should nevertheless be basis-independent
(dimensions, norms, Gram data) because any orthonormal basis of the same
kernel is equally valid.  Each R and each set of path coordinates is
checked as it is made, within the space's one tolerance: each solved cell
must make [K / sqrt([l] / [l - 1]); R] orthogonal, which says at once that
K has full row rank, so that D_l = max(D_{l-1} A - D_{l-2}, 0) (the fused
matrix F_l on an ADE diagram, the Chebyshev matrix U_l(A) on any other
graph), and that R is orthonormal and annihilated by K; each set of path
coordinates must be orthonormal and annihilated by every C_k.  An identity
R has nothing to check, so the checks run on solved kernels and on every
set of path coordinates.
Path coordinates are read by gathers over the lex order: the paths of cell
(a, b, l) at v after s steps are, in lex order, the paths of (a, v, s)
times those of (v, b, l - s), so decompositions, the coproduct and the
structure constants read them as one block per v, and the graded product
writes into them the same way.  The coproduct takes each block of the
projected vector as it is; every other contraction with a block is a plain
matmul, two for a structure-constant block: (d3 P1, P2) @ (P2, d2), then
(d1, P1) @ (P1, d2) per target vector.

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
from itertools import accumulate, compress, product
from typing import Optional

import numpy as np

from .errors import EsspathError, InputError, NonEssentialInputWarning, NumericError
from .graphs import DEFAULT_TOL, Graph, PerronData, check_tolerances, perron_frobenius
from .paths import (
    DROP_TOL,
    Path,
    PathVector,
    TensorPathVector,
    enumerate_paths,
    path_length,
)

_NO_CANDIDATE = np.zeros((0, 0))  # the transfer matrix of every cell with no candidate


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
    ``start`` to ``end`` of a fixed length: a view of one cell of the grade
    arrays of its space, made on the first read of the cell (`_cell`).

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
                 tol: float = DEFAULT_TOL):
        check_tolerances(tol)
        self.graph = graph
        self.tol = tol
        self.pf = pf if pf is not None else perron_frobenius(graph, tol)
        self._grade_dims: list[np.ndarray] = []  # D_l[a, b]: dimension of cell (a, b, l)
        mu, adj = self.pf.mu, graph.adjacency
        self._weight = np.sqrt(mu[:, None] / mu).tolist()  # sqrt(mu_v / mu_b) at [v][b]
        # arc (b, v), v ~ b, is number _arc[b][v], by b then v; _before is 1 at
        # [u, arc (b, v)] when u ~ b and u < v, so block u is listed first: block
        # v of cell (a, b, l) starts at column (D_{l-1} @ _before)[a, arc (b, v)]
        tails, heads = np.nonzero(adj)
        self._arc = (np.cumsum(adj) - 1).reshape(adj.shape).tolist()
        self._before = adj[:, tails] * (np.arange(len(mu))[:, None] < heads)
        self._layout: list[np.ndarray] = []  # that table of grade l, at [l]
        # the transfer matrix of each solved cell (a, b) of grade l, at [l]
        self._solved: list[dict[tuple[int, int], np.ndarray]] = []
        self._cells: dict[tuple[int, int, int], EssentialCellBasis] = {}  # those read
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
        """Cell basis with endpoints given by vertex index.  Cells are built
        a grade at a time (`_build_grade`), each grade from the two before
        it, so the first read of a cell of a length not yet built builds
        every length up to it, for every start.  A grade is kept as arrays;
        the cell object is made on the first read of the cell and kept, its
        blocks read from the grade's layout table."""
        got = self._cells.get((ai, bi, length))
        if got is None:
            dims = self._built(length)
            blocks = {}
            if length:
                widths = self._grade_dims[length - 1][ai].tolist()
                starts = self._layout[length][ai].tolist()
                arcs = self._arc[bi]
                blocks = {v: slice(starts[arcs[v]], starts[arcs[v]] + widths[v])
                          for v in self.graph.neighbors[bi]}
            transfer = self._solved[length].get((ai, bi))
            if transfer is None:  # R = I
                dim = int(dims[ai, bi])
                transfer = np.eye(dim) if dim else _NO_CANDIDATE
            got = self._cells[(ai, bi, length)] = EssentialCellBasis(
                ai, bi, length, transfer, blocks, weakref.ref(self))
        return got

    def _built(self, length: int) -> np.ndarray:
        """D_length, with every grade up to ``length`` built."""
        if length < 0:
            raise InputError(f"length must be >= 0, got {length}")
        for k in range(len(self._grade_dims), length + 1):
            self._build_grade(k)
        return self._grade_dims[length]

    def _build_grade(self, length: int) -> None:
        """The cells (a, b, length) of every start a and end b, from the
        cells one and two edges shorter, kept as arrays: the dimension
        matrix D_length, the transfer matrices of the solved cells and the
        layout table of the grade's candidate blocks.

        The candidates of cell (a, b, l) are e_j^{(l-1)}(a, v) (x) [v, b]
        over v ~ b: orthonormal, and killed by every C_k with k < l - 1
        because those C_k act inside the prefix.  The one new constraint
        C_{l-1} maps a candidate into the cell (a, b, l - 2); in that cell's
        basis it is K = [sqrt(mu_v / mu_b) R_{(a,v,l-1)}[:, block b]^T]_v,
        so the cell's transfer matrix R spans the kernel of K and no path is
        involved.  Both sizes of K come from the dimension matrices D of the
        two shorter grades: (D_{l-1} A)_{ab} candidates and (D_{l-2})_{ab}
        rows.  One table per grade, D_{l-1} @ _before, says where the blocks
        of cell (a, b, l) start, (D_{l-1})_{av} wide over v ~ b in order: the
        table of grade l - 1 places block b in R_{(a,v,l-1)}, that of grade
        l places R_{(a,v,l-1)} in K, and `_cell` reads the same tables.
        With no candidate or no row (every cell of length 0 or 1, and the
        cell (a, b, l - 2) empty) K has no entry and R is the identity
        exactly, so K is not built, no kernel is solved and R is not stored:
        such an R is written into a longer cell's K as the unit entries of
        its block, one strided write down a diagonal.  The other cells are
        grouped by the shape of K and each group takes one stacked SVD
        (`_kernels`).

        Every K satisfies K K^T = c_l I with c_l = [l] / [l - 1], where
        [k] = sin(k pi / kappa) / sin(pi / kappa), or [0] = 0, [1] = 1 and
        [k] = beta [k - 1] - [k - 2] without a Coxeter number (Wenzl, 1987;
        Goodman, de la Harpe and Jones, 1989).  Write e_k = C_k^T C_k, so
        e_k^2 = beta e_k, and P_m for the projector onto the essential paths
        of length m, which acts on the first m steps of a longer path.  K
        K^T is C_{l-1} (P_{l-1} (x) 1) C_{l-1}^T on E(a, b, l - 2), and the
        Wenzl recursion P_{l-1} = P_{l-2} - ([l-2] / [l-1]) P_{l-2} e_{l-2}
        P_{l-2} turns it into C_{l-1} C_{l-1}^T - ([l-2] / [l-1])
        C_{l-1} e_{l-2} C_{l-1}^T, as P_{l-2} fixes E(a, b, l - 2) and
        commutes with C_{l-1}.  C_{l-1} C_{l-1}^T = beta, because A mu =
        beta mu, and C_{l-1} C_{l-2}^T = 1, so the product is
        beta - [l-2] / [l-1] = [l] / [l-1].  Hence K has full row rank, the
        cell's dimension is max(counts - rows, 0) (the fused matrix F_l on
        an ADE diagram, the Chebyshev matrix U_l(A) on any other graph), R
        is vt[rows:] of K's SVD, and Q = [K / sqrt(c_l); R] is orthogonal:
        one identity that says at once that K has full row rank, that R is
        orthonormal and that K R^T = 0.  It is checked for the whole grade
        at once, each Q padded with the identity to one square shape, as
        |Q Q^T - I| <= tol.  Nothing of the grade is stored unless every
        cell passes.  No cell object is made (`_cell`)."""
        graph, n, nbrs = self.graph, self.graph.n_vertices, self.graph.neighbors
        if length == 0:
            counts, layout = np.eye(n, dtype=np.int64), np.zeros_like(self._before)
        else:
            counts = self._grade_dims[length - 1] @ graph.adjacency
            layout = self._grade_dims[length - 1] @ self._before
        rows = self._grade_dims[length - 2] if length > 1 else np.zeros_like(counts)
        shapes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for a, (crow, rrow) in enumerate(zip(counts.tolist(), rows.tolist())):
            for b, (c, r) in enumerate(zip(crow, rrow)):
                if c and r:
                    shapes.setdefault((r, c), []).append((a, b))
        solved = [cell for members in shapes.values() for cell in members]
        transfers: dict[tuple[int, int], np.ndarray] = {}
        if solved:
            kappa, beta = self.pf.kappa, self.pf.beta
            if kappa is None:
                q = [0.0, 1.0]  # [k] = beta [k - 1] - [k - 2]
                while len(q) <= length:
                    q.append(beta * q[-1] - q[-2])
                c_l = q[length] / q[length - 1]
            else:
                angle = math.pi / kappa
                c_l = math.sin(length * angle) / math.sin((length - 1) * angle)
            root = math.sqrt(c_l)
            side = max(map(max, shapes))
            # per solved cell, Q = [K / sqrt(c_l); R], padded with the identity
            stack = np.zeros((len(solved), side, side))
            flat, step = stack.reshape(-1), side * side
            diag = flat.reshape(len(solved), -1)[:, ::side + 1]
            weight, solved1, arc = self._weight, self._solved[length - 1], self._arc
            dims1 = self._grade_dims[length - 1].tolist()
            # block v of K_{(a,b,l)} starts at column starts[a][arc (b, v)], and
            # block b of R_{(a,v,l-1)} at column offsets[a][arc (v, b)]
            starts, offsets = layout.tolist(), self._layout[length - 1].tolist()
            first = 0
            for (nrows, ncols), members in shapes.items():
                for t, (a, b) in enumerate(members, first):
                    dims_a, starts_a, offsets_a = dims1[a], starts[a], offsets[a]
                    for v in nbrs[b]:
                        dim = dims_a[v]
                        if dim:
                            lo, off = starts_a[arc[b][v]], offsets_a[arc[v][b]]
                            r = solved1.get((a, v))
                            if r is None:  # R = I: unit entries
                                at = t * step + lo + off
                                flat[at:at + nrows * (side + 1):side + 1] = weight[v][b]
                            else:
                                np.multiply(r[:, off:off + nrows].T, weight[v][b],
                                            out=stack[t, :nrows, lo:lo + dim])
                group = slice(first, first + len(members))
                kernels = self._kernels(stack[group, :nrows, :ncols])[:, nrows:]
                transfers.update(zip(members, kernels))
                stack[group, :nrows, :ncols] /= root
                stack[group, nrows:ncols, :ncols] = kernels
                diag[group, max(nrows, ncols):] = 1.0
                first = group.stop
            prod = stack @ stack.transpose(0, 2, 1)
            prod.reshape(len(solved), -1)[:, ::side + 1] -= 1.0
            worst = np.abs(prod, out=prod).max(axis=(1, 2))
            bad = np.flatnonzero(~(worst <= self.tol)).tolist()  # a NaN fails
            if bad:
                t = min(bad, key=solved.__getitem__)
                a, b = solved[t]
                raise NumericError(f"cell {a}|{b}|{length} of {graph.name}: |Q Q^T - I| "
                                   f"is {worst[t]:.3g} for Q = [K / sqrt(c_{length}); R], "
                                   f"not within tolerance {self.tol:.3g}")
        self._grade_dims.append(np.maximum(counts - rows, 0))
        self._solved.append(transfers)
        self._layout.append(layout)

    def _kernels(self, stack: np.ndarray) -> np.ndarray:
        """V^T of the SVD of each matrix of ``stack`` (members, rows, cols),
        each with at least one entry: its rows past ``rows`` span the kernel
        of a matrix of full row rank, which `_build_grade` checks.  A method
        of its own so that tests can plant faults in the kernels."""
        return np.linalg.svd(stack)[2]

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
                cell = self._cell(a, u, k)
                parts = [(v, level[v]) for v in nbrs[u] if v in level]
                if parts:
                    walks = np.vstack([w for _, (w, _) in parts])
                    nxt[u] = (np.column_stack([walks, np.full(len(walks), u, vertex)]),
                              np.hstack([cell.transfer[:, cell.blocks[v]] @ x
                                         for v, (_, x) in parts]))
            level = nxt
        return level[b]

    def _annihilator_residual(self, walks: np.ndarray, coords: np.ndarray) -> float:
        """The largest entry of C_k coords^T over k = 1, ..., l - 1, for
        coordinates over the walks of length l in the rows of ``walks``.  A
        walk w that backtracks at k (w_{k-1} = w_{k+1}) maps to the shorter
        walk without w_k and w_{k+1}, with weight sqrt(mu_{w_k} /
        mu_{w_{k-1}}); the walks that map to one shorter walk are grouped and
        summed.  The rows of ``walks`` must be all such walks in lex order,
        which `_checked_cell` checks first: then the backtracking walks with
        one prefix w_0 ... w_{k-1} come in runs, one per w_k, each over the
        same suffixes w_{k+1} ... w_l in the same order, and each walk is
        grouped onto the row of its suffix in the prefix's first run.  No
        shorter walk is enumerated, and the transfer matrices are not read, so
        the check stays independent of the build."""
        mu = self.pf.mu
        worst = 0.0
        for k in range(1, walks.shape[1] - 1):
            hit = np.flatnonzero(walks[:, k - 1] == walks[:, k + 1])
            if not hit.size:
                continue
            h = walks[hit]
            w = np.sqrt(mu[h[:, k]] / mu[h[:, k - 1]])
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
        return worst

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
        `enumerate_paths`, the shape is (cell dimension D_length[a, b],
        number of paths), and the Gram residual |coords coords^T - I| and the
        annihilator residual against the path-space constraints
        [C_1; ...; C_{l-1}], which `_annihilator_residual` applies to the
        walks, are within tol.  This re-check works in path space, with no
        constraint matrix K, so it is independent of the build's identity
        check.  A NaN residual fails."""
        paths = tuple(enumerate_paths(self.graph, self.graph.label(a),
                                      self.graph.label(b), length))
        dim = int(self._grade_dims[length][a, b])
        if (not np.array_equal(walks, np.reshape(paths, (-1, length + 1)))
                or coords.shape != (dim, len(paths))):
            raise NumericError(f"cell {a}|{b}|{length} of {self.graph.name}: "
                               "coordinates are not over its paths and dimension")
        ann_res = self._annihilator_residual(walks, coords)
        gram_res = float(np.max(np.abs(coords @ coords.T - np.eye(dim)))) if dim else 0.0
        if not (gram_res <= self.tol and ann_res <= self.tol):
            raise NumericError(f"cell {a}|{b}|{length} of {self.graph.name}: Gram "
                               f"residual {gram_res:.3g}, annihilator residual {ann_res:.3g}")
        return CellCoordinates(paths, walks, coords, gram_res, ann_res)

    # -- grade bases ------------------------------------------------------

    def grade_basis(self, length: int) -> GradeBasis:
        got = self._grades.get(length)
        if got is not None:
            return got
        cells = tuple(self._cell(a, b, length)
                      for a, b in np.argwhere(self._built(length)).tolist())
        *offsets, dim = accumulate((cell.dim for cell in cells), initial=0)
        gb = GradeBasis(length, cells, tuple(offsets), dim)
        self._grades[length] = gb
        return gb

    def dims(self, max_length: Optional[int] = None) -> list[int]:
        """Dimensions of the graded components, length 0 up to the last
        nonzero one: the sums of the dimension matrices D_l, each from the
        sizes of the constraint matrices, with every solved kernel checked
        (`_build_grade`), no path enumerated and no cell object made; on
        graphs without a Coxeter number a cap must be supplied because the
        list never terminates."""
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
            d = int(self._built(length).sum())
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
        if cell.length < 2:
            raise InputError(f"a cell of length {cell.length} has no split")
        if not (0 < split < cell.length):
            raise InputError(
                f"split must satisfy 0 < split < {cell.length}, got {split}"
            )
        return self._decompose(cell, x, split)

    def _decompose(self, cell: EssentialCellBasis, x: np.ndarray,
                   split: int) -> Decomposition:
        """`decompose` of the essential vector with coefficients ``x`` over
        the paths of ``cell``, for 0 < split < cell.length, unchecked."""
        entries = []
        for left, right in self._factors(cell, split):
            gam = left.coordinates @ _through(x, cell, left, right) @ right.coordinates.T
            gam[np.abs(gam) <= 1e-14] = 0.0
            entries += [(left.end, int(i), int(j), float(gam[i, j]))
                        for i, j in zip(*np.nonzero(gam))]
        return Decomposition(cell.start, cell.end, cell.length, split, tuple(entries))

    def _factors(self, cell: EssentialCellBasis, split: int
                 ) -> list[tuple[EssentialCellBasis, EssentialCellBasis]]:
        """The populated cells (a, v, split) and (v, b, L - split) of each
        intermediate vertex v of a built cell (a, b, L), in the order of v.
        The vertices are chosen on the dimension matrices, so no cell object
        is made for an empty factor."""
        a, b, rest = cell.start, cell.end, cell.length - split
        both = self._grade_dims[split][a] * self._grade_dims[rest][:, b]
        return [(self._cell(a, v, split), self._cell(v, b, rest))
                for v in np.flatnonzero(both).tolist()]

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
            for left, right in self._factors(cell, split):
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
