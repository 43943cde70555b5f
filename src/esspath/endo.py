"""Grade-preserving endomorphisms of the essential path space.

The space B = (+)_n End(E_n) carries three interacting structures: the
blockwise composition product, the graded convolution product built from
the graded product on essential paths, and the coproduct dual to
composition.  Together they form a weak bialgebra: the coproduct is an
algebra homomorphism for the convolution product exactly when the Gram
matrices of the structure constants are the identity, the unit is not
group-like, comonoidality holds, and no antipode can exist (verified here
by a closed-form obstruction).

Checks that reduce to the structure constants read them once over every
grade pair, with no sampled monomials: both readings of the homomorphism
property are Gram-matrix residuals, and orientation reversal is checked as
an anti-automorphism of the graded product (derivations in each check).
The coalgebra axioms are sampled: random monomials with Gaussian
coefficients, summed grade by grade into one combination whose one
coproduct gives both sides of coassociativity and of both counit laws.
The identities are linear, so a combination passes, almost surely, only
when every sampled monomial does.

Coefficients are stored over the canonical essential bases, so composition
is a plain blockwise matrix product and the coproduct is a literal basis
sum.  With orthonormal bases and real scalars, the pairing that identifies
a vector with a functional is just the transpose of coefficient positions;
block entry [i][j] means e_i (x) (dual of e_j) throughout, and no separate
dualization object is needed.

B and its tensor powers (the codomain of the coproduct, and the triple
tensors of the comonoidality identities) have one type, EndoTensor: short
sums of tensor products of single-grade blocks, kept factored.  An element
of B is the one-leg case, one batch of terms per grade (from_blocks,
monomial, identity; EndoTensor(sp, 1) is zero), so its composition,
convolution product, reversal and coproduct are EndoTensor.compose,
.bullet, .star and .coproduct_leg(0).  Every product in the axioms is
legwise, (x1 (x) x2) * (y1 (x) y2) = (x1 * y1) (x) (x2 * y2), so it is one
structure-constant contraction per leg, batched over all term pairs.
Sums of entries are only formed to read a result (norm, the monomial
``terms`` view, dense_blocks).  The antipode right-hand sides are one
contraction of the dense Delta(1) against the counit pairing of the
structure constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import InputError
from .essential import EssentialSpace, space
from .graphs import Graph
from .paths import Path, enumerate_paths

_CUT = 1e-15
# largest k d^3 of one combination in check_coalgebra_axioms: without a cap,
# the 7 samples of a 33-dimensional E7 grade raised the peak RSS of
# `verify --graph E7 --suite all` from 130 MB to 147 MB
_COMBINATION_FLOATS = 1 << 16

SpaceLike = Union[Graph, EssentialSpace]


def as_space(g: SpaceLike) -> EssentialSpace:
    return g if isinstance(g, EssentialSpace) else space(g)


def _convolve(x: np.ndarray, y: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """The convolution products of every term pair of the batches x, shape
    (T, dn, dn), and y, shape (S, dm, dm), over the structure constants mul,
    shape (dn, dm, dt): out[t, s, K, L] is the sum over i, j, k, l of
    x[t, i, j] y[s, k, l] mul[i, k, K] mul[j, l, L].  Each batch meets mul
    alone first, so no intermediate grows with T * S; three matmuls."""
    (nt, dn, _), (ns, dm, _), dt = x.shape, y.shape, mul.shape[2]
    # xm[t, (j, k), K] = sum_i x[t, i, j] mul[i, k, K]
    xm = np.swapaxes(x, 1, 2).reshape(-1, dn) @ mul.reshape(dn, -1)
    xm = np.swapaxes(xm.reshape(nt, dn * dm, dt), 1, 2).reshape(-1, dn * dm)
    # ym[(j, k), (s, L)] = sum_l y[s, k, l] mul[j, l, L]
    ym = y.reshape(-1, dm) @ np.swapaxes(mul, 0, 1).reshape(dm, -1)
    ym = ym.reshape(ns, dm, dn, dt).transpose(2, 1, 0, 3).reshape(dn * dm, -1)
    return (xm @ ym).reshape(nt, dt, ns, dt).transpose(0, 2, 1, 3)


# ---------------------------------------------------------------------------
# factored tensors of endomorphisms

Leg = tuple[int, int, int]  # (grade, row index, column index)
Profile = tuple[int, ...]  # one grade per leg

# One leg of a batch of terms: the term matrices either dense, shape
# (terms, d, d), or as rank-one products u v^T, a pair of (terms, d) arrays.
LegBatch = Union[np.ndarray, tuple[np.ndarray, np.ndarray]]
Batch = tuple[Profile, tuple[LegBatch, ...]]


def _factors(leg: LegBatch) -> tuple[np.ndarray, ...]:
    return leg if isinstance(leg, tuple) else (leg,)


def _dense(leg: LegBatch) -> np.ndarray:
    return np.einsum("ti,tj->tij", *leg) if isinstance(leg, tuple) else leg


def _take(leg: LegBatch, idx: np.ndarray) -> LegBatch:
    return tuple(f[idx] for f in leg) if isinstance(leg, tuple) else leg[idx]


def _scaled(leg: LegBatch, c) -> LegBatch:
    """The leg with term tau multiplied by c[tau], or by the scalar c."""
    c = np.asarray(c, dtype=float)
    if isinstance(leg, tuple):
        return (leg[0] * c[..., None], leg[1])
    return leg * c[..., None, None]


def _all_pairs(c: np.ndarray) -> np.ndarray:
    """Products of all term pairs, shape (T, S, d, d), as one batch t-major."""
    return c.reshape(-1, *c.shape[2:])


def _nonzero_terms(profile: Profile, legs) -> list[Batch]:
    """The batch without its terms that have a zero leg, or no batch."""
    live = np.ones(len(_factors(legs[0])[0]), dtype=bool)
    for leg in legs:
        for f in _factors(leg):
            live &= f.reshape(len(f), -1).any(axis=1)
    if live.all():
        return [(profile, tuple(legs))]
    return [(profile, tuple(_take(leg, live) for leg in legs))] if live.any() else []


def _entries(legs) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the dense (d1, d1, ..., dk, dk) array, and values, of
    every nonzero entry of every term's product; repeats are not summed."""
    count = len(_factors(legs[0])[0])
    term = np.arange(count)
    flat = np.zeros(count, dtype=np.int64)
    val = np.ones(count)
    for a in (f for leg in legs for f in _factors(leg)):
        size = a[0].size
        nz = np.flatnonzero(a != 0)  # term-major; a bool scan is the fast one
        if len(nz) == count:
            pick = nz[term]  # no factor is zero, so one entry per term
        else:
            per_term = np.bincount(nz // size, minlength=count)
            reps = per_term[term]
            src = np.repeat(np.arange(len(term)), reps)
            within = np.arange(len(src)) - np.repeat(np.cumsum(reps) - reps, reps)
            pick = nz[(np.cumsum(per_term) - per_term)[term[src]] + within]
            term, flat, val = term[src], flat[src], val[src]
        flat = flat * size + pick % size
        val = val * a.ravel()[pick]
    return flat, val


class EndoTensor:
    """Element of a tensor power of the endomorphism space, kept factored.

    A k-leg tensor is a short sum of products x_1 (x) ... (x) x_k of
    single-grade endomorphism blocks.  Terms come in batches of one grade
    profile (n_1, ..., n_k), with one batch of term matrices per leg, the
    term's coefficient carried by its first leg.  A leg batch is dense,
    shape (terms, d, d), or rank one, u v^T given as two (terms, d) arrays;
    the coproduct expansion makes rank-one legs, which keeps matrix units
    at d numbers instead of d^2.  Products in the weak-bialgebra identities
    are legwise, so the convolution product of two terms is
    (x_1 * y_1) (x) ... (x) (x_k * y_k): one structure-constant contraction
    per leg, batched over all term pairs, never a join over entries.

    ``terms`` is the monomial view ((n1,i1,j1), ..., (nk,ik,jk)) -> coefficient
    with the factored terms summed; ``norm``, ``len`` and ``dense_blocks``
    are read from it.  A 1-leg instance is an element of B, a 2-leg one
    lies in the codomain of the coproduct, and 3-leg instances show up in
    the comonoidality identities.

    No stored term has a zero factor: operations that can make one (products,
    traces, scaling, also by underflow) drop such terms as they build the
    batch.
    """

    __slots__ = ("space", "legs", "_batches")

    def __init__(self, sp: EssentialSpace, legs: int,
                 terms: Optional[dict[tuple[Leg, ...], float]] = None):
        """Tensor with the given monomial coefficients, one term each.
        Raises InputError on a key without ``legs`` legs, or with a grade
        or index out of range."""
        rows: dict[Profile, list[tuple[tuple[Leg, ...], float]]] = {}
        for key, c in (terms or {}).items():
            if len(key) != legs:
                raise InputError(f"term {key} has {len(key)} legs, expected {legs}")
            for n, i, j in key:
                d = sp.grade_basis(n).dim if n >= 0 else 0
                if not (0 <= i < d and 0 <= j < d):
                    raise InputError(f"index ({i}, {j}) out of range for grade {n} "
                                     f"of dimension {d}")
            rows.setdefault(tuple(n for n, _, _ in key), []).append((key, c))
        self.space = sp
        self.legs = legs
        self._batches: list[Batch] = []
        for profile, items in rows.items():
            units = []
            for t, n in enumerate(profile):
                eye = np.eye(sp.grade_basis(n).dim)
                units.append((eye[[key[t][1] for key, _ in items]],
                              eye[[key[t][2] for key, _ in items]]))
            units[0] = _scaled(units[0], [c for _, c in items])
            self._batches += _nonzero_terms(profile, units)

    @classmethod
    def _of(cls, sp: EssentialSpace, legs: int, batches: list[Batch]) -> "EndoTensor":
        out = cls.__new__(cls)
        out.space, out.legs, out._batches = sp, legs, batches
        return out

    @classmethod
    def from_blocks(cls, sp: EssentialSpace, blocks: dict[int, np.ndarray]) -> "EndoTensor":
        """The element of B with one coefficient matrix per grade: entry
        [i][j] of block n is the coefficient of e_i (x) e^j."""
        out = []
        for n, mat in blocks.items():
            mat = np.asarray(mat, dtype=float)
            d = sp.grade_basis(n).dim
            if mat.shape != (d, d):
                raise InputError(f"block {n} must be {d}x{d}, got {mat.shape}")
            out += _nonzero_terms((n,), (mat[None],))
        return cls._of(sp, 1, out)

    @classmethod
    def monomial(cls, sp: EssentialSpace, n: int, i: int, j: int,
                 coeff: float = 1.0) -> "EndoTensor":
        return cls(sp, 1, {((n, i, j),): coeff})

    @classmethod
    def identity(cls, sp: EssentialSpace, lengths: Iterable[int]) -> "EndoTensor":
        """Identity blocks on the given grades: the unit for composition."""
        return cls.from_blocks(sp, {n: np.eye(sp.grade_basis(n).dim) for n in lengths})

    # -- monomial view ----------------------------------------------------

    def _shape(self, profile: Profile) -> tuple[int, ...]:
        return tuple(d for n in profile for d in (self.space.grade_basis(n).dim,) * 2)

    def _coalesced(self) -> dict[Profile, tuple[np.ndarray, np.ndarray]]:
        """Per profile: sorted flat dense indices and summed coefficients of
        the entries above the cut."""
        parts: dict[Profile, list[tuple[np.ndarray, np.ndarray]]] = {}
        for profile, legs in self._batches:
            parts.setdefault(profile, []).append(_entries(legs))
        out = {}
        for profile, got in parts.items():
            flat, inverse = np.unique(np.concatenate([f for f, _ in got]),
                                      return_inverse=True)
            val = np.bincount(inverse, weights=np.concatenate([v for _, v in got]),
                              minlength=len(flat))
            keep = np.abs(val) > _CUT
            if keep.any():
                out[profile] = (flat[keep], val[keep])
        return out

    @property
    def terms(self) -> dict[tuple[Leg, ...], float]:
        out = {}
        for profile, (flat, val) in self._coalesced().items():
            idx = np.unravel_index(flat, self._shape(profile))
            for k, c in enumerate(val):
                out[tuple((n, int(idx[2 * t][k]), int(idx[2 * t + 1][k]))
                          for t, n in enumerate(profile))] = float(c)
        return out

    def dense_blocks(self) -> dict[Profile, np.ndarray]:
        """The monomial view as dense arrays of shape (d1, d1, d2, d2, ...),
        one per grade profile."""
        out = {}
        for profile, (flat, val) in self._coalesced().items():
            arr = np.zeros(self._shape(profile))
            arr.flat[flat] = val
            out[profile] = arr
        return out

    def __len__(self) -> int:
        return sum(len(val) for _, val in self._coalesced().values())

    def norm(self) -> float:
        return math.sqrt(sum(float(val @ val) for _, val in self._coalesced().values()))

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "EndoTensor") -> "EndoTensor":
        return EndoTensor._of(self.space, self.legs, self._batches + other._batches)

    def __neg__(self) -> "EndoTensor":
        return EndoTensor._of(self.space, self.legs, [
            (p, (_scaled(xs[0], -1.0),) + xs[1:]) for p, xs in self._batches])

    def __sub__(self, other: "EndoTensor") -> "EndoTensor":
        return self + -other

    def __mul__(self, scalar: float) -> "EndoTensor":
        return EndoTensor._of(self.space, self.legs, [
            b for p, xs in self._batches
            for b in _nonzero_terms(p, (_scaled(xs[0], scalar),) + xs[1:])])

    __rmul__ = __mul__

    def tensor(self, other: "EndoTensor") -> "EndoTensor":
        out = []
        for p, xs in self._batches:
            for q, ys in other._batches:
                nx, ny = len(_factors(xs[0])[0]), len(_factors(ys[0])[0])
                left, right = np.repeat(np.arange(nx), ny), np.tile(np.arange(ny), nx)
                out.append((p + q, tuple(_take(x, left) for x in xs)
                            + tuple(_take(y, right) for y in ys)))
        return EndoTensor._of(self.space, self.legs + other.legs, out)

    # -- leg operations ---------------------------------------------------

    def contract_counit(self, leg: int) -> "EndoTensor":
        """Apply the counit (the trace) to one leg."""
        if self.legs < 2:
            raise InputError("counit contraction needs at least two legs")
        out = []
        for p, xs in self._batches:
            trace = np.einsum("tii->t", _dense(xs[leg]))
            rest = xs[:leg] + xs[leg + 1:]
            out += _nonzero_terms(p[:leg] + p[leg + 1:],
                                  (_scaled(rest[0], trace),) + rest[1:])
        return EndoTensor._of(self.space, self.legs - 1, out)

    def coproduct_leg(self, leg: int) -> "EndoTensor":
        """Apply the composition coproduct to one leg, term by term:
        u v^T becomes the sum over I of (u e_I^T) (x) (e_I v^T), the plain
        expansion of e_i (x) e^j -> sum_I (e_i (x) e^I) (x) (e_I (x) e^j).
        A dense leg is first split into its nonzero columns x[:, j] e_j^T."""
        out = []
        for p, xs in self._batches:
            x = xs[leg]
            if isinstance(x, tuple):
                tau = np.arange(len(x[0]))
                u, v = x
            else:
                tau, col = np.nonzero(x.any(axis=1))
                u, v = x[tau, :, col], np.eye(x.shape[2])[col]
            d = u.shape[1]
            src = np.repeat(tau, d)
            cap = np.tile(np.eye(d), (len(tau), 1))
            split = ((np.repeat(u, d, axis=0), cap), (cap, np.repeat(v, d, axis=0)))
            out.append((p[:leg] + (p[leg],) + p[leg:],
                        tuple(_take(y, src) for y in xs[:leg]) + split
                        + tuple(_take(y, src) for y in xs[leg + 1:])))
        return EndoTensor._of(self.space, self.legs + 1, out)

    def compose(self, other: "EndoTensor") -> "EndoTensor":
        """Legwise composition, one matrix product per leg batched over all
        term pairs; terms of different grade profiles compose to zero."""
        if self.legs != other.legs:
            raise InputError("leg counts differ")
        out = []
        for p, xs in self._batches:
            for q, ys in other._batches:
                if p == q:
                    out += _nonzero_terms(p, [_all_pairs(_dense(x)[:, None] @ _dense(y))
                                              for x, y in zip(xs, ys)])
        return EndoTensor._of(self.space, self.legs, out)

    def bullet(self, other: "EndoTensor") -> "EndoTensor":
        """Legwise convolution product of two tensors of equal leg count:
        (x_1 (x) ... (x) x_k) * (y_1 (x) ... (x) y_k) is
        (x_1 * y_1) (x) ... (x) (x_k * y_k), each leg one contraction against
        the structure constants batched over all term pairs."""
        if self.legs != other.legs:
            raise InputError("leg counts differ")
        sp = self.space
        out = []
        for p, xs in self._batches:
            for q, ys in other._batches:
                muls = [sp.structure_constants(n, m) for n, m in zip(p, q)]
                if any(mul.shape[2] == 0 for mul in muls):
                    continue
                out += _nonzero_terms(tuple(n + m for n, m in zip(p, q)), [
                    _all_pairs(_convolve(_dense(x), _dense(y), mul))
                    for x, y, mul in zip(xs, ys, muls)
                ])
        return EndoTensor._of(sp, self.legs, out)

    def star(self) -> "EndoTensor":
        """Orientation reversal on every leg."""
        sp = self.space
        out = []
        for p, xs in self._batches:
            out += _nonzero_terms(p, [
                t @ _dense(x) @ t.T
                for t, x in zip(map(sp.star_matrix, p), xs)
            ])
        return EndoTensor._of(sp, self.legs, out)

    def __repr__(self) -> str:
        return f"EndoTensor(legs={self.legs}, terms={len(self)})"


# ---------------------------------------------------------------------------
# the endomorphism algebra B: one-leg tensors


def unit_endo(g: SpaceLike) -> EndoTensor:
    """Unit for the convolution product: the all-ones matrix on the
    zero-length block (sum of all [v] tensor dual [w])."""
    sp = as_space(g)
    d = sp.grade_basis(0).dim
    return EndoTensor.from_blocks(sp, {0: np.ones((d, d))})


def _one_leg(r: EndoTensor, who: str) -> None:
    """Raises InputError unless ``r`` is an element of B, a one-leg tensor."""
    if r.legs != 1:
        raise InputError(f"{who} needs an element of B (1 leg), got {r.legs} legs")


def counit(r: EndoTensor) -> float:
    """Counit of the composition coproduct: the trace, block by block."""
    _one_leg(r, "counit")
    return sum(float(np.einsum("tii->", _dense(x))) for _, (x,) in r._batches)


def conv_bullet(r: EndoTensor, s: EndoTensor) -> EndoTensor:
    """Graded convolution: on monomials, (e_i (x) e^j) * (e_k (x) e^l) =
    (e_i * e_k) (x) (e^j * e^l), the one-leg case of EndoTensor.bullet."""
    _one_leg(r, "conv_bullet")
    _one_leg(s, "conv_bullet")
    return r.bullet(s)


def coproduct(r: EndoTensor) -> EndoTensor:
    """Composition coproduct: block entry [i][j] of grade n becomes the sum
    over the grade-n basis of (n,i,I) (x) (n,I,j)."""
    _one_leg(r, "coproduct")
    return r.coproduct_leg(0)


def convolution_coproduct(r: EndoTensor) -> EndoTensor:
    """Coproduct dual to the graded product, restricted to grade-matched
    tensor factors.  On a grade-n monomial it sums, over splits s, the
    cuts (n-s, s) of both legs weighted by structure constants."""
    _one_leg(r, "convolution_coproduct")
    sp = r.space
    out = []
    for (n,), (x,) in r._batches:
        mat = _dense(x).sum(axis=0)
        for s in range(n + 1):
            mul = sp.structure_constants(n - s, s)
            if mul.shape[2] == 0:
                continue
            # coeff[(i,k),(j,l)] = sum_{a,b} mat[a,b] mul[i,j,a] mul[k,l,b],
            # one term (e_i (x) e^k) (x) coeff[i,k] per populated (i,k)
            flat = mul.reshape(-1, mul.shape[2])  # rows (i, j)
            coeff = (flat @ mat @ flat.T).reshape(mul.shape[:2] * 2).swapaxes(1, 2)
            i, k = np.nonzero(np.any(np.abs(coeff) > _CUT, axis=(2, 3)))
            if len(i):
                eye = np.eye(len(coeff))
                out.append(((n - s, s), ((eye[i], eye[k]), coeff[i, k])))
    return EndoTensor._of(sp, 2, out)


# ---------------------------------------------------------------------------
# reports and checks


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verified identity.  For ordinary checks pass means
    residual <= tolerance; names of non-existence checks state that the
    direction is flipped.  tolerance None marks a measured-only report."""

    name: str
    residual: float
    tolerance: Optional[float]
    passed: bool
    witness: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class GradedBasisAlgebra:
    """A graded algebra presented by orthonormal bases: per-grade dimensions
    plus a callback returning the structure-constant tensor of each grade
    pair.  Both the essential algebra and the truncated concatenation
    algebra are run through the same Gram checker."""

    label: str
    dims: dict[int, int]
    mul: Callable[[int, int], np.ndarray]


def essential_algebra(g: SpaceLike, max_length: Optional[int] = None) -> GradedBasisAlgebra:
    sp = as_space(g)
    sizes = {n: d for n, d in enumerate(sp.dims(max_length))}
    return GradedBasisAlgebra(
        label=f"essential({sp.graph.name})",
        dims=sizes,
        mul=sp.structure_constants,
    )


def truncated_paths_algebra(g: Graph, cap: int) -> GradedBasisAlgebra:
    """The concatenation algebra on all elementary paths of length <= cap,
    with the elementary paths as orthonormal basis.  Structure constants are
    exact integers: one path splices from exactly one (prefix, suffix) pair."""
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

    return GradedBasisAlgebra(
        label=f"truncated-paths({g.name}, cap={cap})",
        dims={n: len(ps) for n, ps in basis.items() if ps},
        mul=mul,
    )


def _gram(mul: np.ndarray) -> np.ndarray:
    """gram[K, L] = sum_{i, j} mul[i, j, K] mul[i, j, L], one matmul over the
    rows (i, j)."""
    flat = mul.reshape(-1, mul.shape[2])
    return flat.T @ flat


def gram_condition_residual(alg: GradedBasisAlgebra) -> tuple[float, Optional[tuple[int, int]]]:
    """Worst deviation of sum_{IJ} m_{IJ}^K m_{IJ}^L from delta^{KL} over all
    grade pairs whose target grade is populated, and the grade pair where
    it occurs.  Among rounding-level residuals that pair follows the
    summation order, so reports name it only above their tolerance."""
    worst = 0.0
    worst_pair: Optional[tuple[int, int]] = None
    for n in sorted(alg.dims):
        for k in sorted(alg.dims):
            dt = alg.dims.get(n + k, 0)
            if dt == 0:
                continue
            mul = alg.mul(n, k)
            res = float(np.max(np.abs(_gram(mul) - np.eye(dt))))
            if res > worst:
                worst, worst_pair = res, (n, k)
    return worst, worst_pair


def check_gram_condition(alg: GradedBasisAlgebra, tol: float = 1e-8) -> CheckReport:
    residual, pair = gram_condition_residual(alg)
    return CheckReport(
        name=f"gram_condition[{alg.label}]",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
        witness=None if residual <= tol else f"worst grade pair {pair}",
    )


def check_delta_homomorphism(g: SpaceLike, tol: float = 1e-8,
                             max_length: Optional[int] = None) -> CheckReport:
    """Homomorphism property of the composition coproduct for the graded
    convolution, read from the Gram matrices G = _gram(m_nm) of every grade
    pair.  For monomials r = e_i (x) e^j of grade n and s = e_k (x) e^l of
    grade m, Delta(r * s) - Delta(r) * Delta(s) is
    sum_{K,A,B,L} m_nm[i,k,K] (delta_AB - G[A,B]) m_nm[j,l,L]
    (e_K (x) e^A) (x) (e_B (x) e^L), so the coproduct is a homomorphism
    exactly when every G is the identity.  No structure constant exceeds 1
    in size (it pairs a unit vector with a product of unit vectors), so no
    entry of the difference exceeds the Gram residual, which is the
    residual here; the worst pair is named only above the tolerance."""
    sp = as_space(g)
    residual, pair = gram_condition_residual(essential_algebra(sp, max_length))
    return CheckReport(
        name="delta_homomorphism[bullet]",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
        witness=f"gram residual {residual:.3e}"
                + ("" if residual <= tol else f" (worst pair {pair})"),
    )


def check_convolution_coproduct(g: SpaceLike, tol: float = 1e-8,
                                max_length: Optional[int] = None) -> CheckReport:
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
    all monomial pairs when each Gram diagonal is constant."""
    sp = as_space(g)
    worst = 0.0
    sizes = sp.dims(max_length)
    for n, d in enumerate(sizes):
        grams = np.stack([_gram(sp.structure_constants(n - s, s)) for s in range(n + 1)])
        scale = np.max(np.diagonal(grams, axis1=1, axis2=2), axis=1) ** 2
        dev = ((grams - np.eye(d)) ** 2).reshape(n + 1, -1)
        worst = max(worst, float(np.max(scale @ dev)))
    residual = math.sqrt(worst)
    return CheckReport(
        name="convolution_coproduct_homomorphism[compose]",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
        witness=(f"every monomial pair of grades 0..{len(sizes) - 1}, from "
                 f"{len(sizes) * (len(sizes) + 1) // 2} split Gram matrices"),
    )


def counit_weak_multiplicativity_residual(g: SpaceLike, max_grade: int = 1,
                                          index_cap: int = 3) -> float:
    """Largest deviation of eps(x * y * z) from the split forms
    sum eps(x y_(1)) eps(y_(2) z), scanned over the monomials e_i (x) e^j of
    grades <= max_grade with i, j < index_cap.  This identity genuinely
    fails here, so the value is informational.

    The counit of (e_i (x) e^j) * (e_k (x) e^l) is sum_A m[i,k,A] m[j,l,A],
    so for x, y, z of grades (n, m, s) every triple is read from a few
    contractions of the capped structure constants: with
    U[i,k,p,C] = sum_A m_nm[i,k,A] m_ts[A,p,C], eps(x y z) is
    sum_C U[i,k,p,C] U[j,l,q,C], and both Sweedler orders of the split
    forms are sum_x left[.,x,.,.] right[x,.,.,.] with
    left[j,x,i,k] = sum_A m_nm[j,x,A] m_nm[i,k,A] and
    right[x,p,l,q] = sum_B m_ms[x,p,B] m_ms[l,q,B]."""
    sp = as_space(g)
    caps = [min(sp.grade_basis(n).dim, index_cap) for n in range(max_grade + 1)]
    grades = [n for n, c in enumerate(caps) if c]
    worst = 0.0
    for n in grades:
        for m in grades:
            m_nm = sp.structure_constants(n, m)[:caps[n]]
            corner = m_nm[:, :caps[m]]
            left = np.einsum("jxA,ikA->jxik", m_nm, corner)
            for s in grades:
                m_ts = sp.structure_constants(n + m, s)[:, :caps[s]]
                m_ms = sp.structure_constants(m, s)[:, :caps[s]]
                u = np.einsum("ikA,ApC->ikpC", corner, m_ts)
                full = np.einsum("ikpC,jlqC->ijklpq", u, u)
                right = np.einsum("xpB,lqB->xplq", m_ms, m_ms[:caps[m]])
                # eps(x y_(1)) eps(y_(2) z) summed over the middle index
                split1 = np.einsum("jxik,xplq->ijklpq", left, right)
                # the flipped Sweedler order
                split2 = np.einsum("ixjl,xqkp->ijklpq", left, right)
                worst = max(worst, float(np.max(np.abs(full - split1))),
                            float(np.max(np.abs(full - split2))))
    return worst


def check_comonoidality(g: SpaceLike, tol: float = 1e-9) -> CheckReport:
    """Both comonoidality identities for the unit, by explicit triple-tensor
    expansion; the counit weak-multiplicativity residual is measured and
    reported in the witness without asserting a direction."""
    sp = as_space(g)
    one = unit_endo(sp)
    d1 = coproduct(one)
    d2 = d1.coproduct_leg(0)
    left = d1.tensor(one).bullet(one.tensor(d1))
    right = one.tensor(d1).bullet(d1.tensor(one))
    res_left = (d2 - left).norm()
    res_right = (d2 - right).norm()
    weak = counit_weak_multiplicativity_residual(sp)
    residual = max(res_left, res_right)
    return CheckReport(
        name="comonoidality",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
        witness=(
            f"left {res_left:.3e}, right {res_right:.3e}; counit weak "
            f"multiplicativity measured residual {weak:.3e} (not asserted)"
        ),
    )


def check_unit_not_grouplike(g: SpaceLike, floor: float = 0.5) -> CheckReport:
    """Delta(1) differs from 1 (x) 1: pass means the residual EXCEEDS the
    floor (weak bialgebra, not a bialgebra)."""
    sp = as_space(g)
    one = unit_endo(sp)
    gap = (coproduct(one) - one.tensor(one)).norm()
    return CheckReport(
        name="unit_not_grouplike (pass iff residual > tolerance)",
        residual=gap,
        tolerance=floor,
        passed=gap > floor,
    )


def antipode_infeasibility(g: SpaceLike, n: int = 1, floor: float = 0.5,
                           monomials: Optional[Sequence[tuple[int, int]]] = None
                           ) -> CheckReport:
    """Closed-form obstruction to the antipode axiom on grade-n inputs.

    The axiom S(x_(1)) * x_(2) = 1_(1) eps(x 1_(2)) is imposed for the chosen
    basis monomials x of grade n >= 1.  Delta(x) has both legs in grade n,
    so for every linear S the left side lies in grades >= n >= 1.  Delta(1)
    has both legs in grade 0, so the right side lies in grade 0.  The two
    sides share no grade, and the smallest residual over all S is the norm of
    the right side, attained by S = 0; pass means it stays ABOVE the floor.

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
    """
    sp = as_space(g)
    if n < 1:
        raise InputError("antipode obstruction needs grade n >= 1")
    dn = sp.grade_basis(n).dim
    if dn < 1:
        raise InputError(f"grade {n} is empty on {sp.graph.name}")
    mono = list(monomials) if monomials is not None else [
        (i, j) for i in range(dn) for j in range(dn)
    ]
    for i, j in mono:
        if not (0 <= i < dn and 0 <= j < dn):
            raise InputError(f"monomial index {(i, j)} out of range for grade {n}")

    # right side rhs[i, j] = sum over Delta(1) terms t1 (x) t2 of
    # t1 eps(x * t2), from the machinery, no shortcut.  The counit of
    # (e_i (x) e^j) * (e_k (x) e^l) is sum_K mul[i,k,K] mul[j,l,K], so the
    # grade-(0, 0) block of Delta(1) is one contraction for every monomial.
    d0 = sp.grade_basis(0).dim
    blocks = coproduct(unit_endo(sp)).dense_blocks()
    one = blocks.pop((0, 0), np.zeros((d0,) * 4))
    mul = sp.structure_constants(n, 0)
    # eps[i, j, k, l] = sum_K mul[i, k, K] mul[j, l, K], over rows (i, k)
    flat = mul.reshape(-1, dn)
    eps = (flat @ flat.T).reshape(dn, d0, dn, d0).transpose(0, 2, 1, 3)
    # rhs[i, j, v, x] = sum_{k, l} eps[i, j, k, l] one[v, x, k, l]
    rhs = (eps.reshape(dn * dn, -1) @ one.reshape(d0 * d0, -1).T).reshape(eps.shape)
    picked = rhs[[i for i, _ in mono], [j for _, j in mono]]
    residual_sq = float(np.sum(picked ** 2))
    residual = math.sqrt(residual_sq)
    expected = d0 * sum(i == j for i, j in mono)
    faults = [f"Delta(1) has a leg outside grade 0, grade profile {p}"
              for p in sorted(blocks)]
    if abs(residual_sq - expected) > 1e-9 * max(expected, 1):
        faults.append(f"residual^2 {residual_sq:.12g} != |V| * diagonal "
                      f"monomials = {expected}")
    return CheckReport(
        name=f"antipode_infeasibility[n={n}] (pass iff residual > tolerance)",
        residual=residual,
        tolerance=floor,
        passed=residual > floor and not faults,
        witness="; ".join([
            f"{len(mono)} grade-{n} monomial conditions; norm {residual:.6f} "
            "of the right-hand side sits in grades no product can reach",
            *faults]),
    )


def check_star(g: SpaceLike, tol: float = 1e-9,
               max_length: Optional[int] = None) -> CheckReport:
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
    sp = as_space(g)
    sizes = sp.dims(max_length)
    stars = [sp.star_matrix(n) for n in range(len(sizes))]
    closure = max(float(np.max(np.abs(t @ t.T - np.eye(len(t))))) for t in stars)
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
            anti = max(anti, float(np.max(np.abs(lhs.reshape(dn, -1) - rhs))))
            pairs += 1
    residual = max(closure, unit_res, anti)
    return CheckReport(
        name="star_suite",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
        witness=(
            f"closure {closure:.3e}, unit {unit_res:.3e}, anti-automorphism "
            f"{anti:.3e} over {pairs} grade pairs"
        ),
    )


def check_coalgebra_axioms(g: SpaceLike, samples: int = 25, seed: int = 19,
                           tol: float = 1e-9,
                           max_length: Optional[int] = None) -> CheckReport:
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
    sp = as_space(g)
    rng = np.random.default_rng(seed)
    sizes = sp.dims(max_length)  # every grade listed is populated
    drawn: dict[int, list[tuple[int, int, float]]] = {}
    for _ in range(samples):
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
            worst = max(worst, (d.coproduct_leg(0) - d.coproduct_leg(1)).norm(),
                        (d.contract_counit(1) - rho).norm(),
                        (d.contract_counit(0) - rho).norm())
            combinations += 1
    return CheckReport(
        name="coalgebra_axioms",
        residual=worst,
        tolerance=tol,
        passed=worst <= tol,
        witness=(f"{samples} random monomials as {combinations} Gaussian "
                 f"combinations in grades {', '.join(map(str, sorted(drawn)))}"),
    )
