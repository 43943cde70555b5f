"""Grade-preserving endomorphisms of the essential path space.

The space B = (+)_n End(E_n) carries three interacting structures: the
blockwise composition product, the graded convolution product built from
the graded product on essential paths, and the coproduct dual to
composition.  Together they form a weak bialgebra: the coproduct is an
algebra homomorphism for the convolution product exactly when the Gram
matrices of the structure constants are the identity, the unit is not
group-like, comonoidality holds, and no antipode can exist.  This module
holds the algebra of B and the report type; the checks that verify these
claims live in verify.py, each of the form (space, config) -> CheckReport.

Coefficients are stored over the canonical essential bases, so composition
is a plain blockwise matrix product and the coproduct is a literal basis
sum.  With orthonormal bases and real scalars, the pairing that identifies
a vector with a functional is just the transpose of coefficient positions;
block entry [i][j] means e_i (x) (dual of e_j) throughout, and no separate
dualization object is needed.

B and its tensor powers (the codomain of the coproduct, and the triple
tensors of the comonoidality identities) have one type, EndoTensor: short
sums of tensor products of single-grade blocks, kept factored, each block
a rank-one u v^T, the decomposable e (x) f* on which the paper defines the
products and the coproduct.  An element of B is the one-leg case, one
batch of terms per grade (from_blocks, monomial, identity;
EndoTensor(sp, 1) is zero), so its composition, convolution product,
reversal and coproduct are EndoTensor.compose, .bullet, .star and
.coproduct_leg(0).  Every product in the axioms is legwise,
(x1 (x) x2) * (y1 (x) y2) = (x1 * y1) (x) (x2 * y2), and on rank-one
blocks it stays rank one: two graded products of vectors per leg, batched
over all term pairs.  Sums of entries are only formed to read a result
(norm, the monomial ``terms`` view, dense_blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import InputError
from .essential import EssentialSpace

_CUT = 1e-15


def _product(x: np.ndarray, y: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """The graded products of every vector pair of the batches x, shape
    (T, dn), and y, shape (S, dm), over the structure constants mul, shape
    (dn, dm, dt): out[t, s, K] is the sum over i, k of x[t, i] y[s, k]
    mul[i, k, K].  x meets mul alone first, so only the output grows with
    T * S; two matmuls."""
    (nt, dn), (ns, dm), dt = x.shape, y.shape, mul.shape[2]
    # xm[k, (t, K)] = sum_i x[t, i] mul[i, k, K]
    xm = (x @ mul.reshape(dn, -1)).reshape(nt, dm, dt).swapaxes(0, 1).reshape(dm, -1)
    return (y @ xm).reshape(ns, nt, dt).swapaxes(0, 1)


# ---------------------------------------------------------------------------
# factored tensors of endomorphisms

Leg = tuple[int, int, int]  # (grade, row index, column index)
Profile = tuple[int, ...]  # one grade per leg

# One leg of a batch of terms: term tau is the rank-one matrix u[tau] v[tau]^T,
# given as the pair (u, v) of (terms, d) arrays.
LegBatch = tuple[np.ndarray, np.ndarray]
Batch = tuple[Profile, tuple[LegBatch, ...]]


def _take(leg: LegBatch, idx: np.ndarray) -> LegBatch:
    return leg[0][idx], leg[1][idx]


def _scaled(leg: LegBatch, c) -> LegBatch:
    """The leg with term tau multiplied by c[tau], or by the scalar c."""
    return leg[0] * np.asarray(c, dtype=float)[..., None], leg[1]


def _nonzero_terms(profile: Profile, legs) -> list[Batch]:
    """The batch without its terms that have a zero leg, or no batch."""
    live = np.ones(len(legs[0][0]), dtype=bool)
    for u, v in legs:
        live &= u.any(axis=1) & v.any(axis=1)
    if not live.any():
        return []
    return [(profile, tuple(legs) if live.all() else tuple(_take(leg, live) for leg in legs))]


def _entries(legs) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the dense (d1, d1, ..., dk, dk) array, and values, of
    every nonzero entry of every term's product; repeats are not summed."""
    count = len(legs[0][0])
    term = np.arange(count)
    flat = np.zeros(count, dtype=np.int64)
    val = np.ones(count)
    for a in (f for leg in legs for f in leg):
        size = a.shape[1]
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
    term's coefficient carried by its first leg.  Every term matrix is
    rank one, u v^T, the decomposable e (x) f* on which the paper defines
    B's products and coproduct; a leg batch is the pair (u, v) of
    (terms, d) arrays, and a block is stored as the terms of its nonzero
    columns.  Each operation keeps a term rank one: composition is
    (v . u') u v'^T, the convolution product (u * u')(v * v')^T, reversal
    (T u)(T v)^T, the trace u . v, and the coproduct splits u v^T into
    (u e_I^T) (x) (e_I v^T).  Products in the weak-bialgebra identities
    are legwise, so the convolution product of two terms is
    (x_1 * y_1) (x) ... (x) (x_k * y_k): two graded products of vectors
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
            col = np.flatnonzero(mat.any(axis=0))
            out += _nonzero_terms((n,), ((mat[:, col].T, np.eye(d)[col]),))
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
        the entries above the cut, and of the non-finite ones."""
        parts: dict[Profile, list[tuple[np.ndarray, np.ndarray]]] = {}
        for profile, legs in self._batches:
            parts.setdefault(profile, []).append(_entries(legs))
        out = {}
        for profile, got in parts.items():
            flat, inverse = np.unique(np.concatenate([f for f, _ in got]),
                                      return_inverse=True)
            val = np.bincount(inverse, weights=np.concatenate([v for _, v in got]),
                              minlength=len(flat))
            keep = ~(np.abs(val) <= _CUT)  # a NaN is kept, so norm() is NaN
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
                nx, ny = len(xs[0][0]), len(ys[0][0])
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
            trace = np.einsum("ti,ti->t", *xs[leg])
            rest = xs[:leg] + xs[leg + 1:]
            out += _nonzero_terms(p[:leg] + p[leg + 1:],
                                  (_scaled(rest[0], trace),) + rest[1:])
        return EndoTensor._of(self.space, self.legs - 1, out)

    def coproduct_leg(self, leg: int) -> "EndoTensor":
        """Apply the composition coproduct to one leg, term by term:
        u v^T becomes the sum over I of (u e_I^T) (x) (e_I v^T), the plain
        expansion of e_i (x) e^j -> sum_I (e_i (x) e^I) (x) (e_I (x) e^j)."""
        out = []
        for p, xs in self._batches:
            u, v = xs[leg]
            count, d = u.shape
            src = np.repeat(np.arange(count), d)
            cap = np.tile(np.eye(d), (count, 1))
            split = ((np.repeat(u, d, axis=0), cap), (cap, np.repeat(v, d, axis=0)))
            out.append((p[:leg] + (p[leg],) + p[leg:],
                        tuple(_take(y, src) for y in xs[:leg]) + split
                        + tuple(_take(y, src) for y in xs[leg + 1:])))
        return EndoTensor._of(self.space, self.legs + 1, out)

    def compose(self, other: "EndoTensor") -> "EndoTensor":
        """Legwise composition, (u v^T)(u' v'^T) = (v . u') u v'^T, one
        matrix product per leg batched over all term pairs; terms of
        different grade profiles compose to zero."""
        if self.legs != other.legs:
            raise InputError("leg counts differ")
        out = []
        for p, xs in self._batches:
            for q, ys in other._batches:
                if p == q:
                    out += _nonzero_terms(p, [
                        ((u[:, None] * (v @ u2.T)[..., None]).reshape(-1, u.shape[1]),
                         np.tile(v2, (len(u), 1)))
                        for (u, v), (u2, v2) in zip(xs, ys)])
        return EndoTensor._of(self.space, self.legs, out)

    def bullet(self, other: "EndoTensor") -> "EndoTensor":
        """Legwise convolution product of two tensors of equal leg count:
        (x_1 (x) ... (x) x_k) * (y_1 (x) ... (x) y_k) is
        (x_1 * y_1) (x) ... (x) (x_k * y_k).  On a leg,
        (u v^T) * (u' v'^T) = (u * u')(v * v')^T, two graded products batched
        over all term pairs."""
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
                    tuple(_product(a, b, mul).reshape(-1, mul.shape[2])
                          for a, b in zip(x, y))
                    for x, y, mul in zip(xs, ys, muls)
                ])
        return EndoTensor._of(sp, self.legs, out)

    def star(self) -> "EndoTensor":
        """Orientation reversal on every leg: T u v^T T^T = (T u)(T v)^T."""
        sp = self.space
        out = []
        for p, xs in self._batches:
            out += _nonzero_terms(p, [
                (u @ t.T, v @ t.T) for t, (u, v) in zip(map(sp.star_matrix, p), xs)
            ])
        return EndoTensor._of(sp, self.legs, out)

    def __repr__(self) -> str:
        return f"EndoTensor(legs={self.legs}, terms={len(self)})"


# ---------------------------------------------------------------------------
# the endomorphism algebra B: one-leg tensors


def unit_endo(sp: EssentialSpace) -> EndoTensor:
    """Unit for the convolution product: the all-ones matrix on the
    zero-length block (sum of all [v] tensor dual [w]), the one term 1 1^T."""
    ones = np.ones((1, sp.grade_basis(0).dim))
    return EndoTensor._of(sp, 1, [((0,), ((ones, ones),))])


def _one_leg(r: EndoTensor, who: str) -> None:
    """Raises InputError unless ``r`` is an element of B, a one-leg tensor."""
    if r.legs != 1:
        raise InputError(f"{who} needs an element of B (1 leg), got {r.legs} legs")


def counit(r: EndoTensor) -> float:
    """Counit of the composition coproduct: the trace, block by block."""
    _one_leg(r, "counit")
    return sum(float(np.einsum("ti,ti->", *x)) for _, (x,) in r._batches)


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
    cuts (n-s, s) of both legs weighted by structure constants: a term
    u v^T becomes sum_{i,k} (e_i e_k^T) (x) a[i] b[k]^T with
    a[i, j] = sum_A mul[i, j, A] u[A] and b[k, l] = sum_B mul[k, l, B] v[B]."""
    _one_leg(r, "convolution_coproduct")
    sp = r.space
    out = []
    for (n,), ((u, v),) in r._batches:
        for s in range(n + 1):
            mul = sp.structure_constants(n - s, s)
            dl, dr, dn = mul.shape
            if dn == 0:
                continue
            flat = mul.reshape(-1, dn)  # rows (i, j)
            a, b = ((w @ flat.T).reshape(len(w), dl, dr) for w in (u, v))
            t, i, k = (g.ravel() for g in np.indices((len(u), dl, dl)))
            eye = np.eye(dl)
            out += _nonzero_terms((n - s, s), ((eye[i], eye[k]), (a[t, i], b[t, k])))
    return EndoTensor._of(sp, 2, out)


# ---------------------------------------------------------------------------
# reports and the Gram and counit scans the checks read


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verified identity.  A check passes when its residual
    is at most its tolerance (within); the names of the non-existence
    checks state that their direction is flipped."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    witness: Optional[str] = None

    @classmethod
    def within(cls, name: str, residual: float, tolerance: float,
               witness: Optional[str] = None) -> "CheckReport":
        """The report that passes exactly when residual <= tolerance (so a
        NaN residual fails)."""
        return cls(name, residual, tolerance, residual <= tolerance, witness)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "witness": self.witness,
        }


def _worst(*residuals: float) -> float:
    """The largest residual, NaN if any is NaN (the built-in max drops a NaN
    that does not come first, and a check would pass on it)."""
    return math.nan if any(map(math.isnan, residuals)) else float(max(residuals))


def _gram(mul: np.ndarray) -> np.ndarray:
    """gram[K, L] = sum_{i, j} mul[i, j, K] mul[i, j, L], one matmul over the
    rows (i, j)."""
    flat = mul.reshape(-1, mul.shape[2])
    return flat.T @ flat


def gram_condition_residual(dims: dict[int, int], mul: Callable[[int, int], np.ndarray]
                            ) -> tuple[float, Optional[tuple[int, int]]]:
    """Worst deviation of sum_{IJ} m_{IJ}^K m_{IJ}^L from delta^{KL} over all
    grade pairs whose target grade is populated, and the grade pair where
    it occurs, for the graded algebra with orthonormal bases of dimensions
    ``dims`` (grade -> dimension) and structure constants ``mul(n, k)``.
    Among rounding-level residuals that pair follows the summation order,
    so reports name it only above their tolerance.  A NaN residual is the
    worst, at the first grade pair that gives one."""
    worst = 0.0
    worst_pair: Optional[tuple[int, int]] = None
    for n in sorted(dims):
        for k in sorted(dims):
            dt = dims.get(n + k, 0)
            if dt == 0:
                continue
            res = float(np.max(np.abs(_gram(mul(n, k)) - np.eye(dt))))
            if not (res <= worst or math.isnan(worst)):
                worst, worst_pair = res, (n, k)
    return worst, worst_pair


def counit_weak_multiplicativity_residual(sp: EssentialSpace, max_grade: int = 1,
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
                worst = _worst(worst, float(np.max(np.abs(full - split1))),
                               float(np.max(np.abs(full - split2))))
    return worst
