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
sums of tensor products of single-grade blocks, kept factored.  An element
of B is the one-leg case, one batch of terms per grade (from_blocks,
monomial, identity; EndoTensor(sp, 1) is zero), so its composition,
convolution product, reversal and coproduct are EndoTensor.compose,
.bullet, .star and .coproduct_leg(0).  Every product in the axioms is
legwise, (x1 (x) x2) * (y1 (x) y2) = (x1 * y1) (x) (x2 * y2), so it is one
structure-constant contraction per leg, batched over all term pairs.
Sums of entries are only formed to read a result (norm, the monomial
``terms`` view, dense_blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import InputError
from .essential import EssentialSpace

_CUT = 1e-15


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


def unit_endo(sp: EssentialSpace) -> EndoTensor:
    """Unit for the convolution product: the all-ones matrix on the
    zero-length block (sum of all [v] tensor dual [w])."""
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
# reports and the Gram and counit scans the checks read


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verified identity.  A check passes when its residual
    is at most its tolerance (within); the names of the non-existence
    checks state that their direction is flipped.  tolerance None marks a
    measured-only report."""

    name: str
    residual: float
    tolerance: Optional[float]
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
    so reports name it only above their tolerance."""
    worst = 0.0
    worst_pair: Optional[tuple[int, int]] = None
    for n in sorted(dims):
        for k in sorted(dims):
            dt = dims.get(n + k, 0)
            if dt == 0:
                continue
            res = float(np.max(np.abs(_gram(mul(n, k)) - np.eye(dt))))
            if res > worst:
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
                worst = max(worst, float(np.max(np.abs(full - split1))),
                            float(np.max(np.abs(full - split2))))
    return worst
