"""Elementary paths, formal linear combinations, and the concatenation algebra.

An elementary path is a tuple of vertex indices with consecutive entries
adjacent in the graph; its length is the number of edges traversed.  The
vector space spanned by elementary paths carries the concatenation product
(splice at a matching endpoint, zero otherwise), the scalar product that
makes elementary paths orthonormal, the backtrack-removal operators C_k,
and a group-like coalgebra structure.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .graphs import DEFAULT_TOL, Graph, PerronData, perron_frobenius

Path = tuple[int, ...]

DROP_TOL = 1e-14


def path_length(p: Path) -> int:
    return len(p) - 1


def _trusted(cls, keys: Iterable, values: Iterable[float], dropped: bool = False):
    """The vector sum_r values[r] keys[r], for distinct keys already in
    tuple form and values that are Python floats (from ndarray.tolist): what
    the public constructor builds, with no conversions and, unless every
    |value| is known to exceed DROP_TOL (``dropped``), its drop test."""
    out = cls.__new__(cls)
    out._terms = (dict(zip(keys, values)) if dropped else
                  {k: c for k, c in zip(keys, values) if abs(c) > DROP_TOL})
    return out


class PathVector:
    """Finite real linear combination of elementary paths.

    Terms with |coefficient| <= DROP_TOL are dropped, so the zero vector has
    no terms and equality is termwise.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[Path, float]] = None):
        clean: dict[Path, float] = {}
        if terms:
            for p, c in terms.items():
                if abs(c) > DROP_TOL:
                    clean[tuple(p)] = float(c)
        self._terms = clean

    _of = classmethod(_trusted)  # keys are path tuples

    @classmethod
    def zero(cls) -> "PathVector":
        return cls()

    @classmethod
    def single(cls, p: Path, coeff: float = 1.0) -> "PathVector":
        return cls({tuple(p): coeff})

    @property
    def terms(self) -> dict[Path, float]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, p: Path) -> float:
        return self._terms.get(tuple(p), 0.0)

    def __add__(self, other: "PathVector") -> "PathVector":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, 0.0) + c
        return PathVector(out)

    def __sub__(self, other: "PathVector") -> "PathVector":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, 0.0) - c
        return PathVector(out)

    def __mul__(self, scalar: float) -> "PathVector":
        return PathVector({p: c * scalar for p, c in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "PathVector":
        return self * -1.0

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self._terms.values()))

    def lengths(self) -> set[int]:
        return {path_length(p) for p in self._terms}

    def sorted_terms(self) -> list[tuple[Path, float]]:
        return sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathVector):
            return NotImplemented
        return (self - other).norm() <= DROP_TOL * max(1, len(self) + len(other))

    def __repr__(self) -> str:
        if not self._terms:
            return "PathVector(0)"
        bits = [f"{c:+.6g}*{list(p)}" for p, c in self.sorted_terms()]
        return "PathVector(" + " ".join(bits) + ")"


class TensorPathVector:
    """Finite real linear combination of pairs of elementary paths."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[tuple[Path, Path], float]] = None):
        clean: dict[tuple[Path, Path], float] = {}
        if terms:
            for (p, q), c in terms.items():
                if abs(c) > DROP_TOL:
                    clean[(tuple(p), tuple(q))] = float(c)
        self._terms = clean

    _of = classmethod(_trusted)  # keys are pairs of path tuples

    @property
    def terms(self) -> dict[tuple[Path, Path], float]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "TensorPathVector") -> "TensorPathVector":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0.0) + c
        return TensorPathVector(out)

    def __sub__(self, other: "TensorPathVector") -> "TensorPathVector":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0.0) - c
        return TensorPathVector(out)

    def __mul__(self, scalar: float) -> "TensorPathVector":
        return TensorPathVector({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self._terms.values()))

    def coefficient(self, p: Path, q: Path) -> float:
        return self._terms.get((tuple(p), tuple(q)), 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorPathVector):
            return NotImplemented
        return (self - other).norm() <= DROP_TOL * max(1, len(self) + len(other))

    def __repr__(self) -> str:
        bits = [
            f"{c:+.6g}*{list(p)}x{list(q)}"
            for (p, q), c in sorted(self._terms.items())
        ]
        return "TensorPathVector(" + (" ".join(bits) or "0") + ")"


def _resolve_path(g: Graph, vertices: Sequence) -> Path:
    idx = tuple(g.vertex_index(v) for v in vertices)
    if not idx:
        raise InputError("a path needs at least one vertex")
    for x, y in zip(idx, idx[1:]):
        if y not in g.neighbors[x]:
            raise InputError(
                f"vertices {g.label(x)!r} and {g.label(y)!r} are not adjacent"
            )
    return idx


def elementary(g: Graph, vertices: Sequence, coeff: float = 1.0) -> PathVector:
    """The elementary path through the given vertex labels, as a vector."""
    return PathVector.single(_resolve_path(g, vertices), coeff)


def path_labels(g: Graph, p: Path) -> list[str]:
    return [g.label(i) for i in p]


def enumerate_paths(g: Graph, a, b, length: int) -> list[Path]:
    """All elementary paths from a to b of the given length, lex-sorted by
    vertex-index sequence.  This ordering fixes every downstream basis.

    The paths are built from the end: the tails of r steps to b, kept only
    from the vertices the start reaches in length - r steps, so every tuple
    made is the tail of an output path."""
    if length < 0:
        raise InputError(f"path length must be >= 0, got {length}")
    start = g.vertex_index(a)
    end = g.vertex_index(b)
    nbrs = g.neighbors
    ahead = [{start}]  # ahead[k]: the vertices k steps from the start
    for _ in range(length):
        ahead.append({v for u in ahead[-1] for v in nbrs[u]})
    tails = {end: [(end,)]} if end in ahead[length] else {}
    for r in range(1, length + 1):
        # neighbours are sorted and each list of tails is, so u's is too
        tails = {u: [(u,) + t for v in nbrs[u] if v in tails for t in tails[v]]
                 for u in ahead[length - r]}
    return tails.get(start, [])


def concat(p: PathVector, q: PathVector) -> PathVector:
    """Bilinear concatenation: splice at a matching endpoint, else zero."""
    out: dict[Path, float] = {}
    for pp, cp in p.items():
        for qq, cq in q.items():
            if pp[-1] == qq[0]:
                key = pp + qq[1:]
                out[key] = out.get(key, 0.0) + cp * cq
    return PathVector(out)


def inner(p: PathVector, q: PathVector) -> float:
    """Scalar product in which elementary paths are orthonormal."""
    if len(q) < len(p):
        p, q = q, p
    return sum(c * q.coefficient(pp) for pp, c in p.items())


def unit(g: Graph) -> PathVector:
    """Sum of all zero-length paths; two-sided unit for concatenation."""
    return PathVector({(i,): 1.0 for i in range(g.n_vertices)})


def annihilate(g: Graph, k: int, p: PathVector, pf: Optional[PerronData] = None,
               tol: float = DEFAULT_TOL) -> PathVector:
    """The backtrack-removal operator C_k.

    On an elementary path [a_0..a_L] with L > k it gives
    sqrt(mu_{a_k}/mu_{a_{k-1}}) * [a_0..a_{k-1},a_{k+2}..a_L] when
    a_{k-1} = a_{k+1}, and zero otherwise; paths of length <= k go to zero.
    """
    if k < 1:
        raise InputError(f"C_k needs k >= 1, got {k}")
    if pf is None:
        pf = perron_frobenius(g, tol)
    mu = pf.mu
    out: dict[Path, float] = {}
    for pp, c in p.items():
        if path_length(pp) <= k:
            continue
        if pp[k - 1] == pp[k + 1]:
            w = math.sqrt(mu[pp[k]] / mu[pp[k - 1]])
            key = pp[:k] + pp[k + 2:]
            out[key] = out.get(key, 0.0) + c * w
    return PathVector(out)


def reverse_star(p: PathVector) -> PathVector:
    """Orientation reversal of every term (antilinear; identity on real
    coefficients)."""
    out: dict[Path, float] = {}
    for pp, c in p.items():
        key = pp[::-1]
        out[key] = out.get(key, 0.0) + c
    return PathVector(out)


def tensor(p: PathVector, q: PathVector) -> TensorPathVector:
    out: dict[tuple[Path, Path], float] = {}
    for pp, cp in p.items():
        for qq, cq in q.items():
            out[(pp, qq)] = cp * cq
    return TensorPathVector(out)


def tensor_concat(t1: TensorPathVector, t2: TensorPathVector) -> TensorPathVector:
    """Componentwise concatenation on path pairs."""
    out: dict[tuple[Path, Path], float] = {}
    for (p1, p2), c1 in t1.items():
        for (q1, q2), c2 in t2.items():
            if p1[-1] == q1[0] and p2[-1] == q2[0]:
                key = (p1 + q1[1:], p2 + q2[1:])
                out[key] = out.get(key, 0.0) + c1 * c2
    return TensorPathVector(out)


def grouplike_coproduct(p: PathVector) -> TensorPathVector:
    """Linear extension of p -> p (x) p on elementary paths."""
    return TensorPathVector({(pp, pp): c for pp, c in p.items()})


def grouplike_counit(p: PathVector) -> float:
    """Linear extension of p -> 1 on elementary paths."""
    return sum(c for _, c in p.items())
