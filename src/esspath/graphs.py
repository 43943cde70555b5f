"""Finite labeled trees and their spectral data.

A graph here is a simple unoriented connected graph, by default a tree.
The interesting instances are the ADE Dynkin diagrams, whose adjacency
spectral radius is beta = 2*cos(pi/kappa) < 2 for an integer Coxeter
number kappa.  The normalized positive eigenvector mu (Perron-Frobenius)
drives the backtrack-removal operators in :mod:`esspath.paths`, and the
fused matrices F_p obtained from the Chebyshev-style recurrence
F_{p+1} = A F_p - F_{p-1} count essential paths by length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InputError, NumericError, UnsupportedGraphError

DEFAULT_TOL = 1e-9


def check_tolerances(*tols: float) -> None:
    """Raise InputError unless every tolerance is finite and positive.  A nan
    fails every comparison and an inf passes every one, so either would fail
    every check or pass a check that tested nothing."""
    for t in tols:
        if not (math.isfinite(t) and t > 0):
            raise InputError(f"tolerances must be finite and positive, got {t!r}")


@dataclass(frozen=True)
class Graph:
    """A simple unoriented graph with string-labeled vertices.

    ``edges`` holds index pairs (i, j) with i < j, sorted; ``distinguished``
    is the index of the base point at which mu is normalized to 1.
    """

    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    distinguished: int

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((len(self.vertices), len(self.vertices)), dtype=np.int64)
        for i, j in self.edges:
            a[i, j] = 1
            a[j, i] = 1
        return a

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in self.vertices]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.vertices)}

    def vertex_index(self, v) -> int:
        """Resolve a vertex given by label (ints are read as labels)."""
        lbl = v if isinstance(v, str) else str(v)
        try:
            return self._label_index[lbl]
        except KeyError:
            raise InputError(f"unknown vertex {lbl!r} of graph {self.name!r}") from None

    def label(self, i: int) -> str:
        return self.vertices[i]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class PerronData:
    """Largest adjacency eigenvalue and its positive eigenvector.

    ``mu`` is normalized so the distinguished component equals 1; ``kappa``
    is the Coxeter number when beta = 2*cos(pi/kappa) for an integer kappa,
    otherwise None (spectral radius >= 2).
    """

    beta: float
    mu: np.ndarray
    kappa: Optional[int]


@dataclass(frozen=True)
class FusedMatrices:
    """Nonnegative integer matrices F_0 = I, F_1 = A, F_{p+1} = A F_p - F_{p-1},
    listed up to the last nonzero one."""

    matrices: tuple[np.ndarray, ...]

    @property
    def sums(self) -> tuple[int, ...]:
        return tuple(int(m.sum()) for m in self.matrices)

    def __len__(self) -> int:
        return len(self.matrices)


def _make_graph(name, labels, label_edges, distinguished, allow_cycles=False) -> Graph:
    labels = [str(x) for x in labels]
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})
        raise InputError(f"duplicate vertex labels {dup}")
    if not labels:
        raise InputError("graph has no vertices")
    index = {lbl: i for i, lbl in enumerate(labels)}
    edges: set[tuple[int, int]] = set()
    for e in label_edges:
        u, v = str(e[0]), str(e[1])
        if u not in index or v not in index:
            missing = u if u not in index else v
            raise InputError(f"edge endpoint {missing!r} is not a vertex")
        i, j = index[u], index[v]
        if i == j:
            raise InputError(f"self-loop at vertex {u!r}")
        key = (min(i, j), max(i, j))
        if key in edges:
            raise InputError(f"duplicate edge {u!r}-{v!r}")
        edges.add(key)

    # connectivity
    seen = {0}
    stack = [0]
    nbrs: dict[int, list[int]] = {i: [] for i in range(len(labels))}
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(labels):
        raise InputError("graph is not connected")
    if not allow_cycles and len(edges) != len(labels) - 1:
        raise InputError(
            "graph is not a tree (|edges| != |vertices| - 1); "
            "pass allow_cycles to override"
        )

    if distinguished is None:
        dist = _minimal_mu_vertex(labels, edges)
    else:
        dist = index.get(str(distinguished))
        if dist is None:
            raise InputError(f"distinguished vertex {distinguished!r} is not a vertex")
    return Graph(name=name, vertices=tuple(labels), edges=tuple(sorted(edges)),
                 distinguished=dist)


def _minimal_mu_vertex(labels, edges) -> int:
    a = np.zeros((len(labels), len(labels)))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    _, vec = _dominant_pair(a)
    ties = np.flatnonzero(vec <= vec.min() * (1.0 + 1e-9)).tolist()
    return min(ties, key=labels.__getitem__)


def build_ade(family: str, rank: int) -> Graph:
    """Build an ADE Dynkin diagram with its conventional labeling.

    A_n is the path graph on vertices "1".."n".  D_n chains "0".."n-3" and
    attaches the fork tips "n-2", "n-1" to "n-3".  E_6 carries the labeling
    chain 0-1-2-5-4 with 3 attached to 2; E_7/E_8 extend the long arm with
    labels chosen so that "0" (the long-arm end) has minimal mu.
    """
    family = family.upper()
    if family == "A":
        if rank < 1:
            raise InputError(f"A-series rank must be >= 1, got {rank}")
        labels = [str(i) for i in range(1, rank + 1)]
        edges = [(labels[i], labels[i + 1]) for i in range(rank - 1)]
        dist = "1"
    elif family == "D":
        if rank < 4:
            raise InputError(f"D-series rank must be >= 4, got {rank}")
        labels = [str(i) for i in range(rank)]
        edges = [(str(i), str(i + 1)) for i in range(rank - 3)]
        edges += [(str(rank - 3), str(rank - 2)), (str(rank - 3), str(rank - 1))]
        dist = "0"
    elif family == "E":
        if rank not in (6, 7, 8):
            raise InputError(f"E-series rank must be 6, 7 or 8, got {rank}")
        labels = [str(i) for i in range(rank)]
        if rank == 6:
            chain = ["0", "1", "2", "5", "4"]
        elif rank == 7:
            chain = ["0", "1", "2", "3", "4", "5"]
            labels = [str(i) for i in range(7)]
        else:
            chain = ["0", "1", "2", "3", "4", "5", "6"]
        edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        if rank == 6:
            edges.append(("2", "3"))
        elif rank == 7:
            # trivalent node "3": arms of lengths 3 ("3"-"2"-"1"-"0"), 2, 1
            edges.append(("3", "6"))
        else:
            # trivalent node "4": arms of lengths 4, 2, 1
            edges.append(("4", "7"))
        dist = "0"
    else:
        raise InputError(f"unsupported family {family!r} (expected A, D or E)")
    name = f"{family}{rank}"
    return _make_graph(name, labels, edges, dist)


_BUILTIN_NAMES = (
    [f"A{r}" for r in range(1, 13)] + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8"]
)


def builtin_graph(name: str) -> Graph:
    """Look up a built-in diagram by name (A1..A12, D4..D8, E6, E7, E8)."""
    key = name.upper()
    if key not in _BUILTIN_NAMES:
        raise InputError(
            f"unknown built-in graph {name!r}; choose one of {', '.join(_BUILTIN_NAMES)}"
        )
    return build_ade(key[0], int(key[1:]))


def parse_graph(text: str, allow_cycles: bool = False) -> Graph:
    """Parse a JSON graph file.

    Expected shape: {"name": str, "vertices": [str...], "edges": [[str,str]...],
    "distinguished": str?}.  If "distinguished" is absent, a vertex of minimal
    mu is picked, ties broken by label order.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON graph file: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("graph file must be a JSON object")
    for field in ("vertices", "edges"):
        if field not in data:
            raise InputError(f"graph file is missing {field!r}")
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise InputError("'edges' must be a list of label pairs")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise InputError(f"edge {e!r} is not a list of two labels")
    name = data.get("name", "graph")
    if not isinstance(name, str):
        raise InputError("'name' must be a string")
    return _make_graph(name, vertices, edges, data.get("distinguished"),
                       allow_cycles=allow_cycles)


def _dominant_pair(adjacency: np.ndarray) -> tuple[float, np.ndarray]:
    """The top adjacency eigenpair from one symmetric eigensolve: the largest
    eigenvalue and a unit eigenvector of it.  On a connected graph that
    eigenvalue is simple and its eigenvector has components of one sign;
    the sign is flipped once so that they sum to a positive number.  No
    absolute value is taken, so a component that is not positive stays
    visible to the caller's checks."""
    vals, vecs = np.linalg.eigh(adjacency)
    vec = vecs[:, -1]
    return float(vals[-1]), (-vec if vec.sum() < 0 else vec)


_KAPPA_CAP = 100_000


def _detect_kappa(beta: float, tol: float) -> Optional[int]:
    if beta >= 2.0:
        return None
    if beta <= 0.0:
        kappa = 2  # single vertex: beta = 0 = 2 cos(pi/2)
    else:
        kappa = round(math.pi / math.acos(beta / 2.0))
    # an eigenvalue of exactly 2 computed a hair below would otherwise pass
    # the reconstruction test with an absurd kappa (2 - 2cos(pi/k) ~ 1/k^2);
    # genuine diagrams that large are far beyond desk scale anyway
    if kappa < 2 or kappa > _KAPPA_CAP:
        return None
    if abs(beta - 2.0 * math.cos(math.pi / kappa)) <= tol:
        return kappa
    return None


def perron_frobenius(g: Graph, tol: float = DEFAULT_TOL) -> PerronData:
    """Perron-Frobenius data of the graph, normalized at the base point,
    from one symmetric eigensolve (`_dominant_pair`), so beta and mu are
    accurate to rounding and do not depend on ``tol``.

    ``tol`` sets only the checks on the result: mu must be positive, its
    distinguished component (1) minimal among all components (ties
    allowed), the eigen residual within tol * max(1, max mu), and kappa is
    detected within tol.  fused_matrices checks its tolerance here.
    """
    check_tolerances(tol)
    beta, vec = _dominant_pair(g.adjacency.astype(float))
    if np.any(vec <= 0):
        raise NumericError("eigenvector has non-positive components")
    if vec[g.distinguished] > vec.min() * (1.0 + 1e-9):
        raise InputError(
            f"distinguished vertex {g.label(g.distinguished)!r} does not have "
            "minimal Perron-Frobenius component"
        )
    mu = vec / vec[g.distinguished]
    resid = np.max(np.abs(g.adjacency @ mu - beta * mu))
    if resid > tol * max(1.0, float(np.max(mu))):
        raise NumericError(f"eigen residual {resid:g} exceeds tolerance {tol:g}")
    return PerronData(beta=beta, mu=mu, kappa=_detect_kappa(beta, tol))


def fused_matrices(g: Graph, tol: float = DEFAULT_TOL) -> FusedMatrices:
    """Integer matrices of the length-p fusion action, up to the last nonzero.

    Requires a Coxeter number; on graphs with spectral radius >= 2 the list
    would never terminate.
    """
    pf = perron_frobenius(g, tol)
    if pf.kappa is None:
        raise UnsupportedGraphError(
            f"graph {g.name!r} has spectral radius >= 2 (no Coxeter number); "
            "fused matrices are not defined"
        )
    a = g.adjacency
    mats: list[np.ndarray] = [np.eye(g.n_vertices, dtype=np.int64), a.copy()]
    if not mats[1].any():  # single vertex: F_1 = 0
        return FusedMatrices(matrices=(mats[0],))
    for _ in range(pf.kappa + 1):
        nxt = a @ mats[-1] - mats[-2]
        if np.any(nxt < 0):
            raise NumericError("fused-matrix recurrence produced negative entries")
        if not nxt.any():
            return FusedMatrices(matrices=tuple(mats))
        mats.append(nxt)
    raise NumericError("fused-matrix recurrence did not terminate")
