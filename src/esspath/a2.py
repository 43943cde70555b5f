"""Two-point diagram comparison: graded vs filtered convolution.

On the two-vertex path graph the essential paths are a1 = [1], a2 = [2],
r = [1,2] and l = [2,1], and the 8-dimensional endomorphism algebra can be
written out completely.  This module hard-codes those tables as goldens:
the graded product (where r*l = l*r = 0), the filtered product (where
r*l = a1 and l*r = a2 instead), both induced endomorphism products with
their matrix-unit decompositions, the corresponding coproducts, and the
realization of the graded endomorphism algebra by 2x2 matrices over the
ring generated by 1 and a nilpotent theta.  The generic machinery must
reproduce every graded entry exactly; the filtered tables exist only here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .endo import (
    CheckReport,
    EndoTensor,
    conv_bullet,
    convolution_coproduct,
)
from .errors import InputError
from .essential import EssentialSpace, space
from .graphs import build_ade
from .paths import PathVector, TensorPathVector, elementary, tensor

ELEMENT_NAMES = ("a1", "a2", "r", "l")
ENDO_NAMES = ("r11", "r12", "r21", "r22", "rrr", "rrl", "rlr", "rll")

# grade and index of each basis element in the canonical graded basis
ELEMENT_GRADE_INDEX = {"a1": (0, 0), "a2": (0, 1), "r": (1, 0), "l": (1, 1)}
ENDO_GRADE_INDEX = {
    "r11": (0, 0, 0), "r12": (0, 0, 1), "r21": (0, 1, 0), "r22": (0, 1, 1),
    "rrr": (1, 0, 0), "rrl": (1, 0, 1), "rlr": (1, 1, 0), "rll": (1, 1, 1),
}
# the two legs of each endomorphism generator, and the generator of each pair
ENDO_LEGS = {
    "r11": ("a1", "a1"), "r12": ("a1", "a2"), "r21": ("a2", "a1"),
    "r22": ("a2", "a2"), "rrr": ("r", "r"), "rrl": ("r", "l"),
    "rlr": ("l", "r"), "rll": ("l", "l"),
}
ENDO_OF_LEGS = {v: k for k, v in ENDO_LEGS.items()}


def _element_table(products: dict[tuple[str, str], str]) -> np.ndarray:
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for (x, y), z in products.items():
        table[ELEMENT_NAMES.index(x), ELEMENT_NAMES.index(y),
              ELEMENT_NAMES.index(z)] = 1
    return table


# graded product: concatenate, then project back onto essential paths
BULLET_TABLE = _element_table({
    ("a1", "a1"): "a1", ("a2", "a2"): "a2",
    ("a1", "r"): "r", ("r", "a2"): "r",
    ("a2", "l"): "l", ("l", "a1"): "l",
})

# filtered product: differs exactly in r*l and l*r
STAR_TABLE = BULLET_TABLE.copy()
STAR_TABLE[ELEMENT_NAMES.index("r"), ELEMENT_NAMES.index("l"),
           ELEMENT_NAMES.index("a1")] = 1
STAR_TABLE[ELEMENT_NAMES.index("l"), ELEMENT_NAMES.index("r"),
           ELEMENT_NAMES.index("a2")] = 1

# path-level coproducts dual to the two products
GRADED_COPRODUCT = {
    "a1": (("a1", "a1"),),
    "a2": (("a2", "a2"),),
    "r": (("a1", "r"), ("r", "a2")),
    "l": (("a2", "l"), ("l", "a1")),
}
FILTERED_COPRODUCT = {
    "a1": (("a1", "a1"), ("r", "l")),
    "a2": (("a2", "a2"), ("l", "r")),
    "r": (("a1", "r"), ("r", "a2")),
    "l": (("a2", "l"), ("l", "a1")),
}


def _grade_of(name: str) -> int:
    return ELEMENT_GRADE_INDEX[name][0]


def _endo_square(table: np.ndarray) -> np.ndarray:
    """Tensor-square product on the 8 endomorphism generators, keeping only
    grade-matched results (both legs must land in the same grade)."""
    out = np.zeros((8, 8, 8), dtype=np.int64)
    names = ENDO_NAMES
    for x, y in itertools.product(names, repeat=2):
        (u, v), (w, z) = ENDO_LEGS[x], ENDO_LEGS[y]
        iu, iv = ELEMENT_NAMES.index(u), ELEMENT_NAMES.index(v)
        iw, iz = ELEMENT_NAMES.index(w), ELEMENT_NAMES.index(z)
        for iu2 in range(4):
            for iv2 in range(4):
                c = table[iu, iw, iu2] * table[iv, iz, iv2]
                if not c:
                    continue
                n1, n2 = ELEMENT_NAMES[iu2], ELEMENT_NAMES[iv2]
                if _grade_of(n1) != _grade_of(n2):
                    continue
                out[names.index(x), names.index(y), names.index(ENDO_OF_LEGS[(n1, n2)])] += c
    return out


BULLET_ENDO_TABLE = _endo_square(BULLET_TABLE)
STAR_ENDO_TABLE = _endo_square(STAR_TABLE)

# composition: two copies of the 2x2 matrix units
COMPOSE_ENDO_TABLE = np.zeros((8, 8, 8), dtype=np.int64)
for _x, _y in itertools.product(ENDO_NAMES, repeat=2):
    _n, _i, _j = ENDO_GRADE_INDEX[_x]
    _m, _k, _l = ENDO_GRADE_INDEX[_y]
    if _n == _m and _j == _k:
        for _z, (_p, _a, _b) in ENDO_GRADE_INDEX.items():
            if (_p, _a, _b) == (_n, _i, _l):
                COMPOSE_ENDO_TABLE[ENDO_NAMES.index(_x), ENDO_NAMES.index(_y),
                                   ENDO_NAMES.index(_z)] = 1

# endomorphism coproducts: the graded one re-derives the dropped-cross-term
# computation, the filtered one is the golden from the filtered tables
GRADED_ENDO_COPRODUCT = {
    "r11": (("r11", "r11"),),
    "r12": (("r12", "r12"),),
    "r21": (("r21", "r21"),),
    "r22": (("r22", "r22"),),
    "rrr": (("r11", "rrr"), ("rrr", "r22")),
    "rll": (("r22", "rll"), ("rll", "r11")),
    "rrl": (("r12", "rrl"), ("rrl", "r21")),
    "rlr": (("r21", "rlr"), ("rlr", "r12")),
}
FILTERED_ENDO_COPRODUCT = {
    "r11": (("r11", "r11"), ("rrr", "rll")),
    "r12": (("r12", "r12"), ("rrl", "rlr")),
    "r21": (("r21", "r21"), ("rlr", "rrl")),
    "r22": (("r22", "r22"), ("rll", "rrr")),
    "rrr": (("r11", "rrr"), ("rrr", "r22")),
    "rll": (("r22", "rll"), ("rll", "r11")),
    "rrl": (("r12", "rrl"), ("rrl", "r21")),
    "rlr": (("r21", "rlr"), ("rlr", "r12")),
}

# filtered coproduct of the composition unit r11+r22+rrr+rll, expanded
FILTERED_COPRODUCT_OF_COMPOSE_UNIT = (
    ("r11", "r11"), ("r11", "rrr"), ("rll", "r11"), ("rll", "rrr"),
    ("rrr", "rll"), ("rrr", "r22"), ("r22", "rll"), ("r22", "r22"),
)


@dataclass(frozen=True)
class _A2Combination:
    """Real combination of a subclass's named basis elements."""

    coeffs: tuple[float, ...]
    names: ClassVar[tuple[str, ...]]
    kind: ClassVar[str]  # what a name is, for the unknown-name error

    @classmethod
    def basis(cls, name: str):
        if name not in cls.names:
            raise InputError(f"unknown {cls.kind} {name!r}")
        c = [0.0] * len(cls.names)
        c[cls.names.index(name)] = 1.0
        return cls(tuple(c))

    def __add__(self, other):
        return type(self)(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, s: float):
        return type(self)(tuple(a * s for a in self.coeffs))

    __rmul__ = __mul__

    def __str__(self) -> str:
        bits = [f"{c:+g}*{n}" for c, n in zip(self.coeffs, self.names) if c]
        return " ".join(bits) or "0"


class A2Element(_A2Combination):
    """Real combination of the four essential paths a1, a2, r, l."""

    names, kind = ELEMENT_NAMES, "basis element"


class A2Endo(_A2Combination):
    """Real combination of the eight endomorphism generators."""

    names, kind = ENDO_NAMES, "generator"


def _bilinear(table: np.ndarray, x, y, wrap):
    out = np.einsum("i,j,ijk->k", np.asarray(x.coeffs), np.asarray(y.coeffs),
                    table.astype(float))
    return wrap(tuple(out))


def bullet_product(x: A2Element, y: A2Element) -> A2Element:
    return _bilinear(BULLET_TABLE, x, y, A2Element)


def star_product(x: A2Element, y: A2Element) -> A2Element:
    """Filtered product on essential paths: like the graded one except that
    r*l = a1 and l*r = a2 do not vanish."""
    return _bilinear(STAR_TABLE, x, y, A2Element)


def bullet_product_endo(x: A2Endo, y: A2Endo) -> A2Endo:
    return _bilinear(BULLET_ENDO_TABLE, x, y, A2Endo)


def star_product_endo(x: A2Endo, y: A2Endo) -> A2Endo:
    """Tensor-square extension of the filtered product to endomorphisms."""
    return _bilinear(STAR_ENDO_TABLE, x, y, A2Endo)


def compose_endo(x: A2Endo, y: A2Endo) -> A2Endo:
    return _bilinear(COMPOSE_ENDO_TABLE, x, y, A2Endo)


# ---------------------------------------------------------------------------
# exact 2x2 realization over numbers c + d*theta, theta^2 = 0

# entry layout: [block, row, col, component] with component 0 the scalar
# part and component 1 the theta part
GRASSMANN_REALIZATION: dict[str, np.ndarray] = {}


def _gr(name, block0, block1):
    arr = np.zeros((2, 2, 2, 2), dtype=np.int64)
    for b, block in enumerate((block0, block1)):
        for r_ in range(2):
            for c_ in range(2):
                arr[b, r_, c_, 0] = block[r_][c_][0]
                arr[b, r_, c_, 1] = block[r_][c_][1]
    GRASSMANN_REALIZATION[name] = arr


_zero2 = [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]
_gr("r11", [[(1, 0), (0, 0)], [(0, 0), (0, 0)]], _zero2)
_gr("rrr", [[(0, 0), (0, 1)], [(0, 0), (0, 0)]], _zero2)
_gr("rll", [[(0, 0), (0, 0)], [(0, 1), (0, 0)]], _zero2)
_gr("r22", [[(0, 0), (0, 0)], [(0, 0), (1, 0)]], _zero2)
_gr("r12", _zero2, [[(0, 0), (0, -1)], [(0, 1), (1, 0)]])
_gr("rrl", _zero2, [[(0, 0), (0, 0)], [(0, 1), (0, 0)]])
_gr("rlr", _zero2, [[(0, 0), (0, 1)], [(0, 0), (0, 0)]])
_gr("r21", _zero2, [[(1, 0), (0, 1)], [(0, -1), (0, 0)]])


def _grassmann_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of 2x2 matrices over c + d*theta per block."""
    out = np.zeros_like(a)
    # scalar part: scalar x scalar; theta part: scalar x theta + theta x scalar
    out[..., 0] = np.einsum("brk,bkc->brc", a[..., 0], b[..., 0])
    out[..., 1] = (np.einsum("brk,bkc->brc", a[..., 0], b[..., 1])
                   + np.einsum("brk,bkc->brc", a[..., 1], b[..., 0]))
    return out


def grassmann_check() -> CheckReport:
    """The displayed matrix realization reproduces the graded endomorphism
    product exactly, and the two 4-element families close under it."""
    failures = []
    for x, y in itertools.product(ENDO_NAMES, repeat=2):
        got = _grassmann_mul(GRASSMANN_REALIZATION[x], GRASSMANN_REALIZATION[y])
        expect = np.zeros_like(got)
        for z in ENDO_NAMES:
            c = BULLET_ENDO_TABLE[ENDO_NAMES.index(x), ENDO_NAMES.index(y),
                                  ENDO_NAMES.index(z)]
            if c:
                expect = expect + c * GRASSMANN_REALIZATION[z]
        if not np.array_equal(got, expect):
            failures.append(f"{x}*{y}")
    for family in (("r11", "rrr", "rll", "r22"), ("r12", "rrl", "rlr", "r21")):
        idx = [ENDO_NAMES.index(n) for n in family]
        outside = np.delete(np.arange(8), idx)
        sub = BULLET_ENDO_TABLE[np.ix_(idx, idx, outside)]
        if sub.any():
            failures.append(f"family {family} not closed")
    residual = float(len(failures))
    return CheckReport(
        name="a2_grassmann_realization",
        residual=residual,
        tolerance=0.0,
        passed=residual == 0.0,
        witness="; ".join(failures) or "64 products verified exactly",
    )


def matrix_unit_check(table: np.ndarray, sets: tuple[tuple[str, ...], ...],
                      label: str) -> CheckReport:
    """Each 4-tuple (E11, E12, E21, E22) satisfies E_ij E_kl = delta_jk E_il
    under the given product, and the two families annihilate each other."""
    failures = []
    units = {}
    for fam, names in enumerate(sets):
        for pos, nm in enumerate(names):
            units[(fam, pos // 2 + 1, pos % 2 + 1)] = nm
    for (f1, i, j), x in units.items():
        for (f2, k, l), y in units.items():
            prod = table[ENDO_NAMES.index(x), ENDO_NAMES.index(y)]
            expect = np.zeros(8, dtype=np.int64)
            if f1 == f2 and j == k:
                expect[ENDO_NAMES.index(units[(f1, i, l)])] = 1
            if not np.array_equal(prod, expect):
                failures.append(f"{x}.{y}")
    residual = float(len(failures))
    return CheckReport(
        name=f"a2_matrix_units[{label}]",
        residual=residual,
        tolerance=0.0,
        passed=residual == 0.0,
        witness="; ".join(failures) or "all 64 relations exact",
    )


# ---------------------------------------------------------------------------
# cross-checks against the generic machinery


def a2_space() -> EssentialSpace:
    return space(build_ade("A", 2))


def _element_vectors(sp: EssentialSpace) -> dict[str, PathVector]:
    g = sp.graph
    return {
        "a1": elementary(g, ["1"]),
        "a2": elementary(g, ["2"]),
        "r": elementary(g, ["1", "2"]),
        "l": elementary(g, ["2", "1"]),
    }


def generic_bullet_table(sp: Optional[EssentialSpace] = None) -> np.ndarray:
    """The 4x4x4 graded product tensor recomputed from kernels/projections."""
    sp = sp or a2_space()
    out = np.zeros((4, 4, 4))
    for xi, x in enumerate(ELEMENT_NAMES):
        n, _ = ELEMENT_GRADE_INDEX[x]
        for yi, y in enumerate(ELEMENT_NAMES):
            m, _ = ELEMENT_GRADE_INDEX[y]
            mul = sp.structure_constants(n, m)
            if mul.shape[2] == 0:
                continue
            row = mul[ELEMENT_GRADE_INDEX[x][1], ELEMENT_GRADE_INDEX[y][1]]
            for zi, z in enumerate(ELEMENT_NAMES):
                zn, zk = ELEMENT_GRADE_INDEX[z]
                if zn == n + m:
                    out[xi, yi, zi] = row[zk]
    return out


def check_bullet_table_vs_generic(tol: float = 1e-12) -> CheckReport:
    residual = float(np.max(np.abs(generic_bullet_table() - BULLET_TABLE)))
    return CheckReport(
        name="a2_bullet_table_vs_generic",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def check_path_coproducts_vs_generic(tol: float = 1e-12) -> CheckReport:
    """Dr = a1 (x) r + r (x) a2 and its companions, recomputed by
    `coproduct_paths` as the deconcatenation of each projected vector."""
    sp = a2_space()
    vec = _element_vectors(sp)
    worst = 0.0
    for name, terms in GRADED_COPRODUCT.items():
        golden = TensorPathVector()
        for lhs, rhs in terms:
            golden = golden + tensor(vec[lhs], vec[rhs])
        got = sp.coproduct_paths(vec[name])
        worst = max(worst, (got - golden).norm())
    return CheckReport(
        name="a2_path_coproducts_vs_generic",
        residual=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


def _endo_tensor_from_names(sp: EssentialSpace,
                            pairs) -> EndoTensor:
    terms = {}
    for lhs, rhs in pairs:
        key = (ENDO_GRADE_INDEX[lhs], ENDO_GRADE_INDEX[rhs])
        terms[key] = terms.get(key, 0.0) + 1.0
    return EndoTensor(sp, 2, terms)


def check_endo_coproducts_vs_generic(tol: float = 1e-12) -> CheckReport:
    """The graded endomorphism coproduct (cuts of both legs, cross terms of
    mismatched grade dropped) reproduces the golden table."""
    sp = a2_space()
    worst = 0.0
    for name, pairs in GRADED_ENDO_COPRODUCT.items():
        rho = EndoTensor.monomial(sp, *ENDO_GRADE_INDEX[name])
        got = convolution_coproduct(rho)
        worst = max(worst, (got - _endo_tensor_from_names(sp, pairs)).norm())
    return CheckReport(
        name="a2_endo_coproducts_vs_generic",
        residual=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


def check_endo_products_vs_generic(tol: float = 1e-12) -> CheckReport:
    """Blockwise composition and graded convolution of the generic machinery
    match the 8x8 golden tables entry for entry."""
    sp = a2_space()
    worst = 0.0
    gens = {nm: EndoTensor.monomial(sp, *ENDO_GRADE_INDEX[nm]) for nm in ENDO_NAMES}
    for x, y in itertools.product(ENDO_NAMES, repeat=2):
        for table, op in ((COMPOSE_ENDO_TABLE, EndoTensor.compose),
                          (BULLET_ENDO_TABLE, conv_bullet)):
            got = op(gens[x], gens[y])
            expect = EndoTensor(sp, 1)
            for z in ENDO_NAMES:
                c = table[ENDO_NAMES.index(x), ENDO_NAMES.index(y),
                          ENDO_NAMES.index(z)]
                if c:
                    expect = expect + float(c) * gens[z]
            worst = max(worst, (got - expect).norm())
    return CheckReport(
        name="a2_endo_products_vs_generic",
        residual=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


def check_filtered_coproducts_consistent(tol: float = 0.0) -> CheckReport:
    """The filtered coproduct goldens agree with the cut construction run on
    the filtered product table (grade-mismatched cross terms dropped), and
    the coproduct of the composition unit matches its expanded golden."""
    failures = []
    for nm in ENDO_NAMES:
        u, v = ENDO_LEGS[nm]
        got: dict[tuple[str, str], int] = {}
        for (i, j, a) in zip(*np.nonzero(STAR_TABLE)):
            if ELEMENT_NAMES[a] != u:
                continue
            for (k, l, b) in zip(*np.nonzero(STAR_TABLE)):
                if ELEMENT_NAMES[b] != v:
                    continue
                n1, n2 = ELEMENT_NAMES[i], ELEMENT_NAMES[k]
                m1, m2 = ELEMENT_NAMES[j], ELEMENT_NAMES[l]
                if _grade_of(n1) != _grade_of(n2) or _grade_of(m1) != _grade_of(m2):
                    continue
                key = (ENDO_OF_LEGS[(n1, n2)], ENDO_OF_LEGS[(m1, m2)])
                got[key] = got.get(key, 0) + 1
        golden = {pair: 1 for pair in FILTERED_ENDO_COPRODUCT[nm]}
        if got != golden:
            failures.append(f"{nm}: {sorted(got)} != {sorted(golden)}")
    unit_terms: dict[tuple[str, str], int] = {}
    for nm in ("r11", "r22", "rrr", "rll"):
        for pair in FILTERED_ENDO_COPRODUCT[nm]:
            unit_terms[pair] = unit_terms.get(pair, 0) + 1
    if unit_terms != {pair: 1 for pair in FILTERED_COPRODUCT_OF_COMPOSE_UNIT}:
        failures.append("compose-unit coproduct mismatch")
    residual = float(len(failures))
    return CheckReport(
        name="a2_filtered_coproducts",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
        witness="; ".join(failures) or None,
    )


def check_star_differs_only_on_backtracks() -> CheckReport:
    diff = STAR_TABLE - BULLET_TABLE
    expected = np.zeros_like(diff)
    expected[ELEMENT_NAMES.index("r"), ELEMENT_NAMES.index("l"),
             ELEMENT_NAMES.index("a1")] = 1
    expected[ELEMENT_NAMES.index("l"), ELEMENT_NAMES.index("r"),
             ELEMENT_NAMES.index("a2")] = 1
    ok = np.array_equal(diff, expected)
    return CheckReport(
        name="a2_star_vs_bullet_difference",
        residual=0.0 if ok else 1.0,
        tolerance=0.0,
        passed=ok,
    )


def check_star_associative() -> CheckReport:
    """(x * y) * z = x * (y * z) over the integer filtered table, exactly."""
    t = STAR_ENDO_TABLE
    left = np.einsum("xyk,kzw->xyzw", t, t)
    right = np.einsum("yzk,xkw->xyzw", t, t)
    worst = int(np.max(np.abs(left - right)))
    return CheckReport(
        name="a2_star_endo_associative",
        residual=float(worst),
        tolerance=0.0,
        passed=worst == 0,
    )


def a2_reports() -> list[CheckReport]:
    return [
        check_bullet_table_vs_generic(),
        check_path_coproducts_vs_generic(),
        check_endo_coproducts_vs_generic(),
        check_endo_products_vs_generic(),
        grassmann_check(),
        matrix_unit_check(COMPOSE_ENDO_TABLE,
                          (("r11", "r12", "r21", "r22"),
                           ("rrr", "rrl", "rlr", "rll")), "compose"),
        matrix_unit_check(STAR_ENDO_TABLE,
                          (("r11", "rrr", "rll", "r22"),
                           ("r12", "rrl", "rlr", "r21")), "filtered"),
        check_filtered_coproducts_consistent(),
        check_star_differs_only_on_backtracks(),
        check_star_associative(),
    ]


def product_rows(table: np.ndarray, names: tuple[str, ...]) -> list[list[str]]:
    """Rows of a printable multiplication table over the named basis."""
    rows = [[""] + list(names)]
    for x, name in enumerate(names):
        row = [name]
        for y in range(len(names)):
            row.append(" + ".join(names[z] for z in np.nonzero(table[x, y])[0]) or "0")
        rows.append(row)
    return rows


def coproduct_rows(table: dict[str, tuple[tuple[str, str], ...]]) -> list[list[str]]:
    rows = []
    for name in table:
        terms = " + ".join(f"{a}(x){b}" for a, b in table[name])
        rows.append([name, terms])
    return rows
