"""Command-line front end.

Subcommands: pf, dims, fused, basis, product, decompose, verify, a2-compare.
Results go to standard output (JSON by default); diagnostics go to standard
error.  Exit codes: 0 success / all checks pass, 1 a verification failed or
a numeric procedure broke down, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import a2 as a2mod
from .endo import CheckReport
from .errors import (
    EsspathError,
    InputError,
    NonEssentialInputWarning,
    NumericError,
)
from .essential import EssentialSpace
from .graphs import (
    DEFAULT_TOL,
    Graph,
    builtin_graph,
    check_tolerances,
    fused_matrices,
    parse_graph,
)
from .jsonio import path_vector_obj, render, report_obj
from .paths import elementary, path_labels
from .verify import SUITES, VerifyConfig, run_suite

_FORMATS = ("json", "pretty", "csv")


@dataclass
class RunConfig:
    graph_source: Optional[str]
    tolerance: float
    rank_tol: float
    max_length: Optional[int]
    out_format: str
    jobs: int
    allow_cycles: bool
    suite: str = "all"

    def __post_init__(self):
        check_tolerances(self.tolerance, self.rank_tol)
        if self.max_length is not None and self.max_length < 0:
            raise InputError("max length cap must be >= 0")
        if self.jobs < 1:
            raise InputError("jobs must be >= 1")
        if self.out_format not in _FORMATS:
            raise InputError(f"unknown format {self.out_format!r}")


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        graph_source=getattr(args, "graph", None),
        tolerance=args.tolerance,
        rank_tol=args.rank_tol,
        max_length=args.max_length,
        out_format=args.format,
        jobs=args.jobs,
        allow_cycles=args.allow_cycles,
        suite=getattr(args, "suite", "all"),
    )


def _load_graph(cfg: RunConfig) -> Graph:
    src = cfg.graph_source
    if src is None:
        raise InputError("--graph is required")
    try:
        return builtin_graph(src)
    except InputError:
        pass
    path = Path(src)
    if not path.exists():
        raise InputError(
            f"--graph {src!r} is neither a built-in name nor an existing file"
        )
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read --graph {src!r}: {exc}") from None
    return parse_graph(text, allow_cycles=cfg.allow_cycles)


def _space(cfg: RunConfig) -> EssentialSpace:
    g = _load_graph(cfg)
    return EssentialSpace(g, tol=cfg.tolerance, rank_tol=cfg.rank_tol)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _no_csv(cfg: RunConfig, command: str) -> None:
    if cfg.out_format == "csv":
        raise InputError(f"{command!r} has no CSV form; use json or pretty")


# ---------------------------------------------------------------------------
# subcommands


def cmd_pf(args) -> int:
    cfg = _config(args)
    sp = _space(cfg)
    pf = sp.pf
    payload = {
        "graph": sp.graph.name,
        "beta": pf.beta,
        "kappa": pf.kappa,
        "vertices": list(sp.graph.vertices),
        "mu": [float(x) for x in pf.mu],
        "distinguished": sp.graph.label(sp.graph.distinguished),
    }
    if cfg.out_format == "pretty":
        _emit(f"graph {payload['graph']}: beta = {pf.beta:.12g}, "
              f"kappa = {pf.kappa}")
        for v, m in zip(payload["vertices"], payload["mu"]):
            _emit(f"  mu[{v}] = {m:.12g}")
    elif cfg.out_format == "csv":
        _emit("vertex,mu")
        for v, m in zip(payload["vertices"], payload["mu"]):
            _emit(f"{v},{m:.12g}")
    else:
        _emit(render(payload))
    return 0


def cmd_dims(args) -> int:
    cfg = _config(args)
    sp = _space(cfg)
    sizes = sp.dims(cfg.max_length)
    payload = {"graph": sp.graph.name, "dims": sizes, "total": sum(sizes),
               "endomorphism_dim": sum(d * d for d in sizes)}
    if cfg.out_format == "pretty":
        _emit(f"graph {payload['graph']}: dims ("
              + ",".join(str(d) for d in sizes) + f") total {sum(sizes)}")
    elif cfg.out_format == "csv":
        _emit("length,dim")
        for i, d in enumerate(sizes):
            _emit(f"{i},{d}")
    else:
        _emit(render(payload))
    return 0


def cmd_fused(args) -> int:
    cfg = _config(args)
    sp = _space(cfg)
    fm = fused_matrices(sp.graph, cfg.tolerance)
    payload = {
        "graph": sp.graph.name,
        "matrices": [
            {"p": p, "sum": int(m.sum()), "matrix": [[int(x) for x in row]
                                                     for row in m]}
            for p, m in enumerate(fm.matrices)
        ],
        "sums": list(fm.sums),
    }
    if cfg.out_format == "pretty":
        _emit(f"graph {payload['graph']}: entry sums "
              + ",".join(str(s) for s in fm.sums))
        for entry in payload["matrices"]:
            _emit(f"F_{entry['p']} (sum {entry['sum']}):")
            for row in entry["matrix"]:
                _emit("  " + " ".join(f"{x:3d}" for x in row))
    elif cfg.out_format == "csv":
        _emit("p,sum")
        for entry in payload["matrices"]:
            _emit(f"{entry['p']},{entry['sum']}")
    else:
        _emit(render(payload))
    return 0


def cmd_basis(args) -> int:
    cfg = _config(args)
    _no_csv(cfg, "basis")
    sp = _space(cfg)
    cell = sp.cell(args.src, args.dst, args.length)
    payload = {
        "graph": sp.graph.name,
        "from": sp.graph.label(cell.start),
        "to": sp.graph.label(cell.end),
        "length": cell.length,
        "dimension": cell.dim,
        "paths": [path_labels(sp.graph, p) for p in cell.paths],
        "coordinates": [[float(x) for x in row] for row in cell.coordinates],
        "gram_residual": cell.gram_residual,
        "annihilator_residual": cell.annihilator_residual,
    }
    if cfg.out_format == "pretty":
        _emit(f"essential cell {payload['from']} -({cell.length})-> "
              f"{payload['to']} on {sp.graph.name}: dimension {cell.dim}")
        for i in range(cell.dim):
            terms = [
                f"{cell.coordinates[i, j]:+.6g}*[{','.join(path_labels(sp.graph, p))}]"
                for j, p in enumerate(cell.paths)
                if abs(cell.coordinates[i, j]) > 1e-12
            ]
            _emit(f"  e_{i} = " + " ".join(terms))
    else:
        _emit(render(payload))
    return 0


def _parse_path_arg(sp: EssentialSpace, text: str):
    labels = [x.strip() for x in text.split(",") if x.strip()]
    if not labels:
        raise InputError("empty path argument")
    return elementary(sp.graph, labels)


def cmd_product(args) -> int:
    cfg = _config(args)
    _no_csv(cfg, "product")
    sp = _space(cfg)
    left = _parse_path_arg(sp, args.left)
    right = _parse_path_arg(sp, args.right)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonEssentialInputWarning)
        result = sp.bullet(left, right)
    for w in caught:
        print(f"note: {w.message}", file=sys.stderr)
    payload = {
        "graph": sp.graph.name,
        "left": path_vector_obj(sp.graph, left),
        "right": path_vector_obj(sp.graph, right),
        "bullet": path_vector_obj(sp.graph, result),
        "norm": result.norm(),
    }
    if cfg.out_format == "pretty":
        terms = payload["bullet"]["terms"]
        if not terms:
            _emit("0")
        for t in terms:
            _emit(f"{t['coeff']:+.12g} * [{','.join(t['path'])}]")
    else:
        _emit(render(payload))
    return 0


def cmd_decompose(args) -> int:
    cfg = _config(args)
    _no_csv(cfg, "decompose")
    sp = _space(cfg)
    cell = sp.cell(args.src, args.dst, args.length)
    if not 0 <= args.index < cell.dim:
        raise InputError(
            f"basis index {args.index} out of range (cell dimension {cell.dim})"
        )
    vec = cell.vector(args.index)
    dec = sp.decompose(vec, args.split)
    recon = (sp.reconstruct(dec) - vec).norm()
    payload = {
        "graph": sp.graph.name,
        "cell": {"from": sp.graph.label(cell.start),
                 "to": sp.graph.label(cell.end),
                 "length": cell.length, "index": args.index},
        "split": dec.split,
        "entries": [
            {"via": sp.graph.label(v), "i": i, "j": j, "gamma": g}
            for v, i, j, g in dec.entries
        ],
        "sum_of_squares": dec.sum_squares,
        "reconstruction_residual": recon,
    }
    if cfg.out_format == "pretty":
        _emit(f"decomposition at split {dec.split}: "
              f"{len(dec.entries)} terms, sum of squares "
              f"{dec.sum_squares:.12g}, reconstruction {recon:.3e}")
        for e in payload["entries"]:
            _emit(f"  via {e['via']}: gamma[{e['i']},{e['j']}] = "
                  f"{e['gamma']:+.12g}")
    else:
        _emit(render(payload))
    return 0


def _emit_reports(reports: list[CheckReport], out_format: str) -> int:
    ok = all(r.passed for r in reports)
    if out_format == "pretty":
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            _emit(f"[{status}] {r.name}: residual {r.residual:.3e} "
                  f"(tolerance {r.tolerance:.3g})")
            if r.witness:
                _emit(f"       {r.witness}")
    else:
        _emit(render([report_obj(r) for r in reports]))
    return 0 if ok else 1


def cmd_verify(args) -> int:
    cfg = _config(args)
    _no_csv(cfg, "verify")
    vcfg = VerifyConfig(tolerance=cfg.tolerance, max_length=cfg.max_length,
                        samples=args.samples)
    sp = _space(cfg)
    reports = run_suite(sp, cfg.suite, vcfg)
    return _emit_reports(reports, cfg.out_format)


def cmd_a2_compare(args) -> int:
    cfg = _config(args)
    _no_csv(cfg, "a2-compare")
    reports = a2mod.a2_reports()
    elements, endos = a2mod.ELEMENT_NAMES, a2mod.ENDO_NAMES
    payload = {
        "element_products": {
            "bullet": a2mod.product_rows(a2mod.BULLET_TABLE, elements),
            "filtered": a2mod.product_rows(a2mod.STAR_TABLE, elements),
        },
        "endo_products": {
            "compose": a2mod.product_rows(a2mod.COMPOSE_ENDO_TABLE, endos),
            "bullet": a2mod.product_rows(a2mod.BULLET_ENDO_TABLE, endos),
            "filtered": a2mod.product_rows(a2mod.STAR_ENDO_TABLE, endos),
        },
        "coproducts": {
            "graded_paths": a2mod.coproduct_rows(a2mod.GRADED_COPRODUCT),
            "filtered_paths": a2mod.coproduct_rows(a2mod.FILTERED_COPRODUCT),
            "graded_endo": a2mod.coproduct_rows(a2mod.GRADED_ENDO_COPRODUCT),
            "filtered_endo": a2mod.coproduct_rows(a2mod.FILTERED_ENDO_COPRODUCT),
        },
        "checks": [report_obj(r) for r in reports],
    }
    if cfg.out_format == "pretty":
        def table(title, rows):
            _emit(title)
            widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
            for row in rows:
                _emit("  " + "  ".join(x.ljust(w) for x, w in zip(row, widths)))
        tables = [*payload["element_products"].values(),
                  *payload["endo_products"].values()]
        for title, rows in zip(("graded product (paths):",
                                "filtered product (paths):",
                                "composition product (endomorphisms):",
                                "graded convolution (endomorphisms):",
                                "filtered convolution (endomorphisms):"), tables):
            table(title, rows)
        for title, rows in payload["coproducts"].items():
            _emit(f"coproducts ({title}):")
            for name, terms in rows:
                _emit(f"  D({name}) = {terms}")
        return _emit_reports(reports, "pretty")
    _emit(render(payload))
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by later ones: `main` reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="esspath",
        description="Essential paths on trees: bases, graded products, and "
                    "weak-bialgebra verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph_required=True):
        p.add_argument("--graph", required=graph_required,
                       help="built-in name (A1..A12, D4..D8, E6, E7, E8) or "
                            "path to a JSON graph file")
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
        p.add_argument("--rank-tol", type=float, default=1e-7, dest="rank_tol")
        p.add_argument("--max-length", type=int, default=None, dest="max_length",
                       help="path length cap (required when the spectral "
                            "radius is >= 2)")
        p.add_argument("--format", choices=_FORMATS, default="json")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--allow-cycles", action="store_true",
                       dest="allow_cycles")

    p = sub.add_parser("pf", help="Perron-Frobenius data (beta, mu, kappa)")
    common(p)
    p.set_defaults(fn=cmd_pf)

    p = sub.add_parser("dims", help="graded essential dimensions")
    common(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("fused", help="fused matrices F_p and entry sums")
    common(p)
    p.set_defaults(fn=cmd_fused)

    p = sub.add_parser("basis", help="orthonormal basis of one cell")
    common(p)
    p.add_argument("--from", dest="src", required=True, metavar="VERTEX")
    p.add_argument("--to", dest="dst", required=True, metavar="VERTEX")
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("product", help="graded product of two elementary paths")
    common(p)
    p.add_argument("--left", required=True,
                   help="comma-separated vertex labels")
    p.add_argument("--right", required=True)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("decompose",
                       help="split one canonical basis vector into products")
    common(p)
    p.add_argument("--from", dest="src", required=True, metavar="VERTEX")
    p.add_argument("--to", dest="dst", required=True, metavar="VERTEX")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--split", type=int, required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", default="all",
                   help="one of " + ", ".join(sorted(SUITES)) + ", or a "
                        "single check name")
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("a2-compare",
                       help="two-point diagram: graded vs filtered structure")
    common(p, graph_required=False)
    p.set_defaults(fn=cmd_a2_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, EsspathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
