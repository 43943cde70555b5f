"""Command-line front end: subcommands, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from esspath.cli import build_parser, main
from esspath.graphs import builtin_graph, fused_matrices


GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_e6_json(self, capsys):
        code, out, _ = run(capsys, "dims", "--graph", "E6")
        assert code == 0
        data = json.loads(out)
        assert data["dims"] == [6, 10, 14, 18, 20, 20, 20, 18, 14, 10, 6]
        assert data["total"] == 156
        assert data["endomorphism_dim"] == 2512

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "dims", "--graph", "A3", "--format", "pretty")
        assert code == 0
        assert "(3,4,3) total 10" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "dims", "--graph", "A2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["length,dim", "0,2", "1,2"]

    @pytest.mark.parametrize("graph", ["E7", "E8"])
    def test_full_length_matches_exact_fused_sums(self, capsys, graph):
        # entry sums of F_0 = I, F_1 = A, F_{p+1} = A F_p - F_{p-1} in exact
        # integers, up to the last nonzero matrix
        adj = builtin_graph(graph).adjacency.tolist()
        n = len(adj)
        mats = [[[int(i == j) for j in range(n)] for i in range(n)], adj]
        while True:
            nxt = [[sum(adj[i][k] * mats[-1][k][j] for k in range(n)) - mats[-2][i][j]
                    for j in range(n)] for i in range(n)]
            if not any(map(any, nxt)):
                break
            mats.append(nxt)
        sums = [sum(map(sum, m)) for m in mats]
        code, out, err = run(capsys, "dims", "--graph", graph)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["dims"] == sums
        assert data["total"] == sum(sums)
        assert data["endomorphism_dim"] == sum(d * d for d in sums)

    @pytest.mark.parametrize("jobs", ["1", "4"])
    @pytest.mark.parametrize("golden", ["dims_A3.json", "dims_D4.json",
                                        "dims_E6.json", "dims_E6.csv"])
    def test_dims_match_golden(self, capsys, golden, jobs):
        graph, fmt = golden[len("dims_"):].split(".")
        code, out, err = run(capsys, "dims", "--graph", graph, "--format", fmt,
                             "--jobs", jobs)
        assert (code, out, err) == (0, (GOLDEN / golden).read_text(), "")


class TestPf:
    def test_a2(self, capsys):
        code, out, _ = run(capsys, "pf", "--graph", "A2")
        assert code == 0
        data = json.loads(out)
        assert data["kappa"] == 3
        assert data["mu"] == [1.0, 1.0]
        assert data["distinguished"] == "1"

    def test_file_graph(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "name": "pair",
            "vertices": ["x", "y"],
            "edges": [["x", "y"]],
        }))
        code, out, _ = run(capsys, "pf", "--graph", str(path))
        assert code == 0
        assert json.loads(out)["graph"] == "pair"


class TestFused:
    def test_a3_sums(self, capsys):
        code, out, _ = run(capsys, "fused", "--graph", "A3")
        assert code == 0
        data = json.loads(out)
        assert data["sums"] == [3, 4, 3]
        assert data["matrices"][0]["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_no_kappa_exits_one(self, capsys, tmp_path):
        path = tmp_path / "star4.json"
        path.write_text(json.dumps({
            "vertices": ["c", "1", "2", "3", "4"],
            "edges": [["c", "1"], ["c", "2"], ["c", "3"], ["c", "4"]],
        }))
        code, _, err = run(capsys, "fused", "--graph", str(path))
        assert code == 1
        assert "spectral radius" in err


class TestBasis:
    def test_e6_cell(self, capsys):
        code, out, _ = run(capsys, "basis", "--graph", "E6", "--from", "2",
                           "--to", "2", "--length", "2")
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 2
        assert data["paths"] == [["2", "1", "2"], ["2", "3", "2"],
                                 ["2", "5", "2"]]
        assert data["gram_residual"] <= 1e-10

    def test_empty_cell_past_the_last_grade(self, capsys, monkeypatch):
        # the dimension comes from the transfer matrices; no path of the
        # (about 10^12) walks of length 40 is enumerated
        import esspath.essential

        def refuse(*args):
            raise AssertionError("enumerate_paths called")

        monkeypatch.setattr(esspath.essential, "enumerate_paths", refuse)
        code, out, err = run(capsys, "basis", "--graph", "E8", "--from", "1",
                             "--to", "1", "--length", "40")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["dimension"], data["paths"], data["coordinates"]) == (0, [], [])
        assert (data["gram_residual"], data["annihilator_residual"]) == (0.0, 0.0)

    def test_e7_full_length_cell(self, capsys):
        # 36549 walks; a dense [C_1; ...; C_15] matrix over them would take
        # about 41 GB
        code, out, err = run(capsys, "basis", "--graph", "E7", "--from", "3",
                             "--to", "3", "--length", "16")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["dimension"] == fused_matrices(builtin_graph("E7")).matrices[16][3, 3]
        assert len(data["paths"]) == 36549
        assert data["annihilator_residual"] <= 1e-10

    def test_unknown_vertex_exits_two(self, capsys):
        code, _, err = run(capsys, "basis", "--graph", "E6", "--from", "9",
                           "--to", "2", "--length", "2")
        assert code == 2
        assert "unknown vertex" in err

    def test_negative_length_exits_two(self, capsys):
        code, _, err = run(capsys, "basis", "--graph", "E6", "--from", "2",
                           "--to", "2", "--length", "-1")
        assert code == 2


class TestProduct:
    def test_r_bullet_l_vanishes(self, capsys):
        code, out, _ = run(capsys, "product", "--graph", "A2",
                           "--left", "1,2", "--right", "2,1")
        assert code == 0
        data = json.loads(out)
        assert data["bullet"]["terms"] == []
        assert data["norm"] == 0

    def test_unit_absorption(self, capsys):
        code, out, _ = run(capsys, "product", "--graph", "E6",
                           "--left", "2,1", "--right", "1,0")
        assert code == 0
        data = json.loads(out)
        assert data["bullet"]["terms"] == [{"path": ["2", "1", "0"],
                                            "coeff": 1.0}]

    def test_non_essential_input_noted_on_stderr(self, capsys):
        code, out, err = run(capsys, "product", "--graph", "A2",
                             "--left", "1,2,1", "--right", "1")
        assert code == 0
        assert "not essential" in err
        assert json.loads(out)["bullet"]["terms"] == []


class TestDecompose:
    def test_e6(self, capsys):
        code, out, _ = run(capsys, "decompose", "--graph", "E6", "--from", "2",
                           "--to", "2", "--length", "4", "--index", "1",
                           "--split", "2")
        assert code == 0
        data = json.loads(out)
        assert data["sum_of_squares"] == pytest.approx(1.0, abs=1e-9)
        assert data["reconstruction_residual"] <= 1e-9
        assert {e["via"] for e in data["entries"]} <= {"0", "2", "4"}

    def test_bad_split_exits_two(self, capsys):
        code, _, err = run(capsys, "decompose", "--graph", "A2", "--from", "1",
                           "--to", "2", "--length", "1", "--index", "0",
                           "--split", "1")
        assert code == 2

    @pytest.mark.parametrize("length,to", [(0, "1"), (1, "2")])
    def test_cell_without_split_exits_two(self, capsys, length, to):
        # a cell of length 0 or 1 has no 0 < split < length to name
        code, out, err = run(capsys, "decompose", "--graph", "A2", "--from", "1",
                             "--to", to, "--length", str(length), "--index", "0",
                             "--split", "1")
        assert (code, out, err) == (2, "", f"error: a cell of length {length} has no split\n")

    def test_split_out_of_range_exits_two(self, capsys):
        code, out, err = run(capsys, "decompose", "--graph", "E6", "--from", "2",
                             "--to", "2", "--length", "4", "--index", "1",
                             "--split", "4")
        assert (code, out) == (2, "")
        assert err == "error: split must satisfy 0 < split < 4, got 4\n"


def assert_same_up_to_rounding(got: str, expect: str, label: str):
    """The texts agree once every number is masked, and their numbers agree
    within 1e-12."""
    assert NUMBER.sub("#", got) == NUMBER.sub("#", expect), label
    assert [float(x) for x in NUMBER.findall(got)] == pytest.approx(
        [float(x) for x in NUMBER.findall(expect)], rel=0, abs=1e-12), label


def assert_all_matches_golden(capsys, graph):
    code, out, _ = run(capsys, "verify", "--graph", graph, "--suite", "all")
    assert code == 0
    got = json.loads(out)
    expect = json.loads((GOLDEN / f"verify_{graph}_all.json").read_text())
    assert [r["name"] for r in got] == [r["name"] for r in expect]
    for g, e in zip(got, expect):
        assert (g["pass"], g["tolerance"]) == (e["pass"], e["tolerance"]), e["name"]
        assert g["residual"] == pytest.approx(e["residual"], rel=0, abs=1e-12)
        assert_same_up_to_rounding(g["witness"] or "", e["witness"] or "", e["name"])


class TestVerify:
    def test_a2_all_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "A2", "--suite", "all")
        assert code == 0
        reports = json.loads(out)
        assert all(r["pass"] for r in reports)
        names = {r["name"] for r in reports}
        assert "projector_identity" in names
        assert any(n.startswith("antipode") for n in names)

    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "A3", "--suite",
                           "comonoidality")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1

    def test_unknown_suite_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--graph", "A2", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_vacuous_sample_count_exits_two(self, capsys, samples):
        code, out, err = run(capsys, "verify", "--graph", "A3", "--suite",
                             "bialgebra", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: samples must be >= 1, got {samples}"]

    @pytest.mark.parametrize("graph,suite,why", [
        ("A1", "antipode", "the obstruction argument needs a populated grade 1"),
        ("A1", "unit_not_grouplike", "on one vertex the unit is group-like"),
        ("C3", "dims_vs_fused",
         "a graph without a Coxeter number has no fused matrices"),
    ])
    def test_suite_of_no_applicable_check_exits_two(self, capsys, tmp_path,
                                                   graph, suite, why):
        args = ["--graph", graph]
        if graph == "C3":  # the triangle, of spectral radius 2
            path = tmp_path / "c3.json"
            path.write_text(json.dumps({
                "name": "C3", "vertices": ["a", "b", "c"],
                "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
            }))
            args = ["--graph", str(path), "--allow-cycles", "--max-length", "3"]
        code, out, err = run(capsys, "verify", *args, "--suite", suite)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: check {suite!r} does not apply to {graph}: {why}"]

    def test_a1_all_reports_the_applicable_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "A1", "--suite", "all")
        assert code == 0
        names = [r["name"] for r in json.loads(out)]
        assert len(names) == 17
        assert not any(n.startswith(("antipode", "unit_not_grouplike")) for n in names)

    def test_all_matches_golden(self, capsys):
        # recorded `verify --graph A3 --suite all` output; bullet_unit's
        # witness reports drawn/requested samples
        assert_all_matches_golden(capsys, "A3")

    def test_a6_all_matches_golden(self, capsys):
        # A6 is the benchmarked graph, and fewer of its residuals are exactly 0
        assert_all_matches_golden(capsys, "A6")

    def test_d4_pretty_matches_golden(self, capsys):
        # recorded `verify --graph D4 --suite all --format pretty` output: the
        # pretty form and a D graph
        code, out, _ = run(capsys, "verify", "--graph", "D4", "--suite", "all",
                           "--format", "pretty")
        assert code == 0
        expect = (GOLDEN / "verify_D4_all.txt").read_text()
        assert len(out.splitlines()) == len(expect.splitlines())
        for got_line, expect_line in zip(out.splitlines(), expect.splitlines()):
            assert_same_up_to_rounding(got_line, expect_line, expect_line)

    def test_a1_grouplike_gap_not_asserted(self, capsys):
        # one vertex: the unit is group-like, so its gap of 0 passes and the
        # witness must not claim it exceeds 0.5
        code, out, _ = run(capsys, "verify", "--graph", "A1", "--suite",
                           "grouplike_coalgebra")
        (report,) = json.loads(out)
        assert (code, report["pass"]) == (0, True)
        assert report["witness"] == "unit non-group-like gap 0.000 (not asserted on one vertex)"

    def test_e8_antipode_at_full_length(self, capsys):
        code, out, err = run(capsys, "verify", "--graph", "E8", "--suite",
                             "antipode", "--format", "json")
        assert (code, err) == (0, "")
        (report,) = json.loads(out)
        assert report["pass"]
        assert report["residual"] == 10.5830052443  # sqrt(|V| * d_1) = sqrt(8 * 14)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--graph", "A3", "--suite", "core")
        _, out2, _ = run(capsys, "verify", "--graph", "A3", "--suite", "core")
        assert out1 == out2

    def test_jobs_do_not_change_output(self, capsys):
        _, out1, _ = run(capsys, "dims", "--graph", "D4", "--jobs", "1")
        _, out2, _ = run(capsys, "dims", "--graph", "D4", "--jobs", "4")
        assert out1 == out2

    def test_jobs_respect_length_cap(self, capsys):
        # must not warm the full-length cells of a large diagram
        code, out, _ = run(capsys, "dims", "--graph", "E8", "--jobs", "2",
                           "--max-length", "3")
        assert code == 0
        assert json.loads(out)["dims"] == [8, 14, 20, 26]

    def test_csv_rejected_where_unsupported(self, capsys):
        code, _, err = run(capsys, "basis", "--graph", "A2", "--from", "1",
                           "--to", "2", "--length", "1", "--format", "csv")
        assert code == 2
        assert "no CSV form" in err


def test_python_dash_m_entry_point():
    # `python -m esspath` is the CLI, without installing the package
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "esspath", "dims", "--graph", "A3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, (GOLDEN / "dims_A3.json").read_text(), "")


class TestParser:
    def test_built_once_for_a_sequence_of_calls(self, capsys):
        # each call prints what it prints with a parser of its own
        calls = [["dims", "--graph", "E6"],
                 ["verify", "--graph", "A3", "--suite", "core"],
                 ["dims", "--graph", "E6", "--bogus"],
                 ["dims", "--graph", "E6"]]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(call(argv))
        build_parser.cache_clear()
        shared = [call(argv) for argv in calls]
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in shared] == [0, 0, 2, 0]
        assert shared == fresh

    def test_import_does_not_load_the_cli(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, esspath; print('esspath.cli' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n")


class TestA2Compare:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "a2-compare")
        assert code == 0
        data = json.loads(out)
        assert all(r["pass"] for r in data["checks"])
        assert "bullet" in data["element_products"]
        assert "filtered" in data["endo_products"]

    def test_json_matches_golden(self, capsys):
        # recorded `a2-compare` output: every table entry, coproduct row and
        # check report, not only the key names and pass flags
        code, out, _ = run(capsys, "a2-compare")
        assert code == 0
        assert_same_up_to_rounding(out, (GOLDEN / "a2_compare.json").read_text(),
                                   "a2-compare")

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "a2-compare", "--format", "pretty")
        assert code == 0
        assert "graded product (paths):" in out
        assert "[PASS]" in out


# each subcommand with its required arguments
SUBCOMMANDS = {
    "pf": ["--graph", "A3"],
    "dims": ["--graph", "A3"],
    "fused": ["--graph", "A3"],
    "basis": ["--graph", "A3", "--from", "1", "--to", "1", "--length", "0"],
    "product": ["--graph", "A3", "--left", "1", "--right", "1"],
    "decompose": ["--graph", "E6", "--from", "2", "--to", "2", "--length", "4",
                  "--split", "2"],
    "verify": ["--graph", "A3"],
    "a2-compare": [],
}


class TestSharedSettings:
    @pytest.mark.parametrize("flag,value,message", [
        ("--tolerance", "nan", "tolerances must be finite and positive, got nan"),
        ("--max-length", "-1", "max length cap must be >= 0"),
        ("--jobs", "0", "jobs must be >= 1"),
    ])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_bad_setting_exits_two(self, capsys, command, flag, value, message):
        code, out, err = run(capsys, command, *SUBCOMMANDS[command], flag, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["basis", "product", "decompose",
                                         "verify", "a2-compare"])
    def test_csv_refused_before_the_graph_is_read(self, capsys, command):
        argv = [command, *SUBCOMMANDS[command], "--format", "csv"]
        if "--graph" in argv:
            argv[argv.index("--graph") + 1] = "missing.json"
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            2, "", f"error: {command!r} has no CSV form; use json or pretty\n")

    def test_settings_checked_before_csv(self, capsys):
        code, out, err = run(capsys, "basis", *SUBCOMMANDS["basis"],
                             "--format", "csv", "--jobs", "0")
        assert (code, out, err) == (2, "", "error: jobs must be >= 1\n")

    @pytest.mark.parametrize("command", ["pf", "dims", "fused"])
    def test_csv_commands_read_the_graph(self, capsys, command):
        code, out, err = run(capsys, command, "--graph", "missing.json",
                             "--format", "csv")
        assert (code, out, err) == (2, "", "error: --graph 'missing.json' is neither "
                                           "a built-in name nor an existing file\n")


class TestErrors:
    def test_unknown_graph_exits_two(self, capsys):
        code, _, err = run(capsys, "dims", "--graph", "Z9")
        assert code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--graph", "A2", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_tolerance_exits_two(self, capsys):
        code, _, err = run(capsys, "dims", "--graph", "A2",
                           "--tolerance", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "--graph", "A3", "--tolerance", "inf"),
        ("verify", "--graph", "A3", "--tolerance", "nan"),
        ("dims", "--graph", "A3", "--tolerance", "nan"),
        ("a2-compare", "--tolerance", "inf"),
    ])
    def test_non_finite_tolerance_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerances must be finite and positive, got ")
        assert len(err.splitlines()) == 1

    def test_malformed_edge_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [None]}))
        code, out, err = run(capsys, "pf", "--graph", str(path))
        assert (code, out, err) == (2, "", "error: edge None is not a list of two labels\n")

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_graph_exits_two(self, capsys, tmp_path, kind):
        target = tmp_path / kind
        if kind == "directory":
            target.mkdir()
        else:
            target.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "pf", "--graph", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read --graph")
        assert len(err.splitlines()) == 1

    def test_rank_tol_option_is_gone(self, capsys):
        # the build has one tolerance, --tolerance
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--graph", "D4", "--rank-tol", "1e-7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rank-tol" in capsys.readouterr().err

    def test_wrong_kernel_exits_one(self, capsys, monkeypatch):
        # one constraint weight sqrt(mu_v / mu_b) off by 1e-8 makes a wrong
        # kernel of the right size; the build's identity check catches it
        from esspath.essential import EssentialSpace
        init = EssentialSpace.__init__

        def faulty(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._weight[1][0] *= 1 + 1e-8  # edge 0 - 1 of D4

        monkeypatch.setattr(EssentialSpace, "__init__", faulty)
        code, out, err = run(capsys, "dims", "--graph", "D4")
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: cell 0\|0\|2 of D4: \|Q Q\^T - I\| is \S+ for "
                            r"Q = \[K / sqrt\(c_2\); R\], not within tolerance 1e-09\n", err)

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        from esspath.essential import EssentialSpace

        def exhausted(self, max_length=None):
            raise MemoryError("Unable to allocate 3.07 GiB for an array with "
                              "shape (16, 5074, 5074) and data type float64")

        monkeypatch.setattr(EssentialSpace, "dims", exhausted)
        code, out, err = run(capsys, "dims", "--graph", "E6")
        assert (code, out) == (1, "")
        assert err == ("error: out of memory: Unable to allocate 3.07 GiB for an "
                       "array with shape (16, 5074, 5074) and data type float64\n")

    def test_cycle_file_needs_flag(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
        }))
        code, _, err = run(capsys, "pf", "--graph", str(path))
        assert code == 2
        code, out, _ = run(capsys, "pf", "--graph", str(path),
                           "--allow-cycles")
        assert code == 0
        assert json.loads(out)["kappa"] is None
