"""Graph construction, parsing, spectral data, fused matrices."""

import itertools
import json
import math

import numpy as np
import pytest

from esspath import (
    InputError,
    UnsupportedGraphError,
    build_ade,
    builtin_graph,
    fused_matrices,
    parse_graph,
    perron_frobenius,
)

TOL = 1e-9


def edge_labels(g):
    return {frozenset((g.label(i), g.label(j))) for i, j in g.edges}


class TestBuildAde:
    def test_a2_smallest(self):
        g = build_ade("A", 2)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1
        assert g.vertices == ("1", "2")

    def test_a3_path_graph(self):
        g = build_ade("A", 3)
        assert edge_labels(g) == {frozenset(("1", "2")), frozenset(("2", "3"))}

    def test_e6_branch_vertex(self):
        # chain 0-1-2-5-4 with 3 attached to 2
        g = build_ade("E", 6)
        assert len(g.vertices) == 6
        assert len(g.edges) == 5
        three = g.vertex_index("3")
        assert g.neighbors[three] == (g.vertex_index("2"),)

    def test_d4_star(self):
        g = build_ade("D", 4)
        degs = sorted(len(ns) for ns in g.neighbors)
        assert degs == [1, 1, 1, 3]

    @pytest.mark.parametrize("family,rank", [("A", 0), ("D", 3), ("E", 9), ("X", 4)])
    def test_unsupported(self, family, rank):
        with pytest.raises(InputError):
            build_ade(family, rank)

    def test_builtin_names(self):
        for name in ["A1", "A12", "D4", "D8", "E6", "E7", "E8"]:
            g = builtin_graph(name)
            assert len(g.edges) == len(g.vertices) - 1
        with pytest.raises(InputError):
            builtin_graph("E9")

    def test_distinguished_has_minimal_mu(self):
        for name in ["A2", "A5", "D4", "D6", "E6", "E7", "E8"]:
            g = builtin_graph(name)
            pf = perron_frobenius(g)
            assert pf.mu[g.distinguished] == 1.0
            assert pf.mu[g.distinguished] <= pf.mu.min() * (1 + 1e-9)


def is_isomorphic(g1, g2):
    """Brute-force graph isomorphism for small vertex counts."""
    n = len(g1.vertices)
    if n != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    e2 = {frozenset(e) for e in g2.edges}
    for perm in itertools.permutations(range(n)):
        if all(frozenset((perm[i], perm[j])) in e2 for i, j in g1.edges):
            return True
    return False


class TestParseGraph:
    def test_a2_json(self):
        g = parse_graph('{"vertices": ["1", "2"], "edges": [["1", "2"]]}')
        assert len(g.vertices) == 2

    def test_e6_json_isomorphic_to_builtin(self):
        text = json.dumps({
            "name": "my-e6",
            "vertices": ["p", "q", "x", "y", "z", "w"],
            "edges": [["p", "q"], ["q", "x"], ["x", "y"], ["y", "z"],
                      ["x", "w"]],
        })
        g = parse_graph(text)
        assert is_isomorphic(g, build_ade("E", 6))

    def test_duplicate_edge_rejected(self):
        text = '{"vertices": ["1", "2"], "edges": [["1", "2"], ["2", "1"]]}'
        with pytest.raises(InputError, match="duplicate edge"):
            parse_graph(text)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(InputError, match="duplicate vertex"):
            parse_graph('{"vertices": ["1", "1"], "edges": []}')

    def test_disconnected_rejected(self):
        text = '{"vertices": ["1", "2", "3"], "edges": [["1", "2"]]}'
        with pytest.raises(InputError, match="not connected"):
            parse_graph(text)

    def test_self_loop_rejected(self):
        text = '{"vertices": ["1", "2"], "edges": [["1", "2"], ["1", "1"]]}'
        with pytest.raises(InputError, match="self-loop"):
            parse_graph(text)

    def test_cycle_needs_override(self):
        text = json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
        })
        with pytest.raises(InputError, match="not a tree"):
            parse_graph(text)
        g = parse_graph(text, allow_cycles=True)
        assert len(g.edges) == 3

    @pytest.mark.parametrize("edge", [None, {"x": 1, "y": 2}, "ab", ["a"],
                                      ["a", "b", "a"]])
    def test_edge_must_be_a_list_of_two_labels(self, edge):
        text = json.dumps({"vertices": ["a", "b"], "edges": [edge]})
        with pytest.raises(InputError, match="is not a list of two labels"):
            parse_graph(text)

    def test_name_must_be_a_string(self):
        text = json.dumps({"name": ["x"], "vertices": ["a", "b"],
                           "edges": [["a", "b"]]})
        with pytest.raises(InputError, match="'name' must be a string"):
            parse_graph(text)

    def test_edge_labels_read_through_str(self):
        g = parse_graph(json.dumps({"vertices": ["1", "2"], "edges": [[2, 1]]}))
        assert g.edges == ((0, 1),)

    def test_malformed_json(self):
        with pytest.raises(InputError, match="malformed JSON"):
            parse_graph("{not json")

    def test_distinguished_defaults_to_minimal_mu(self):
        # path on 3 vertices: both ends are minimal, label order breaks the tie
        text = json.dumps({
            "vertices": ["c", "b", "a"],
            "edges": [["a", "b"], ["b", "c"]],
        })
        g = parse_graph(text)
        assert g.label(g.distinguished) == "a"

    def test_unknown_distinguished_rejected(self):
        text = json.dumps({
            "vertices": ["1", "2"],
            "edges": [["1", "2"]],
            "distinguished": "zz",
        })
        with pytest.raises(InputError, match="distinguished"):
            parse_graph(text)

    def test_explicit_distinguished_must_be_minimal(self):
        text = json.dumps({
            "vertices": ["1", "2", "3"],
            "edges": [["1", "2"], ["2", "3"]],
            "distinguished": "2",
        })
        g = parse_graph(text)
        with pytest.raises(InputError, match="minimal"):
            perron_frobenius(g)


class TestPerronFrobenius:
    def test_a2(self, a2):
        pf = perron_frobenius(a2)
        assert abs(pf.beta - 1.0) <= TOL
        assert np.allclose(pf.mu, [1.0, 1.0], atol=TOL)
        assert pf.kappa == 3

    def test_e6_beta_squared(self, e6):
        # beta solves x^4 - 4 x^2 + 1 = 0, largest root
        pf = perron_frobenius(e6)
        assert abs(pf.beta ** 2 - (2 + math.sqrt(3))) <= TOL
        assert pf.kappa == 12
        # cross-check against a dense symmetric eigensolve
        top = np.linalg.eigvalsh(e6.adjacency.astype(float)).max()
        assert abs(pf.beta - top) <= TOL

    def test_e6_mu_ratio(self, e6):
        pf = perron_frobenius(e6)
        i3, i1 = e6.vertex_index("3"), e6.vertex_index("1")
        assert abs(pf.mu[i3] / pf.mu[i1] - (math.sqrt(3) - 1)) <= TOL

    @pytest.mark.parametrize("name", [f"A{r}" for r in range(1, 13)]
                             + [f"D{r}" for r in range(4, 9)]
                             + ["E6", "E7", "E8"])
    def test_eigen_residual_all_builtins(self, name):
        g = builtin_graph(name)
        pf = perron_frobenius(g)
        resid = np.max(np.abs(g.adjacency @ pf.mu - pf.beta * pf.mu))
        assert resid <= TOL
        assert np.all(pf.mu > 0)
        assert pf.mu[g.distinguished] == 1.0

    @pytest.mark.parametrize("name,kappa", [
        ("A1", 2), ("A2", 3), ("A3", 4), ("A12", 13),
        ("D4", 6), ("D5", 8), ("D8", 14),
        ("E6", 12), ("E7", 18), ("E8", 30),
    ])
    def test_coxeter_numbers(self, name, kappa):
        pf = perron_frobenius(builtin_graph(name))
        assert pf.kappa == kappa
        assert abs(pf.beta - 2 * math.cos(math.pi / kappa)) <= TOL

    def test_long_path_kappa(self):
        # kappa detection stays sharp far from the built-in range
        labels = [str(i) for i in range(1, 61)]
        edges = [[labels[i], labels[i + 1]] for i in range(59)]
        g = parse_graph(json.dumps({"vertices": labels, "edges": edges}))
        assert perron_frobenius(g).kappa == 61

    def test_affine_star_never_hangs(self):
        # true top eigenvalue exactly 2: must map to kappa None, whatever
        # side of 2 the computed value lands on
        text = json.dumps({
            "vertices": ["c", "1", "2", "3", "4"],
            "edges": [["c", "1"], ["c", "2"], ["c", "3"], ["c", "4"]],
        })
        assert perron_frobenius(parse_graph(text)).kappa is None
        from esspath.graphs import _detect_kappa
        assert _detect_kappa(2.0 - 1e-16, 1e-9) is None
        assert _detect_kappa(2.0 + 1e-16, 1e-9) is None

    def test_no_kappa_above_two(self):
        # the 4-pronged star has spectral radius exactly 2
        text = json.dumps({
            "vertices": ["c", "1", "2", "3", "4"],
            "edges": [["c", "1"], ["c", "2"], ["c", "3"], ["c", "4"]],
        })
        g = parse_graph(text)
        pf = perron_frobenius(g)
        assert abs(pf.beta - 2.0) <= 1e-6
        assert pf.kappa is None


# F_0, F_1, F_2 for the path graph on three vertices, by hand:
# A^2 - I = antidiagonal, A^3 - 2A = 0
A3_F2 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


class TestFusedMatrices:
    def test_a2(self, a2):
        fm = fused_matrices(a2)
        assert fm.sums == (2, 2)
        assert np.array_equal(fm.matrices[0], np.eye(2, dtype=int))
        assert np.array_equal(fm.matrices[1], a2.adjacency)

    def test_a3_hand_values(self, a3):
        fm = fused_matrices(a3)
        assert fm.sums == (3, 4, 3)
        assert np.array_equal(fm.matrices[2], A3_F2)
        # recurrence terminates: A^3 - 2A = 0
        a = a3.adjacency
        assert not (a @ a @ a - 2 * a).any()

    def test_e6_entry_sums(self, e6):
        assert fused_matrices(e6).sums == (6, 10, 14, 18, 20, 20, 20, 18, 14, 10, 6)

    def test_recurrence_invariant(self):
        for name in ["A5", "D5", "E7"]:
            g = builtin_graph(name)
            fm = fused_matrices(g)
            a = g.adjacency
            assert np.array_equal(fm.matrices[0], np.eye(len(g.vertices), dtype=int))
            assert np.array_equal(fm.matrices[1], a)
            for p in range(1, len(fm) - 1):
                assert np.array_equal(fm.matrices[p + 1],
                                      a @ fm.matrices[p] - fm.matrices[p - 1])
            assert all(m.min() >= 0 for m in fm.matrices)

    def test_list_length_is_kappa_minus_one(self):
        for name in ["A1", "A2", "A6", "D4", "D6", "E6"]:
            g = builtin_graph(name)
            assert len(fused_matrices(g)) == perron_frobenius(g).kappa - 1

    def test_rejects_graph_without_kappa(self):
        text = json.dumps({
            "vertices": ["c", "1", "2", "3", "4"],
            "edges": [["c", "1"], ["c", "2"], ["c", "3"], ["c", "4"]],
        })
        g = parse_graph(text)
        with pytest.raises(UnsupportedGraphError):
            fused_matrices(g)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("compute", [perron_frobenius, fused_matrices])
def test_library_tolerances_must_be_finite_and_positive(a3, compute, bad):
    # inf once stopped the power iteration after one step (beta 1.41176 on
    # A3, not sqrt 2); nan, 0 and negatives ran 200,000 steps to a NumericError
    with pytest.raises(InputError, match="tolerances must be finite and positive"):
        compute(a3, bad)
