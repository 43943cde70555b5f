"""Concatenation algebra, scalar product, backtrack removal, group-like
coalgebra."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esspath import (
    InputError,
    PathVector,
    annihilate,
    build_ade,
    concat,
    elementary,
    enumerate_paths,
    grouplike_coproduct,
    grouplike_counit,
    inner,
    parse_graph,
    perron_frobenius,
    reverse_star,
    tensor,
    unit,
)
from esspath.paths import DROP_TOL, TensorPathVector, tensor_concat

TOL = 1e-9

E6 = build_ade("E", 6)
A2 = build_ade("A", 2)
A3 = build_ade("A", 3)


def walks(graph, max_len=5):
    """Hypothesis strategy for elementary paths: a start vertex plus a list
    of neighbor choices."""
    n = len(graph.vertices)

    @st.composite
    def walk(draw):
        v = draw(st.integers(0, n - 1))
        steps = draw(st.lists(st.integers(0, 7), max_size=max_len))
        path = [v]
        for s in steps:
            nbrs = graph.neighbors[path[-1]]
            path.append(nbrs[s % len(nbrs)])
        return tuple(path)

    return walk()


class TestEnumerate:
    def test_a2_single_edge(self):
        assert enumerate_paths(A2, 1, 2, 1) == [(0, 1)]

    def test_a2_backtrack(self):
        assert enumerate_paths(A2, 1, 1, 2) == [(0, 1, 0)]

    def test_e6_three_backtracks_at_2(self):
        got = enumerate_paths(E6, 2, 2, 2)
        assert got == [(2, 1, 2), (2, 3, 2), (2, 5, 2)]

    def test_lex_order(self):
        for length in range(5):
            for a in E6.vertices:
                for b in E6.vertices:
                    ps = enumerate_paths(E6, a, b, length)
                    assert ps == sorted(ps)

    def test_counts_match_adjacency_powers(self):
        a = E6.adjacency
        for length in range(6):
            power = np.linalg.matrix_power(a, length)
            for i in range(6):
                for j in range(6):
                    assert len(enumerate_paths(E6, E6.label(i), E6.label(j),
                                               length)) == power[i, j]

    @staticmethod
    def _brute_force(g, a, length):
        """Every walk of the given length from vertex index a, by an
        unpruned depth-first search over sorted neighbours (so in lex
        order)."""
        if length == 0:
            return [(a,)]
        return [(a,) + w for v in g.neighbors[a]
                for w in TestEnumerate._brute_force(g, v, length - 1)]

    @pytest.mark.parametrize("name", ["A6", "D5", "E6", "star"])
    def test_matches_unpruned_search(self, name):
        if name == "star":  # four-pronged star, spectral radius 2
            g = parse_graph(json.dumps({
                "vertices": ["c", "1", "2", "3", "4"],
                "edges": [["c", "1"], ["c", "2"], ["c", "3"], ["c", "4"]],
            }))
        else:
            g = build_ade(name[0], int(name[1:]))
        for length in range(9):
            for a in range(g.n_vertices):
                walks = self._brute_force(g, a, length)
                for b in range(g.n_vertices):
                    assert enumerate_paths(g, g.label(a), g.label(b), length) == [
                        w for w in walks if w[-1] == b]

    def test_negative_length(self):
        with pytest.raises(InputError):
            enumerate_paths(A2, 1, 2, -1)

    def test_elementary_validates_adjacency(self):
        with pytest.raises(InputError, match="not adjacent"):
            elementary(E6, [0, 2])


class TestConcat:
    def test_matching_endpoints(self):
        r = elementary(A2, [1, 2])
        l = elementary(A2, [2, 1])
        assert concat(r, l) == elementary(A2, [1, 2, 1])

    def test_mismatch_gives_zero(self):
        r = elementary(A2, [1, 2])
        assert not concat(r, r)

    def test_unit_two_sided(self):
        one = unit(A2)
        r = elementary(A2, [1, 2])
        assert concat(one, r) == r
        assert concat(r, one) == r

    @given(walks(A3), walks(A3), walks(A3))
    @settings(max_examples=60, deadline=None)
    def test_associative_and_graded(self, p, q, r):
        pv, qv, rv = (PathVector.single(x) for x in (p, q, r))
        lhs = concat(concat(pv, qv), rv)
        rhs = concat(pv, concat(qv, rv))
        assert lhs == rhs
        for term in lhs.terms:
            assert len(term) - 1 == (len(p) - 1) + (len(q) - 1) + (len(r) - 1)

    def test_bilinear(self):
        r = elementary(A2, [1, 2])
        l = elementary(A2, [2, 1])
        # r.l = [1,2,1], l.r = [2,1,2], r.r = l.l = 0
        out = concat(2.0 * r + l, 3.0 * l + r)
        assert out == 6.0 * elementary(A2, [1, 2, 1]) + elementary(A2, [2, 1, 2])


class TestInner:
    def test_orthonormal(self):
        r = elementary(A2, [1, 2])
        l = elementary(A2, [2, 1])
        assert inner(r, r) == 1.0
        assert inner(r, l) == 0.0

    def test_bilinear_scaling(self):
        p = elementary(A2, [1, 2])
        assert inner(2.0 * p, 3.0 * p) == pytest.approx(6.0)

    def test_unit_norm_squared_counts_vertices(self):
        assert inner(unit(A2), unit(A2)) == pytest.approx(2.0)
        assert inner(unit(E6), unit(E6)) == pytest.approx(6.0)

    @given(walks(E6, 3), walks(E6, 3), walks(E6, 3))
    @settings(max_examples=40, deadline=None)
    def test_prefix_cancellation(self, p, q1, q2):
        # <pq, pq'> = <q, q'> for an elementary prefix, when lengths agree
        if len(q1) != len(q2) or q1[0] != q2[0] or p[-1] != q1[0]:
            return
        pv = PathVector.single(p)
        qv1, qv2 = PathVector.single(q1), PathVector.single(q2)
        assert inner(concat(pv, qv1), concat(pv, qv2)) == pytest.approx(
            inner(qv1, qv2))


class TestAnnihilate:
    def test_a2_backtrack_coefficient(self):
        # mu = (1, 1) so the weight is exactly 1
        out = annihilate(A2, 1, elementary(A2, [1, 2, 1]))
        assert out == elementary(A2, [1])

    def test_short_paths_killed(self):
        assert not annihilate(A2, 1, elementary(A2, [1, 2]))
        assert not annihilate(A2, 3, elementary(A2, [1, 2, 1, 2]))

    def test_e6_coefficient(self):
        pf = perron_frobenius(E6)
        out = annihilate(E6, 1, elementary(E6, [2, 1, 2]))
        expected = math.sqrt(pf.beta / (pf.beta ** 2 - 1))
        assert set(out.terms) == {(2,)}
        assert out.coefficient((2,)) == pytest.approx(expected, abs=TOL)

    def test_no_backtrack_gives_zero(self):
        assert not annihilate(E6, 1, elementary(E6, [0, 1, 2]))

    def test_lowers_length_by_two(self):
        p = elementary(E6, [2, 1, 0, 1, 2])
        for k in (1, 2, 3):
            for term in annihilate(E6, k, p).terms:
                assert len(term) - 1 == 2

    def test_k_must_be_positive(self):
        with pytest.raises(InputError):
            annihilate(A2, 0, elementary(A2, [1, 2]))


class TestReverseStar:
    def test_single_path(self):
        assert reverse_star(elementary(A2, [1, 2])) == elementary(A2, [2, 1])

    def test_fixed_point(self):
        v = elementary(A2, [1, 2]) + elementary(A2, [2, 1])
        assert reverse_star(v) == v

    @given(walks(E6, 4), walks(E6, 4))
    @settings(max_examples=40, deadline=None)
    def test_antihomomorphism(self, p, q):
        pv, qv = PathVector.single(p), PathVector.single(q)
        lhs = reverse_star(concat(pv, qv))
        rhs = concat(reverse_star(qv), reverse_star(pv))
        assert lhs == rhs

    def test_involution(self):
        v = elementary(E6, [0, 1, 2]) + 2.5 * elementary(E6, [0, 1, 0])
        assert reverse_star(reverse_star(v)) == v


class TestGrouplike:
    def test_coproduct_of_elementary(self):
        r = elementary(A2, [1, 2])
        assert grouplike_coproduct(r) == tensor(r, r)

    def test_counit_linearity(self):
        v = elementary(A2, [1, 2]) + 2.0 * elementary(A2, [2, 1])
        assert grouplike_counit(v) == pytest.approx(3.0)

    @given(walks(A3, 4), walks(A3, 4))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism(self, p, q):
        pv, qv = PathVector.single(p), PathVector.single(q)
        lhs = grouplike_coproduct(concat(pv, qv))
        rhs = tensor_concat(grouplike_coproduct(pv), grouplike_coproduct(qv))
        assert lhs == rhs

    def test_counit_law(self):
        v = elementary(E6, [0, 1, 2]) - 0.5 * elementary(E6, [0, 1, 0])
        total = PathVector()
        for (p1, p2), c in grouplike_coproduct(v).items():
            total = total + grouplike_counit(PathVector.single(p2)) \
                * PathVector.single(p1, c)
        assert total == v

    def test_coassociative_on_elementary(self):
        # group-like terms are diagonal, so both re-expansions agree termwise
        v = elementary(E6, [0, 1, 2]) + 3.0 * elementary(E6, [2, 1, 0])
        d = grouplike_coproduct(v)
        left = {(p, p, p): c for (p, _), c in d.items()}
        right = {(p, p, p): c for (_, p), c in d.items()}
        assert left == right

    def test_unit_not_grouplike(self):
        for g in (A2, E6):
            gap = (grouplike_coproduct(unit(g)) - tensor(unit(g), unit(g))).norm()
            assert gap > 0.5


class TestTruncatedCutConcat:
    def test_a3_length_capped_instance(self):
        # cut the dual way (inner products over the truncated basis), then
        # concatenate back: every elementary path returns unchanged, and the
        # compatibility condition holds with integer structure constants
        from esspath import space
        from esspath.verify import VerifyConfig, check_truncated_paths
        rep = check_truncated_paths(space(A3), VerifyConfig(), cap=4)
        assert rep.passed, rep.witness
        assert rep.residual == 0.0

    def test_dropped_splice_fails_gram_half(self, monkeypatch):
        from esspath import space, verify
        from esspath.endo import GradedBasisAlgebra
        real = verify.truncated_paths_algebra

        def drop_one_splice(g, cap):
            alg = real(g, cap)

            def mul(n, k):
                out = alg.mul(n, k)
                if (n, k) == (1, 1):
                    out[tuple(np.argwhere(out)[0])] = 0.0
                return out
            return GradedBasisAlgebra(alg.label, alg.dims, mul)

        monkeypatch.setattr(verify, "truncated_paths_algebra", drop_one_splice)
        rep = verify.check_truncated_paths(space(A3), verify.VerifyConfig(), cap=4)
        assert not rep.passed
        assert rep.residual == 1.0
        assert rep.witness == "worst grade pair (1, 1); 0 cut-concat failures"

    def test_doubled_vertex_fails_cut_half(self, monkeypatch):
        from esspath import space, truncated_paths_algebra, verify

        def keep_shared_vertex(p, q):
            return PathVector({pp + qq: cp * cq for pp, cp in p.items()
                               for qq, cq in q.items() if pp[-1] == qq[0]})

        monkeypatch.setattr(verify, "concat", keep_shared_vertex)
        rep = verify.check_truncated_paths(space(A3), verify.VerifyConfig(), cap=4)
        # every path p of length n has n + 1 cuts, and each one now fails
        fails = sum((n + 1) * d for n, d in truncated_paths_algebra(A3, 4).dims.items())
        assert not rep.passed
        assert rep.witness == f"all grade pairs exact; {fails} cut-concat failures"


class TestCanonicalForm:
    def test_tiny_coefficients_dropped(self):
        v = PathVector({(0,): 1e-15})
        assert not v
        assert len(PathVector({(0,): 1e-15, (1,): 1.0})) == 1

    def test_cancellation(self):
        r = elementary(A2, [1, 2])
        assert not (r - r)

    def test_sorted_terms_by_length_then_lex(self):
        v = elementary(A2, [2, 1]) + elementary(A2, [1]) + elementary(A2, [1, 2, 1])
        keys = [p for p, _ in v.sorted_terms()]
        assert keys == [(0,), (1, 0), (0, 1, 0)]


@pytest.mark.parametrize("cls, a, b", [
    (PathVector, (0,), (0, 1)),
    (TensorPathVector, ((0,), (0,)), ((0, 1), (1,))),
], ids=["paths", "path_pairs"])
class TestCombination:
    """The linear structure that path vectors and path-pair vectors share:
    every result drops the terms at or below DROP_TOL."""

    def test_drop_on_construction(self, cls, a, b):
        assert cls({a: 1.0, b: DROP_TOL}).terms == {a: 1.0}
        assert cls({a: 1.0, b: -2 * DROP_TOL}).terms == {a: 1.0, b: -2 * DROP_TOL}
        assert not cls({a: DROP_TOL})

    def test_drop_on_arithmetic(self, cls, a, b):
        v = cls({a: 1.0, b: 0.5})
        assert (v + cls({b: -0.5 + DROP_TOL})).terms == {a: 1.0}
        assert (v - cls({b: 0.5})).terms == {a: 1.0}
        assert (v * DROP_TOL).terms == {}
        assert (v * 2.0).terms == (2.0 * v).terms == {a: 2.0, b: 1.0}
        assert (-v).terms == {a: -1.0, b: -0.5}
        assert type(v + v) is type(v - v) is type(v * 2.0) is cls
        assert v.norm() == math.sqrt(1.25) and len(v) == 2
        assert dict(v.items()) == v.terms and v == cls({b: 0.5, a: 1.0})

    def test_of_with_and_without_the_drop(self, cls, a, b):
        assert cls._of([a, b], [1.0, DROP_TOL]).terms == {a: 1.0}
        trusted = cls._of([a, b], [1.0, DROP_TOL], dropped=True)
        assert type(trusted) is cls and trusted.terms == {a: 1.0, b: DROP_TOL}

    def test_paths_never_equal_path_pairs(self, cls, a, b):
        other = TensorPathVector if cls is PathVector else PathVector
        assert cls() != other() and not cls() == other()
