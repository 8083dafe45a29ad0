import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graveropt import (
    Assignment,
    BrickCardinality,
    Cardinality,
    CoordinateCardinality,
    QuadraticInstance,
    ResourceBudgetError,
    brute_force_solve,
    build_basis,
    enumerate_feasible,
    generate_instance,
    integer_kernel_basis,
    is_graver_minimal,
    objective,
    pottier_graver,
    realize_matrix,
    solve,
)
from references import dense_rows, dense_set


def binary_instance(kind, b, c=None, Q=None, name="t"):
    size = kind.dim
    return QuadraticInstance(
        c=np.zeros(size, dtype=np.int64) if c is None else np.asarray(c),
        Q=np.zeros((size, size), dtype=np.int64) if Q is None else np.asarray(Q),
        kind=kind,
        b=np.atleast_1d(b),
        lower=np.zeros(size, dtype=np.int64),
        upper=np.ones(size, dtype=np.int64),
        name=name,
    )


class TestKernelBasis:
    @pytest.mark.parametrize(
        "A",
        [
            [[1, 1, 1]],
            [[1, 2]],
            [[1, 2, 3], [0, 1, 1]],
            realize_matrix(Assignment(3, 3)).tolist(),
        ],
    )
    def test_kernel_and_rank(self, A):
        A = np.asarray(A, dtype=np.int64)
        basis = integer_kernel_basis(A)
        for v in basis:
            assert not np.any(A @ v)
        rank = np.linalg.matrix_rank(A.astype(float))
        assert len(basis) == A.shape[1] - rank

    def test_full_lattice_for_nonprimitive_row(self):
        # ker([1 2]) is generated by (2, -1); a scaled sublattice would miss it
        basis = integer_kernel_basis([[1, 2]])
        assert len(basis) == 1
        v = basis[0]
        assert sorted(abs(int(x)) for x in v) == [1, 2]

    @pytest.mark.parametrize("seed", range(25))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        A = rng.integers(-4, 5, size=(m, n)).astype(np.int64)
        if not A.any():
            A[0, 0] = 1
        basis = integer_kernel_basis(A)
        for v in basis:
            assert not np.any(A @ v)
        rank = np.linalg.matrix_rank(A.astype(float))
        assert len(basis) == n - rank

    @staticmethod
    def bareiss_det(rows) -> int:
        """Exact determinant of a square integer matrix by fraction-free elimination."""
        m = [list(map(int, row)) for row in rows]
        sign, prev = 1, 1
        for i in range(len(m)):
            if m[i][i] == 0:
                swap = next((r for r in range(i + 1, len(m)) if m[r][i]), None)
                if swap is None:
                    return 0
                m[i], m[swap], sign = m[swap], m[i], -sign
            for r in range(i + 1, len(m)):
                for j in range(i + 1, len(m)):
                    m[r][j] = (m[r][j] * m[i][i] - m[r][i] * m[i][j]) // prev
            prev = m[i][i]
        return sign * m[-1][-1] if m else 1

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 2), st.integers(2, 6)),
                  elements=st.integers(-4, 4)))
    def test_spans_the_whole_kernel_lattice(self, A):
        # n - rank vectors in ker A whose maximal minors have gcd 1: the
        # lattice they span is saturated, so it is all of ker_Z(A), where a
        # basis of a sublattice of index d has minors with gcd d
        basis = integer_kernel_basis(A)
        n, rank = A.shape[1], np.linalg.matrix_rank(A.astype(float))
        assert len(basis) == n - rank
        for v in basis:
            assert v.dtype == np.int64 and not np.any(A @ v)
        B = np.array(basis, dtype=np.int64).reshape(len(basis), n)
        minors = [self.bareiss_det(B[:, list(cols)]) for cols in combinations(range(n), len(basis))]
        assert math.gcd(*minors) == 1


def pottier_sweep_matrices() -> list:
    """The verify ladder's structured kinds up to flat size 12, 400 random A,
    [[1..m]] for m = 2..6, one two-row A, and one whose kernel passes int64."""
    out = [realize_matrix(Cardinality(n)) for n in range(2, 13)]
    for family, least_n, least_k in ((BrickCardinality, 1, 2), (CoordinateCardinality, 2, 1),
                                     (Assignment, 2, 2)):
        for n in range(least_n, 13):
            out += [realize_matrix(family(n, k)) for k in range(least_k, 12 // n + 1)]
    rng, total = np.random.default_rng(2029), len(out) + 400
    while len(out) < total:
        A = rng.integers(-3, 4, size=(int(rng.integers(1, 3)), int(rng.integers(2, 6))))
        if A.any():
            out.append(A)
    out += [[list(range(1, m + 1))] for m in range(2, 7)]
    return out + [[[1, 2, 1], [0, 1, 3]], [[1, 2**62]]]


class TestPottier:
    def test_all_ones_row(self):
        got = dense_set(pottier_graver([[1, 1, 1]]))
        assert got == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}

    def test_assignment_2x2(self):
        got = dense_set(pottier_graver(realize_matrix(Assignment(2, 2))))
        assert got == {(1, -1, -1, 1)}

    def test_one_two_row(self):
        got = dense_set(pottier_graver([[1, 2]]))
        assert got == {(2, -1)}

    def test_trivial_kernel(self):
        assert len(pottier_graver([[1, 0], [0, 1]])) == 0

    @staticmethod
    def assert_closed_under_reduction(rows):
        # every pairwise sum of signed output elements reduces to zero
        window = np.concatenate([rows, -rows])
        sums = np.unique((window[:, None, :] + window[None, :, :]).reshape(-1, rows.shape[1]), axis=0)
        for vec in sums:
            while np.any(vec):
                mask = np.all((window * vec >= 0) & (np.abs(window) <= np.abs(vec)), axis=1)
                hits = np.nonzero(mask)[0]
                assert hits.size, f"{vec} is irreducible"
                vec -= window[hits[0]]

    def test_output_closed_under_reduction(self):
        for A in ([[1, 1, 1, 1]], realize_matrix(Assignment(2, 3))):
            self.assert_closed_under_reduction(dense_rows(pottier_graver(A)))

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 2), st.integers(3, 5)),
                  elements=st.integers(-3, 3)))
    def test_random_matrices_complete(self, A):
        if not A.any():
            A[0, 0] = 1
        rows = dense_rows(pottier_graver(A))
        assert not np.any(A @ rows.T)
        assert all(is_graver_minimal(g, A) for g in rows)
        self.assert_closed_under_reduction(rows)

    @pytest.mark.parametrize(
        "kind",
        [
            Cardinality(7),
            BrickCardinality(2, 4),
            CoordinateCardinality(4, 2),
            Assignment(2, 4),
            Assignment(3, 3),
        ],
    )
    def test_agrees_with_structured(self, kind):
        oracle = pottier_graver(realize_matrix(kind))
        assert dense_set(oracle) == dense_set(build_basis(kind))

    def test_all_outputs_minimal(self):
        A = np.array([[1, 1, 1, 1]], dtype=np.int64)
        for g in dense_rows(pottier_graver(A)):
            assert is_graver_minimal(g, A)

    def test_structured_assignment_elements_minimal(self):
        A = realize_matrix(Assignment(3, 3))
        for g in dense_rows(build_basis(Assignment(3, 3))):
            assert is_graver_minimal(g, A)

    def test_sweep_digest(self):
        # the bases, or the budget error, of 476 matrices, pinned when the
        # kernel lattice basis was computed by extended-gcd column pairs
        h = hashlib.sha256()
        for A in pottier_sweep_matrices():
            try:
                basis = pottier_graver(A)
                h.update(repr(basis.dim).encode() + basis.idx.tobytes() + basis.val.tobytes())
            except ResourceBudgetError as err:
                h.update(str(err).encode())
            h.update(b";")
        assert h.hexdigest() == "fd59dec0173455bd720a155f120ead811fe11f9b9c7ab0509ba7bd2e5b267a29"

    def test_budget_error(self):
        with pytest.raises(ResourceBudgetError):
            pottier_graver(realize_matrix(Cardinality(8)), max_rows=1_000)

    def test_row_budget_error_names_the_budget(self):
        # [[1..6]] tests about 1.2e6 rows in full
        with pytest.raises(ResourceBudgetError, match="max_rows=100000 rows"):
            pottier_graver([[1, 2, 3, 4, 5, 6]], max_rows=100_000)

    def test_sums_are_reduced_once_up_to_sign(self):
        # -s reduces as the mirror of s, so keying seen sums up to sign
        # halves the rows tested: [[1..6]] took about 2.5e6 keyed on s alone
        rows = dense_rows(pottier_graver([[1, 2, 3, 4, 5, 6]], max_rows=2_000_000))
        assert len(rows) == 102  # as many elements as keyed on s alone
        assert not np.any(np.array([[1, 2, 3, 4, 5, 6]]) @ rows.T)

    @pytest.mark.parametrize(
        "A",
        [
            [[2, 3]],
            [[1, 2, 3]],
            [[1, 1, 1, 0], [0, 1, 1, 1]],
            [[2, 1, -1]],
        ],
    )
    def test_matches_box_enumeration(self, A):
        # independent route: minimal nonzero kernel vectors inside a small box
        A = np.asarray(A, dtype=np.int64)
        n = A.shape[1]
        out = dense_rows(pottier_graver(A))
        got = set(map(tuple, out.tolist()))

        from itertools import product

        radius = 4
        kernel = [
            np.array(v, dtype=np.int64)
            for v in product(range(-radius, radius + 1), repeat=n)
            if any(v) and not np.any(A @ np.array(v))
        ]

        def dominated(g):
            return any(
                not np.array_equal(h, g)
                and np.all(h * g >= 0)
                and np.all(np.abs(h) <= np.abs(g))
                for h in kernel
            )

        box_minimal = {
            tuple(g) for g in kernel if not dominated(g) and (g[np.nonzero(g)[0][0]] > 0)
        }
        # inside the box the two routes must agree exactly
        got_in_box = {g for g in got if max(abs(v) for v in g) <= radius}
        assert got_in_box == box_minimal
        # and nothing the completion found should be dominated at all
        assert not np.any(A @ out.T)


class TestMinimality:
    def test_swap_is_minimal(self):
        assert is_graver_minimal([1, -1, 0], [[1, 1, 1]])

    def test_dominated_vector(self):
        assert not is_graver_minimal([2, -1, -1], [[1, 1, 1]])

    def test_zero_vector(self):
        assert not is_graver_minimal([0, 0, 0], [[1, 1, 1]])

    def test_non_kernel_rejected(self):
        with pytest.raises(ValueError):
            is_graver_minimal([1, 0, 0], [[1, 1, 1]])

    def test_ball_budget(self):
        A = np.ones((1, 30), dtype=np.int64)
        g = np.zeros(30, dtype=np.int64)
        g[:15] = 3
        g[15:] = -3
        with pytest.raises(ResourceBudgetError):
            is_graver_minimal(g, A, max_ball=1000)


class TestBruteForce:
    def test_cardinality_count(self):
        inst = binary_instance(Cardinality(4), [2])
        assert brute_force_solve(inst).feasible_count == 6

    def test_permutation_matrices(self):
        inst = binary_instance(Assignment(3, 3), np.ones(6, dtype=np.int64))
        res = brute_force_solve(inst)
        assert res.feasible_count == 6
        for x in res.points:
            m = x.reshape(3, 3).T
            assert list(m.sum(axis=0)) == [1, 1, 1]
            assert list(m.sum(axis=1)) == [1, 1, 1]

    def test_lower_bounds_every_terminal(self):
        rng = np.random.default_rng(5)
        inst = generate_instance(rng, "QSAP1", 3, 3)
        truth = brute_force_solve(inst)
        report = solve(inst, seed_count=10, rng_seed=0)
        assert all(truth.best_f <= r.terminal_f for r in report.results)

    def test_float_values_equal_objective(self):
        # CBQP n=8 on a 0..2 box with float data: brute force reads f as objective does
        for seed in range(40):
            inst = generate_instance(np.random.default_rng(seed), "CBQP", 8)
            inst = QuadraticInstance(c=inst.c / 7.3, Q=inst.Q / 3.1, kind=inst.kind, b=inst.b,
                                     lower=inst.lower, upper=np.full(8, 2))
            res = brute_force_solve(inst)
            assert res.best_f == objective(inst, res.best_x)
            assert all(objective(inst, x) == res.best_f for x in res.optima)

    def test_space_guard(self):
        inst = binary_instance(Cardinality(40), [3])
        with pytest.raises(ResourceBudgetError):
            brute_force_solve(inst, max_points=10**4)

    def test_infeasible_instance(self):
        inst = binary_instance(Cardinality(3), [7])
        with pytest.raises(ValueError):
            brute_force_solve(inst)

    def test_general_bounds(self):
        inst = QuadraticInstance(
            c=np.array([1, 1]),
            Q=np.zeros((2, 2), dtype=np.int64),
            kind=Cardinality(2),
            b=[3],
            lower=[0, 0],
            upper=[3, 3],
        )
        res = brute_force_solve(inst)
        assert res.feasible_count == 4  # (0,3) (1,2) (2,1) (3,0)
        points = enumerate_feasible(inst)
        assert {tuple(p) for p in points} == {(0, 3), (1, 2), (2, 1), (3, 0)}
