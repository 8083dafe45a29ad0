import numpy as np
import pytest

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

    def test_output_closed_under_reduction(self):
        # every pairwise sum of signed output elements reduces to zero
        for A in ([[1, 1, 1, 1]], realize_matrix(Assignment(2, 3))):
            rows = dense_rows(pottier_graver(A))
            window = np.concatenate([rows, -rows])
            signed = list(window)

            def reduce(vec):
                vec = vec.copy()
                while np.any(vec):
                    mask = np.all(
                        (window * vec >= 0) & (np.abs(window) <= np.abs(vec)), axis=1
                    )
                    hits = np.nonzero(mask)[0]
                    if hits.size == 0:
                        return vec
                    vec -= window[hits[0]]
                return vec

            for f in signed:
                for g in signed:
                    assert not np.any(reduce(f + g))

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

    def test_budget_error(self):
        with pytest.raises(ResourceBudgetError):
            pottier_graver(realize_matrix(Cardinality(8)), max_elements=5)

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
