from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from graveropt import (
    Assignment,
    BrickCardinality,
    Cardinality,
    CoordinateCardinality,
    DimensionError,
    Explicit,
    LiftingSampler,
    assignment_basis_count,
    build_basis,
    graver_assignment,
    graver_brick_cardinality,
    graver_coordinate_cardinality,
    graver_ones,
    hilbert_basis_cycles,
    load_basis,
    pottier_graver,
    predicted_cardinality,
    realize_matrix,
    save_basis,
)
from references import dense_rows, dense_set, hilbert_cycle_count, lift_cycle


def as_dense(dim, drawn):
    idx, val = drawn
    g = np.zeros(dim, dtype=np.int64)
    g[idx] = val
    return g


def canonical(g):
    """The sign of g whose first nonzero entry is positive."""
    return g if g[np.flatnonzero(g)[0]] > 0 else -g


def dominates(h, g):
    # h below g in the sign-compatible partial order, h != g
    h, g = np.asarray(h), np.asarray(g)
    return (
        not np.array_equal(h, g)
        and np.all(h * g >= 0)
        and np.all(np.abs(h) <= np.abs(g))
    )


class TestRealizeMatrix:
    def test_cardinality(self):
        assert realize_matrix(Cardinality(3)).tolist() == [[1, 1, 1]]

    def test_coordinate(self):
        assert realize_matrix(CoordinateCardinality(2, 2)).tolist() == [
            [1, 0, 1, 0],
            [0, 1, 0, 1],
        ]

    def test_assignment_stack(self):
        got = realize_matrix(Assignment(2, 2))
        assert got.tolist() == [
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ]

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (4, 4)])
    def test_assignment_row_structure(self, n, k):
        A = realize_matrix(Assignment(n, k))
        assert A.shape == (k + n, n * k)
        # slot rows hit every brick once, brick rows cover their own brick
        assert all(A[m].sum() == n for m in range(k))
        assert all(A[k + i].sum() == k for i in range(n))

    def test_explicit(self):
        kind = Explicit.from_matrix([[1, 2], [0, 1]])
        assert realize_matrix(kind).tolist() == [[1, 2], [0, 1]]

    def test_explicit_keeps_integral_floats(self):
        assert Explicit.from_matrix([[1, 2.0, -3.0]]).rows == ((1, 2, -3),)

    @pytest.mark.parametrize("entry", [0.5, 1.9, float("nan")], ids=["half", "1.9", "nan"])
    def test_explicit_rejects_non_integers(self, entry):
        # a cast to int64 used to truncate these: [1, 0.5, 1.9] became (1, 0, 1)
        with pytest.raises(DimensionError, match=f"not an integer: {entry}$"):
            Explicit.from_matrix([[1, entry, 1]])

    @pytest.mark.parametrize("mat", [[[1, 1], [1]], [[1], [1, 1]]], ids=["short", "long"])
    def test_explicit_rejects_ragged_rows(self, mat):
        with pytest.raises(DimensionError, match="^Explicit matrix rows must have equal length$"):
            Explicit.from_matrix(mat)


class TestGraverOnes:
    def test_k3_exact(self):
        assert dense_set(graver_ones(3)) == {
            (1, -1, 0),
            (1, 0, -1),
            (0, 1, -1),
        }

    def test_k2_smallest(self):
        assert dense_set(graver_ones(2)) == {(1, -1)}

    def test_k50_count(self):
        assert len(graver_ones(50)) == 1225

    def test_rejects_small_k(self):
        with pytest.raises(DimensionError):
            graver_ones(1)


class TestBrickCardinality:
    def test_n2_k2(self):
        assert dense_set(graver_brick_cardinality(2, 2)) == {
            (1, -1, 0, 0),
            (0, 0, 1, -1),
        }

    def test_n1_degenerate(self):
        assert dense_set(graver_brick_cardinality(1, 3)) == dense_set(graver_ones(3))

    def test_n3_k3_count_and_oracle(self):
        from graveropt import pottier_graver

        basis = graver_brick_cardinality(3, 3)
        assert len(basis) == 9
        oracle = pottier_graver(realize_matrix(BrickCardinality(3, 3)))
        assert dense_set(basis) == dense_set(oracle)


class TestCoordinateCardinality:
    def test_n2_k2(self):
        assert dense_set(graver_coordinate_cardinality(2, 2)) == {
            (1, 0, -1, 0),
            (0, 1, 0, -1),
        }

    def test_k1_degenerate(self):
        assert dense_set(graver_coordinate_cardinality(2, 1)) == {(1, -1)}

    def test_n3_k2_count_and_oracle(self):
        from graveropt import pottier_graver

        basis = graver_coordinate_cardinality(3, 2)
        assert len(basis) == 6
        oracle = pottier_graver(realize_matrix(CoordinateCardinality(3, 2)))
        assert dense_set(basis) == dense_set(oracle)


class TestHilbertCycles:
    def test_k3_exact(self):
        got = set(hilbert_basis_cycles(3))
        assert got == {(0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 2, 1)}

    def test_k2_single(self):
        assert hilbert_basis_cycles(2) == [(0, 1)]

    def test_k4_count(self):
        assert len(hilbert_basis_cycles(4)) == 20
        assert hilbert_cycle_count(4) == 20

    @pytest.mark.parametrize("k", range(2, 7))
    def test_formula_matches_enumeration(self, k):
        cycles = hilbert_basis_cycles(k)
        assert len(cycles) == hilbert_cycle_count(k)
        assert len(set(cycles)) == len(cycles)
        assert all(c[0] == min(c) for c in cycles)

    def test_canonical_rotation(self):
        # each cycle is listed once, smallest node first, and for t >= 3 its
        # reversal, rotated the same way, is a different cycle of the list
        cycles = hilbert_basis_cycles(5)
        listed = set(cycles)
        for c in cycles:
            assert len(set(c)) == len(c) and c[0] == min(c)
            back = (c[0],) + tuple(reversed(c[1:]))
            assert back in listed
            assert (back == c) == (len(c) == 2)
        with pytest.raises(DimensionError):
            hilbert_basis_cycles(1)


class TestLiftCycle:
    """The reference lifting agrees with the basis built in numpy."""

    def test_two_cycle(self):
        g = lift_cycle((0, 1), [0, 1], n=2, k=2)
        assert list(g) == [1, -1, -1, 1]
        assert dense_set(graver_assignment(2, 2)) == {tuple(g)}

    def test_brick_order_swap_negates(self):
        g = lift_cycle((0, 1), [1, 0], n=2, k=2)
        assert list(g) == [-1, 1, 1, -1]
        assert np.array_equal(g, -lift_cycle((0, 1), [0, 1], n=2, k=2))

    def test_three_cycle(self):
        g = lift_cycle((0, 1, 2), [0, 1, 2], n=3, k=3)
        assert list(g) == [1, -1, 0, 0, 1, -1, -1, 0, 1]
        assert tuple(g) in dense_set(graver_assignment(3, 3))

    def test_kernel_membership_random(self):
        rng = np.random.default_rng(1)
        A = realize_matrix(Assignment(4, 4))
        sampler = LiftingSampler(4, 4, 2, 4)
        for _ in range(50):
            assert not np.any(A @ as_dense(16, sampler.draw(rng)))

    def test_errors(self):
        with pytest.raises(ValueError):
            lift_cycle((0, 1), [0, 0], n=2, k=2)
        with pytest.raises(ValueError):
            lift_cycle((0, 1), [0, 5], n=2, k=2)
        with pytest.raises(ValueError):
            lift_cycle((0, 3), [0, 1], n=2, k=2)
        with pytest.raises(ValueError):
            lift_cycle((1, 1), [0, 1], n=2, k=2)


class TestGraverAssignment:
    def test_2x2_single_element(self):
        assert dense_set(graver_assignment(2, 2)) == {(1, -1, -1, 1)}

    def test_3x3_count(self):
        assert len(graver_assignment(3, 3)) == 15
        assert assignment_basis_count(3, 3) == 15

    def test_2x3_only_two_cycles(self):
        assert len(graver_assignment(2, 3)) == 3
        assert assignment_basis_count(2, 3) == 3

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_formula_suite(self, n, k):
        assert len(graver_assignment(n, k)) == assignment_basis_count(n, k)

    def test_sign_canonical_and_kernel(self):
        basis = graver_assignment(3, 4)
        A = realize_matrix(Assignment(3, 4))
        assert np.all(basis.val[:, 0] > 0)  # a row's first value is its first nonzero
        assert not np.any(A @ dense_rows(basis).T)

    def test_no_pairwise_domination(self):
        basis = graver_assignment(3, 3)
        dense = list(dense_rows(basis))
        signed = dense + [-d for d in dense]
        for g in dense:
            assert not any(dominates(h, g) for h in signed)

    def test_truncation_attaches_sampler(self):
        basis = graver_assignment(5, 5, max_cycle_len=2)
        assert len(basis) == assignment_basis_count(5, 5, max_cycle_len=2)
        assert basis.sampler is not None
        assert (basis.sampler.t_min, basis.sampler.t_max) == (3, 5)

    def test_cap_triggers_truncation(self):
        basis = graver_assignment(6, 6, enumeration_cap=10_000)
        assert basis.sampler is not None
        assert len(basis) <= 10_000

    def test_cap_below_length_two_raises(self):
        # the 225 length-2 liftings of 6x6 do not fit a cap of 100
        with pytest.raises(DimensionError, match=r"\b225\b.*\b100\b"):
            graver_assignment(6, 6, enumeration_cap=100)
        # an explicit max_cycle_len is honoured whatever the cap
        assert len(graver_assignment(6, 6, max_cycle_len=2, enumeration_cap=100)) == 225

    def test_deterministic_enumeration(self):
        a = graver_assignment(4, 3)
        b = graver_assignment(4, 3)
        assert np.array_equal(a.idx, b.idx)
        assert np.array_equal(a.val, b.val)

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionError):
            graver_assignment(1, 3)
        with pytest.raises(DimensionError):
            graver_assignment(3, 3, max_cycle_len=7)


class TestSampleLifting:
    def test_t2_structure(self):
        rng = np.random.default_rng(0)
        sampler = LiftingSampler(4, 4, 2, 2)
        for _ in range(20):
            idx, _ = sampler.draw(rng)
            assert len(idx) == 4
            assert len({i // 4 for i in idx.tolist()}) == 2  # two bricks

    def test_coverage_3x3(self):
        rng = np.random.default_rng(2)
        want = dense_set(graver_assignment(3, 3))
        sampler = LiftingSampler(3, 3, 2, 3)
        seen = set()
        for _ in range(10_000):
            seen.add(tuple(canonical(as_dense(9, sampler.draw(rng)))))
        assert seen == want

    def test_empty_range_error(self):
        with pytest.raises(ValueError):
            LiftingSampler(3, 3, 3, 2)


def padded(entries_list, width):
    """Reference rows packed the way a basis stores them: padding (0, 0) on the right."""
    idx = np.zeros((len(entries_list), width), dtype=np.int64)
    val = np.zeros((len(entries_list), width), dtype=np.int64)
    for e, entries in enumerate(entries_list):
        for s, (i, v) in enumerate(entries):
            idx[e, s], val[e, s] = i, v
    return idx, val


def reference_assignment(n, k, top):
    """Closed form one element at a time: every cycle in every brick list,
    keeping the lifting whose first entry is +1."""
    rows = []
    for cycle in hilbert_basis_cycles(k, top):
        for bricks in permutations(range(n), len(cycle)):
            g = lift_cycle(cycle, bricks, n, k)
            support = np.flatnonzero(g)
            if g[support[0]] > 0:
                rows.append(list(zip(support, g[support])))
    return padded(rows, 2 * top)


def reference_swaps(kind):
    if isinstance(kind, Cardinality):
        pairs = list(combinations(range(kind.n), 2))
    elif isinstance(kind, BrickCardinality):
        pairs = [(b * kind.k + i, b * kind.k + j)
                 for b in range(kind.n) for i, j in combinations(range(kind.k), 2)]
    else:
        pairs = [(i * kind.k + s, j * kind.k + s)
                 for i, j in combinations(range(kind.n), 2) for s in range(kind.k)]
    return padded([((i, 1), (j, -1)) for i, j in pairs], 2)


class TestArrayConstruction:
    """A basis's padded arrays equal the closed form enumerated one element
    at a time, row for row and in order."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6), st.data())
    def test_assignment_matches_reference(self, n, k, data):
        top = min(n, k)
        max_len = data.draw(st.one_of(st.none(), st.integers(2, top)))
        basis = build_basis(Assignment(n, k), max_cycle_len=max_len)
        want_idx, want_val = reference_assignment(n, k, max_len or top)
        assert np.array_equal(basis.idx, want_idx)
        assert np.array_equal(basis.val, want_val)
        assert len(basis) == predicted_cardinality(Assignment(n, k), max_len)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["ones", "brick", "coordinate"]), st.integers(2, 7), st.integers(1, 7))
    def test_swaps_match_reference(self, family, a, b):
        kind = {
            "ones": Cardinality(a),
            "brick": BrickCardinality(b, a),
            "coordinate": CoordinateCardinality(a, b),
        }[family]
        basis = build_basis(kind)
        want_idx, want_val = reference_swaps(kind)
        assert np.array_equal(basis.idx, want_idx)
        assert np.array_equal(basis.val, want_val)
        assert len(basis) == predicted_cardinality(kind)

    def test_arrays_are_read_only(self):
        basis = graver_ones(4)
        with pytest.raises(ValueError):
            basis.idx[0, 0] = 3


class TestBuildBasis:
    @pytest.mark.parametrize(
        "kind",
        [Cardinality(5), BrickCardinality(3, 4), CoordinateCardinality(4, 3), Assignment(3, 4)],
    )
    def test_matches_predicted_and_kernel(self, kind):
        basis = build_basis(kind)
        assert len(basis) == predicted_cardinality(kind)
        assert not np.any(realize_matrix(kind) @ dense_rows(basis).T)

    def test_explicit_rejected(self):
        with pytest.raises(TypeError):
            build_basis(Explicit.from_matrix([[1, 2]]))


class TestBasisFile:
    def test_round_trip(self, tmp_path):
        basis = graver_assignment(3, 3)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        back = load_basis(path)
        assert back.dim == basis.dim
        assert np.array_equal(back.idx, basis.idx)
        assert np.array_equal(back.val, basis.val)

    def test_header_line(self, tmp_path):
        path = tmp_path / "basis.txt"
        save_basis(graver_ones(3), path)
        assert path.read_text().splitlines()[0] == "dim 3"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0:1 1:-1\n")
        with pytest.raises(ValueError):
            load_basis(path)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: graver_ones(5),
            lambda: graver_brick_cardinality(3, 4),
            lambda: graver_coordinate_cardinality(4, 3),
            lambda: graver_assignment(4, 4),
            lambda: graver_assignment(5, 4, max_cycle_len=3),
            lambda: pottier_graver(np.array([[1, 2, 1], [0, 1, 3]])),
        ],
        ids=["ones", "brick", "coordinate", "assignment", "assignment-truncated", "pottier"],
    )
    def test_round_trip_arrays(self, tmp_path, make):
        basis = make()
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        back = load_basis(path)
        assert back.dim == basis.dim
        assert np.array_equal(back.idx, basis.idx)
        assert np.array_equal(back.val, basis.val)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.integers(0, 2**32 - 1), rows=st.integers(1, 2), cols=st.integers(3, 5))
    def test_round_trip_property(self, tmp_path, draw, rows, cols):
        A = np.random.default_rng(draw).integers(-2, 3, size=(rows, cols))
        assume(A.any())  # the completion oracle needs a nonzero matrix
        basis = pottier_graver(A)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        back = load_basis(path)
        assert back.dim == basis.dim
        assert np.array_equal(back.idx, basis.idx)
        assert np.array_equal(back.val, basis.val)

    @pytest.mark.parametrize(
        "text",
        ["dim 3\n0:1 1:0\n", "dim 3\n1:1 1:-1\n", "dim 3\n2:1 0:-1\n",
         "dim 3\n0:1 3:-1\n", "dim 0\n0:1\n", "dim 3\n0:1 1\n"],
        ids=["zero-value", "repeated-index", "decreasing-index", "index-at-dim", "dim-0", "no-colon"],
    )
    def test_invalid_rows_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_basis(path)

    def test_loaded_basis_matches_oracle(self, tmp_path):
        # the text format is the exchange surface for oracle comparisons
        from graveropt import pottier_graver

        path = tmp_path / "a23.txt"
        save_basis(graver_assignment(2, 3), path)
        loaded = load_basis(path)
        oracle = pottier_graver(realize_matrix(Assignment(2, 3)))
        assert dense_set(loaded) == dense_set(oracle)


class TestBasisInvariants:
    @pytest.mark.parametrize(
        "basis",
        [graver_ones(5), graver_brick_cardinality(2, 4), graver_assignment(3, 3)],
        ids=["ones", "brick", "assignment"],
    )
    def test_no_element_stored_with_its_negation(self, basis):
        assert np.all(basis.val[:, 0] > 0)  # sign-canonical, so never beside its negation
        assert len(dense_set(basis)) == len(basis)
        assert np.all(dense_rows(basis).any(axis=1))  # never the zero vector

