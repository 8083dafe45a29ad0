from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt import (
    Assignment,
    BrickCardinality,
    Cardinality,
    CoordinateCardinality,
    DimensionError,
    Explicit,
    GraverBasis,
    LiftingSampler,
    SparseIntVector,
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
from references import hilbert_cycle_count, lift_cycle


def dense_set(basis):
    return {tuple(g.to_dense()) for g in basis}


def as_vector(dim, drawn):
    idx, val = drawn
    return SparseIntVector(dim, tuple(zip(idx.tolist(), val.tolist())))


def dominates(h, g):
    # h below g in the sign-compatible partial order, h != g
    h, g = np.asarray(h), np.asarray(g)
    return (
        not np.array_equal(h, g)
        and np.all(h * g >= 0)
        and np.all(np.abs(h) <= np.abs(g))
    )


class TestSparseIntVector:
    def test_round_trip(self):
        v = SparseIntVector.from_dense([0, 2, 0, -1])
        assert v.entries == ((1, 2), (3, -1))
        assert list(v.to_dense()) == [0, 2, 0, -1]

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SparseIntVector(3, ((1, 0),))
        with pytest.raises(ValueError):
            SparseIntVector(3, ((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            SparseIntVector(3, ((3, 1),))

    def test_canonical_sign(self):
        v = SparseIntVector.from_dense([0, -1, 1])
        assert not v.is_canonical
        assert v.canonical().entries == ((1, 1), (2, -1))
        assert (-v).entries == ((1, 1), (2, -1))


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
        assert basis.canonical_set() == oracle.canonical_set()


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
        assert basis.canonical_set() == oracle.canonical_set()


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
        assert list(g.to_dense()) == [1, -1, -1, 1]
        assert dense_set(graver_assignment(2, 2)) == {tuple(g.to_dense())}

    def test_brick_order_swap_negates(self):
        g = lift_cycle((0, 1), [1, 0], n=2, k=2)
        assert list(g.to_dense()) == [-1, 1, 1, -1]
        assert g == -lift_cycle((0, 1), [0, 1], n=2, k=2)

    def test_three_cycle(self):
        g = lift_cycle((0, 1, 2), [0, 1, 2], n=3, k=3)
        assert g.entries == ((0, 1), (1, -1), (4, 1), (5, -1), (6, -1), (8, 1))
        assert g.canonical().entries in graver_assignment(3, 3).canonical_set()

    def test_kernel_membership_random(self):
        rng = np.random.default_rng(1)
        A = realize_matrix(Assignment(4, 4))
        sampler = LiftingSampler(4, 4, 2, 4)
        for _ in range(50):
            g = as_vector(16, sampler.draw(rng))
            assert not np.any(A @ g.to_dense())

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
        for g in basis:
            assert g.entries[0][1] > 0
            assert not np.any(A @ g.to_dense())

    def test_no_pairwise_domination(self):
        basis = graver_assignment(3, 3)
        dense = [g.to_dense() for g in basis]
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
        assert [g.entries for g in a] == [g.entries for g in b]

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
            g = as_vector(16, sampler.draw(rng))
            assert len(g.entries) == 4
            bricks = {i // 4 for i, _ in g.entries}
            assert len(bricks) == 2

    def test_coverage_3x3(self):
        rng = np.random.default_rng(2)
        want = graver_assignment(3, 3).canonical_set()
        sampler = LiftingSampler(3, 3, 2, 3)
        seen = set()
        for _ in range(10_000):
            seen.add(as_vector(9, sampler.draw(rng)).canonical().entries)
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
            if g.entries[0][1] > 0:
                rows.append(g.entries)
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
        A = realize_matrix(kind)
        for g in basis:
            assert not np.any(A @ g.to_dense())

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
        assert [g.entries for g in back] == [g.entries for g in basis]

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
        assert back.canonical_set() == basis.canonical_set()

    def test_loaded_basis_matches_oracle(self, tmp_path):
        # the text format is the exchange surface for oracle comparisons
        from graveropt import pottier_graver

        path = tmp_path / "a23.txt"
        save_basis(graver_assignment(2, 3), path)
        loaded = load_basis(path)
        oracle = pottier_graver(realize_matrix(Assignment(2, 3)))
        assert loaded.canonical_set() == oracle.canonical_set()


class TestBasisInvariants:
    @pytest.mark.parametrize(
        "basis",
        [graver_ones(5), graver_brick_cardinality(2, 4), graver_assignment(3, 3)],
        ids=["ones", "brick", "assignment"],
    )
    def test_no_element_stored_with_its_negation(self, basis):
        assert len(basis.canonical_set()) == len(basis)
        assert all(g.is_canonical for g in basis)
        assert all(g.entries for g in basis)  # never the zero vector


class TestBasisDraw:
    def test_draw_signed_elements(self):
        rng = np.random.default_rng(0)
        basis = graver_ones(4)
        seen_negative = False
        for _ in range(50):
            g = as_vector(4, basis.draw(rng))
            assert abs(g.entries[0][1]) == 1
            seen_negative |= g.entries[0][1] < 0
        assert seen_negative

    def test_empty_without_sampler(self):
        rng = np.random.default_rng(0)
        empty = GraverBasis.from_elements(2, ())
        with pytest.raises(ValueError):
            empty.draw(rng)
