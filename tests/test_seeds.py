from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt import (
    Assignment,
    BrickCardinality,
    Cardinality,
    CoordinateCardinality,
    InfeasibleError,
    QuadraticInstance,
    check_feasible,
    enumerate_feasible,
    initial_assignment,
    seeds_cbqp,
    seeds_qap,
    seeds_qsap1,
    seeds_qsap2,
)
from references import seeds_cbqp_choice, seeds_qap_numpy, seeds_qsap1_choice, seeds_qsap2_choice


def binary_instance(kind, b):
    size = kind.dim
    return QuadraticInstance(
        c=np.zeros(size, dtype=np.int64),
        Q=np.zeros((size, size), dtype=np.int64),
        kind=kind,
        b=np.atleast_1d(b),
        lower=np.zeros(size, dtype=np.int64),
        upper=np.ones(size, dtype=np.int64),
    )


class TestSeedsCbqp:
    def test_unique_feasible_point(self):
        rng = np.random.default_rng(0)
        for x in seeds_cbqp(rng, 3, 3, 5):
            assert list(x) == [1, 1, 1]

    def test_50_slot_batch(self):
        rng = np.random.default_rng(0)
        inst = binary_instance(Cardinality(50), [10])
        for x in seeds_cbqp(rng, 50, 10, 50):
            assert check_feasible(inst, x)

    def test_support_coverage_near_uniform(self):
        rng = np.random.default_rng(0)
        draws = 6000
        counts = Counter(tuple(x) for x in seeds_cbqp(rng, 4, 2, draws))
        assert len(counts) == 6
        expected = draws / 6
        sigma = (draws * (1 / 6) * (5 / 6)) ** 0.5
        for c in counts.values():
            assert abs(c - expected) < 5 * sigma

    def test_out_of_range(self):
        with pytest.raises(InfeasibleError):
            seeds_cbqp(np.random.default_rng(0), 3, 4, 1)


class TestSeedsQsap1:
    def test_small_enumeration(self):
        rng = np.random.default_rng(0)
        allowed = {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}
        for x in seeds_qsap1(rng, 2, 2, [1, 1], 20):
            assert tuple(x) in allowed

    def test_feasible_by_construction(self):
        rng = np.random.default_rng(1)
        b = np.array([1, 3, 2])
        inst = binary_instance(BrickCardinality(3, 3), b)
        for x in seeds_qsap1(rng, 3, 3, b, 200):
            assert check_feasible(inst, x)

    def test_support_coverage(self):
        rng = np.random.default_rng(2)
        draws = 9000
        counts = Counter(tuple(x) for x in seeds_qsap1(rng, 2, 3, [1, 2], draws))
        assert len(counts) == 9  # C(3,1) * C(3,2)
        sigma = (draws * (1 / 9) * (8 / 9)) ** 0.5
        assert all(abs(c - draws / 9) < 5 * sigma for c in counts.values())

    def test_out_of_range(self):
        with pytest.raises(InfeasibleError):
            seeds_qsap1(np.random.default_rng(0), 2, 2, [3, 0], 1)


class TestSeedsQsap2:
    def test_k1_degenerate(self):
        rng = np.random.default_rng(0)
        for x in seeds_qsap2(rng, 2, 1, [1], 20):
            assert tuple(x) in {(1, 0), (0, 1)}

    def test_feasible_by_construction(self):
        rng = np.random.default_rng(1)
        b = np.array([1, 2])
        inst = binary_instance(CoordinateCardinality(3, 2), b)
        for x in seeds_qsap2(rng, 3, 2, b, 200):
            assert check_feasible(inst, x)

    def test_support_coverage(self):
        rng = np.random.default_rng(2)
        draws = 9000
        counts = Counter(tuple(x) for x in seeds_qsap2(rng, 3, 2, [1, 2], draws))
        assert len(counts) == 9  # C(3,1) * C(3,2)
        sigma = (draws * (1 / 9) * (8 / 9)) ** 0.5
        assert all(abs(c - draws / 9) < 5 * sigma for c in counts.values())

    def test_out_of_range(self):
        with pytest.raises(InfeasibleError):
            seeds_qsap2(np.random.default_rng(0), 2, 2, [3, 0], 1)


class TestOneCallDraws:
    """The cardinality samplers draw every subset of a call at once, and
    must draw exactly what one ``rng.choice`` per subset draws."""

    SAMPLERS = {
        "CBQP": (seeds_cbqp, seeds_cbqp_choice),
        "QSAP1": (seeds_qsap1, seeds_qsap1_choice),
        "QSAP2": (seeds_qsap2, seeds_qsap2_choice),
    }

    @classmethod
    def check(cls, klass, n, k, b, count, draw):
        mine, ref = np.random.default_rng(draw), np.random.default_rng(draw)
        sampler, reference = cls.SAMPLERS[klass]
        args = (n, b, count) if klass == "CBQP" else (n, k, b, count)
        got, want = sampler(mine, *args), reference(ref, *args)
        assert [x.dtype for x in got] == [x.dtype for x in want]
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert mine.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(
        klass=st.sampled_from(["CBQP", "QSAP1", "QSAP2"]),
        n=st.integers(1, 12),
        k=st.integers(1, 6),
        fill=st.sampled_from(["empty", "full", "random"]),
        count=st.integers(0, 20),
        draw=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_subset_choice(self, klass, n, k, fill, count, draw):
        # subsets of every size from 0 to the whole population, b = 0 and b
        # full included; each call may draw subsets of several sizes
        pop, entries = {"CBQP": (n, 1), "QSAP1": (k, n), "QSAP2": (n, k)}[klass]
        b = {"empty": np.zeros(entries, dtype=np.int64), "full": np.full(entries, pop),
             "random": np.random.default_rng(draw).integers(0, pop + 1, size=entries)}[fill]
        self.check(klass, n, k, int(b[0]) if klass == "CBQP" else b.tolist(), count, draw + 1)

    @pytest.mark.parametrize("klass", ["CBQP", "QSAP1", "QSAP2"])
    @pytest.mark.parametrize("pop", [10_000, 10_001])
    def test_large_populations(self, klass, pop):
        # above 10 000 a subset of more than pop // 50 makes choice shuffle
        # the tail of range(pop), which the one-call draws do not copy; at
        # 10 000 it still runs Floyd's algorithm
        size = pop // 50 + 7
        if klass == "CBQP":
            self.check(klass, pop, None, size, 3, 11)
        elif klass == "QSAP1":
            self.check(klass, 1, pop, [size], 3, 11)
        else:
            self.check(klass, pop, 1, [size], 3, 11)

    def test_a_negative_count_draws_nothing(self):
        for klass, n, k, b in [("CBQP", 4, None, 2), ("QSAP1", 2, 3, [1, 2]), ("QSAP2", 3, 2, [2, 1])]:
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            args = (n, b, -3) if klass == "CBQP" else (n, k, b, -3)
            assert self.SAMPLERS[klass][0](rng, *args) == []
            assert rng.bit_generator.state == state

    def test_b_must_hold_integers(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="b has an entry that is not an integer"):
            seeds_qsap1(rng, 2, 3, [1.5, 2], 2)
        with pytest.raises(ValueError, match="b has an entry that is not an integer"):
            seeds_qsap2(rng, 3, 2, [2.7, 1], 2)
        with pytest.raises(ValueError, match="b has an entry that is not an integer"):
            seeds_cbqp(rng, 4, 2.5, 2)
        with pytest.raises(ValueError, match="b has an entry that is not an integer: 1.5"):
            seeds_qap(rng, 2, 2, [1.5, 1, 1, 1.5], 1)
        with pytest.raises(ValueError, match="r has an entry that is not an integer: 1.7"):
            initial_assignment([1.7, 1], [1, 1.2])
        with pytest.raises(ValueError, match="c has an entry that is not an integer: 1.2"):
            initial_assignment([2, 1], [1, 1.2])
        # integral floats are integers, as for an instance's b
        whole = seeds_qsap1(np.random.default_rng(1), 2, 3, [1.0, 2.0], 4)
        assert [x.tobytes() for x in whole] == [
            x.tobytes() for x in seeds_qsap1(np.random.default_rng(1), 2, 3, [1, 2], 4)
        ]
        whole = seeds_qap(np.random.default_rng(1), 3, 3, [1.0, 2.0, 1.0, 2.0, 1.0, 1.0], 4)
        assert [x.tobytes() for x in whole] == [
            x.tobytes() for x in seeds_qap(np.random.default_rng(1), 3, 3, [1, 2, 1, 2, 1, 1], 4)
        ]


class TestInitialAssignment:
    def test_permutation(self):
        a = initial_assignment([1, 1], [1, 1])
        assert list(a.sum(axis=1)) == [1, 1]
        assert list(a.sum(axis=0)) == [1, 1]

    def test_forced(self):
        a = initial_assignment([2, 0], [1, 1])
        assert a.tolist() == [[1, 1], [0, 0]]

    def test_sum_mismatch(self):
        with pytest.raises(InfeasibleError):
            initial_assignment([2, 1], [1, 1])

    def test_dominance_failure(self):
        # margins in range and balanced, but col 0 needs two rows while row 1 is empty
        with pytest.raises(InfeasibleError):
            initial_assignment([2, 0], [2, 0])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_margins_realized(self, seed):
        rng = np.random.default_rng(seed)
        witness = (rng.random((3, 4)) < 0.5).astype(np.int64)
        a = initial_assignment(witness.sum(axis=1), witness.sum(axis=0))
        assert np.array_equal(a.sum(axis=1), witness.sum(axis=1))
        assert np.array_equal(a.sum(axis=0), witness.sum(axis=0))


class TestDegenerateCounts:
    def test_cbqp_empty_and_full(self):
        rng = np.random.default_rng(0)
        assert all(not x.any() for x in seeds_cbqp(rng, 4, 0, 3))
        assert all(x.all() for x in seeds_cbqp(rng, 4, 4, 3))

    def test_qsap1_zero_brick(self):
        rng = np.random.default_rng(0)
        for x in seeds_qsap1(rng, 2, 3, [0, 3], 5):
            assert list(x[:3]) == [0, 0, 0]
            assert list(x[3:]) == [1, 1, 1]

    def test_qsap2_zero_slot(self):
        rng = np.random.default_rng(0)
        for x in seeds_qsap2(rng, 2, 2, [0, 2], 5):
            assert list(x) == [0, 1, 0, 1]

    def test_qap_single_point_margins(self):
        rng = np.random.default_rng(0)
        b = np.array([2, 0, 1, 1])  # row sums (2,0), column sums (1,1): forced matrix
        for x in seeds_qap(rng, 2, 2, b, 5):
            assert list(x) == [1, 0, 1, 0]


class TestSeedsQap:
    def test_margins_preserved(self):
        rng = np.random.default_rng(0)
        b = np.array([2, 1, 1, 1, 2, 1])
        inst = binary_instance(Assignment(3, 3), b)
        for x in seeds_qap(rng, 3, 3, b, 100):
            assert check_feasible(inst, x)

    def test_two_permutations_reached(self):
        rng = np.random.default_rng(1)
        seen = {tuple(x) for x in seeds_qap(rng, 2, 2, np.ones(4, dtype=np.int64), 200)}
        assert seen == {(1, 0, 0, 1), (0, 1, 1, 0)}

    def test_all_six_permutations_reached(self):
        rng = np.random.default_rng(2)
        seen = {tuple(x) for x in seeds_qap(rng, 3, 3, np.ones(6, dtype=np.int64), 6000)}
        assert len(seen) == 6

    def test_infeasible_margins(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InfeasibleError):
            seeds_qap(rng, 2, 2, np.array([2, 1, 1, 1]), 5)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), k=st.integers(2, 6), draw=st.integers(0, 2**32 - 1))
    def test_every_seed_feasible(self, n, k, draw):
        # margins of a random 0/1 k x n matrix, so always realizable
        rng = np.random.default_rng(draw)
        witness = (rng.random((k, n)) < rng.random()).astype(np.int64)
        b = np.concatenate([witness.sum(axis=1), witness.sum(axis=0)])
        inst = binary_instance(Assignment(n, k), b)
        seeds = seeds_qap(rng, n, k, b, int(rng.integers(1, 20)))
        assert all(check_feasible(inst, x) for x in seeds)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 6), draw=st.integers(0, 2**32 - 1))
    def test_walk_matches_the_numpy_walk(self, n, k, draw):
        # the walk on Python lists makes the numpy walk's rng calls in the
        # same order, empty pools included, so it draws the same seeds
        rng = np.random.default_rng(draw)
        witness = (rng.random((k, n)) < rng.random()).astype(np.int64)
        b = np.concatenate([witness.sum(axis=1), witness.sum(axis=0)])
        count = int(rng.integers(1, 12))
        got = seeds_qap(np.random.default_rng(draw), n, k, b, count)
        want = seeds_qap_numpy(np.random.default_rng(draw), n, k, b, count)
        assert [x.dtype for x in got] == [x.dtype for x in want]
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("size", range(10))
    def test_shuffling_a_list_deals_as_permutation_does(self, size):
        # a trade deals its pool with rng.shuffle on a Python list; it must
        # make rng.permutation's draws and swaps, empty and one-slot pools too
        for draw in range(20):
            pool = list(range(3, 3 + 2 * size, 2))
            mine, ref = np.random.default_rng(draw), np.random.default_rng(draw)
            dealt = ref.permutation(np.array(pool, dtype=np.int64)).tolist()
            mine.shuffle(pool)
            assert pool == dealt
            assert mine.integers(2**40) == ref.integers(2**40)


class TestSeedSpread:
    """The paper's seeds are "uniformly spread out": on enumerable
    instances, the total-variation (TV) distance between the seeds drawn
    and uniform over the feasible set (``enumerate_feasible`` is the
    oracle) is within 1.5 times that of as many truly uniform draws."""

    DRAWS = 5000

    @staticmethod
    def tv(draws, points):
        index = {p.tobytes(): i for i, p in enumerate(points)}
        counts = np.bincount([index[x.tobytes()] for x in draws], minlength=len(points))
        return 0.5 * np.abs(counts / len(draws) - 1 / len(points)).sum()

    def floor(self, size):
        # the median TV of five batches of truly uniform draws
        rng = np.random.default_rng(0)
        return np.median([
            0.5 * np.abs(np.bincount(rng.integers(0, size, self.DRAWS), minlength=size)
                         / self.DRAWS - 1 / size).sum()
            for _ in range(5)
        ])

    def check(self, draws, kind, b):
        points = enumerate_feasible(binary_instance(kind, b))
        assert self.tv(draws, points) < 1.5 * self.floor(len(points))

    @pytest.mark.parametrize("sampler, kind, args", [
        (seeds_cbqp, Cardinality(10), (10, 3)),  # 120 points
        (seeds_qsap1, BrickCardinality(3, 4), (3, 4, [2, 2, 1])),  # 144 points
        (seeds_qsap2, CoordinateCardinality(4, 3), (4, 3, [2, 2, 1])),  # 144 points
    ], ids=["cbqp", "qsap1", "qsap2"])
    def test_subset_samplers(self, sampler, kind, args):
        draws = sampler(np.random.default_rng(1), *args, self.DRAWS)
        self.check(draws, kind, args[-1])

    @pytest.fixture(scope="class")
    def qap_runs(self):
        # 4x4, all margins 2 (90 points): one call per draw, its first 4 seeds
        rng = np.random.default_rng(1)
        return [seeds_qap(rng, 4, 4, np.full(8, 2), 4) for _ in range(self.DRAWS)]

    @pytest.mark.parametrize("index", [
        pytest.param(0, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 9: seed 0 follows only 2n curveball trades from the greedy "
            "matrix, too few to mix (TV about 0.1 against a floor of 0.05)"))),
        1, 2, 3,
    ])
    def test_qap_by_seed_index(self, qap_runs, index):
        self.check([seeds[index] for seeds in qap_runs], Assignment(4, 4), np.full(8, 2))
