import math
from fractions import Fraction

import numpy as np
import pytest

from graveropt import (
    Assignment,
    Cardinality,
    InfeasibleError,
    QuadraticInstance,
    check_feasible,
    enumerate_feasible,
    generate_instance,
    initial_assignment,
    objective,
    parse_instance,
    seeds_qap,
    serialize_instance,
)
from graveropt.solver import prepare_moves
from references import basis_of


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


class TestObjective:
    def test_identity_quadratic(self):
        inst = binary_instance(Cardinality(2), [2], Q=np.eye(2, dtype=np.int64))
        assert objective(inst, [1, 1]) == 2

    def test_linear_only(self):
        inst = binary_instance(Cardinality(2), [1], c=[1, 2])
        assert objective(inst, [1, 0]) == 1

    def test_asymmetric_q(self):
        inst = binary_instance(Cardinality(2), [2], Q=[[0, 1], [0, 0]])
        assert objective(inst, [1, 1]) == 1

    def test_dimension_mismatch(self):
        inst = binary_instance(Cardinality(2), [1])
        with pytest.raises(ValueError):
            objective(inst, [1, 0, 0])

    def test_huge_integers_stay_exact(self):
        # the true value exceeds int64; evaluation must route around numpy
        n = 16
        big = 2**58
        inst = binary_instance(
            Cardinality(n), [n], c=np.full(n, big, dtype=np.int64),
            Q=np.full((n, n), big, dtype=np.int64),
        )
        x = np.ones(n, dtype=np.int64)
        want = n * big + n * n * big
        assert want >= 2**63  # would wrap in int64
        assert objective(inst, x) == want
        from graveropt.problems import batch_objective

        assert batch_objective(inst, x[None, :]) == [want]


class TestObjectiveDelta:
    """The descent engine's move deltas are f(x+g) - f(x), computed on the
    data times the LCM of its denominators (1 for integer data)."""

    @staticmethod
    def engine_deltas(inst, x, g):
        """The delta of +g from the engine's per-element terms, c.g + w.g +
        g'Qg (None when x+g leaves the box), and the deltas one round over
        the basis {g} reports, keyed by the sign of the move; a best-policy
        tile over {g} must report the same improving deltas.  g is dense."""
        basis = basis_of(inst.size, [g])
        engine = prepare_moves(inst, basis).start([np.asarray(x)])
        idx, val = basis.idx[0], basis.val[0]
        moved = engine.x[0] + g
        plus = None
        if np.all((moved >= inst.lower) & (moved <= inst.upper)):
            plus = engine.cg[0] + (engine.w[0][idx] * val).sum() + engine.qgg[0]
        _, _, moves, deltas = engine._scan(np.array([0]), np.array([0]), np.array([2]))
        scanned = {1 - 2 * j: d for j, d in zip(moves.tolist(), deltas.tolist())}
        tile = engine._tile(np.array([0]), 0, 1)[0].tolist()  # best-policy tiles agree
        assert {1 - 2 * j: d for j, d in enumerate(tile) if d < 0} == scanned
        return plus, scanned

    def assert_engine_matches(self, inst, x, g, scale=1):
        plus, scanned = self.engine_deltas(inst, x, g)
        for sign in (1, -1):
            y = np.asarray(x) + sign * g
            feasible = bool(np.all((y >= inst.lower) & (y <= inst.upper)))
            direct = (objective(inst, y) - objective(inst, x)) * scale if feasible else None
            if sign == 1:
                assert plus == direct
            assert scanned.get(sign) == (direct if feasible and direct < 0 else None)

    def test_null_move(self):
        inst = binary_instance(Cardinality(3), [1], Q=np.eye(3, dtype=np.int64))
        zero = np.zeros(3, dtype=np.int64)
        assert self.engine_deltas(inst, [1, 0, 0], zero) == (0, {})
        self.assert_engine_matches(inst, [1, 0, 0], zero)

    def test_symmetric_swap(self):
        inst = binary_instance(Cardinality(2), [1], Q=np.eye(2, dtype=np.int64))
        g = np.array([-1, 1])
        assert self.engine_deltas(inst, [1, 0], g) == (0, {})  # -g leaves the box

    def test_matches_direct_difference_int(self):
        # entries up to 2 on a 0..2 box: some moves leave it, and the room
        # bits alone do not decide which
        rng = np.random.default_rng(0)
        for _ in range(100):
            base = generate_instance(rng, "CBQP", 6)
            inst = QuadraticInstance(
                c=base.c, Q=base.Q, kind=base.kind, b=base.b,
                lower=np.zeros(6, dtype=np.int64), upper=np.full(6, 2, dtype=np.int64),
            )
            x = rng.integers(0, 2, size=6)
            g = rng.integers(-2, 3, size=6)
            self.assert_engine_matches(inst, x, g)

    def test_matches_direct_difference_rational(self):
        rng = np.random.default_rng(1)
        n = 6
        c = np.array([Fraction(int(v), 3) for v in rng.integers(-9, 10, n)], dtype=object)
        Q = np.array(
            [[Fraction(int(v), 7) for v in row] for row in rng.integers(-9, 10, (n, n))],
            dtype=object,
        )
        inst = binary_instance(Cardinality(n), [2], c=c, Q=Q)
        scale = math.lcm(*(v.denominator for v in [*c, *Q.ravel()]))
        for _ in range(100):
            x = rng.integers(0, 2, size=n)
            g = rng.integers(-1, 2, size=n)
            self.assert_engine_matches(inst, x, g, scale)


class TestFeasibility:
    def test_cardinality_examples(self):
        inst = binary_instance(Cardinality(3), [2])
        assert check_feasible(inst, [1, 1, 0])
        assert not check_feasible(inst, [2, 0, 0])  # bound violation

    def test_permutation_matrix(self):
        inst = binary_instance(Assignment(2, 2), [1, 1, 1, 1])
        assert check_feasible(inst, np.eye(2, dtype=np.int64).T.reshape(-1))


class TestInstanceModel:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            QuadraticInstance(
                c=np.zeros(2),
                Q=np.zeros((2, 2)),
                kind=Cardinality(2),
                b=[1],
                lower=[1, 1],
                upper=[0, 0],
            )

    def test_b_shape_validated(self):
        with pytest.raises(ValueError):
            binary_instance(Assignment(2, 2), [1, 1])

    def test_q_shape_validated(self):
        with pytest.raises(ValueError):
            QuadraticInstance(
                c=np.zeros(2),
                Q=np.zeros((3, 3)),
                kind=Cardinality(2),
                b=[1],
                lower=[0, 0],
                upper=[1, 1],
            )

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["c", "Q"])
    def test_non_finite_data_rejected(self, field, value):
        data = {"c": np.zeros(2), "Q": np.zeros((2, 2))}
        data[field][-1] = value
        with pytest.raises(ValueError, match=f"^{field} has a non-finite"):
            binary_instance(Cardinality(2), [1], c=data["c"], Q=data["Q"])

    @pytest.mark.parametrize("value", [1.5, "3", None], ids=["half", "str", "none"])
    @pytest.mark.parametrize("field", ["b", "lower", "upper"])
    def test_non_integer_entry_rejected(self, field, value):
        data = {"b": [1], "lower": [0, 0], "upper": [1, 1]}
        data[field] = [value] + data[field][1:]
        with pytest.raises(ValueError, match=f"^{field} has an entry that is not an integer"):
            QuadraticInstance(c=np.zeros(2), Q=np.zeros((2, 2)), kind=Cardinality(2), **data)

    def test_non_finite_float_among_fractions_rejected(self):
        Q = np.array([[Fraction(1, 2), 0.0], [float("nan"), 1]], dtype=object)
        with pytest.raises(ValueError, match="^Q has a non-finite"):
            binary_instance(Cardinality(2), [1], Q=Q)


class TestAssignment2D:
    """A k x n assignment matrix as ``initial_assignment`` returns it, and
    the flat vector ``seeds_qap`` makes of it: column j is brick j."""

    def test_vec_round_trip(self):
        # non-square, asymmetric margins: a row-major flattening is infeasible
        b = np.array([3, 1, 2, 1, 1])  # row sums (3, 1), column sums (2, 1, 1)
        inst = QuadraticInstance(
            c=np.zeros(6, dtype=np.int64), Q=np.zeros((6, 6), dtype=np.int64),
            kind=Assignment(3, 2), b=b, lower=np.zeros(6), upper=np.ones(6),
        )
        rng = np.random.default_rng(0)
        for x in seeds_qap(rng, 3, 2, b, 20):
            assert check_feasible(inst, x)
            assert np.array_equal(x.reshape(3, 2).T.sum(axis=1), b[:2])

    def test_columns_are_bricks(self):
        # forced margins: every seed is the flattened greedy matrix
        b = np.array([3, 0, 1, 1, 1])
        assert initial_assignment(b[:2], b[2:]).tolist() == [[1, 1, 1], [0, 0, 0]]
        for x in seeds_qap(np.random.default_rng(0), 3, 2, b, 5):
            assert list(x) == [1, 0, 1, 0, 1, 0]

    def test_margins(self):
        a = initial_assignment([2, 1], [1, 2])
        assert list(a.sum(axis=1)) == [2, 1]
        assert list(a.sum(axis=0)) == [1, 2]

    def test_rejects_non_binary(self):
        # the integer matrix [[2]] has these margins, no 0/1 matrix does
        with pytest.raises(InfeasibleError):
            initial_assignment([2], [2])


class TestGenerator:
    def test_cbqp_shape(self):
        rng = np.random.default_rng(0)
        inst = generate_instance(rng, "CBQP", 50)
        assert inst.kind == Cardinality(50)
        assert inst.c.shape == (50,) and inst.Q.shape == (50, 50)
        assert 1 <= inst.b[0] <= 49
        assert np.all(inst.lower == 0) and np.all(inst.upper == 1)

    def test_qap_margins_balanced(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = generate_instance(rng, "QAP", 2, 2)
            assert inst.b[:2].sum() == inst.b[2:].sum()

    @pytest.mark.parametrize("klass,n,k", [("CBQP", 8, None), ("QSAP1", 3, 3), ("QSAP2", 3, 3), ("QAP", 3, 3)])
    def test_always_feasible(self, klass, n, k):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = generate_instance(rng, klass, n, k)
            assert enumerate_feasible(inst).shape[0] >= 1

    def test_density_and_range(self):
        rng = np.random.default_rng(0)
        inst = generate_instance(rng, "CBQP", 30, density=0.2, value_range=(-5, 5))
        nonzero = np.count_nonzero(inst.Q)
        assert nonzero < 0.35 * 30 * 30
        assert inst.Q.min() >= -5 and inst.Q.max() <= 5

    def test_convex_flag_makes_psd(self):
        rng = np.random.default_rng(0)
        inst = generate_instance(rng, "CBQP", 8, convex=True)
        eigs = np.linalg.eigvalsh((inst.Q + inst.Q.T).astype(float) / 2)
        assert eigs.min() >= -1e-9

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            generate_instance(np.random.default_rng(0), "XXX", 3)


class TestFileFormat:
    @pytest.mark.parametrize("klass,n,k", [("CBQP", 5, None), ("QSAP1", 2, 3), ("QSAP2", 3, 2), ("QAP", 3, 3)])
    def test_round_trip(self, klass, n, k):
        rng = np.random.default_rng(11)
        inst = generate_instance(rng, klass, n, k, name="rt")
        back = parse_instance(serialize_instance(inst))
        assert back.name == inst.name
        assert back.kind == inst.kind
        assert np.array_equal(back.c, inst.c)
        assert np.array_equal(back.Q, inst.Q)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.lower, inst.lower)
        assert np.array_equal(back.upper, inst.upper)

    def test_round_trip_rational(self):
        c = np.array([Fraction(1, 3), Fraction(-2, 7)], dtype=object)
        Q = np.array([[Fraction(0), Fraction(5, 2)], [Fraction(1), Fraction(-3)]], dtype=object)
        inst = QuadraticInstance(
            c=c, Q=Q, kind=Cardinality(2), b=[1], lower=[0, 0], upper=[1, 1], name="frac"
        )
        back = parse_instance(serialize_instance(inst))
        assert np.array_equal(back.c, inst.c)
        assert np.array_equal(back.Q, inst.Q)

    def test_round_trip_float(self):
        inst = QuadraticInstance(
            c=np.array([0.5, -1.25]),
            Q=np.array([[0.0, 1.5], [0.0, 2.0]]),
            kind=Cardinality(2),
            b=[1],
            lower=[0, 0],
            upper=[1, 1],
        )
        back = parse_instance(serialize_instance(inst))
        assert back.c.dtype == np.float64
        assert np.array_equal(back.c, inst.c)
        assert np.array_equal(back.Q, inst.Q)

    def test_required_fields_present(self):
        import json

        rng = np.random.default_rng(0)
        doc = json.loads(serialize_instance(generate_instance(rng, "QAP", 2, 2)))
        for key in ("name", "class", "n", "k", "c", "Q", "b", "l", "u"):
            assert key in doc

    def test_round_trip_explicit_kind(self):
        from graveropt import Explicit

        kind = Explicit.from_matrix([[1, 2, 0], [0, 1, 1]])
        inst = QuadraticInstance(
            c=np.array([1, 2, 3]),
            Q=np.eye(3, dtype=np.int64),
            kind=kind,
            b=[3, 2],
            lower=[0, 0, 0],
            upper=[2, 2, 2],
            name="expl",
        )
        back = parse_instance(serialize_instance(inst))
        assert back.kind == kind
        assert np.array_equal(back.upper, inst.upper)
