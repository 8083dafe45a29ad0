import csv
import functools
import hashlib
import json

import numpy as np
import pytest

import graveropt.cli
from graveropt import Assignment, build_basis, graver_assignment, load_basis, load_instance
from graveropt.cli import _bases_match, main
from graveropt.problems import _objective_scalar
from references import basis_of


def run(argv):
    return main(argv)


class TestGenerate:
    def test_writes_instances(self, tmp_path):
        out = tmp_path / "inst"
        assert run([
            "generate", "--class", "QSAP1", "--n", "12", "--k", "3",
            "--count", "2", "--rng-seed", "9", "--out-dir", str(out),
        ]) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 2
        inst = load_instance(files[0])
        assert inst.size == 36

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run([
                "generate", "--class", "CBQP", "--n", "10",
                "--count", "1", "--rng-seed", "4", "--out-dir", str(out),
            ])
        fa, fb = next(a.glob("*.json")), next(b.glob("*.json"))
        assert fa.read_bytes() == fb.read_bytes()

    def test_count_zero(self, tmp_path):
        out = tmp_path / "none"
        assert run([
            "generate", "--class", "CBQP", "--n", "5", "--count", "0",
            "--out-dir", str(out),
        ]) == 0
        assert list(out.glob("*.json")) == []

    @pytest.mark.parametrize("flag, value", [
        ("--count", "-2"), ("--count", "x"),
        ("--density", "-1"), ("--density", "7"), ("--density", "nan"),
    ])
    def test_count_and_density_out_of_range_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "none"
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--class", "CBQP", "--n", "5", flag, value, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


    def test_value_range_low_above_high_rejected(self, tmp_path, capsys):
        out = tmp_path / "none"
        argv = ["generate", "--class", "CBQP", "--n", "5", "--out-dir", str(out)]
        assert run(argv + ["--value-range", "5", "-5"]) == 2
        assert "--value-range" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv + ["--value-range", "3", "3"]) == 0  # a single value is a range
        assert set(load_instance(next(out.glob("*.json"))).c.tolist()) == {3}


class TestGraver:
    def test_cardinality_50(self, capsys):
        assert run(["graver", "--kind", "cardinality", "--n", "50"]) == 0
        assert "predicted=1225 actual=1225" in capsys.readouterr().out

    def test_assignment_counts(self, capsys):
        assert run(["graver", "--kind", "assignment", "--n", "3", "--k", "3"]) == 0
        assert "predicted=15 actual=15" in capsys.readouterr().out
        assert run(["graver", "--kind", "assignment", "--n", "2", "--k", "2"]) == 0
        assert "predicted=1 actual=1" in capsys.readouterr().out

    def test_basis_file(self, tmp_path):
        path = tmp_path / "b.txt"
        run(["graver", "--kind", "brick", "--n", "2", "--k", "3", "--out", str(path)])
        basis = load_basis(path)
        assert len(basis) == 6
        assert basis.dim == 6

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "dir" / "b.txt"
        assert run(["graver", "--kind", "brick", "--n", "2", "--k", "3", "--out", str(path)]) == 2
        assert "cannot write the basis" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_assignment_file_loads_to_built_arrays(self, tmp_path):
        path = tmp_path / "a.txt"
        assert run([
            "graver", "--kind", "assignment", "--n", "5", "--k", "4",
            "--max-cycle-len", "3", "--out", str(path),
        ]) == 0
        loaded = load_basis(path)
        built = build_basis(Assignment(5, 4), max_cycle_len=3)
        assert np.array_equal(loaded.idx, built.idx)
        assert np.array_equal(loaded.val, built.val)

    @pytest.mark.parametrize("argv, digest", [
        (["--kind", "cardinality", "--n", "5"],
         "bbf973a91a49f356c488587d01874d49192916c2c25c9be9a868ccc0c4d84bcc"),
        (["--kind", "brick", "--n", "3", "--k", "4"],
         "48f80686ec0f306738b7a6ab8bda815b2803cbf3012f36170407b723e4a84656"),
        (["--kind", "coordinate", "--n", "4", "--k", "3"],
         "fa58ed285a91779a223252275c19d3f9800c763200fbaef182c1fe81fa2f3ef8"),
        (["--kind", "assignment", "--n", "4", "--k", "4"],
         "0a7219f9c092fc4a2328b6f12a5c79b69aeaca416b9442785246104cd7c6eb7c"),
        (["--kind", "assignment", "--n", "5", "--k", "4", "--max-cycle-len", "3"],
         "2c689fb5119b77be359ccb9baa579d248787b8bbaa8583459e1dbe6226ca1bd0"),
    ], ids=["cardinality-5", "brick-3x4", "coordinate-4x3", "assignment-4x4", "assignment-5x4-len3"])
    def test_out_file_digest(self, tmp_path, argv, digest):
        # the text format is pinned byte for byte
        path = tmp_path / "b.txt"
        assert run(["graver", *argv, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_cap_exceeded_advises_truncation(self, capsys):
        code = run(["graver", "--kind", "assignment", "--n", "8", "--k", "8", "--cap", "1000"])
        assert code == 2
        assert "--max-cycle-len" in capsys.readouterr().err

    def test_truncated_enumeration(self, capsys):
        code = run([
            "graver", "--kind", "assignment", "--n", "8", "--k", "8",
            "--cap", "1000", "--max-cycle-len", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sampler attached for cycle lengths 3..8" in out


class TestSolve:
    @pytest.fixture()
    def instance_dir(self, tmp_path):
        out = tmp_path / "inst"
        run([
            "generate", "--class", "QSAP2", "--n", "5", "--k", "3",
            "--count", "2", "--rng-seed", "1", "--out-dir", str(out),
        ])
        return out

    def test_results_and_summary(self, instance_dir, tmp_path):
        out = tmp_path / "run"
        files = sorted(str(p) for p in instance_dir.glob("*.json"))
        assert run(["solve", *files, "--seeds", "10", "--rng-seed", "2", "--out", str(out)]) == 0
        results = sorted(out.glob("*.result.json"))
        assert len(results) == 2
        doc = json.loads(results[0].read_text())
        for key in ("name", "best_objective", "best_x", "seed_count", "terminal_values",
                    "path_lengths", "landscape", "wall_ms"):
            assert key in doc
        assert doc["seed_count"] == 10
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance", "size", "best_f", "distinct_terminals", "best_share", "wall_ms"]
        assert len(rows) == 3

    def test_byte_identical_reruns(self, instance_dir, tmp_path):
        files = sorted(str(p) for p in instance_dir.glob("*.json"))
        outs = []
        for tag, threads in (("r1", "1"), ("r2", "8"), ("r3", "1")):
            out = tmp_path / tag
            assert run([
                "solve", *files, "--seeds", "10", "--rng-seed", "2",
                "--threads", threads, "--no-timing", "--out", str(out),
            ]) == 0
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_dump_seeds(self, instance_dir, tmp_path):
        out = tmp_path / "dump"
        files = sorted(str(p) for p in instance_dir.glob("*.json"))[:1]
        run(["solve", *files, "--seeds", "4", "--dump-seeds", "--out", str(out)])
        doc = json.loads(next(out.glob("*.result.json")).read_text())
        assert len(doc["seeds"]) == 4

    def test_default_seed_count_is_problem_size(self, instance_dir, tmp_path):
        out = tmp_path / "defaults"
        files = sorted(str(p) for p in instance_dir.glob("*.json"))[:1]
        run(["solve", *files, "--out", str(out)])
        doc = json.loads(next(out.glob("*.result.json")).read_text())
        assert doc["seed_count"] == 15  # k*n for the block classes

    def test_per_seed_csv(self, instance_dir, tmp_path):
        out = tmp_path / "per_seed"
        files = sorted(str(p) for p in instance_dir.glob("*.json"))[:1]
        run(["solve", *files, "--seeds", "6", "--per-seed-csv", "--out", str(out)])
        with open(next(out.glob("*.seeds.csv"))) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed_index", "terminal_f", "steps"]
        assert len(rows) == 7

    @pytest.mark.parametrize(
        "flag",
        [["--sampler-budget", "5"], ["--walk-len", "1", "3"], ["--max-cycle-len", "2"]],
        ids=["budget", "walk", "max-cycle-len"],
    )
    def test_removed_flags_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            run(["solve", str(tmp_path / "never-read.json"), *flag, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "summary.csv").exists()

    def test_explicit_instance_solved_via_completion(self, tmp_path):
        doc = {
            "name": "expl", "class": "explicit", "n": None, "k": None,
            "A": [[1, 1, 1, 1]],
            "c": [3, 1, 4, 1], "Q": [[0] * 4] * 4,
            "b": [2], "l": [0] * 4, "u": [1] * 4,
        }
        path = tmp_path / "expl.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        # explicit kinds have no direct seed sampler; exercise via library seeds
        from graveropt import enumerate_feasible, load_instance, solve

        inst = load_instance(path)
        report = solve(inst, seeds=list(enumerate_feasible(inst)))
        assert report.best.terminal_f == 2

    def test_infeasible_instance_errors(self, tmp_path):
        bad = {
            "name": "bad", "class": "QAP", "n": 2, "k": 2,
            "c": [0, 0, 0, 0], "Q": [[0] * 4] * 4,
            "b": [2, 1, 1, 1],  # row total 3 != column total 2
            "l": [0] * 4, "u": [1] * 4,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "run"
        code = run(["solve", str(path), "--out", str(out)])
        assert code == 1
        doc = json.loads((out / "bad.result.json").read_text())
        assert "error" in doc

    def test_bad_files_do_not_stop_the_batch(self, tmp_path):
        good = tmp_path / "in"
        run(["generate", "--class", "CBQP", "--n", "6", "--rng-seed", "2", "--out-dir", str(good)])
        broken = tmp_path / "broken.json"
        broken.write_text('{"name": "broken", "class": ')
        lacking = tmp_path / "lacking.json"
        lacking.write_text(json.dumps({"name": "lacking", "class": "CBQP", "n": 3}))
        missing = tmp_path / "missing.json"
        paths = [broken, lacking, missing, next(good.glob("*.json"))]
        out = tmp_path / "run"
        assert run(["solve", *map(str, paths), "--seeds", "3", "--out", str(out)]) == 1
        for name in ("broken", "lacking", "missing"):
            doc = json.loads((out / f"{name}.result.json").read_text())
            assert doc["name"] == name and doc["error"]
        assert "field 'c'" in json.loads((out / "lacking.result.json").read_text())["error"]
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["instance"] for r in rows] == ["broken", "lacking", "missing", "CBQP_6_000"]
        assert [r["best_f"] == "" for r in rows] == [True, True, True, False]

    def test_bad_file_under_two_threads(self, tmp_path):
        # a malformed and a missing file between good ones: the same
        # bytes, rows and exit code at --threads 1 and 2
        good = tmp_path / "in"
        run(["generate", "--class", "QSAP1", "--n", "4", "--k", "3", "--count", "2",
             "--rng-seed", "3", "--out-dir", str(good)])
        first, last = sorted(good.glob("*.json"))
        broken = tmp_path / "broken.json"
        broken.write_text('{"name": "broken", "class": ')
        paths = [first, broken, tmp_path / "missing.json", last]
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert run(["solve", *map(str, paths), "--seeds", "5", "--no-timing", "--dump-seeds",
                        "--per-seed-csv", "--threads", threads, "--out", str(out)]) == 1
            for name in ("broken", "missing"):
                assert json.loads((out / f"{name}.result.json").read_text())["error"]
            with open(out / "summary.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [(r["instance"], r["best_f"] != "") for r in rows] == [
                (first.stem, True), ("broken", False), ("missing", False), (last.stem, True),
            ]
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["0", "-2", "x"])
    def test_threads_below_one_rejected(self, tmp_path, threads, capsys):
        path = str(tmp_path / "never-read.json")
        with pytest.raises(SystemExit) as exc:
            run(["solve", path, "--threads", threads, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("seeds", ["0", "-3", "x"])
    def test_seeds_below_one_rejected(self, tmp_path, seeds, capsys):
        path = str(tmp_path / "never-read.json")
        with pytest.raises(SystemExit) as exc:
            run(["solve", path, "--seeds", seeds, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_cap_below_length_two_does_not_stop_the_batch(self, tmp_path, monkeypatch):
        # with a cap under the 225 length-2 liftings of a 6x6 QAP, that file
        # fails with the count and the cap named, and the batch goes on
        monkeypatch.setattr(
            graveropt.cli, "solve", functools.partial(graveropt.cli.solve, enumeration_cap=100)
        )
        inputs = tmp_path / "in"
        for klass, n, k in (("QAP", 6, 6), ("CBQP", 6, None)):
            argv = ["generate", "--class", klass, "--n", str(n), "--out-dir", str(inputs)]
            assert run(argv + (["--k", str(k)] if k else [])) == 0
        paths = sorted(map(str, inputs.glob("*.json")), reverse=True)  # the QAP file first
        out = tmp_path / "run"
        assert run(["solve", *paths, "--seeds", "3", "--out", str(out)]) == 1
        error = json.loads((out / "QAP_6x6_000.result.json").read_text())["error"]
        assert "225" in error and "100" in error
        assert "best_objective" in json.loads((out / "CBQP_6_000.result.json").read_text())
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["instance"], r["best_f"] != "") for r in rows] == [
            ("QAP_6x6_000", False), ("CBQP_6_000", True),
        ]

    def test_rational_instance_result_serializes(self, tmp_path):
        doc = {
            "name": "frac", "class": "CBQP", "n": 3, "k": None,
            "c": ["1/3", "-2/7", "1/2"],
            "Q": [["0", "1/5", "0"], ["0", "0", "0"], ["1/5", "0", "-1/3"]],
            "b": [1], "l": [0, 0, 0], "u": [1, 1, 1],
        }
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run(["solve", str(path), "--seeds", "5", "--out", str(out)]) == 0
        result = json.loads((out / "frac.result.json").read_text())
        from fractions import Fraction

        # feasible points are the three unit vectors: f = 1/3, -2/7, 1/2 - 1/3
        assert Fraction(str(result["best_objective"])) == Fraction(-2, 7)

    def test_integers_beyond_int64(self, tmp_path):
        # coefficients past int64 decode to exact Python ints and solve;
        # a bound past int64 fails its own file with the field named
        inputs = tmp_path / "in"
        run(["generate", "--class", "CBQP", "--n", "6", "--count", "2", "--rng-seed", "2",
             "--out-dir", str(inputs)])
        first, second = sorted(inputs.glob("*.json"))
        doc = json.loads(first.read_text())
        doc["name"], doc["c"][0], doc["Q"][1][2] = "big", -(2**70), 3 * 2**64
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        doc["name"], doc["u"][0] = "bound", 2**64
        bound = tmp_path / "bound.json"
        bound.write_text(json.dumps(doc))
        out = tmp_path / "run"
        paths = [str(big), str(bound), str(second)]
        assert run(["solve", *paths, "--seeds", "4", "--no-timing", "--out", str(out)]) == 1
        inst = load_instance(big)
        assert inst.c.dtype == object and inst.Q.dtype == object
        result = json.loads((out / "big.result.json").read_text())
        best = result["best_objective"]
        assert best == _objective_scalar(inst, np.array(result["best_x"])) and best < -(2**69)
        error = json.loads((out / "bound.result.json").read_text())["error"]
        assert "upper" in error and "int64" in error
        assert "best_objective" in json.loads((out / f"{second.stem}.result.json").read_text())
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["instance"], r["best_f"] != "") for r in rows] == [
            ("big", True), ("bound", False), (second.stem, True),
        ]

    def test_fractional_bound_fails_its_file(self, tmp_path):
        inputs = tmp_path / "in"
        run(["generate", "--class", "CBQP", "--n", "6", "--count", "2", "--rng-seed", "2",
             "--out-dir", str(inputs)])
        first, second = sorted(inputs.glob("*.json"))
        doc = json.loads(first.read_text())
        doc["name"], doc["u"] = "frac", [1.5] + doc["u"][1:]
        frac = tmp_path / "frac.json"
        frac.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run(["solve", str(frac), str(second), "--seeds", "4", "--out", str(out)]) == 1
        error = json.loads((out / "frac.result.json").read_text())["error"]
        assert error.startswith("upper") and "1.5" in error
        assert "best_objective" in json.loads((out / f"{second.stem}.result.json").read_text())
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["instance"], r["best_f"] != "") for r in rows] == [
            ("frac", False), (second.stem, True),
        ]

    def test_cbqp_50_batch(self, tmp_path):
        # one full-size cardinality instance through generate + solve
        inst_dir = tmp_path / "big"
        run([
            "generate", "--class", "CBQP", "--n", "50",
            "--count", "1", "--rng-seed", "0", "--out-dir", str(inst_dir),
        ])
        out = tmp_path / "run"
        files = [str(next(inst_dir.glob("*.json")))]
        assert run(["solve", *files, "--seeds", "50", "--out", str(out)]) == 0
        doc = json.loads(next(out.glob("*.result.json")).read_text())
        assert doc["seed_count"] == 50
        assert len(doc["path_lengths"]) == 50


@pytest.mark.parametrize("argv", [
    ["graver", "--kind", "brick", "--n", "2", "--k", "1"],
    ["graver", "--kind", "cardinality", "--n", "1"],
    ["graver", "--kind", "coordinate", "--n", "1", "--k", "3"],
    ["generate", "--class", "QSAP1", "--n", "3", "--k", "0"],
    ["generate", "--class", "CBQP", "--n", "0"],
], ids=["brick-k1", "cardinality-n1", "coordinate-n1", "qsap1-k0", "cbqp-n0"])
def test_dimensions_out_of_range_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    target = ["--out", str(out / "basis.txt")] if argv[0] == "graver" else ["--out-dir", str(out)]
    assert run(argv + target) == 2
    assert "need" in capsys.readouterr().err
    assert not out.exists()


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert run(["verify", "--max-dim", "4"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_negative_control(self):
        # a mutated basis must be reported as mismatching the oracle output,
        # while a reordered, sign-flipped copy still matches
        good = graver_assignment(2, 3)
        mutated = basis_of(6, [[1, -1, 0, 0, 0, 0]])
        flipped = basis_of(6, [[-1, 1, 0, 1, -1, 0], [1, 0, -1, -1, 0, 1], [0, -1, 1, 0, 1, -1]])
        assert _bases_match(good, good)
        assert _bases_match(good, flipped)
        assert not _bases_match(good, mutated)

    @pytest.mark.parametrize("max_dim", ["1", "-3", "x"])
    def test_max_dim_below_two_rejected(self, capsys, max_dim):
        # below 2 no oracle check would run, so a pass would say nothing
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--max-dim", max_dim])
        assert exc.value.code == 2
        assert "--max-dim" in capsys.readouterr().err
