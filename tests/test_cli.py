import csv
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crystalsums.cli import (ShapeSyntaxError, _instances, compute_sum, main,
                             parse_shape, parse_weight)
from crystalsums.crystal import FactorDescriptor
from crystalsums.errors import CrystalSumsError, UnsupportedError
from crystalsums.hardhex import POLYNOMIAL_CAP, hh_X

from oracles import dominant_contents_A, dominant_weights_C

METHODS = ("direct", "bosonic", "fermionic", "rc")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestShapeGrammar:
    def test_basic(self):
        shape = parse_shape("A:2;1,1*4")
        assert shape == tuple(FactorDescriptor("A", 2) for _ in range(4))

    def test_mixed(self):
        shape = parse_shape("A:2;2,1*2,1,3")
        assert shape == (FactorDescriptor("A", 2, 2, 1),
                         FactorDescriptor("A", 2, 2, 1),
                         FactorDescriptor("A", 2, 1, 3))

    def test_type_c(self):
        assert parse_shape("C:2;1,1*3") == tuple(
            FactorDescriptor("C", 2) for _ in range(3))

    @pytest.mark.parametrize("bad", ["bogus", "A:2", "A:2;1", "A:x;1,1",
                                     "A:2;1,1*0"])
    def test_rejects(self, bad):
        with pytest.raises(ShapeSyntaxError):
            parse_shape(bad)

    def test_weight(self):
        assert parse_weight("1,2,0") == (1, 2, 0)
        with pytest.raises(ShapeSyntaxError):
            parse_weight("1,x")
        # the length is checked with the rest of the input, by compute_sum
        with pytest.raises(ShapeSyntaxError):
            compute_sum(parse_shape("A:2;1,1*3"), parse_weight("1,2"),
                        "none", "direct", "coenergy", None)


class TestSum:
    def test_fermionic_classical(self, capsys):
        code, out, _ = run(capsys, "sum", "A:1;1,1*2", "--weight", "1,1",
                           "--restrict", "classical", "--method", "fermionic")
        assert code == 0
        assert out.strip() == '[[1,"1"]]'

    def test_direct_unrestricted(self, capsys):
        code, out, _ = run(capsys, "sum", "A:1;1,1*2", "--weight", "1,1",
                           "--method", "direct", "--restrict", "none")
        assert code == 0
        assert out.strip() == '[[0,"1"],[1,"1"]]'

    def test_all_methods_agree(self, capsys):
        outs = set()
        for method in ("direct", "bosonic", "fermionic", "rc"):
            code, out, _ = run(capsys, "sum", "A:2;1,1*3", "--weight",
                               "1,1,1", "--restrict", "classical",
                               "--method", method)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_energy_statistic(self, capsys):
        _, coe, _ = run(capsys, "sum", "A:1;1,1*3", "--weight", "2,1",
                        "--restrict", "classical", "--method", "bosonic")
        _, ene, _ = run(capsys, "sum", "A:1;1,1*3", "--weight", "2,1",
                        "--restrict", "classical", "--method", "bosonic",
                        "--stat", "energy")
        ce = json.loads(coe)
        ee = json.loads(ene)
        assert sorted((-e, c) for e, c in ee) == sorted((e, c) for e, c in ce)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "sum", "A:1;1,1*2", "--weight", "1,1",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["0,1", "1,1"]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "sum", "nope", "--weight", "1,1")
        assert code == 2 and "error" in err

    def test_unsupported_exit_3(self, capsys):
        # a shape mixing a column and a row has no bosonic route
        code, _, _ = run(capsys, "sum", "A:2;2,1,1,2", "--weight", "2,1,1",
                         "--method", "bosonic")
        assert code == 3
        code, _, _ = run(capsys, "sum", "A:2;2,1,1,2", "--weight", "2,1,1",
                         "--restrict", "level", "--level", "2",
                         "--method", "bosonic")
        assert code == 3

    def test_unsupported_even_when_zero(self, capsys):
        # four boxes cannot reach a content of sum five, and the mixed shape
        # still has no bosonic route
        code, _, _ = run(capsys, "sum", "A:2;2,1,1,2", "--weight", "4,0,1",
                         "--method", "bosonic")
        assert code == 3

    def test_cap_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "A:1;1,1*2", "--weight", "1,1", "--cap", "5"])
        assert exc.value.code == 2

    def test_leading_minus_weight(self, capsys):
        code, out, _ = run(capsys, "sum", "C:2;1,1*2", "--weight=-1,-1",
                           "--method", "bosonic")
        assert code == 0 and out.strip() != "[]"

    def test_cap_exit_4(self, capsys):
        code, _, _ = run(capsys, "rr", "--L", "30", "--method", "enumerate")
        assert code == 4

    def test_deterministic_output(self, capsys):
        a = run(capsys, "sum", "C:2;1,1*4", "--weight", "0,0",
                "--restrict", "classical", "--method", "rc")
        b = run(capsys, "sum", "C:2;1,1*4", "--weight", "0,0",
                "--restrict", "classical", "--method", "rc")
        assert a == b


# Inputs on which the methods used to disagree: each gives one output, or
# one exit code, by every method that covers it.
@pytest.mark.parametrize("argv,methods,expected", [
    (["A:1;1,1*4", "--weight", "1,3", "--restrict", "classical"],
     METHODS, "[]"),
    (["C:2;1,1*4", "--weight", "0,2", "--restrict", "classical"],
     METHODS, "[]"),
    (["A:1;1,1*4", "--weight", "3,1", "--restrict", "level", "--level", "1"],
     METHODS, "[]"),
    (["C:1;1,1*4", "--weight", "2", "--restrict", "level", "--level", "1"],
     METHODS, "[]"),
    (["A:1;1,1*4", "--weight", "2,2", "--restrict", "level", "--level", "-1"],
     METHODS, 2),
    (["A:2;2,1,1,2,1,1*4", "--weight", "4,3,2", "--restrict", "classical"],
     ("direct", "fermionic", "rc"), "[]"),
    (["A:2;2,1,1,2,1,1*4", "--weight", "4,3,2", "--restrict", "classical"],
     ("bosonic",), 3),
])
def test_former_disagreements(capsys, argv, methods, expected):
    for method in methods:
        code, out, _ = run(capsys, "sum", *argv, "--method", method)
        if isinstance(expected, int):
            assert code == expected, method
        else:
            assert (code, out.strip()) == (0, expected), method


# (type, restriction) -> the methods that cover it
APPLICABLE = {
    ("A", "none"): ("direct", "bosonic"),
    ("A", "classical"): METHODS,
    ("A", "level"): METHODS,
    ("C", "none"): ("direct", "bosonic"),
    ("C", "classical"): METHODS,
    ("C", "level"): METHODS,
}


@st.composite
def sum_inputs(draw):
    kind = draw(st.sampled_from("AC"))
    n = draw(st.integers(1, 2))
    if kind == "A":
        # all rows or all columns: mixed shapes have no bosonic route
        pool = draw(st.sampled_from([((1, 1), (1, 2)), ((1, 1), (2, 1))]))
    else:
        pool = ((1, 1),)
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    shape = tuple(FactorDescriptor(kind, n, r, s) for r, s in factors)
    boxes = sum(r * s for r, s in factors)
    dim = n + 1 if kind == "A" else n
    weight = draw(st.lists(st.integers(-2, boxes + 1),
                           min_size=dim, max_size=dim))
    if kind == "A" and draw(st.booleans()):
        weight[-1] = boxes - sum(weight[:-1])  # the right content sum
    weight = tuple(weight)
    restriction = draw(st.sampled_from(("none", "classical", "level")))
    return shape, weight, restriction, draw(st.integers(0, 2))


def _outcome(shape, weight, restriction, method, level):
    try:
        return compute_sum(shape, weight, restriction, method, "coenergy",
                           level).to_json()
    except (CrystalSumsError, ShapeSyntaxError) as exc:
        return type(exc).__name__


@given(sum_inputs())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_methods_agree_or_fail_alike(inp):
    shape, weight, restriction, level = inp
    methods = APPLICABLE[(shape[0].kind, restriction)]
    outcomes = {m: _outcome(shape, weight, restriction, m, level)
                for m in methods}
    assert len(set(outcomes.values())) == 1, outcomes
    for m in set(METHODS) - set(methods):
        with pytest.raises(UnsupportedError):
            compute_sum(shape, weight, restriction, m, "coenergy", level)


@pytest.mark.parametrize("n,max_L", [(1, 7), (2, 5), (3, 4)])
def test_type_c_direct_matches_every_route(n, max_L):
    # unrestricted sums at every weight some path reaches; classical and
    # level 1-3 sums at every dominant one
    for L in range(1, max_L + 1):
        shape = (FactorDescriptor("C", n),) * L
        for weight in product(range(-L, L + 1), repeat=n):
            norm = sum(map(abs, weight))
            if norm > L or (L - norm) % 2:
                continue
            cases = [("none", None, ("bosonic",))]
            if all(a >= b for a, b in zip(weight, weight[1:] + (0,))):
                cases += [("classical", None, METHODS[1:])]
                cases += [("level", lv, METHODS[1:]) for lv in (1, 2, 3)]
            for restriction, level, others in cases:
                want = compute_sum(shape, weight, restriction, "direct",
                                   "coenergy", level)
                for m in others:
                    assert compute_sum(shape, weight, restriction, m,
                                       "coenergy", level) == want, \
                        (L, weight, restriction, level, m)


@pytest.mark.parametrize("argv", [
    ("rr", "--L", "-1"), ("rr", "--series", "1", "--N", "-5"),
    ("verify", "level", "--level", "-1"),
    ("verify", "typeA", "--max-L", "-1"),
])
def test_negative_flags_exit_2(capsys, argv):
    # malformed input, as a negative level is for `sum`
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "is negative" in err, err


class TestVerify:
    @pytest.mark.parametrize("suite,extra", [
        ("rr", ["--max-L", "8"]),
        ("typeA", ["--n", "1", "--max-L", "3"]),
        ("typeC", ["--n", "2", "--max-L", "2"]),
        ("level", ["--n", "1", "--max-L", "3", "--level", "1"]),
        ("involution", ["--n", "1", "--max-L", "2"]),
        ("levelC", ["--n", "2", "--max-L", "4", "--level", "2"]),
    ])
    def test_suites_pass(self, capsys, suite, extra):
        code, out, err = run(capsys, "verify", suite, *extra)
        assert code == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines and all(rep["agree"] for rep in lines)
        assert "0 disagreements" in err

    @pytest.mark.parametrize("suite", ["level", "levelC"])
    def test_level_suite_instances(self, suite):
        # every dominant weight whose level is at most the level, and no other
        got = {(L, lam) for _, _, L, lam, _ in _instances(suite, 2, 6, 2)}
        want = set()
        for L in range(1, 7):
            if suite == "level":
                want |= {(L, lam) for lam in dominant_contents_A(2, L)
                         if lam[0] - lam[2] <= 2}
            else:
                want |= {(L, lam) for lam in dominant_weights_C(2, L)
                         if lam[0] <= 2}
        assert got == want

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("suite", ["rr", "typeA", "typeC", "level",
                                       "levelC", "involution"])
    def test_rank_below_one_is_unsupported(self, capsys, suite, n):
        # every suite with a rank refuses it through cartan_data, as
        # `sum` does; rr has no rank and ignores --n
        code, _, err = run(capsys, "verify", suite, "--n", n, "--max-L", "2")
        if suite == "rr":
            assert code == 0, err
        else:
            assert code == 3 and "rank must be >= 1" in err, err

    def test_jobs_give_the_same_records(self, capsys):
        def records(jobs):
            code, out, err = run(capsys, "verify", "typeA", "--n", "1",
                                 "--max-L", "4", "--jobs", jobs)
            assert code == 0, err
            reps = [json.loads(line) for line in out.splitlines()]
            for rep in reps:
                del rep["ms"]
            return reps

        serial = records("1")
        assert serial and records("2") == serial

    @pytest.mark.parametrize("jobs,cpus,want", [
        ("64", 8, [2]), ("64", 1, []), ("2", 8, [2]), ("1", 8, [])],
        ids=["jobs above instances", "one cpu", "jobs", "serial"])
    def test_pool_has_no_idle_worker(self, capsys, monkeypatch, jobs, cpus,
                                     want):
        # the pool forks every worker up front, so it gets at most one per
        # instance and per cpu, and none when that is one; the stub records
        # the size it was asked for and maps serially, in order
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, err = run(capsys, "verify", "rr", "--max-L", "0",
                             "--jobs", jobs)
        assert code == 0, err
        assert sizes == want
        assert [json.loads(line)["instance"] for line in out.splitlines()] \
            == [{"L": 0, "primed": False}, {"L": 0, "primed": True}]

    def test_cap_holds_in_pool_workers(self, capsys, monkeypatch):
        # the workers fork from this process, so they read its lowered cap:
        # the first instance past it fails the run with exit 4 before any
        # record is printed
        from crystalsums import crystal
        monkeypatch.setattr(crystal, "VERTEX_CAP", 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out, err = run(capsys, "verify", "level", "--n", "1",
                             "--max-L", "6", "--level", "2", "--jobs", "2")
        assert code == 4 and not out, err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "typeA", "--n", "1",
                             "--max-L", "2", "--jobs", jobs)
        assert code == 2 and not out and "below 1" in err, err

    def test_import_leaves_the_process_pool_out(self):
        # only `verify --jobs` above 1 needs it, and it pulls in
        # multiprocessing, socket and pickle
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, crystalsums.cli; "
             "print('concurrent.futures' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=60)
        assert proc.stdout.split() == ["False"], proc.stderr

    def test_csv_stream(self, capsys):
        code, out, _ = run(capsys, "verify", "rr", "--max-L", "2",
                           "--format", "csv")
        assert code == 0
        assert all(line.startswith("rr,") for line in out.splitlines())

    def test_csv_rows_parse(self, capsys):
        # suite,instance,agree,ms: the instance is one CSV-quoted JSON field
        argv = ("verify", "typeA", "--n", "1", "--max-L", "2")
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        code, out, _ = run(capsys, *argv)
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == len(reports) == 3
        for row, rep in zip(rows, reports):
            assert len(row) == 4, row
            assert json.loads(row[1]) == rep["instance"]
            assert row[0] == rep["suite"] and row[2] == str(rep["agree"])


class TestRR:
    def test_polynomial(self, capsys):
        code, out, _ = run(capsys, "rr", "--L", "3")
        assert code == 0
        assert out.strip() == '[[0,"1"],[1,"1"],[2,"1"]]'

    def test_series_report(self, capsys):
        code, out, _ = run(capsys, "rr", "--series", "1", "--N", "50")
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True

    def test_polynomial_cap(self, capsys):
        # hh_X's cap on the command line: the cap runs, one past it exits 4
        # for each polynomial method
        code, out, _ = run(capsys, "rr", "--L", str(POLYNOMIAL_CAP))
        assert code == 0 and out.strip() == hh_X(POLYNOMIAL_CAP).to_json()
        for method in ("recurrence", "fermionic", "bosonic"):
            code, out, err = run(capsys, "rr", "--L", str(POLYNOMIAL_CAP + 1),
                                 "--method", method)
            assert code == 4 and not out and "capped" in err, err

    def test_config_file(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"L": 3}))
        code, out, _ = run(capsys, "rr", "--config", str(conf))
        assert code == 0
        assert out.strip() == '[[0,"1"],[1,"1"],[2,"1"]]'
        # flags win over the config file
        code, out, _ = run(capsys, "rr", "--config", str(conf), "--L", "1")
        assert out.strip() == '[[0,"1"]]'

    def test_explicit_default_beats_the_config(self, capsys, tmp_path):
        # an explicit flag wins even when it repeats the default
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"format": "csv"}))
        code, out, _ = run(capsys, "rr", "--L", "2", "--config", str(conf),
                           "--format", "json")
        assert code == 0 and out.strip() == '[[0,"1"],[1,"1"]]'
        code, out, _ = run(capsys, "rr", "--L", "2", "--config", str(conf))
        assert code == 0 and out.splitlines() == ["0,1", "1,1"]

    def test_config_values_are_parsed_as_flags(self, capsys, tmp_path):
        # a config value goes through the flag's type: "3" is the integer 3
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"max-L": "3", "n": 1}))
        code, out, err = run(capsys, "verify", "typeA", "--config", str(conf))
        assert code == 0, err
        want = run(capsys, "verify", "typeA", "--n", "1", "--max-L", "3")
        assert [json.loads(line)["instance"] for line in out.splitlines()] \
            == [json.loads(line)["instance"] for line in want[1].splitlines()]

    @pytest.mark.parametrize("text", [
        '{"format": "xml"}', '{"method": "nope"}', '{"L": "x"}',
        '{"max_L": 2}', '{"primed": "yes"}',
    ], ids=["bad-choice", "bad-method", "bad-int", "unknown-flag",
            "switch-with-value"])
    def test_bad_config_value_exits_2(self, capsys, tmp_path, text):
        # checked as the flag would be; max_L is a verify flag, not an rr one
        conf = tmp_path / "conf.json"
        conf.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["rr", "--L", "2", "--config", str(conf)])
        assert exc.value.code == 2
        assert not capsys.readouterr().out

    @pytest.mark.parametrize("text", [None, "{", "[1, 2]", '"csv"'],
                             ids=["missing", "malformed", "list", "string"])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, text):
        conf = tmp_path / "conf.json"
        if text is not None:
            conf.write_text(text)
        code, out, err = run(capsys, "rr", "--L", "2", "--config", str(conf))
        assert code == 2 and not out and "config" in err, err
