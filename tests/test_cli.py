import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import efdkit.cli as cli
from efdkit import models, terms
from efdkit.cli import run
from efdkit.gen import random_rational_point, random_term
from efdkit.models import (
    PositiveCone,
    RationalGroup,
    check_sentence_sampled,
    eval_term,
    parse_model,
)
from efdkit.terms import (
    MAX_DEPTH,
    EFDSentence,
    Meet,
    Signature,
    Var,
    build_epsilon_k,
    max_index,
    parse_term,
    scalar,
    xvar,
    zvar,
)
from efdkit.translate import check_sentence

from test_canonical import TWELVE_FORMS, count_cell_tests, count_lp_calls, count_refinements

# Fails in the two-element model only at x = (1, 0, 1, 0, 1, 0, 1, 0, 1, 0);
# the CI console-script step runs it too.
TWO_ONE_FAILURE = (
    r"forall x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 exists! z1 : z1 = ~z1 /\ "
    r"(x1 /\ ~x2 /\ x3 /\ ~x4 /\ x5 /\ ~x6 /\ x7 /\ ~x8 /\ x9 /\ ~x10)"
)
BIG_PRIME = "1000000000000000003"

_X6 = " ".join(f"x{i}" for i in range(1, 7))
_ABSOLUTES = r" /\ ".join(f"(x{i} \\/ -x{i})" for i in range(1, 7))
# 2 z1 = S + S, S = |x1| /\ ... /\ |x6|: the gcd bounds disagree (L = 1,
# G = 2), so reduce_delta_kt refines its cells; the CI console-script step
# runs it too
DOUBLED_ABSOLUTES = f"forall {_X6} exists! z1 : 2 z1 = ({_ABSOLUTES}) + ({_ABSOLUTES})"
_X10 = " ".join(f"x{i}" for i in range(1, 11))
_SUM10 = " + ".join(f"x{i}" for i in range(1, 11))
# the cone sum doubled: the bounds disagree on its star image, whose cells,
# 1024 orthants, are more than the default cap allows
DOUBLED_CONE_SUM = f"forall {_X10} exists! z1 : 2 z1 = ({_SUM10}) + ({_SUM10})"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None


class TestExamples:
    def test_canon(self, capsys):
        code, payload = invoke_json(capsys, "canon", "--sig", "group", r"2 x1 \/ 6 x1")
        assert code == 0
        assert payload["schema"] == "efdkit/canon/3"
        assert len(payload["piecewise"]["pieces"]) == 2
        forms = {tuple(p["form"]) for p in payload["piecewise"]["pieces"]}
        assert forms == {(2,), (6,)}

    def test_canon_twelve_forms(self, capsys, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        code, payload = invoke_json(capsys, "canon", TWELVE_FORMS)
        assert code == 0
        pieces = payload["piecewise"]["pieces"]
        assert (len(calls), len(pieces)) == (280, 122)
        t = parse_term(TWELVE_FORMS, Signature.GROUP)
        rng = random.Random(12)
        for _ in range(100):
            point = random_rational_point(rng, 3)
            value = eval_term(RationalGroup(), t, {xvar(i + 1): v for i, v in enumerate(point)})
            hits = [
                p["form"] for p in pieces
                if all(sum(c * x for c, x in zip(row, point)) >= 0 for row in p["region"])
            ]
            assert hits
            for form in hits:
                assert sum(c * x for c, x in zip(form, point)) == value

    def test_reduce(self, capsys):
        code, payload = invoke_json(
            capsys, "reduce", "--k", "4", "--term", r"2 x1 \/ 6 x1"
        )
        assert code == 0
        assert payload["schema"] == "efdkit/reduce/2"
        assert payload["k_prime"] == 2

    def test_classify_epsilon(self, capsys):
        code, payload = invoke_json(
            capsys, "classify", "--sig", "mv", "--sentence", "epsilon 6"
        )
        assert code == 0
        assert payload["class"] == "divisible"
        assert payload["primes"] == [2, 3]

    def test_classify_group_file(self, capsys, tmp_path):
        f = tmp_path / "sentences.txt"
        f.write_text("delta 4\ndelta 3 : x1 + x2\n# comment\n")
        code, payload = invoke_json(
            capsys, "classify", "--sig", "group", "--file", str(f)
        )
        assert code == 0
        assert payload["primes"] == [2, 3]

    def test_parse_term(self, capsys):
        code, payload = invoke_json(
            capsys, "parse", "--sig", "mv", "--term", "~2 z1^2"
        )
        assert code == 0
        assert payload["printed"] == "~2 z1^2"

    def test_translate_star(self, capsys):
        code, payload = invoke_json(
            capsys, "translate", "--direction", "star", "--term", "x1"
        )
        assert code == 0
        assert payload["printed"] == r"x1 \/ -x1"

    def test_decompose(self, capsys):
        code, payload = invoke_json(capsys, "decompose", "--sentence", "epsilon 2")
        assert code == 0
        assert len(payload["branches"]) == 2
        assert sorted(b["sign_vector"] for b in payload["branches"]) == [[0], [1]]

    def test_fulldim(self, capsys):
        code, payload = invoke_json(capsys, "fulldim", "--rows", "1,0;-1,0")
        assert code == 0
        assert payload["full_dimensional"] is False
        assert payload["certificate"] is not None

    def test_eval_gamma(self, capsys):
        code, payload = invoke_json(
            capsys,
            "eval",
            "--model",
            "gamma(q)",
            "--term",
            "~z1",
            "--assign",
            "z1=(0, 1/2)",
        )
        assert code == 0
        assert payload["value"] == "(1, -1/2)"

    @pytest.mark.parametrize(
        "term,assign,value",
        [
            ("100000000 z1", "z1=(0, 1/3)", "(0, 100000000/3)"),
            ("z1^100000000", "z1=(1, -1/3)", "(1, -100000000/3)"),
        ],
    )
    def test_eval_gamma_huge_multiples(self, capsys, term, assign, value):
        code, payload = invoke_json(
            capsys, "eval", "--model", "gamma(q)", "--term", term, "--assign", assign
        )
        assert code == 0
        assert payload["value"] == value

    def test_check_pass(self, capsys):
        code, payload = invoke_json(
            capsys, "check", "--model", "qs:2,3", "--sentence", "delta 6"
        )
        assert code == 0
        assert payload["schema"] == "efdkit/check/12"
        assert payload["verdict"] == {
            "status": "holds",
            "confidence": "exact",
            "witness": None,
            "detail": "classification: delta_6",
        }

    def test_lattice_meet(self, capsys):
        code, payload = invoke_json(
            capsys,
            "lattice",
            "--family",
            "P",
            "--op",
            "meet",
            "--left",
            "divisible:2",
            "--right",
            "boolean",
        )
        assert code == 0
        assert payload["meet"]["class"] == "boolean"

    def test_axioms(self, capsys):
        code, payload = invoke_json(capsys, "axioms", "--base", "bal", "--primes", "2")
        assert code == 0
        assert payload["axioms"][0]["formula"] == "x -> 2 d2(x)"

    def test_selftest_single_suite(self, capsys):
        code, payload = invoke_json(capsys, "selftest", "lattice-laws")
        assert code == 0
        assert payload["passed"] is True

    @pytest.mark.parametrize("budget", ["1", "2"])
    def test_decomposition_passes_at_small_budgets(self, capsys, budget):
        # gamma(qs:2) fails eps_3; a structured x refutes it before any sample
        code, payload = invoke_json(capsys, "selftest", "decomposition", "--budget", budget)
        assert code == 0
        assert payload["passed"] is True


_ABSOLUTE_MEET = "(" + r" /\ ".join(f"(x{i} \\/ -x{i})" for i in range(1, 7)) + ")"


class TestClassifyOrder:
    """classify reads every input before it reduces any: the absurd marker
    spares a sentence whose reduction passes the cap, and outranks the note
    of an MV sentence without a unique two-element solution, in either
    order."""

    @pytest.mark.parametrize("sig, sentence, answer", [
        ("group", f"forall x1 x2 x3 x4 x5 x6 exists! z1 : 2 z1 = {_ABSOLUTE_MEET} + {_ABSOLUTE_MEET}",
         {"family": "G", "class": "trivial"}),
        ("mv", "forall x1 exists! z1 : z1 + ~z1 = x1",
         {"family": "P", "class": "trivial", "notes": ["absurd marker"]}),
    ])
    def test_either_order_gives_one_answer(self, capsys, sig, sentence, answer):
        outputs = set()
        for order in ([sentence, "absurd"], ["absurd", sentence]):
            code, out = invoke(capsys, "classify", "--sig", sig,
                               *[arg for item in order for arg in ("--sentence", item)])
            assert code == 0
            outputs.add(out)
        (out,) = outputs
        assert json.loads(out) == {"schema": "efdkit/classify/4", **answer}


class TestStructuredAssignments:
    @pytest.mark.parametrize("seed", range(5))
    def test_lex_check_tries_each_coordinates_unit_first(self, capsys, seed):
        """In Q lex Z, (0, 1) has no half, and it is the fourth structured
        x-value, after 0, (1, 0) and (-1, 0): every seed refutes there."""
        code, payload = invoke_json(
            capsys, "check", "--no-shortcut", "--model", "lex(q,z)", "--sentence", "delta 2",
            "--seed", str(seed),
        )
        assert code == 4
        assert payload["verdict"]["witness"]["x"] == {"x1": "(0, 1)"}


_TERM_ONLY = "translate takes --term only with --direction star and no sentence"


class TestExitCodes:
    def test_input_error_is_2(self, capsys):
        code, _ = invoke(capsys, "parse", "--sig", "group", "--term", "x1 +")
        assert code == 2

    def test_unknown_model_is_2(self, capsys):
        code, _ = invoke(capsys, "eval", "--model", "nope", "--term", "x1")
        assert code == 2

    def test_fragment_error_is_3(self, capsys):
        code, _ = invoke(capsys, "canon", "--sig", "hoop", "x1 -. x2")
        assert code == 3

    def test_cap_exceeded_is_3(self, capsys, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        code = run(["canon", "--cap", "50", TWELVE_FORMS])
        captured = capsys.readouterr()
        assert (code, len(calls)) == (3, 10)
        assert captured.out == ""
        assert captured.err == "error: the canonical form needs more than 50 cell tests\n"

    @pytest.mark.parametrize(
        "term,code,err",
        [
            ("x1 -. x2", 2, "error: Diff not admitted in group terms\n"),
            ("~x1", 2, "error: ~ only admitted in MV terms (at position 0)\n"),
            ("x1 +", 2, "error: unexpected end of input\n"),
            ("z1", 3, "error: delta_{k,t} requires t over x-variables only\n"),
        ],
    )
    def test_reduce_k_1_still_checks_the_term(self, capsys, term, code, err):
        # k = 1 skips the canonical form, not the parser or DeltaKT
        assert run(["reduce", "--k", "1", "--term", term]) == code
        assert capsys.readouterr() == ("", err)

    def test_reduce_k_1_needs_no_cell_test(self, capsys):
        code, payload = invoke_json(capsys, "reduce", "--k", "1", "--cap", "1", "--term", TWELVE_FORMS)
        assert (code, payload["k_prime"]) == (0, 1)

    @pytest.mark.parametrize("argv,code,refinements,answer", [
        (["reduce", "--k", "4", "--term", r"2 x1 \/ 6 x1"], 0, 0, {"k_prime": 2}),
        (["classify", "--sig", "group", "--sentence", r"delta 6 : 2 x1 \/ 4 x2"], 0, 0, {"primes": [3]}),
        # L = 2 = G: no cell test, so the cap of 1 is never reached
        (["reduce", "--k", "6", "--cap", "1", "--term", f"2 ({TWELVE_FORMS})"], 0, 0, {"k_prime": 3}),
        (["classify", "--sig", "group", "--sentence", DOUBLED_ABSOLUTES], 3, 1, None),
    ])
    def test_cells_are_refined_only_where_the_gcd_bounds_disagree(
        self, capsys, monkeypatch, argv, code, refinements, answer
    ):
        refined = count_refinements(monkeypatch)
        got, payload = invoke_json(capsys, *argv)
        assert (got, len(refined)) == (code, refinements)
        if answer is not None:
            assert {key: payload[key] for key in answer} == answer

    @pytest.mark.parametrize("sig, spec", [
        ("group", "delta x"), ("group", "delta 2x : x1"), ("mv", "epsilon x"), ("mv", "epsilon 2 3"),
    ])
    def test_a_k_that_is_no_integer_is_named(self, capsys, sig, spec):
        assert run(["classify", "--sig", sig, "--sentence", spec]) == 2
        shorthand = spec.split()[0]
        assert capsys.readouterr().err == f"error: {shorthand} K needs an integer K, got {spec!r}\n"

    def test_a_k_past_the_digit_limit_keeps_its_text(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integer strings of any length")
        assert run(["classify", "--sig", "group", "--sentence", "delta " + "7" * (limit + 1)]) == 2
        assert capsys.readouterr().err.startswith(f"error: Exceeds the limit ({limit} digits)")

    @pytest.mark.parametrize("primes,entry", [("2,,3", ""), (",", ""), ("1_1", "1_1")])
    @pytest.mark.parametrize("argv", [
        ("eval", "--model", "qs:{}", "--term", "x1", "--assign", "x1=1"),
        ("axioms", "--base", "bal", "--primes", "{}"),
        ("lattice", "--op", "meet", "--left", "divisible:{}", "--right", "trivial"),
        ("lattice", "--op", "order", "--left", "bal:{}", "--right", "bal:2"),
    ])
    def test_a_prime_list_is_read_by_one_reader(self, capsys, argv, primes, entry):
        argv = [a.format(primes) for a in argv]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: prime {entry!r} is not an integer\n")

    @pytest.mark.parametrize("argv,err", [
        (["decompose", "--sentence", "epsilon 2", "--sentence", "absurd"], "decompose takes one sentence, got 2"),
        (["decompose", "--sentence", "epsilon 2", "--file", "{two}"], "decompose takes one sentence, got 3"),
        (["check", "--model", "q", "--sentence", "delta 2", "--sentence", "delta 3"], "check takes one sentence, got 2"),
        (["translate", "--direction", "mv-hoop", "--file", "{two}"], "translate takes one sentence, got 2"),
        (["translate", "--direction", "star", "--term", "x1", "--sentence", "delta 2"], _TERM_ONLY),
        (["translate", "--direction", "star", "--term", "x1", "--file", "{two}"], _TERM_ONLY),
        (["translate", "--direction", "mv-hoop", "--term", "x1"], _TERM_ONLY),
    ], ids=["decompose", "decompose-file", "check", "translate-file", "translate-term", "translate-term-file",
            "mv-hoop-term"])
    def test_a_second_sentence_is_refused(self, capsys, tmp_path, argv, err):
        """translate, decompose and check take one sentence, and translate
        --direction star either it or --term."""
        two = tmp_path / "two.txt"
        two.write_text("epsilon 2\n# a comment\n\nepsilon 3\n", encoding="utf-8")
        assert run([a.format(two=two) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("argv,read", [
        (["decompose", "--sentence", f"forall {_X6} exists! z1 : z1 = " + r" /\ ".join(_X6.split())], 1),
        (["lattice", "--op", "meet", "--left", "divisible:2", "--right", "divisible:3"], 0),
    ], ids=["after-one-byte", "at-once"])
    def test_a_closed_stdout_is_1(self, argv, read):
        """The reader closes the pipe after one byte of an answer ten times
        larger than a pipe holds, so that a write meets the closed pipe, or
        before a short answer is written, which then waits in stdout's buffer
        until the answer is flushed: the CLI exits 1 and writes nothing to
        stderr, not even at its exit flush."""
        src = str(Path(cli.__file__).parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        with subprocess.Popen(
            [sys.executable, "-m", "efdkit.cli", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src},
        ) as proc:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")

    def test_property_failure_is_4(self, capsys):
        code, payload = invoke_json(
            capsys, "check", "--model", "qs:2", "--sentence", "delta 3"
        )
        assert code == 4
        assert payload["verdict"]["status"] == "falsified"

    @pytest.mark.parametrize(
        "name", ["x0", "z0", "x101", "y1", "x²", pytest.param("x" + "9" * 5000, id="x9...9")]
    )
    def test_assignment_to_a_variable_no_term_names_is_2(self, capsys, name):
        # x0, z0 and indices above MAX_INDEX name no variable of any term
        code = run(["eval", "--model", "q", "--term", "x1", "--assign", f"x1=1;{name}=2"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: bad variable name {name!r}\n")

    def test_assignment_up_to_the_largest_index_is_read(self, capsys):
        code, payload = invoke_json(
            capsys, "eval", "--model", "q", "--term", "x1", "--assign", "x01=1;x100=2"
        )
        assert (code, payload["assignment"]) == (0, {"x1": "1", "x100": "2"})

    @pytest.mark.parametrize("term,name", [("x0", "x0"), ("x1 + z0", "z0")])
    def test_term_over_index_0_names_the_variable(self, capsys, term, name):
        assert run(["parse", "--sig", "group", "--term", term]) == 2
        assert capsys.readouterr() == ("", f"error: bad variable {name}\n")

    def test_missing_file_is_2(self, capsys):
        code, _ = invoke(
            capsys, "classify", "--sig", "group", "--file", "/does/not/exist"
        )
        assert code == 2

    def test_unknown_suite_is_2(self, capsys):
        code, _ = invoke(capsys, "selftest", "nope")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--model", "q"),
            ("decompose",),
            ("translate", "--direction", "star"),
        ],
    )
    def test_file_without_sentences_is_2(self, capsys, tmp_path, argv):
        f = tmp_path / "sentences.txt"
        f.write_text("# only a comment\n\n   \n")
        code = run([*argv, "--file", str(f)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "no sentences given" in captured.err

    def test_mv_hoop_without_sentence_is_2(self, capsys):
        code, _ = invoke(capsys, "translate", "--direction", "mv-hoop", "--term", "x1")
        assert code == 2

    def test_invalid_env_seed_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("EFDKIT_SEED", "abc")
        code = run(["check", "--model", "q", "--sentence", "delta 2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "EFDKIT_SEED" in captured.err

    def test_invalid_env_seed_unused_with_seed_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("EFDKIT_SEED", "abc")
        code, payload = invoke_json(
            capsys, "check", "--model", "q", "--sentence", "delta 2", "--seed", "3"
        )
        assert code == 0
        assert payload["verdict"]["status"] == "holds"

    @pytest.mark.parametrize(
        "argv",
        [
            ("canon", "x1"),
            ("lattice", "--op", "meet", "--left", "divisible:2", "--right", "divisible:3"),
        ],
    )
    def test_env_seed_is_read_by_the_sampling_commands_only(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("EFDKIT_SEED", "abc")
        assert invoke(capsys, *argv)[0] == 0

    @pytest.mark.parametrize(
        "argv,budget",
        [
            (("parse", "--sig", "group", "--term", "x1"), "0"),
            (("canon", "x1"), "-1"),
            (("reduce", "--k", "2", "--term", "x1"), "0"),
            (("classify", "--sig", "group", "--sentence", "delta 2"), "0"),
            (("translate", "--direction", "star", "--term", "x1"), "0"),
            (("decompose", "--sentence", "epsilon 2"), "0"),
            (("fulldim", "--rows", "1,0;0,1"), "0"),
            (("eval", "--model", "q", "--term", "x1", "--assign", "x1=1"), "0"),
            (("check", "--model", "q", "--sentence", "delta 2"), "0"),
            (("check", "--model", "gamma(q)", "--sentence", "epsilon 2",
              "--no-shortcut"), "-5"),
            (("lattice", "--op", "meet", "--left", "trivial", "--right", "trivial"), "0"),
            (("axioms", "--base", "lp", "--primes", "2"), "0"),
            (("selftest", "piecewise"), "0"),
            (("selftest", "piecewise"), "-3"),
        ],
    )
    def test_budget_below_one_is_2(self, capsys, argv, budget):
        """check and selftest reject the value; the commands that do not
        sample reject the option itself, as an argparse error."""
        if argv[0] not in ("check", "selftest"):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--budget", budget])
            assert exc.value.code == 2
            assert "unrecognized arguments: --budget" in capsys.readouterr().err
            return
        code = run([*argv, "--budget", budget])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--budget must be >= 1" in captured.err
        assert run([*argv, "--budget", "1"]) == 0  # the same argv is valid otherwise

    @pytest.mark.parametrize("option", ["--budget", "--seed"])
    def test_sampling_options_outside_check_and_selftest_are_2(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            run(["canon", "x1", option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["reduction-oracle", "mv-classification"])
    def test_budget_on_an_exhaustive_suite_is_2(self, capsys, suite):
        code = run(["selftest", suite, "--budget", "50"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"suite {suite!r} is exhaustive" in captured.err

    def test_selftest_all_budget_goes_to_the_sampled_suites(self, capsys, monkeypatch):
        from efdkit import selftest

        calls = []

        def sampled(seed, budget=10):
            calls.append(("sampled", budget))
            return selftest.SuiteReport("sampled")

        def exhaustive(seed):
            calls.append(("exhaustive", None))
            return selftest.SuiteReport("exhaustive")

        monkeypatch.setattr(selftest, "SUITES", {"sampled": sampled, "exhaustive": exhaustive})
        code, payload = invoke_json(capsys, "selftest", "all", "--budget", "3")
        assert code == 0
        assert [s["suite"] for s in payload["suites"]] == ["sampled", "exhaustive"]
        assert calls == [("sampled", 3), ("exhaustive", None)]

    def test_zero_denominator_is_2(self, capsys):
        code = run(["eval", "--model", "q", "--term", "x1", "--assign", "x1=1/0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "zero denominator" in captured.err


def _parens(depth):
    return "(" * (depth - 1) + "x1" + ")" * (depth - 1)


def _sum(count):
    return " + ".join(["x1"] * count)


def _equations(count):
    return "forall x1 exists! z1 : " + " & ".join(["z1 = x1"] * count)


def _meet_chain(n):
    """z1 = x1 /\\ ... /\\ xn; the star image of one of its radical branches
    has 2^n orthant copies of every piece."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    return f"forall {' '.join(xs)} exists! z1 : z1 = " + r" /\ ".join(xs)


def _json_nodes(t: dict) -> int:
    return 1 + sum(_json_nodes(t[k]) for k in ("left", "right", "arg") if k in t)


class TestBoundedWork:
    """Inputs that used to end in a RecursionError traceback (exit 1) or
    run for minutes: each now gets exit 0, 2 or 3."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["canon", _parens(1201)],
            ["canon", _sum(2000)],
            ["decompose", "--sentence", _equations(1200)],
            ["parse", "--sig", "group", "--term=" + "-" * 1200 + "x1"],
            ["parse", "--sig", "mv", "--sentence", _equations(MAX_DEPTH + 1)],
        ],
    )
    def test_past_the_bound_is_2(self, capsys, argv):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(MAX_DEPTH) in err

    def test_every_subcommand_finishes_at_the_bound(self, capsys):
        for name, text in (("parens", _parens(MAX_DEPTH)), ("sum", _sum(MAX_DEPTH))):
            mv = f"forall x1 exists! z1 : z1 = {text}"
            for argv in (
                ["parse", "--sig", "group", "--term", text],
                ["canon", "--cap", "1000", text],
                ["reduce", "--k", "6", "--cap", "1000", "--term", text],
                ["classify", "--sig", "group", "--sentence", f"delta 4 : {text}"],
                ["classify", "--sig", "mv", "--sentence", mv],
                ["translate", "--direction", "star", "--term", text],
                ["translate", "--direction", "mv-hoop", "--sentence", mv],
                ["decompose", "--format", "text", "--sentence", mv],
                ["eval", "--model", "gamma(q)", "--term", text, "--assign", "x1=(0, 1/2)"],
                ["check", "--model", "gamma(q)", "--no-shortcut", "--budget", "3", "--sentence", mv],
                ["check", "--model", "q", "--no-shortcut", "--budget", "3", "--sentence", mv],
            ):
                assert run(argv) in (0, 3, 4), (name, argv[0])
        for argv in (
            ["decompose", "--sentence", _equations(MAX_DEPTH)],
            ["classify", "--sig", "mv", "--sentence", _equations(MAX_DEPTH)],
            ["check", "--model", "two", "--sentence", _equations(MAX_DEPTH)],
        ):
            assert run(argv) in (0, 3), argv[0]
        capsys.readouterr()

    @pytest.mark.parametrize("n,tree", [(11, 5117), (12, 10237), (14, 40957)])
    def test_mv_hoop_prints_a_bounded_tree(self, capsys, n, tree):
        """The hoop image of z1 = x1 \\/ 2 x1 \\/ ... \\/ n x1 is a DAG that
        prints as a tree of 10 2^(n - 2) - 3 nodes; past MAX_PRINTED_NODES
        translate declines with exit 3 and prints nothing."""
        chain = " \\/ ".join(["x1"] + [f"{k} x1" for k in range(2, n + 1)])
        sentence = f"forall x1 exists! z1 : z1 = {chain}"
        code = run(["translate", "--direction", "mv-hoop", "--sentence", sentence])
        out, err = capsys.readouterr()
        if tree <= cli.MAX_PRINTED_NODES:
            assert code == 0
            assert err == ""
            image = json.loads(out)["sentence"]["ast"]["equations"][0]
            assert sum(map(_json_nodes, image.values())) == tree
        else:
            assert (code, out) == (3, "")
            assert err == f"error: the hoop image prints {tree} term nodes, more than 10000\n"

    def test_long_mv_sum_hits_the_cap(self, capsys):
        # the radical branch stars to 21 copies of x1 \/ -x1: 22 leaf forms,
        # but two cells
        code, payload = invoke_json(
            capsys, "classify", "--sig", "mv", "--sentence", f"forall x1 exists! z1 : z1 = {_sum(21)}"
        )
        assert code == 0
        assert (payload["class"], payload["primes"]) == ("divisible", [])

    def test_meet_chain_hits_the_cap(self, capsys, monkeypatch):
        # every delta of the MV chain has k = 1, so it reduces to delta_1
        # without a canonical form; 2 z1 = S + S, S = |x1| /\ ... /\ |x6|,
        # is left open by the gcd bounds (L = 1, G = 2), and its form, with
        # an orthant copy of every piece, needs more than 1000 cell tests,
        # none of them an LP
        calls = count_lp_calls(monkeypatch)
        tests = count_cell_tests(monkeypatch)
        code, payload = invoke_json(capsys, "classify", "--sig", "mv", "--sentence", _meet_chain(6))
        assert (code, len(calls), payload["class"], payload["primes"]) == (0, 0, "divisible", [])
        code = run(["classify", "--sig", "group", "--sentence", DOUBLED_ABSOLUTES])
        captured = capsys.readouterr()
        assert (code, len(calls), len(tests)) == (3, 0, 1000)
        assert captured.err == "error: the canonical form needs more than 1000 cell tests\n"

    def test_check_names_the_budget_that_sent_it_to_sampling(self, capsys):
        # 2 z1 = s + s, s = x1 + ... + x10, on cone(q) stars to 1024 orthant
        # cells; the star image's values are all even (G = 2), while L = 1
        code, payload = invoke_json(
            capsys, "check", "--model", "cone(q)", "--budget", "3", "--sentence", DOUBLED_CONE_SUM
        )
        assert code == 0
        assert payload["verdict"]["detail"] == (
            "sampled: 3 distinct x-assignments (classification over budget: "
            "the canonical form needs more than 1000 cell tests)"
        )
        code, payload = invoke_json(
            capsys, "check", "--model", "gamma(q)", "--budget", "3", "--sentence", _meet_chain(2)
        )
        assert (code, payload["verdict"]["detail"]) == (0, "classification: delta_1")

    def test_candidate_search_past_the_bound_is_3(self, capsys, monkeypatch):
        """z1 /\\ ... /\\ z12 = ~0 on two reads every z in one equation, so
        the search tests z12 at each of the 2^11 settings of z1 .. z11: 4,096
        candidates, the last of them the one solution."""
        meet = r" /\ ".join(f"z{j}" for j in range(1, 13))
        argv = ["check", "--no-shortcut", "--model", "two", "--sentence",
                f"exists! {' '.join(f'z{j}' for j in range(1, 13))} : {meet} = ~0"]
        monkeypatch.setattr(models, "_SEARCH_BOUND", 4096)
        code, payload = invoke_json(capsys, *argv)
        assert (code, payload["verdict"]["status"]) == (0, "consistent-on-sample")
        monkeypatch.setattr(models, "_SEARCH_BOUND", 4095)
        code = run(argv)
        assert (code, capsys.readouterr().err) == (
            3, "error: the candidate search tests more than 4095 z-values\n"
        )

    def test_a_z_no_equation_reads_is_set_once(self, capsys):
        """z1 .. z21 appear in no equation, so the search sets each to one
        candidate and refutes z22 = ~z22 exactly, far below the bound that
        walking their 2^21 settings reached."""
        zs = " ".join(f"z{j}" for j in range(1, 23))
        code, payload = invoke_json(
            capsys, "check", "--no-shortcut", "--model", "two", "--sentence", f"exists! {zs} : z22 = ~z22"
        )
        assert code == 4
        assert (payload["verdict"]["detail"], payload["verdict"]["confidence"]) == ("sampled: no z-solution", "exact")

    @pytest.mark.parametrize("sentence, detail", [
        ("forall x1 exists! z1 z2 : z1 + z2 = x1 & z1 = z2", "sampled: 155 distinct x-assignments"),
        ("forall x1 x2 exists! z1 z2 : z1 + z2 = x1 + x2 & z1 + -z2 = x1 + -x2",
         "sampled: 281 distinct x-assignments (search bound 2097152 reached)"),
    ])
    def test_coupled_two_z_at_the_default_budget(self, capsys, sentence, detail):
        """Both equations read z2, so the search tests every pair of
        candidates.  The second system, whose pools of up to about a hundred
        values make about 7,500 tests an assignment on average, reaches the
        bound after 281 of its 486 distinct assignments and passes on those."""
        code, payload = invoke_json(capsys, "check", "--model", "q", "--sentence", sentence)
        verdict = payload["verdict"]
        assert (code, verdict["status"], verdict["detail"]) == (0, "consistent-on-sample", detail)

    def test_factoring_past_the_trial_bound_is_3(self, capsys):
        # two prime factors near 1.3 * 10^12, both above the trial bound
        code = run(["classify", "--sig", "group", "--sentence", "delta 3317044064679887385961981"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: factoring k = 3317044064679887385961981:")

    @pytest.mark.parametrize("k", ["2000", "1000000"])
    def test_epsilon_of_large_k(self, capsys, k):
        code, payload = invoke_json(capsys, "classify", "--sig", "mv", "--sentence", f"epsilon {k}")
        assert code == 0
        assert (payload["class"], payload["primes"]) == ("divisible", [2, 5])


class TestVariablesByPosition:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--sig", "mv", "--sentence", "epsilon 3"],
            ["classify", "--sig", "mv", "--sentence", _meet_chain(6)],
            ["decompose", "--sentence", "epsilon 2"],
            ["check", "--model", "gamma(q)", "--sentence", "epsilon 3", "--no-shortcut",
             "--budget", "100"],
            ["check", "--model", "two", "--sentence", "epsilon 3"],
            ["check", "--model", "qs:2,3", "--sentence", "delta 6", "--no-shortcut"],
        ],
    )
    def test_no_variable_is_hashed_on_the_query_path(self, monkeypatch, capsys, argv):
        """The solver, the Phi_rad branches and the classifiers read a
        variable by its kind and index, never through a Var-keyed set or
        dict.  A refutation's witness and a parsed --assign, keyed by Var at
        the edges, are not met here."""

        def refuse(v):
            raise AssertionError(f"{v.kind}{v.index} hashed")

        monkeypatch.setattr(Var, "__hash__", refuse)
        assert run(argv) == 0, capsys.readouterr().err
        capsys.readouterr()


class TestExactCheck:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_two_element_model_is_checked_exhaustively(self, capsys, seed):
        code, payload = invoke_json(
            capsys, "check", "--model", "two", "--seed", str(seed), "--sentence", TWO_ONE_FAILURE
        )
        assert code == 4
        assert payload["verdict"] == {
            "status": "falsified",
            "confidence": "exact",
            "witness": {"x": {f"x{i}": str(i % 2) for i in range(1, 11)}, "solutions": []},
            "detail": "exhaustive over {0,1}^10: no z-solution",
        }

    def test_two_element_refutation_names_both_solutions(self, capsys):
        # at x1 = 0, z1 = 0 and z1 = 1 both solve z1 /\ x1 = 0; the sampler names the same two
        sentence = r"forall x1 exists! z1 : z1 /\ x1 = 0"
        verdicts = []
        for flag in ((), ("--no-shortcut",)):
            code, payload = invoke_json(capsys, "check", "--model", "two", "--sentence", sentence,
                                        *flag)
            assert code == 4
            verdicts.append(payload["verdict"])
        exhaustive, sampled = verdicts
        assert exhaustive == {
            "status": "falsified",
            "confidence": "exact",
            "witness": {"x": {"x1": "0"}, "solutions": [["0"], ["1"]]},
            "detail": "exhaustive over {0,1}^1: two distinct z-solutions",
        }
        assert sampled["witness"] == exhaustive["witness"]
        assert sampled["detail"] == "sampled: two distinct z-solutions"

    def test_big_k_is_decided_without_factoring(self, capsys, monkeypatch):
        def refuse(k):
            raise AssertionError(f"prime_factors({k}) called")

        for name, module in list(sys.modules.items()):
            if name.startswith("efdkit") and hasattr(module, "prime_factors"):
                monkeypatch.setattr(module, "prime_factors", refuse)
        code, payload = invoke_json(
            capsys, "check", "--model", "qs:2", "--sentence", f"delta {BIG_PRIME}"
        )
        assert code == 4
        assert payload["verdict"]["detail"] == f"classification: delta_{BIG_PRIME}"

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("axioms", "--base", "lp", "--primes", BIG_PRIME), 0),
            (("check", "--model", f"qs:{BIG_PRIME}", "--sentence", "delta 2"), 4),
            (("classify", "--sig", "group", "--sentence", f"delta {BIG_PRIME}"), 0),
        ],
    )
    def test_large_primes_are_decided_at_once(self, capsys, argv, expected):
        code, out = invoke(capsys, *argv)
        assert code == expected
        assert BIG_PRIME in out

    @pytest.mark.parametrize(
        "model,sentence,expected",
        [
            ("cone(qs:2)", "delta 6", ("falsified", "delta_6")),
            ("cone(lex(q,qs:3))", "delta 9", ("holds", "delta_9")),
            ("cone(z)", "forall x1 exists! z1 : 2 z1 = x1 + x1", ("holds", "delta_1")),
        ],
    )
    def test_cone_is_classified(self, capsys, model, sentence, expected):
        code, payload = invoke_json(capsys, "check", "--model", model, "--sentence", sentence)
        status, kprime = expected
        assert code == (0 if status == "holds" else 4)
        assert payload["verdict"] == {
            "status": status,
            "confidence": "exact",
            "witness": None,
            "detail": f"classification: {kprime}",
        }

    @pytest.mark.parametrize("model", ["gamma(q)", "gamma(z)"])
    def test_gamma_trivial_class_is_exact(self, capsys, model):
        # at x1 = 1 in the two-element model, z1 = ~z1 /\ 1 has no solution
        code, payload = invoke_json(
            capsys, "check", "--model", model, "--sentence",
            r"forall x1 exists! z1 : z1 = ~z1 /\ x1",
        )
        assert code == 4
        assert payload["verdict"] == {
            "status": "falsified",
            "confidence": "exact",
            "witness": None,
            "detail": "classification: trivial, no unique two-element solution at e-bar = (1,)",
        }

    def test_no_shortcut_samples(self, capsys):
        code, payload = invoke_json(
            capsys, "check", "--model", "two", "--sentence", "epsilon 3", "--no-shortcut"
        )
        assert code == 0
        assert payload["verdict"]["status"] == "consistent-on-sample"
        assert payload["verdict"]["confidence"] == "sampled"


_GROUP_MODELS = ["z", "q", "qs:2", "qs:3", "qs:2,3", "lex(z,q)", "lex(q,qs:2)", "lex(qs:3,q)"]
_CONE_MODELS = ["cone(z)", "cone(q)", "cone(qs:2)", "cone(qs:2,3)", "cone(lex(z,q))",
                "cone(lex(q,qs:3))"]
_GAMMA_MODELS = ["gamma(z)", "gamma(q)", "gamma(qs:2)", "gamma(qs:3)", "gamma(qs:2,3)"]


def _random_check_pair(rng, i):
    """A group model with a random delta_{k,t}, a cone with a random hoop
    k z1 = t, or a Gamma model with epsilon_k or a random single-equation
    MV sentence in z1."""
    if i % 3 < 2:
        sig, models = ((Signature.GROUP, _GROUP_MODELS), (Signature.HOOP, _CONE_MODELS))[i % 3]
        a = parse_model(rng.choice(models))
        t = random_term(rng, sig, rng.randint(1, 2), rng.randint(1, 3), coeff=4)
        lhs = scalar(rng.randint(1, 12), zvar(1))
        return a, EFDSentence(sig, max(1, max_index(t, "x")), 1, ((lhs, t),))
    a = parse_model(rng.choice(_GAMMA_MODELS))
    if rng.random() < 0.5:
        return a, build_epsilon_k(rng.randint(1, 12))
    n = rng.randint(1, 2)
    lhs = random_term(rng, Signature.MV, n, rng.randint(1, 3), coeff=4, kinds=("x", "z"), m=1)
    rhs = random_term(rng, Signature.MV, n, rng.randint(0, 2), coeff=4)
    n = max(1, max_index(lhs, "x"), max_index(rhs, "x"))
    return a, EFDSentence(Signature.MV, n, 1, ((lhs, rhs),))


class TestExactAgainstSampled:
    def test_sampling_never_contradicts_the_exact_verdict(self):
        rng = random.Random(7)
        decided = {"holds": 0, "falsified": 0}
        cones = 0
        for i in range(300):
            a, phi = _random_check_pair(rng, i)
            exact = check_sentence(a, phi, budget=1)
            classified = exact.detail.startswith("classification: ")
            if isinstance(a, PositiveCone):
                # every hoop k z1 = t is classified
                assert classified, (a, phi)
                cones += 1
            if not classified:
                continue
            decided[exact.status] += 1
            sampled = check_sentence_sampled(a, phi, budget=60, seed=i)
            if exact.status == "holds":
                # one z is solved exactly at each sampled assignment
                assert sampled.status == "consistent-on-sample", (a, phi, sampled)
            else:
                assert sampled.status == "falsified", (a, phi)
        assert min(decided.values()) >= 100 and cones == 100, (decided, cones)


class TestOneZSolve:
    """Sampled one-z sentences whose solutions no candidate pool holds: the
    exact solve finds them, and a refutation by two of them is exact."""

    @pytest.mark.parametrize(
        "sentence",
        [
            r"forall x1 exists! z1 : -z1 = (x1 \/ z1) + (z1 \/ x1)",
            r"forall x1 x2 exists! z1 : -(x2 + z1) = z1 /\ x2",
        ],
    )
    def test_true_sentences_pass(self, capsys, sentence):
        code, payload = invoke_json(capsys, "check", "--model", "q", "--sentence", sentence)
        assert code == 0
        assert payload["verdict"]["status"] == "consistent-on-sample"

    def test_two_roots_refute_exactly(self, capsys):
        code, payload = invoke_json(
            capsys, "check", "--model", "q", "--sentence",
            r"forall x1 exists! z1 : -z1 \/ 4 z1 = (x1 \/ z1) + (x1 \/ z1)",
        )
        assert code == 4
        verdict = payload["verdict"]
        assert (verdict["status"], verdict["confidence"]) == ("falsified", "exact")
        assert verdict["detail"] == "sampled: two distinct z-solutions"
        assert verdict["witness"] == {"x": {"x1": "1"}, "solutions": [["-2"], ["1/2"]]}

    def test_only_a_one_z_solver_loads_onez(self):
        """efdkit.onez is imported when a one-z solver outside two is built:
        checks on two, classify, decompose and each kind of cli-cold query
        (lattice, axioms, fulldim, classify group, eval) leave it unloaded,
        and a sampled check on gamma(q) loads it.  One interpreter runs them
        in this order and reports, after each, its exit code and whether
        the module is loaded."""
        argvs = [
            ["check", "--model", "two", "--sentence", "epsilon 3"],
            ["check", "--no-shortcut", "--model", "two", "--sentence", "epsilon 3"],
            ["classify", "--sig", "mv", "--sentence", "epsilon 3"],
            ["decompose", "--sentence", "epsilon 2"],
            ["lattice", "--op", "meet", "--left", "divisible:2", "--right", "divisible:3"],
            ["axioms", "--base", "bal", "--primes", "2"],
            ["fulldim", "--rows", "1,0;0,1"],
            ["classify", "--sig", "group", "--sentence", r"delta 6 : 2 x1 \/ -3 x2"],
            ["eval", "--model", "gamma(q)", "--term", "~x1", "--assign", "x1=(0, 1/2)"],
            ["check", "--no-shortcut", "--model", "gamma(q)", "--sentence", "epsilon 3",
             "--budget", "10"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "import efdkit.cli as cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        print(cli.run(argv), 'efdkit.onez' in sys.modules, file=sys.stderr)\n"
        )
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert done.stderr.splitlines() == ["0 False"] * (len(argvs) - 1) + ["0 True"]

    def test_two_z_without_a_candidate_is_inconclusive(self, capsys):
        code, payload = invoke_json(
            capsys, "check", "--model", "q", "--sentence",
            "forall x1 x2 exists! z1 z2 : z1 + z2 = x1 & z1 + -z2 = x2",
        )
        assert code == 3
        verdict = payload["verdict"]
        assert (verdict["status"], verdict["confidence"]) == ("inconclusive", "sampled")
        assert verdict["detail"] == "sampled: no z-solution among candidates"


# The efdkit modules every CLI query executes: cli and what its module level reads.
_CLI = ("cli", "errors", "record", "terms")
_CANON = (*_CLI, "canonical", "geometry")
_GROUP = (*_CANON, "lattice")


class TestColdStart:
    # (argv, or [] for "import efdkit.cli" alone and None for "import efdkit";
    # the efdkit modules it executes)
    EXECUTED = [
        (None, ()),
        ([], _CLI),
        (["parse", "--sig", "mv", "--sentence", "absurd"], _CLI),
        (["canon", r"x1 \/ x2"], _CANON),
        (["reduce", "--k", "2", "--term", "x1"], _CANON),
        (["classify", "--sig", "group", "--sentence", "delta 6"], (*_GROUP, "translate")),
        (["classify", "--sig", "mv", "--sentence", "epsilon 3"], (*_GROUP, "models", "translate")),
        (["translate", "--direction", "star", "--sentence", "delta 2"], (*_GROUP, "translate")),
        (["translate", "--direction", "mv-hoop", "--sentence", "epsilon 2"],
         (*_GROUP, "translate")),
        (["decompose", "--sentence", "epsilon 2"], (*_GROUP, "models", "translate")),
        (["fulldim", "--rows", "1,0"], (*_CLI, "geometry")),
        (["eval", "--model", "q", "--term", "x1", "--assign", "x1=1"],
         (*_CLI, "lattice", "models")),
        (["check", "--model", "two", "--sentence", "epsilon 3"],
         (*_GROUP, "models", "translate")),
        (["lattice", "--op", "meet", "--left", "trivial", "--right", "boolean", "--family", "P"],
         (*_CLI, "lattice")),
        (["axioms", "--base", "bal", "--primes", "2"], (*_CLI, "lattice")),
        (["selftest", "lattice-laws", "--budget", "1"],
         (*_GROUP, "gen", "models", "selftest", "translate")),
    ]

    def test_each_query_executes_only_the_modules_it_runs(self):
        """The package registers its modules lazily and each runs on first
        use, so a cold query compiles only what it runs.  One interpreter
        takes each argv in turn: it drops every efdkit module, imports
        efdkit.cli afresh (or efdkit alone), runs the argv and reports its exit code and the
        efdkit modules executed.  A lazy module that has not run still has
        LazyLoader's own subclass of ModuleType."""
        code = (
            "import contextlib, importlib, io, json, sys, types\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    for name in [n for n in sys.modules if n.split('.')[0] == 'efdkit']:\n"
            "        del sys.modules[name]\n"
            "    cli = importlib.import_module('efdkit' if argv is None else 'efdkit.cli')\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = cli.run(argv) if argv else 0\n"
            "    print(status, *sorted(n for n, m in sys.modules.items()\n"
            "                          if n.startswith('efdkit.') and type(m) is types.ModuleType))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps([argv for argv, _ in self.EXECUTED])],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert done.stdout.splitlines() == [
            " ".join(["0", *sorted(f"efdkit.{m}" for m in modules)])
            for _, modules in self.EXECUTED
        ]


class TestCandidatePool:
    """z1 = t(x) holds in each model below, though no x-value divided by at
    most 12 is its solution: a cone classifies it, and under --no-shortcut
    the value of t(x) seeds the candidate pool."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--model", "cone(q)", "--sentence", "forall x1 exists! z1 : z1 = 3 x1"),
            ("--model", "cone(q)", "--sentence", "forall x1 exists! z1 : z1 = 3 x1",
             "--no-shortcut"),
            ("--model", "gamma(q)", "--sentence", "forall x1 exists! z1 : z1 = x1^2",
             "--no-shortcut"),
        ],
    )
    def test_the_value_of_the_z_free_side_is_a_candidate(self, capsys, argv):
        code, payload = invoke_json(capsys, "check", *argv)
        assert code == 0
        assert payload["verdict"]["status"] in ("holds", "consistent-on-sample")


class TestEverySolutionCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--sentence", "exists! z1 : z1 + -z1 = 0"),
            ("--sentence", "forall x1 exists! z1 : z1 + -z1 = 0", "--budget", "1"),
        ],
    )
    def test_every_z_solving_is_falsified(self, capsys, argv):
        code, payload = invoke_json(capsys, "check", "--model", "q", *argv)
        assert code == 4
        verdict = payload["verdict"]
        assert verdict["status"] == "falsified"
        assert verdict["confidence"] == "exact"
        assert verdict["detail"] == "sampled: two distinct z-solutions"
        assert len(verdict["witness"]["solutions"]) == 2


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, capsys):
        argv = ("check", "--model", "gamma(qs:2)", "--sentence", "epsilon 2",
                "--seed", "17")
        _, out1 = invoke(capsys, *argv)
        _, out2 = invoke(capsys, *argv)
        assert out1 == out2

    def test_env_seed_override(self, capsys, monkeypatch):
        seeds = []
        original = models.check_sentence_sampled

        def recording(a, phi, budget, seed):
            seeds.append(seed)
            return original(a, phi, budget=budget, seed=seed)

        monkeypatch.setattr(models, "check_sentence_sampled", recording)
        argv = ("check", "--model", "gamma(q)", "--sentence", "epsilon 2",
                "--no-shortcut", "--budget", "20")
        for value in ("99", "5", "99"):
            monkeypatch.setenv("EFDKIT_SEED", value)
            assert invoke(capsys, *argv)[0] == 0
        assert invoke(capsys, *argv, "--seed", "7")[0] == 0
        monkeypatch.delenv("EFDKIT_SEED")
        assert invoke(capsys, *argv)[0] == 0
        assert seeds == [99, 5, 99, 7, cli.DEFAULT_SEED]

    def test_error_text_is_independent_of_the_hash_seed(self):
        """The leftmost variable out of range is named, whatever order a
        hash seed gives a set of variables."""
        argv = ["check", "--model", "q", "--sentence", "forall x1 exists! z1 : z1 = x5 + x7 + x9 + x3"]
        src = str(Path(cli.__file__).parents[1])
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "efdkit.cli", *argv], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            )
            assert (done.returncode, done.stderr) == (2, "error: variable x5 out of range\n"), seed

    def test_consecutive_runs_share_no_state(self, capsys):
        two = ("classify", "--sig", "mv", "--sentence", "epsilon 2",
               "--sentence", "epsilon 3")
        one = ("classify", "--sig", "mv", "--sentence", "epsilon 5")
        src = str(Path(cli.__file__).parents[1])
        alone = {
            argv: subprocess.run(
                [sys.executable, "-m", "efdkit.cli", *argv], capture_output=True,
                text=True, env={**os.environ, "PYTHONPATH": src},
            )
            for argv in (two, one)
        }
        assert alone[two].stdout != alone[one].stdout
        for argv in (two, one, two):
            assert invoke(capsys, *argv) == (alone[argv].returncode, alone[argv].stdout)

    def test_text_format(self, capsys):
        code, out = invoke(
            capsys, "reduce", "--k", "4", "--term", r"2 x1 \/ 6 x1",
            "--format", "text",
        )
        assert code == 0
        assert "k_prime: 2" in out


# JSON values as efdkit's payloads hold them, and the strings and integers
# json escapes or prints specially: control and non-ASCII characters, astral
# code points, negative and big integers.
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
    | st.text(st.characters(min_codepoint=0, max_codepoint=0x2030))
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    """The CLI's JSON writer is byte-identical to json.dumps(sort_keys=True,
    indent=2), which it replaces."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_rejects_what_json_rejects(self):
        # of the records, only the ten term node types are written
        for value in (Fraction(1, 2), {1}, [object()], build_epsilon_k(2)):
            with pytest.raises(TypeError):
                json.dumps(value)
            with pytest.raises(TypeError):
                cli._json_text(value)

    def test_rejects_floats_and_non_string_keys(self):
        # output is exact, so a float in a payload is a defect, not a value
        for value in (0.5, {1: "a"}):
            with pytest.raises(TypeError):
                cli._json_text(value)

    def test_term_at_the_depth_bound(self, capsys):
        # the writer recurses once per level: MAX_DEPTH term nodes stay far
        # below the interpreter's recursion limit
        code, out = invoke(capsys, "parse", "--sig", "group", "--term=" + "-" * (MAX_DEPTH - 1) + "x1")
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        node, depth = payload["term"], 1
        while "arg" in node:
            node, depth = node["arg"], depth + 1
        assert depth == MAX_DEPTH

    @pytest.mark.parametrize("argv, side, deepest", [
        (["parse", "--sig", "group"], "-" * (MAX_DEPTH - 1) + "x1", MAX_DEPTH),
        # the star image of x1 is x1 \/ -x1, a level deeper, and it prints in
        # parentheses: MAX_DEPTH summands print 3 levels past MAX_DEPTH, which
        # parse refuses (exit 3, TestPrintedImages), MAX_DEPTH - 3 at MAX_DEPTH
        (["translate", "--direction", "star"], " + ".join(["x1"] * MAX_DEPTH), None),
        (["translate", "--direction", "star"], " + ".join(["x1"] * (MAX_DEPTH - 3)), MAX_DEPTH - 2),
    ])
    def test_sentence_at_the_depth_bound(self, capsys, argv, side, deepest):
        # a sentence side MAX_DEPTH deep, written inside the sentence's AST
        code, out = invoke(capsys, *argv, "--sentence", f"forall x1 exists! z1 : z1 = {side}")
        if deepest is None:
            assert (code, out) == (3, "")
            return
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if argv[0] == "parse":
            (sentence,) = payload["sentences"]
        else:
            sentence = payload["sentence"]
        node, depth = sentence["ast"]["equations"][0]["rhs"], 1
        while node["op"] != "var":
            node, depth = node.get("arg") or node["left"], depth + 1
        assert depth == deepest
        _reads_back(sentence)


def _reads_back(sentence: dict) -> int:
    """Assert that parse reads a printed sentence back as the AST printed
    with it, and return the printed depth of its deepest side."""
    ast = sentence["ast"]
    phi = terms.parse_sentence(sentence["printed"], Signature(ast["signature"]))
    assert [{"lhs": terms.term_to_json(a), "rhs": terms.term_to_json(b)}
            for a, b in phi.equations] == ast["equations"]
    return max(terms.printed_depth(t) for eq in phi.equations for t in eq)


def _image_argv(kind: str, size: int) -> list:
    """An argv whose printed image nests size - MAX_DEPTH levels past the
    bound, or, for "equations", holds that many equations."""
    star, hoop = ["translate", "--direction", "star"], ["translate", "--direction", "mv-hoop"]
    if kind == "star-term":  # (x1 \/ -x1) + ... + (x1 \/ -x1)
        return [*star, "--term", " + ".join(["x1"] * (size - 3))]
    if kind == "star-sentence":
        return [*star, "--sentence", "forall x1 exists! z1 : z1 = " + " + ".join(["x1"] * (size - 3))]
    if kind == "equations":  # star adds z1 \/ 0 = z1
        return [*star, "--sentence", _equations(size - 1)]
    if kind == "mv-hoop":  # p \/ x2 maps to p + (x2 -. p)
        side = " + ".join(["x1"] * (size - 4)) + r" \/ x2"
        return [*hoop, "--sentence", f"forall x1 x2 exists! z1 : z1 = {side}"]
    # decompose: a branch sums x1^2 and the distance (l -. r) + (r -. l) of
    # each of 100 equations z1 = x1 + ... + x1
    equation = "z1 = " + " + ".join(["x1"] * (size - 106))
    return ["decompose", "--sentence", "forall x1 exists! z1 : " + " & ".join([equation] * 100)]


_IMAGES = ["star-term", "star-sentence", "equations", "mv-hoop", "decompose"]


class TestPrintedImages:
    """translate and decompose print only images that parse reads back:
    past MAX_DEPTH levels or equations they exit 3 and name the bound.
    Depth is counted as the printer brackets (terms.printed_depth)."""

    @pytest.mark.parametrize("kind", _IMAGES)
    def test_an_image_at_the_bound_reads_back(self, capsys, kind):
        code, out = invoke(capsys, *_image_argv(kind, MAX_DEPTH))
        assert code == 0
        payload = json.loads(out)
        if kind == "star-term":
            t = parse_term(payload["printed"], Signature.GROUP)
            assert terms.term_to_json(t) == payload["term"]
            assert terms.printed_depth(t) == MAX_DEPTH
            return
        if "branches" in payload:
            sentences = [branch["sentence"] for branch in payload["branches"]]
        else:
            sentences = [payload["sentence"]]
        deepest = max(_reads_back(sentence) for sentence in sentences)
        if kind == "equations":
            assert len(sentences[0]["ast"]["equations"]) == MAX_DEPTH
        else:
            assert deepest == MAX_DEPTH

    @pytest.mark.parametrize("kind", _IMAGES)
    def test_an_image_past_the_bound_exits_3(self, capsys, kind):
        code = run(_image_argv(kind, MAX_DEPTH + 1))
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert f"MAX_DEPTH = {MAX_DEPTH}" in captured.err


def _nested(value, levels: int):
    """value at indentation levels inside dicts and lists, in turn."""
    for level in range(levels):
        value = {"a": 1, "t": value, "u": [value]} if level % 2 else [0, value]
    return value


class TestTermWriter:
    """A payload holds terms themselves, which cli._write_json writes straight
    from the term (terms.write_json): byte for byte what json.dumps writes
    of the same payload with terms.term_to_json in their place."""

    def test_matches_the_dict_route(self):
        rng = random.Random(40)
        # a negative scalar, a shared subterm and the largest index, then random terms
        samples = [scalar(-3, xvar(1)), Meet(xvar(2), xvar(2)), Var("z", 100)]
        for sig in Signature:
            for depth in range(1, 7):
                samples += [random_term(rng, sig, 3, depth, kinds=("x", "z"), m=2)
                            for _ in range(10)]
        for t in samples:
            for levels in range(4):
                assert cli._json_text(_nested(t, levels)) == json.dumps(
                    _nested(terms.term_to_json(t), levels), sort_keys=True, indent=2)

    def test_json_output_builds_no_dict_tree(self, capsys, monkeypatch):
        def refused(*args):
            raise AssertionError("the dict route ran")

        runs = [
            ["parse", "--sig", "group", "--term", r"2 x1 \/ -x2"],
            ["parse", "--sig", "mv", "--sentence", "epsilon 2", "--sentence", "boolean",
             "--sentence", "absurd"],
            ["translate", "--direction", "star", "--term", "x1 -. 2 x2"],
            ["translate", "--direction", "star", "--sentence", "delta 2"],
            ["translate", "--direction", "mv-hoop", "--sentence", "epsilon 3"],
            ["decompose", "--sentence", r"forall x1 x2 exists! z1 : z1 = x1 /\ x2"],
        ]
        with monkeypatch.context() as patched:
            patched.setattr(terms, "term_to_json", refused)
            patched.setattr(terms, "_json_node", refused)
            for argv in runs:
                code, out = invoke(capsys, *argv)
                assert code == 0, argv
                assert '"op": "var"' in out
        for argv in runs:  # --format text writes each term as the dict of term_to_json
            code, out = invoke(capsys, *argv, "--format", "text")
            assert code == 0, argv
            assert out.startswith(f"schema: efdkit/{argv[0]}/")
            assert "  op: var\n" in out


# ---------------------------------------------------------------------------
# argv parsing: the option tables against argparse, which parses every argv
# that the tables decline

_OPTION_NAMES = sorted({e[0] for *_, table in cli._COMMANDS.values() for e in table
                        if e[0][0] == "-"})
# literals the commands read, and tokens that the tables or argparse reject
_LITERALS = ["x1", "all", "divisible:2", "trivial", "boolean", "lp:2", "bal:classical", "2,3",
             "4", "1,0;-1,0", "1,0;0", "1,a", r"x1 \/ -x1", "~x1", "delta", "delta 2",
             "delta : x1", "epsilon 2", "forall x1 exists! z1 : z1 = x1", "q", "gamma(q)", "two",
             "nope", "x1=1", "x1=(0, 1/2)", "x1=1/0", "=1", "x1", "x2=3;x1=1", "", "x",
             "x1=1.5", "x1=(x, 1)", "\u0663", "9" * 5000]
_ODD = ["-1", "-5", "07", " 3", "1_0", "+2", "1.5", "-x1", "-", "--", "--cap", "-h", "x1 -1"]
# every subcommand but selftest, whose suites are not bounded by these options
_TOTAL = [command for command in cli._COMMANDS if command != "selftest"]


@st.composite
def _argv(draw, commands):
    """A subcommand with its options in any order: --opt value and
    --opt=value, repeated and missing options, foreign options,
    abbreviations, -h, --help, "--", and values that fit the option or
    not: choices, ints, literals and odd tokens."""
    command = draw(st.sampled_from(commands))
    table = cli._COMMANDS[command][2] if command in cli._COMMANDS else ()
    own = [e for e in table if e[0][0] == "-"]
    chosen = [e for e in own if e[5]] if draw(st.integers(0, 3)) else []
    chosen += draw(st.lists(st.sampled_from(own), max_size=4)) if own else []
    items = []
    for name, _, kind, choices, *_ in chosen:
        fits = list(choices or ()) or (["1", "2", "7"] if kind == "int" else _LITERALS)
        value = draw(st.sampled_from(fits if draw(st.integers(0, 3)) else _ODD + _LITERALS))
        shape = draw(st.sampled_from(["split", "split", "eq", "eq", "prefix"]))
        if kind == "flag":
            shape = draw(st.sampled_from(["bare"] * 5 + ["eq"]))
        if shape == "prefix":
            name = name[: draw(st.integers(3, max(3, len(name) - 1)))]
            shape = "split"
        items.append({"split": [name, value], "eq": [f"{name}={value}"], "bare": [name]}[shape])
    positional = [e for e in table if e[0][0] != "-"]
    if positional and draw(st.integers(0, 3)):
        word = draw(st.sampled_from(_LITERALS + _ODD))
        items.append(["--", word] if word[:1] == "-" else [word])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        other = draw(st.sampled_from(["word", "foreign", "special"]))
        if other == "word":
            items.append([draw(st.sampled_from(_LITERALS + _ODD))])
        elif other == "foreign":
            items.append([draw(st.sampled_from(_OPTION_NAMES)), draw(st.sampled_from(_LITERALS))])
        else:
            items.append([draw(st.sampled_from(["-h", "--help", "--nope", "-x", "--", "--=1"]))])
    items = draw(st.permutations(items))
    return [command] + [token for item in items for token in item]


def _argparse_attrs(argv):
    """vars() of argparse's Namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestArgvTables:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_argv([*cli._COMMANDS, "nope", "-h", "--help"]))
    def test_tables_agree_with_argparse_or_decline(self, argv):
        ours = cli._parse_argv(argv)
        if ours is not None:
            assert vars(ours) == _argparse_attrs(argv)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_argv(_TOTAL))
    def test_every_command_ends_with_an_exit_code(self, argv):
        """Ints are drawn from 1, 2 and 7, so --budget, --cap and --k stay
        small, and so do the sentences and terms of _LITERALS.  No literal
        reaches the user as Python's own conversion error."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:  # argparse: -h, --help or a usage error
                code = exc.code
                assert code in (0, 2)
        assert code in (0, 2, 3, 4)
        assert "invalid literal" not in err.getvalue().lower(), err.getvalue()
        if code == 2 and cli._parse_argv(argv) is not None:
            assert err.getvalue().startswith("error: ")

    def test_golden_argv_are_parsed_by_the_tables(self):
        from test_golden import CASES

        for argv in CASES.values():
            ours = cli._parse_argv(argv)
            assert ours is not None and vars(ours) == _argparse_attrs(argv), argv

    @pytest.mark.parametrize(
        "argv,attrs",
        [
            (["canon", "--cap=3", "--", "-x1"], {"cap": 3, "term": "-x1"}),
            (["check", "--model", "q", "--sentence", "a", "--sentence=b", "--no-shortcut"],
             {"sentence": ["a", "b"], "no_shortcut": True, "seed": None}),
            (["selftest", "--seed", "4", "piecewise"], {"suite": "piecewise", "seed": 4}),
            (["selftest"], {"suite": "all", "budget": None}),
            (["canon", "--cap", " 3 ", "x1"], {"cap": 3}),
            (["reduce", "--k", "\u0663", "--term", "x1"], {"k": 3}),
        ],
    )
    def test_tables_parse(self, argv, attrs):
        parsed = vars(cli._parse_argv(argv))
        assert parsed == _argparse_attrs(argv)
        assert attrs.items() <= parsed.items()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--"],
            ["-h"],
            ["canon", "-h"],
            ["canon", "--help"],
            ["check", "--mod", "q", "--sentence", "delta 2"],  # an abbreviation
            ["check", "--model", "q", "--sentence", "delta 2", "--seed", "-1"],
            ["check", "--model", "q", "--sentence", "delta 2", "--budget", "-5"],
            ["fulldim", "--rows", "1,0", "--"],
            ["canon", "x1", "--", "x2"],
            ["canon", "--", "--"],
            ["canon", "--cap", "x", "x1"],
            ["canon", "--format", "xml", "x1"],
            ["check", "--no-shortcut=1", "--model", "q", "--sentence", "delta 2"],
            ["eval", "--model", "q", "--term", "x1", "--assign="],
            ["reduce", "--k", "2"],
            ["selftest", "a", "b"],
        ],
    )
    def test_tables_decline(self, argv):
        assert cli._parse_argv(argv) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--k", "1_0", "--term", "2 x1"],
            ["check", "--budget", "+3", "--model", "q", "--sentence", "delta 2"],
            ["canon", "--cap", "1_0", "x1"],
            ["canon", "--cap=+3", "x1"],
        ],
    )
    def test_option_ints_are_integer_literals(self, capsys, argv):
        """An int option is read as every other integer literal, so an
        underscore or a plus sign is a usage error, in argparse's text."""
        assert cli._parse_argv(argv) is None
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_accepted_argv_do_not_import_argparse(self):
        """After argv that the tables parse, argparse is not loaded; an
        abbreviation loads it, and parses as the full option does."""
        code = (
            "import contextlib, io, json, sys\n"
            "import efdkit.cli as cli\n"
            "def run(argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = cli.run(argv)\n"
            "    print(json.dumps([code, out.getvalue(), 'argparse' in sys.modules]))\n"
            "run(['fulldim', '--rows=1,0'])\n"
            "run(['check', '--model', 'q', '--sentence', 'delta 2'])\n"
            "run(['check', '--mod', 'q', '--sentence', 'delta 2'])\n"
        )
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        fulldim, full, abbreviated = map(json.loads, done.stdout.splitlines())
        assert fulldim[0] == full[0] == 0
        assert not fulldim[2] and not full[2]
        assert abbreviated == [0, full[1], True]
