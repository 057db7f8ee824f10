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
    Signature,
    build_epsilon_k,
    max_index,
    parse_term,
    scalar,
    xvar,
    zvar,
)

from test_canonical import TWELVE_FORMS, count_lp_calls

# Fails in the two-element model only at x = (1, 0, 1, 0, 1, 0, 1, 0, 1, 0);
# the CI console-script step runs it too.
TWO_ONE_FAILURE = (
    r"forall x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 exists! z1 : z1 = ~z1 /\ "
    r"(x1 /\ ~x2 /\ x3 /\ ~x4 /\ x5 /\ ~x6 /\ x7 /\ ~x8 /\ x9 /\ ~x10)"
)
BIG_PRIME = "1000000000000000003"


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
        assert (len(calls), len(pieces)) == (354, 122)
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
        assert payload["schema"] == "efdkit/reduce/1"
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
        assert payload["schema"] == "efdkit/check/8"
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
        assert (code, len(calls)) == (3, 24)
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
        # without a canonical form; 2 z1 = |x1| /\ ... /\ |x6|, whose form
        # has an orthant copy of every piece, still needs more than 1000
        # cell tests, 330 of them LPs
        calls = count_lp_calls(monkeypatch)
        code, payload = invoke_json(capsys, "classify", "--sig", "mv", "--sentence", _meet_chain(6))
        assert (code, len(calls), payload["class"], payload["primes"]) == (0, 0, "divisible", [])
        xs = " ".join(f"x{i}" for i in range(1, 7))
        absolutes = r" /\ ".join(f"(x{i} \\/ -x{i})" for i in range(1, 7))
        code = run(["classify", "--sig", "group", "--sentence", f"forall {xs} exists! z1 : 2 z1 = {absolutes}"])
        captured = capsys.readouterr()
        assert (code, len(calls)) == (3, 330)
        assert captured.err == "error: the canonical form needs more than 1000 cell tests\n"

    def test_check_names_the_budget_that_sent_it_to_sampling(self, capsys):
        # 2 z1 = x1 + ... + x10 on cone(q) stars to 1024 orthant cells
        sentence = "forall " + " ".join(f"x{i}" for i in range(1, 11)) + " exists! z1 : 2 z1 = "
        sentence += " + ".join(f"x{i}" for i in range(1, 11))
        code, payload = invoke_json(
            capsys, "check", "--model", "cone(q)", "--budget", "3", "--sentence", sentence
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
            "detail": "exhaustive over {0,1}^10: no unique z-solution",
        }

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
            exact = cli._exact_check(a, phi)
            if isinstance(a, PositiveCone):
                # every hoop k z1 = t is classified
                assert exact is not None, (a, phi)
                cones += 1
            if exact is None:
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

    def test_two_z_without_a_candidate_is_inconclusive(self, capsys):
        code, payload = invoke_json(
            capsys, "check", "--model", "q", "--sentence",
            "forall x1 x2 exists! z1 z2 : z1 + z2 = x1 & z1 + -z2 = x2",
        )
        assert code == 3
        verdict = payload["verdict"]
        assert (verdict["status"], verdict["confidence"]) == ("inconclusive", "sampled")
        assert verdict["detail"] == "sampled: no z-solution among candidates"


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
        original = cli.check_sentence_sampled

        def recording(a, phi, budget, seed):
            seeds.append(seed)
            return original(a, phi, budget=budget, seed=seed)

        monkeypatch.setattr(cli, "check_sentence_sampled", recording)
        argv = ("check", "--model", "gamma(q)", "--sentence", "epsilon 2",
                "--no-shortcut", "--budget", "20")
        for value in ("99", "5", "99"):
            monkeypatch.setenv("EFDKIT_SEED", value)
            assert invoke(capsys, *argv)[0] == 0
        assert invoke(capsys, *argv, "--seed", "7")[0] == 0
        monkeypatch.delenv("EFDKIT_SEED")
        assert invoke(capsys, *argv)[0] == 0
        assert seeds == [99, 5, 99, 7, cli.DEFAULT_SEED]

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
        for value in (Fraction(1, 2), {1}, [object()]):
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
