import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import efdkit.cli as cli
from efdkit import canonical, geometry
from efdkit.cli import run
from efdkit.gen import random_rational_point
from efdkit.models import RationalGroup, eval_term
from efdkit.terms import Signature, parse_term, xvar

# Twelve forms in three variables, alternately joined and met; the CI
# console-script step runs it too.
TWELVE_FORMS = (
    r"((((((((((((-2 x1 + x2 + 3 x3) \/ (3 x1 + 3 x2 + -3 x3)) /\ (-x1 + -3 x2))"
    r" \/ (3 x1)) /\ (2 x1 + 3 x3)) \/ (-2 x1 + -3 x2)) /\ (-3 x1 + 3 x2))"
    r" \/ (x2 + 3 x3)) /\ (3 x1 + -3 x2 + 2 x3)) \/ (-x2 + 2 x3))"
    r" /\ (3 x1 + -2 x2 + x3)) \/ (-3 x1 + -x2 + -3 x3))"
)


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
        assert payload["schema"] == "efdkit/canon/2"
        assert len(payload["piecewise"]["pieces"]) == 2
        forms = {tuple(p["form"]) for p in payload["piecewise"]["pieces"]}
        assert forms == {(2,), (6,)}

    def test_canon_twelve_forms(self, capsys, monkeypatch):
        calls = 0
        inner = geometry.feasible_point

        def counting(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        monkeypatch.setattr(geometry, "feasible_point", counting)
        monkeypatch.setattr(canonical, "feasible_point", counting)
        code, payload = invoke_json(capsys, "canon", "--cap", "12", TWELVE_FORMS)
        assert code == 0
        pieces = payload["piecewise"]["pieces"]
        assert (calls, len(pieces)) == (724, 122)
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
        assert payload["verdict"]["status"] == "consistent-on-sample"
        assert payload["verdict"]["confidence"] == "exact"

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

    def test_cap_exceeded_is_3(self, capsys):
        term = r" \/ ".join(f"{k} x1 + {k + 1} x2" for k in range(1, 11))
        code, _ = invoke(capsys, "canon", term)
        assert code == 3

    def test_property_failure_is_4(self, capsys):
        code, payload = invoke_json(
            capsys, "check", "--model", "qs:2", "--sentence", "delta 3"
        )
        assert code == 4
        assert payload["verdict"]["status"] == "falsified"

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
        code = run(["lattice", "--op", "meet", "--left", "divisible:2",
                    "--right", "divisible:3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "EFDKIT_SEED" in captured.err

    def test_invalid_env_seed_unused_with_seed_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("EFDKIT_SEED", "abc")
        code, payload = invoke_json(
            capsys, "lattice", "--op", "meet", "--left", "divisible:2",
            "--right", "divisible:3", "--seed", "3",
        )
        assert code == 0
        assert payload["meet"] == {"family": "G", "class": "divisible", "primes": [2, 3]}

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
        code = run([*argv, "--budget", budget])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--budget must be >= 1" in captured.err
        assert run([*argv, "--budget", "1"]) == 0  # the same argv is valid otherwise

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
        assert verdict["detail"] == "two distinct z-solutions"


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
