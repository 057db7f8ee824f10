import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import efdkit.cli as cli
from efdkit.cli import run


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
        assert payload["schema"] == "efdkit/canon/1"
        assert len(payload["piecewise"]["pieces"]) == 2
        forms = {tuple(p["form"]) for p in payload["piecewise"]["pieces"]}
        assert forms == {(2,), (6,)}

    def test_reduce(self, capsys):
        code, payload = invoke_json(
            capsys, "reduce", "--k", "4", "--term", r"2 x1 \/ 6 x1"
        )
        assert code == 0
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

    def test_zero_denominator_is_2(self, capsys):
        code = run(["eval", "--model", "q", "--term", "x1", "--assign", "x1=1/0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "zero denominator" in captured.err


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
