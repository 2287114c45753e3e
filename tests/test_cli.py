import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from deontic import bundled
from deontic.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "parse", "Ps(p | q) & O ~p")
        assert code == 0
        assert out.strip() == "Ps(p | q) & O ~p"

    def test_syntax_error_exits_2(self, capsys):
        code, _, err = run(capsys, "parse", "Ps(p|q")
        assert code == 2
        assert "position" in err

    def test_json_ast(self, capsys):
        code, out, _ = run(capsys, "parse", "--json", "O a")
        assert code == 0
        payload = json.loads(out)
        assert payload["ast"]["op"] == "O"


class TestEvalCommand:
    def test_world_evaluation(self, capsys):
        code, out, _ = run(
            capsys, "eval", "Ps(~a | c)", "--model", "fixtures/corollary3_model1",
            "--world", "w1",
        )
        assert code == 0 and out.strip() == "true"

    def test_truth_set(self, capsys):
        code, out, _ = run(capsys, "eval", "~a | c", "--model", "corollary3_model1")
        assert code == 0 and out.strip() == "{w1, w2, w3}"

    def test_missing_model(self, capsys):
        code, _, err = run(capsys, "eval", "p", "--model", "nonexistent")
        assert code == 2 and "nonexistent" in err


class TestClassifyCommand:
    def test_fixture_classification(self, capsys):
        code, out, _ = run(capsys, "classify", "fixtures/corollary3_model1")
        assert code == 0
        lines = {l.split()[0]: l for l in out.strip().splitlines()}
        assert "satisfied" in lines["AFCPO"]
        assert "violated" in lines["IFCPO"]

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", "corollary3_model1")
        payload = json.loads(out)
        assert payload["AFCPO"]["status"] == "satisfied"
        assert payload["IFCPO"]["status"] == "violated"


class TestModelLoader:
    @pytest.mark.parametrize(
        "document,message",
        [
            ([{"worlds": ["w1"]}], "model document must be an object"),
            ({"worlds": "w1w2"}, "worlds: expected a list of world names"),
            ({"worlds": ["w1"], "N_P": []}, "N_P: expected an object"),
            ({"worlds": ["w1", "w2"], "N_O": {"w1": ["w1"]}}, "N_O(w1): expected a list"),
            ({"worlds": ["w1", "w2"], "valuation": {"a": "w1"}}, "valuation(a): expected a list"),
        ],
    )
    def test_wrong_type_exits_2_naming_the_field(self, capsys, tmp_path, document, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: " + message)


class TestFrameSize:
    """The frame commands take at most 12 worlds; ``eval`` takes any model."""

    def _model(self, tmp_path, n):
        path = tmp_path / f"frame{n}.json"
        path.write_text(json.dumps({"worlds": [f"w{i}" for i in range(1, n + 1)],
                                    "N_O": {"w1": [["w1"]]}, "N_P": {"w1": [["w1"]]}}))
        return str(path)

    @pytest.mark.parametrize("command, options", [
        ("classify", []), ("check-frame", ["--property", "AFCPO"]),
        ("check-frame", ["--schema", "AFCP_P"]), ("check-frame", ["--rule", "IFCP_P"]),
        ("closure", ["--which", "Ps"]),
    ])
    def test_thirteen_worlds_exit_2(self, capsys, tmp_path, command, options):
        code, out, err = run(capsys, command, self._model(tmp_path, 13), *options)
        assert code == 2 and out == ""
        assert err == "error: frame checks take 1 to 12 worlds, the model has 13\n"

    def test_eval_takes_thirteen_worlds(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", "O a", "--model", self._model(tmp_path, 13))
        assert code == 0 and out.strip() == "{}"

    def test_twelve_worlds_get_a_verdict(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-frame", self._model(tmp_path, 12), "--schema", "AFCP_P")
        assert code == 1 and out.strip() == "AFCP_P: violated at w1 under p={}, q={w1}"


class TestCheckFrame:
    def test_property_violated_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "check-frame", "corollary3_model1_mod", "--property", "OSupplemented"
        )
        assert code == 1 and "violated" in out

    def test_schema_valid_exits_0(self, capsys):
        code, out, _ = run(capsys, "check-frame", "corollary3_model1", "--schema", "AFCP_O")
        assert code == 0 and "valid" in out

    def test_rule_violated(self, capsys):
        code, out, _ = run(capsys, "check-frame", "corollary3_model1", "--rule", "IFCP_O")
        assert code == 1 and "violated" in out


class TestProve:
    def test_valid_script(self, capsys, tmp_path):
        script = tmp_path / "ok.proof"
        script.write_text(
            "system: E\ngoal: p -> p | q\n1. p -> p | q ; taut\n"
        )
        code, out, _ = run(capsys, "prove", str(script))
        assert code == 0 and out.strip() == "Valid"

    def test_invalid_script_exits_1(self, capsys, tmp_path):
        script = tmp_path / "bad.proof"
        script.write_text("system: E\ngoal: O p\n1. O p ; taut\n")
        code, out, _ = run(capsys, "prove", str(script))
        assert code == 1 and "Invalid" in out

    def test_extra_system_file(self, capsys, tmp_path):
        sysfile = tmp_path / "weird.json"
        sysfile.write_text(json.dumps({"name": "W1", "axioms": ["FCP"], "rules": []}))
        script = tmp_path / "w.proof"
        script.write_text(
            "system: W1\ngoal: Ps(p | q) -> Ps p & Ps q\n"
            "1. Ps(p | q) -> Ps p & Ps q ; ax FCP\n"
        )
        code, out, _ = run(capsys, "prove", str(script), "--system-file", str(sysfile))
        assert code == 0

    @pytest.mark.parametrize("document, message", [
        ({"axioms": ["D_s"]}, "a system definition is an object with a string 'name'"),
        ([1, 2], "a system definition is an object with a string 'name'"),
        ({"name": 5}, "a system definition is an object with a string 'name'"),
        ({"name": "X", "rules": 7}, "a system definition's 'rules' is a list of names"),
        ({"name": "X", "axioms": "D_s"}, "a system definition's 'axioms' is a list of names"),
        ({"name": "X", "rules": ["RM_Ps", 1]}, "a system definition's 'rules' is a list of names"),
    ])
    def test_malformed_system_file_exits_2(self, capsys, tmp_path, document, message):
        sysfile = tmp_path / "bad.json"
        sysfile.write_text(json.dumps(document))
        script = tmp_path / "ok.proof"
        script.write_text("system: E\ngoal: p -> p\n1. p -> p ; taut\n")
        code, out, err = run(capsys, "prove", str(script), "--system-file", str(sysfile))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestVerifyTable1:
    def test_all_green(self, capsys):
        code, out, _ = run(capsys, "verify-table1")
        assert code == 0
        assert "all derivability scripts valid" in out
        assert "IFCP2_O" in out and "SKIPPED" in out


class TestCountermodel:
    def test_found_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "countermodel", "--target", "IFCP_O", "--require", "AFCPO",
            "--max-worlds", "5", "--max-sets", "2", "--atoms", "a,b,c", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "Found"
        assert payload["model"]["worlds"]

    def test_exhausted_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "countermodel", "--target", "p -> p",
            "--max-worlds", "2", "--max-sets", "1", "--atoms", "p",
        )
        assert code == 1 and "ExhaustedUpToBounds" in out

    def test_bad_property_exits_2(self, capsys):
        code, _, err = run(
            capsys, "countermodel", "--target", "M_O", "--require", "Nonsense",
            "--max-worlds", "2", "--max-sets", "1", "--atoms", "a,b",
        )
        assert code == 2 and "unknown frame property" in err

    @pytest.mark.parametrize("target, atoms, message", [
        ("M_O", "a,a", "atom 'a' is given twice"),
        ("IFCP_O", "a,a,a", "atom 'a' is given twice"),
        ("M_O", "O,b", "invalid atom name 'O'; atoms match [a-z][a-z0-9_]*"),
        ("M_O", "1x,b", "invalid atom name '1x'"),
    ])
    def test_bad_atoms_exit_2(self, capsys, target, atoms, message):
        # A repeated atom would collapse two assignment variables into one, and a name the
        # parser rejects would be printed in the falsified instance.
        code, out, err = run(
            capsys, "countermodel", "--target", target, "--require", "AFCPO",
            "--max-worlds", "2", "--max-sets", "2", "--atoms", atoms,
        )
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", [(), ("--json",)], ids=["text", "json"])
    def test_timeout_reports_progress(self, capsys, flag):
        # Modal depth 2, so every world's columns are walked: at 3 worlds and 2 sets 0.2 s is
        # far too short.
        code, out, err = run(
            capsys, "countermodel", "--target", "Ps(a | b) & Pw a -> Ps a | O Ps a",
            "--require", "AFCPO,AFCPP", "--max-worlds", "3", "--max-sets", "2",
            "--atoms", "a,b", "--timeout-secs", "0.2", *flag,
        )
        assert code == 2 and out == ""
        m = re.fullmatch(r"error: countermodel search exceeded the time budget "
                         r"\(examined (\d+), pruned (\d+), (\d+\.\d{3})s\)\n", err)
        assert m, err
        examined, pruned, elapsed = int(m[1]), int(m[2]), float(m[3])
        assert 0 < examined and pruned <= examined and elapsed >= 0.2


    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_nan_or_negative_budget_exits_2(self, capsys, budget):
        code, out, err = run(
            capsys, "countermodel", "--target", "M_O", "--max-worlds", "2", "--max-sets", "1",
            "--atoms", "a,b", "--timeout-secs", budget,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: timeout_secs must be a non-negative number"), err
        assert budget in err


class TestRemainder:
    def test_remainder_output(self, capsys, tmp_path):
        theory = tmp_path / "theory.txt"
        theory.write_text("O ~p\nO ~q\nO ~r\n")
        code, out, _ = run(
            capsys, "remainder", "--disjunction", "p | q | r | s | t",
            "--theory", str(theory),
        )
        assert code == 0
        assert "remainder: Ps(s | t)" in out

    def test_full_elimination_exits_1(self, capsys, tmp_path):
        theory = tmp_path / "theory.txt"
        theory.write_text("O ~p\n")
        code, _, err = run(capsys, "remainder", "--disjunction", "p", "--theory", str(theory))
        assert code == 1 and "inconsistent" in err


class TestDemo:
    @pytest.mark.parametrize(
        "name,needle",
        [
            ("etiquette", "derived: Ps e"),
            ("online-return", "derived: O original"),
            ("five-disjuncts", "adding O ~s detaches: Ps t"),
            ("explosion", "derived: Ps p -> Ps q"),
            ("controlled-explosion", "derived: Ps q"),
        ],
    )
    def test_demo_output(self, capsys, name, needle):
        code, out, _ = run(capsys, "demo", name)
        assert code == 0
        assert needle in out

    def test_transcripts_byte_stable(self, capsys):
        _, first, _ = run(capsys, "demo", "five-disjuncts")
        _, second, _ = run(capsys, "demo", "five-disjuncts")
        assert first == second


class TestInclusions:
    def test_lattice_verifies(self, capsys):
        code, out, _ = run(capsys, "inclusions")
        assert code == 0
        # Verified, except the relation no script or separator settles, which is named.
        assert out.splitlines()[-1] == "lattice verified except pending: FCP_1 <= FCP_5"
        assert "order: E < Min < FCP_2 = FCP_4 < FCP_1 <= FCP_5 < FCP_3 = FCP_6" in out
        headers = [l for l in out.splitlines() if l.startswith(("E ", "Min ", "FCP_"))]
        assert len(headers) == 7
        # the one relation no separator settles is reported as pending, not as strict
        assert "FCP_1 <= FCP_5: same frame class; derivation pending" in headers

    def test_failing_script_exits_1(self, capsys, monkeypatch):
        from deontic import proof

        real = proof.load_script

        def broken(name):
            if name != "fcp2__afcp2_p.proof":
                return real(name)
            text = bundled.fixture_text(f"proofs/{name}")
            return proof.parse_proof_script(text.replace("; cpl 1,2,4", "; cpl 1,4"))

        monkeypatch.setattr(proof, "load_script", broken)
        code, out, _ = run(capsys, "inclusions")
        assert code == 1
        assert "script fcp2__afcp2_p.proof: FAIL" in out
        assert "FCP_2 = FCP_4" not in out  # an invalid script certifies nothing
        assert out.rstrip().endswith("lattice verification FAILED")

    def test_separator_failing_reverification_exits_1(self, capsys, monkeypatch):
        from deontic import proof

        monkeypatch.setattr(proof, "_falsifies", lambda model, target: False)
        code, out, _ = run(capsys, "inclusions")
        assert code == 1
        assert "FAILED re-verification" in out


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2


class TestDeepNesting:
    @pytest.mark.parametrize(
        "argv",
        [
            # parses (the parser does not recurse), then exceeds render's depth
            ("parse", "~" * 3000 + "a"),
            ("parse", "O " * 3000 + "a"),
            # parses, then exceeds the evaluator's depth
            ("eval", "O " * 600 + "a", "--model", "corollary3_model1"),
        ],
        ids=["parse-3000-not", "parse-3000-O", "eval-600-O"],
    )
    def test_too_deep_exits_2_with_a_message(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: input is nested too deeply to process\n"
        assert "Traceback" not in err

    def test_eval_450_nested_obligations(self, capsys):
        code, out, _ = run(capsys, "eval", "O " * 450 + "a", "--model", "corollary3_model1")
        assert code == 0 and out == "{}\n"

    def test_prove_450_nested_obligations(self, capsys, tmp_path):
        f = "O " * 450 + "a"
        script = tmp_path / "deep.proof"
        script.write_text(f"system: E\nhyp: {f}\ngoal: {f}\n1. {f} ; hyp\n")
        code, out, err = run(capsys, "prove", str(script))
        assert (code, out, err) == (0, "Valid\n", "")


class TestClosedPipe:
    @pytest.mark.parametrize("argv, code", [
        (("verify-table1",), 0),
        (("inclusions", "--json"), 0),
        (("countermodel", "--target", "IFCP_O", "--require", "AFCPO",
          "--max-worlds", "3", "--max-sets", "2"), 0),
        (("countermodel", "--target", "AFCP2_P", "--require", "AFCPO,AFCPP",
          "--max-worlds", "2", "--max-sets", "1"), 1),
    ], ids=["verify-table1", "inclusions-json", "countermodel-found", "countermodel-exhausted"])
    def test_ends_quietly_with_the_verdicts_code(self, argv, code):
        # The read end is closed before the child starts, so its one print meets a closed pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(bundled.__file__).parents[1])}
        try:
            child = subprocess.run([sys.executable, "-m", "deontic.cli", *argv], stdout=write_end,
                                   stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (code, b"")


EVERY_SUBCOMMAND_JSON = {
    "parse": ("parse", "Ps(p | q) & O ~p"),
    "eval": ("eval", "O a", "--model", "corollary3_model1"),
    "classify": ("classify", "corollary3_model1"),
    "check-frame": ("check-frame", "corollary3_model1", "--property", "AFCP2P"),
    "prove": ("prove", "{proofs}/etiquette.proof"),
    "verify-table1": ("verify-table1", "--system", "FCP_1"),
    "countermodel": ("countermodel", "--target", "IFCP_O", "--require", "AFCPO",
                     "--max-worlds", "3", "--max-sets", "2"),
    "remainder": ("remainder", "--disjunction", "p | q | r | s | t",
                  "--theory", "{tests}/golden/theory.txt"),
    "demo": ("demo", "five-disjuncts"),
    "inclusions": ("inclusions",),
    "closure": ("closure", "corollary3_model1", "--which", "Ps"),
}


def test_json_cases_cover_every_subcommand():
    parser = _build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(EVERY_SUBCOMMAND_JSON) == sorted(commands)


@pytest.mark.parametrize("command", sorted(EVERY_SUBCOMMAND_JSON))
def test_every_json_output_is_one_json_document(capsys, command):
    paths = {"proofs": Path(bundled.__file__).parent / "fixtures" / "proofs",
             "tests": Path(__file__).parent}
    argv = [arg.format(**paths) for arg in EVERY_SUBCOMMAND_JSON[command]]
    code, out, err = run(capsys, *argv, "--json")
    assert code in (0, 1) and err == ""
    assert isinstance(json.loads(out), dict)
