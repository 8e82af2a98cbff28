"""Tests for the command-line interface."""

import dataclasses
import hashlib
import json
import math

import pytest

import seqmeas.harness as hn
from seqmeas.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounterexample:
    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample")
        assert code == 0
        assert "S(rho)" in out and "S(sigma)" in out and "S(rho||sigma)" in out
        assert "not minimal" in out
        assert "1.12467028923762" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["is_minimal"] is False
        assert doc["report"]["s_sigma"] == pytest.approx(1.1246702892376166, abs=1e-12)
        assert doc["rho"]["dim"] == 4
        assert doc["clusters"]["q"] == pytest.approx([0.25, 0.0, 0.75], abs=1e-12)

    def test_json_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dff04ccac7f1422ae1ebb0fe1eb9a9a671042390f188364d45de02b11c22d3f1"
        )

    def test_bits_display(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--bits")
        assert code == 0
        in_bits = 1.1246702892376166 / math.log(2.0)
        assert format(in_bits, ".15g")[:12] in out
        assert "bits" in out


class TestModelFile:
    def test_valid_model(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"pi": [[1.0, 1.0]], "x": [0.0, 1.0], "x_tilde": [0.5]}))
        code, out, _ = run_cli(capsys, "jcheck", "--model", str(path))
        assert code == 0
        assert "PASS" in out

    def test_output_lines(self, capsys, tmp_path):
        passing = {"pi": [[1.0, 1.0]], "x": [0.0, 1.0], "x_tilde": [0.5]}
        failing = {"pi": [[0.5, 0.5], [0.5, 0.5]], "x": [0.1, 0.9], "x_tilde": [0.7, 0.3]}
        cases = [
            (passing, "1e-6", 0, [
                "model: 2 first outcomes, 1 second outcomes",
                "  j_residual               0",
                "  j_reverse_residual       0",
                "  H(p) = 0   H(q) = 0.693147180559945   cross = 0.693147180559945",
                "  result: PASS (tol 1e-06)",
            ]),
            # a rounding-level residual misses an impossible gate
            (failing, "1e-300", 1, [
                "model: 2 first outcomes, 2 second outcomes",
                "  j_residual               1.11022302462516e-16",
                "  j_reverse_residual       0",
                "  H(p) = 0.325082973391448   H(q) = 0.693147180559945   cross = 0.780323874132334",
                "  result: FAIL (tol 1e-300)",
            ]),
        ]
        for model, tol, expected_code, expected_lines in cases:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model))
            code, out, _ = run_cli(capsys, "jcheck", "--model", str(path), "--tol", tol)
            assert (code, out.splitlines()) == (expected_code, expected_lines)

    @pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
    def test_tolerance_is_validated(self, capsys, tmp_path, tol):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"pi": [[1.0, 1.0]], "x": [0.0, 1.0], "x_tilde": [0.5]}))
        code, _, err = run_cli(capsys, "jcheck", "--model", str(path), "--tol", tol)
        assert code == 2
        assert "tol must be positive" in err

    def test_invalid_model(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"pi": [[1.0]], "x": [2.0], "x_tilde": [1.0]}))
        code, out, _ = run_cli(capsys, "jcheck", "--model", str(path))
        assert code == 1
        assert "forward_normalisation" in out

    def test_misspelt_key(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        doc = {"pi": [[1.0, 1.0]], "x": [0.0, 1.0], "x_tilde": [0.5], "x_tilda": [0.5]}
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "jcheck", "--model", str(path))
        assert code == 2
        assert "exactly the keys" in err

    def test_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        # not JSON, not UTF-8, and nested too deeply to decode
        for garbage in (b"{not json", b'{"pi": "\xff\xfe"}', b"[" * 100_000):
            path.write_bytes(garbage)
            for argv in (("jcheck", "--model", str(path)), ("suite", "--config", str(path))):
                code, _, err = run_cli(capsys, *argv)
                assert code == 2, (garbage[:10], argv)
                assert err.startswith("error:") and "Traceback" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "jcheck", "--model", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err


class TestCheckCommands:
    def test_jcheck_random(self, capsys):
        code, out, _ = run_cli(
            capsys, "jcheck", "--dims", "2,3", "--trials", "10", "--seed", "3"
        )
        assert code == 0
        assert "result: PASS" in out
        assert "j_residual" in out

    def test_jarzynski_with_betas(self, capsys):
        code, out, _ = run_cli(
            capsys, "jarzynski", "--dims", "2,3", "--trials", "6",
            "--seed", "4", "--beta", "0.5,2",
        )
        assert code == 0
        assert "jarzynski_gap" in out

    def test_every_check_command(self, capsys):
        for name in ("chain", "klein", "luders", "minimal", "dilation"):
            code, out, _ = run_cli(
                capsys, name, "--dims", "2,3", "--trials", "5", "--seed", "5"
            )
            assert code == 0, name
            assert "result: PASS" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "klein", "--dims", "2", "--trials", "3", "--seed", "6",
            "--tol", "1e-300",
        )
        assert code == 1
        assert "result: FAIL" in out

    def test_bad_dims_argument(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["jcheck", "--dims", "two"])
        assert err.value.code == 2


class TestSuite:
    def test_suite_with_config_and_report(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        report_path = tmp_path / "report.json"
        config_path.write_text(json.dumps({"seed": 12, "dims": [2, 3], "trials": 6}))
        code, out, _ = run_cli(
            capsys, "suite", "--config", str(config_path), "--out", str(report_path)
        )
        assert code == 0
        assert "suite: PASS" in out
        doc = json.loads(report_path.read_text())
        assert doc["passed"] is True
        assert doc["config"]["seed"] == 12

    def test_env_seed_overrides_config(self, capsys, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 12, "dims": [2], "trials": 3}))
        monkeypatch.setenv("SEQMEAS_SEED", "777")
        code, out, _ = run_cli(capsys, "suite", "--config", str(config_path))
        assert code == 0
        assert "seed 777" in out

    def test_bad_env_seed(self, capsys, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 12, "dims": [2], "trials": 3}))
        monkeypatch.setenv("SEQMEAS_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "suite", "--config", str(config_path))
        assert code == 2
        assert "SEQMEAS_SEED" in err

    def test_integer_beyond_float_range_in_config(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"dims": [2], "trials": 3, "beta_values": [10**400]}))
        code, _, err = run_cli(capsys, "suite", "--config", str(config_path))
        assert code == 2
        assert "beta_values must be positive and finite" in err

    def test_invalid_config_document(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"trials": -5}))
        code, _, err = run_cli(capsys, "suite", "--config", str(config_path))
        assert code == 2
        assert "error:" in err


CHECK_COMMANDS = ("jcheck", "chain", "klein", "luders", "minimal", "jarzynski", "dilation")


class TestConfigs:
    """Each command runs the acceptance config with its given flags and SEQMEAS_SEED applied."""

    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []

        def run_check(name, config):
            seen.append(config)
            return hn.CheckOutcome(name, 0, {}, {}, {}, [], 0.0, True)

        def run_suite(config):
            seen.append(config)
            return hn.ExperimentReport(config, [], 0.0, True)

        monkeypatch.setattr(hn, "run_check", run_check)
        monkeypatch.setattr(hn, "run_suite", run_suite)
        monkeypatch.delenv("SEQMEAS_SEED", raising=False)
        return seen

    @pytest.mark.parametrize("name", CHECK_COMMANDS)
    def test_check_flags_land_in_their_fields(self, capsys, monkeypatch, configs, name):
        base = dataclasses.replace(hn.acceptance_config(), check_set=(name,))
        flags = {"--seed": ("9", "seed", 9), "--dims": ("2,5", "dims", (2, 5)),
                 "--trials": ("7", "trials", 7), "--tol": ("1e-6", "tol", 1e-6)}
        if name == "jarzynski":
            flags["--beta"] = ("0.5,2", "beta_values", (0.5, 2.0))
        cases = [([], {})] + [([flag, text], {field: value})
                              for flag, (text, field, value) in flags.items()]
        cases.append(([arg for flag, (text, _, _) in flags.items() for arg in (flag, text)],
                      {field: value for _, field, value in flags.values()}))
        for argv, fields in cases:
            assert run_cli(capsys, name, *argv)[0] == 0
            assert configs.pop() == dataclasses.replace(base, **fields), argv
        monkeypatch.setenv("SEQMEAS_SEED", "777")
        for argv, seed in (([], 777), (["--seed", "9"], 9)):
            assert run_cli(capsys, name, *argv)[0] == 0
            assert configs.pop() == dataclasses.replace(base, seed=seed)

    def test_suite_applies_the_env_seed(self, capsys, tmp_path, monkeypatch, configs):
        config_path = tmp_path / "config.json"
        doc = {"seed": 12, "dims": [2, 3], "trials": 6, "check_set": ["klein"]}
        config_path.write_text(json.dumps(doc))
        from_file = hn.ExperimentConfig.from_json(doc)
        for argv, want in (([], hn.acceptance_config()),
                           (["--config", str(config_path)], from_file)):
            assert run_cli(capsys, "suite", *argv)[0] == 0
            assert configs.pop() == want
            monkeypatch.setenv("SEQMEAS_SEED", "777")
            assert run_cli(capsys, "suite", *argv)[0] == 0
            assert configs.pop() == dataclasses.replace(want, seed=777)
            monkeypatch.delenv("SEQMEAS_SEED")

    def test_list_flags_name_the_bad_text(self, capsys):
        for argv, message in ((["jcheck", "--dims", "two"], "bad dims list 'two'"),
                              (["jarzynski", "--beta", "0.5,hot"], "bad beta list '0.5,hot'")):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2 and message in capsys.readouterr().err
