from __future__ import annotations

import json

import numpy as np

from causalchannels import Correlation, Party, serialize
from causalchannels.channels import channel_from_unitary
from causalchannels.cli import _build_parser, _tolerance, main
from causalchannels.membership import FEASIBILITY_TOL, MAX_ITERATIONS

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemos:
    def test_singlet_prints_tsirelson(self, capsys):
        code, out, _ = run(capsys, "demo", "singlet")
        assert code == 0
        assert "2.828427" in out

    def test_pr_box(self, capsys):
        code, out, _ = run(capsys, "demo", "pr-box")
        assert code == 0
        assert "CHSH = 4.000000000" in out
        assert "causal: True" in out

    def test_alpha_near_one_sixth(self, capsys):
        code, out, _ = run(capsys, "demo", "pq-steering-alpha", "--alpha", "0.1666667")
        assert code == 0
        assert "CHSH (Charlie traced) = 2.9999" in out

    def test_json_output_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "--json", "demo", "singlet")
        code2, out2, _ = run(capsys, "--json", "demo", "singlet")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert abs(payload["chsh"] - 2 * np.sqrt(2)) < 1e-6

    def test_ghjw_demo_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "--json", "demo", "ghjw")
        code2, out2, _ = run(capsys, "--json", "demo", "ghjw")
        assert code1 == code2 == 0
        assert out1 == out2


class TestPipeline:
    def test_construct_verify_extract_classify(self, capsys, tmp_path):
        ch_file = str(tmp_path / "pr.json")
        code, _, _ = run(capsys, "construct", "pr-box", "-o", ch_file)
        assert code == 0

        code, out, _ = run(capsys, "verify-causal", ch_file)
        assert code == 0
        assert "verdict: causal" in out

        corr_file = str(tmp_path / "corr.json")
        code, _, _ = run(capsys, "extract", "correlations", ch_file, "-o", corr_file)
        assert code == 0

        code, out, _ = run(capsys, "bell", "chsh", corr_file)
        assert code == 0
        assert "CHSH = 4.0" in out

        code, out, _ = run(capsys, "classify", "lhv", corr_file)
        assert code == 0
        assert "numerically-infeasible" in out

        code, out, _ = run(capsys, "--json", "classify", "witness", corr_file)
        assert code == 0
        assert json.loads(out)["verdict"] == "not-almost-quantum"

    def test_construct_circuit_form(self, capsys, tmp_path):
        circ_file = str(tmp_path / "singlet-circuit.json")
        code, _, _ = run(capsys, "construct", "singlet", "--circuit", "-o", circ_file)
        assert code == 0
        code, out, _ = run(capsys, "verify-causal", circ_file)
        assert code == 0
        assert "verdict: causal" in out

    def test_extract_assemblage_and_classify_lhs(self, capsys, tmp_path):
        ch_file = str(tmp_path / "steer.json")
        run(capsys, "construct", "pq-steering-pr", "-o", ch_file)
        assm_file = str(tmp_path / "assm.json")
        code, _, _ = run(capsys, "extract", "assemblage", ch_file, "-o", assm_file)
        assert code == 0
        code, out, _ = run(capsys, "classify", "lhs", assm_file)
        assert code == 0
        assert "numerically-infeasible" in out

    def test_verify_causal_flags_swap(self, capsys, tmp_path):
        swap = channel_from_unitary(SWAP, (Party("A", 2, 2), Party("B", 2, 2)))
        path = tmp_path / "swap.json"
        path.write_text(serialize(swap))
        code, out, _ = run(capsys, "verify-causal", str(path))
        assert code == 0
        assert "verdict: not-causal" in out


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 64

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 64

    def test_missing_file_is_validation_error(self, capsys):
        code, _, err = run(capsys, "verify-causal", "/nonexistent/channel.json")
        assert code == 2
        assert "validation error" in err

    def test_malformed_document_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "channel", "version": "1", "payload": {}}')
        code, _, err = run(capsys, "verify-causal", str(path))
        assert code == 2

    def test_wrong_document_type_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "corr.json"
        run(capsys, "construct", "pr-box", "-o", str(path))
        run(capsys, "extract", "correlations", str(path), "-o", str(path))
        code, _, err = run(capsys, "classify", "lhs", str(path))
        assert code == 2

    def test_trusted_input_out_of_range(self, capsys, tmp_path):
        ch_file = str(tmp_path / "steer.json")
        run(capsys, "construct", "pq-steering-pr", "-o", ch_file)
        code, _, err = run(
            capsys, "extract", "assemblage", ch_file, "--trusted-input", "7"
        )
        assert code == 2
        assert "out of range" in err

    def test_out_of_range_table_key_is_validation_error(self, capsys, tmp_path):
        ch_file, doc_file = str(tmp_path / "steer.json"), tmp_path / "assemblage.json"
        run(capsys, "construct", "pq-steering-pr", "-o", ch_file)
        run(capsys, "extract", "assemblage", ch_file, "-o", str(doc_file))
        doc = json.loads(doc_file.read_text())
        doc["payload"]["elements"] = {
            k.replace("a=000,001", "a=000,002"): v for k, v in doc["payload"]["elements"].items()
        }
        doc_file.write_text(json.dumps(doc))
        code, _, err = run(capsys, "classify", "lhs", str(doc_file))
        assert code == 2
        assert "$.payload.elements: unexpected key 'x=000,000|a=000,002'" in err

    def test_strategy_cap_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(serialize(Correlation(np.full((4, 4, 5, 5), 1.0 / 16.0))))
        code, _, err = run(capsys, "classify", "lhv", str(path))
        assert code == 2
        assert "1048576 deterministic strategies exceed the configured cap 65536" in err

    def test_env_tolerance_override(self, capsys, tmp_path, monkeypatch):
        ch_file = str(tmp_path / "pr.json")
        run(capsys, "construct", "pr-box", "-o", ch_file)
        monkeypatch.setenv("WORKBENCH_TOL", "1e-3")
        code, out, _ = run(capsys, "verify-causal", ch_file)
        assert code == 0
        assert "verdict: causal" in out


class TestFlagValidation:
    def test_defaults_come_from_the_library(self, monkeypatch):
        monkeypatch.delenv("WORKBENCH_TOL", raising=False)
        assert _build_parser().parse_args(["demo", "singlet"]).max_iter == MAX_ITERATIONS
        assert _tolerance(None) == FEASIBILITY_TOL

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_non_numeric_env_tolerance_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WORKBENCH_TOL", "abc")
        code, _, err = run(capsys, "demo", "singlet")
        assert code == 64
        assert "WORKBENCH_TOL" in err
        assert "Traceback" not in err

    def test_non_positive_env_tolerance_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WORKBENCH_TOL", "0")
        code, _, _ = run(capsys, "demo", "singlet")
        assert code == 64

    def test_non_positive_tol_flag_is_usage_error(self, capsys):
        for value in ("0", "-1", "nan"):
            code, _, err = run(capsys, f"--tol={value}", "demo", "singlet")
            assert code == 64
            assert "tolerance must be positive" in err

    def test_max_iter_below_one_is_usage_error(self, capsys):
        for value in ("0", "-5"):
            code, _, err = run(capsys, f"--max-iter={value}", "demo", "singlet")
            assert code == 64
            assert "--max-iter" in err

    def test_max_iter_one_is_accepted(self, capsys, tmp_path):
        ch_file = str(tmp_path / "steer.json")
        run(capsys, "construct", "pq-steering-pr", "-o", ch_file)
        assm_file = str(tmp_path / "assm.json")
        run(capsys, "extract", "assemblage", ch_file, "-o", assm_file)
        code, out, _ = run(capsys, "--max-iter", "1", "classify", "lhs", assm_file)
        assert code == 0
        assert "iterations: 1" in out
