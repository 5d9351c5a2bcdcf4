import json

import numpy as np
import pytest

from carecontracts.cli import _emit_json, main
from carecontracts.estimation import AssumptionWarning
from carecontracts.domain import ModelParams, dump_params
from carecontracts.synthetic import SyntheticCohortSpec, generate_cohort
from carecontracts.estimation import save_cohort


@pytest.fixture
def params_file(tmp_path, icp_params):
    path = tmp_path / "params.json"
    dump_params(icp_params, path)
    return path


@pytest.fixture
def small_cohort_file(tmp_path):
    spec = SyntheticCohortSpec(n=12_000, treated_fraction=0.25)
    records, _ = generate_cohort(spec, 8)
    path = tmp_path / "cohort.csv"
    save_cohort(records, path)
    return path


class TestSolveCommand:
    def test_nonneg_output_schema(self, tmp_path, params_file, capsys):
        out = tmp_path / "solution.json"
        code = main(
            [
                "solve",
                "--model",
                "nonneg",
                "--params",
                str(params_file),
                "--t",
                "0",
                "--f-dollars",
                "10000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) >= {
            "model",
            "contract",
            "contract_dollars",
            "expected_payment",
            "expected_payment_dollars",
            "optimal_value",
            "certificate",
            "slacks",
            "incentive_gap_dollars",
        }
        assert data["contract"]["p11"] == pytest.approx(1 / 0.85, abs=1e-12)
        assert data["contract_dollars"]["p11"] == 11764.71
        assert data["incentive_gap_dollars"] == 1176.47
        assert data["expected_payment_dollars"] == 4400.0
        assert data["certificate"]["feasible"] and data["certificate"]["near_optimal"]

    def test_free_model(self, params_file, capsys):
        assert main(["solve", "--model", "free", "--params", str(params_file), "--p11", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["contract"]["p00"] == pytest.approx(-1.2602, abs=1e-4)
        assert data["sensitivity"]["dp01_dp11"] == pytest.approx(-3.8544, abs=1e-4)

    def test_risk_averse_model(self, params_file, capsys):
        assert (
            main(["solve", "--model", "risk-averse", "--params", str(params_file), "--g", "log"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["transform"] == "log"
        assert data["multipliers"]["lambda2"] == pytest.approx(0.0, abs=1e-10)
        assert data["optimal_value"] == pytest.approx(0.44 * (np.e - 1), abs=1e-9)

    def test_missing_params_file_exits_2(self, tmp_path, capsys):
        code = main(["solve", "--model", "nonneg", "--params", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_assumption_violation_exits_1(self, tmp_path, capsys):
        path = tmp_path / "degenerate.json"
        dump_params(ModelParams(0.5, 0.6, 0.6, 0.72, 0.5), path)
        assert main(["solve", "--model", "nonneg", "--params", str(path)]) == 1

    def test_usage_error_exits_2(self, capsys):
        assert main(["solve", "--model", "cubic", "--params", "x.json"]) == 2


class TestEstimateCommand:
    def test_outputs_written(self, tmp_path, small_cohort_file, capsys):
        out = tmp_path / "estimated.json"
        code = main(["estimate", "--cohort", str(small_cohort_file), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"pi", "gamma", "phi", "F", "w0", "w1"}
        diagnostics = json.loads((tmp_path / "estimated.diagnostics.json").read_text())
        assert diagnostics["n_matched"] == 2 * diagnostics["n_treated"]
        hist_lines = (tmp_path / "estimated.scores.csv").read_text().splitlines()
        assert hist_lines[0] == "bin_left,bin_right,count"
        assert len(hist_lines) == diagnostics["histogram"]["counts"].__len__() + 1

    def test_malformed_cohort_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,e,t,los,event,z1\np1,1,x,3.0,1,0.2\n")
        assert main(["estimate", "--cohort", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    def test_caliper_and_criterion_flags(self, tmp_path, small_cohort_file, recwarn):
        rates = {}
        for orientation in ("mortality", "survival"):
            out = tmp_path / f"est_{orientation}.json"
            code = main(
                [
                    "estimate",
                    "--cohort",
                    str(small_cohort_file),
                    "--out",
                    str(out),
                    "--caliper",
                    "0.05",
                    "--criterion",
                    "death-within:30",
                    "--orientation",
                    orientation,
                ]
            )
            assert code == 0
            rates[orientation] = json.loads(out.read_text())["pi"]
        # mortality-oriented rates invert the survival ordering, which the
        # pipeline flags for downstream solvers
        assert any(w.category is AssumptionWarning for w in recwarn.list)
        for cell in ("00", "01", "10", "11"):
            assert rates["survival"][cell] == pytest.approx(
                1.0 - rates["mortality"][cell], abs=1e-12
            )


class TestSimulateCommand:
    def test_csv_output_deterministic(self, tmp_path, params_file):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "simulate",
            "--params",
            str(params_file),
            "--n",
            "20000",
            "--seed",
            "99",
            "--format",
            "csv",
        ]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header == "policy,n,survival,payment,avg_ratio,marginal_ratio"

    def test_csv_stdout_matches_file(self, tmp_path, params_file, capsysbinary):
        out = tmp_path / "report.csv"
        base = ["simulate", "--params", str(params_file), "--n", "20000", "--format", "csv"]
        assert main(base) == 0
        stdout = capsysbinary.readouterr().out
        assert main(base + ["--out", str(out)]) == 0
        assert stdout == out.read_bytes()
        assert stdout.startswith(b"policy,n,survival,payment,avg_ratio,marginal_ratio\r\n")

    def test_single_draw_exits_2(self, tmp_path, params_file, capsys):
        out = tmp_path / "report.json"
        code = main(["simulate", "--params", str(params_file), "--n", "1", "--out", str(out)])
        assert code == 2
        assert "at least two" in capsys.readouterr().err
        assert not out.exists()

    def test_json_output_rejects_nan(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _emit_json({"ci95_payment": float("nan")}, out)
        assert not out.exists()

    def test_json_output_deterministic(self, tmp_path, params_file):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["simulate", "--params", str(params_file), "--n", "20000", "--seed", "4"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noise_flags_lower_survival(self, tmp_path, params_file, capsys):
        base = ["simulate", "--params", str(params_file), "--n", "100000", "--seed", "3"]
        assert main(base) == 0
        clean = json.loads(capsys.readouterr().out)
        assert main(base + ["--w0", "0.3", "--w1", "0.0"]) == 0
        noisy = json.loads(capsys.readouterr().out)
        survival = lambda d: next(p for p in d["policies"] if p["policy"] == "matched")["survival"]
        assert survival(noisy) < survival(clean)

    def test_contract_file(self, tmp_path, params_file, capsys):
        contract_path = tmp_path / "contract.json"
        contract_path.write_text(json.dumps({"p00": 0, "p01": 0, "p10": 0, "p11": 1.18}))
        code = main(
            [
                "simulate",
                "--params",
                str(params_file),
                "--contract",
                str(contract_path),
                "--n",
                "10000",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert {p["policy"] for p in data["policies"]} == {"matched", "pure-high", "pure-low"}

    def test_contract_file_missing_key_exits_2(self, tmp_path, params_file, capsys):
        contract_path = tmp_path / "contract.json"
        contract_path.write_text(json.dumps({"p00": 0, "p01": 0, "p11": 1.18}))
        argv = ["simulate", "--params", str(params_file), "--contract", str(contract_path)]
        assert main(argv + ["--n", "1000"]) == 2
        err = capsys.readouterr().err
        assert "'p10'" in err and str(contract_path) in err


class TestVerifyCommand:
    def test_all_trials_agree(self, capsys):
        assert main(["verify", "--trials", "20", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "20/20" in out
        assert "total agreements: 80/80" in out


class TestReproduceCommand:
    @pytest.mark.slow
    def test_bundle_and_seed_stability(self, tmp_path, capsys):
        verdict_sets = []
        for fixture_seed in (13, 14):
            outdir = tmp_path / f"repro{fixture_seed}"
            code = main(
                [
                    "reproduce",
                    "--out",
                    str(outdir),
                    "--n",
                    "100000",
                    "--fixture-seed",
                    str(fixture_seed),
                    "--sim-n",
                    "300000",
                ]
            )
            assert code == 0
            bundle = json.loads((outdir / "report.json").read_text())
            assert bundle["all_passed"]
            assert (outdir / "params.json").exists()
            assert (outdir / "cohort.csv").exists()
            assert (outdir / "policy_comparison.csv").exists()
            verdict_sets.append([v["passed"] for v in bundle["verdicts"]])
            # published simulation figures that the model cannot reproduce stay flagged
            flags = {e["policy"]: e["survival_model_reproducible"] for e in bundle["side_by_side"]}
            assert flags["matched"] is False
            assert flags["pure-low"] is False
        assert verdict_sets[0] == verdict_sets[1]

    def test_reuses_existing_fixture(self, tmp_path, small_cohort_file):
        outdir = tmp_path / "repro"
        code = main(
            [
                "reproduce",
                "--out",
                str(outdir),
                "--fixture",
                str(small_cohort_file),
                "--sim-n",
                "50000",
            ]
        )
        # a small fixture may miss the 0.02 verdicts; the bundle must still be complete
        assert code in (0, 1)
        bundle = json.loads((outdir / "report.json").read_text())
        assert bundle["fixture"].endswith("cohort.csv")
        assert bundle["verdicts"]
