import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carecontracts import cli, errors, estimation, solvers
from carecontracts.cli import DEFAULT_SEED, build_parser, main
from carecontracts.domain import ModelParams, dump_params, write_json
from carecontracts.errors import EstimationError
from carecontracts.synthetic import SyntheticCohortSpec, generate_cohort
from carecontracts.estimation import Cohort, save_cohort


@pytest.fixture
def params_file(tmp_path, icp_params):
    path = tmp_path / "params.json"
    dump_params(icp_params, path)
    return path


@pytest.fixture
def small_cohort_file(tmp_path):
    spec = SyntheticCohortSpec(n=12_000, treated_fraction=0.25)
    cohort, _ = generate_cohort(spec, 8)
    path = tmp_path / "cohort.csv"
    save_cohort(cohort, path)
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

    def test_nonneg_w_prices_under_the_file_noise(self, tmp_path, icp_params, capsys):
        path = tmp_path / "noisy.json"
        dump_params(icp_params.with_misclassification(0.2, 0.1), path)
        assert main(["solve", "--model", "nonneg-w", "--params", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["optimal_value"] == pytest.approx(0.4014117647058824, abs=1e-15)
        assert data["expected_payment"] == pytest.approx(data["optimal_value"], abs=1e-15)
        assert data["expected_payment_dollars"] == 4014.12
        assert data["certificate"]["expected_payment"] == data["expected_payment"]

    def test_large_finite_p11(self, params_file, capsys, recwarn):
        assert main(["solve", "--model", "free", "--params", str(params_file), "--p11", "1e150"]) == 0
        assert json.loads(capsys.readouterr().out)["contract"]["p11"] == 1e150
        assert not recwarn.list

    def test_risk_averse_model(self, params_file, capsys):
        assert (
            main(["solve", "--model", "risk-averse", "--params", str(params_file), "--g", "log"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["transform"] == "log"
        assert data["multipliers"]["lambda2"] == pytest.approx(0.0, abs=1e-10)
        assert data["optimal_value"] == pytest.approx(0.44 * (np.e - 1), abs=1e-9)

    @pytest.mark.parametrize(
        "model, solver, g",
        [
            ("risk-averse", "solve_risk_averse", "power:0.5"),
            ("risk-averse", "solve_risk_averse", "log"),
            ("nonneg-w", "solve_non_negative_misclassified", "power:0.5"),
        ],
        ids=["power:0.5", "log", "nonneg-w"],
    )
    def test_risk_averse_model_solves_once(self, params_file, capsys, monkeypatch, model, solver, g):
        """The certificate reads the solution its own solve returned: one call
        for risk-averse under either transform, and one for nonneg-w."""
        calls = []
        original = getattr(solvers, solver)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solvers, solver, counted)
        argv = ["solve", "--model", model, "--params", str(params_file), "--g", g]
        assert main(argv) == 0
        assert len(calls) == 1
        certificate = json.loads(capsys.readouterr().out)["certificate"]
        assert certificate["near_optimal"] and certificate["optimality_gap"] == 0.0

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

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({"gamma": 0.4}, 2),
            ({"pi": 5, "gamma": 0.4}, 2),
            ({"pi": {"00": "low", "01": 0.75, "10": 0.66, "11": 0.85}, "gamma": 0.44}, 2),
            ({"pi": {"00": 0.51, "01": 0.75, "10": 0.66, "11": 0.85}, "gamma": [0.44]}, 2),
            ({"pi": {"00": 1.5, "01": 0.75, "10": 0.66, "11": 0.85}, "gamma": 0.44}, 1),
        ],
    )
    def test_malformed_params_file_exits_2(self, tmp_path, capsys, payload, code):
        """A missing key or a wrong-typed field is a parse error; a range violation is not."""
        path = tmp_path / "params.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", "--model", "nonneg", "--params", str(path)]) == code
        assert "error:" in capsys.readouterr().err


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

    def test_separated_cohort_exits_1(self, tmp_path, capsys):
        """A fit failure is a model error, tagged with the stage that raised it."""
        z = np.random.default_rng(5).normal(size=(200, 2))
        cohort = Cohort(
            ids=[f"r{i}" for i in range(200)],
            e=(z[:, 0] > 0).astype(int),
            t=np.full(200, 10),
            los=np.full(200, 5.0),
            event=np.ones(200, dtype=int),
            z=z,
        )
        path = tmp_path / "separated.csv"
        save_cohort(cohort, path)
        assert main(["estimate", "--cohort", str(path), "--out", str(tmp_path / "o.json")]) == 1
        assert "[fit_propensity]" in capsys.readouterr().err

    def test_caliper_and_criterion_flags(self, tmp_path, small_cohort_file):
        out = tmp_path / "est.json"
        argv = ["estimate", "--cohort", str(small_cohort_file), "--out", str(out)]
        assert main(argv + ["--caliper", "0.05", "--criterion", "death-within:30"]) == 0
        assert all(0.0 < rate < 1.0 for rate in json.loads(out.read_text())["pi"].values())

    def test_each_assumption_note_printed_once(self, tmp_path):
        """Notes reach stderr once each, as ``warning:`` lines, and never as
        Python warnings; a cohort planted with inverted survival cells has some."""
        inverted = ModelParams(0.51, 0.75, 0.85, 0.55, 0.5)
        spec = SyntheticCohortSpec(n=3000, treated_fraction=0.25, planted=inverted)
        cohort, _ = generate_cohort(spec, 8)
        save_cohort(cohort, tmp_path / "cohort.csv")
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        argv = ["estimate", "--cohort", "cohort.csv", "--out", "p.json"]
        run = subprocess.run(
            [sys.executable, "-m", "carecontracts.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        notes = json.loads((tmp_path / "p.diagnostics.json").read_text())["assumption_warnings"]
        assert notes
        assert run.stderr.splitlines() == [f"warning: {note}" for note in notes]
        assert "AssumptionWarning" not in run.stderr


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
        assert "argument --n: must be at least 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_exits_2(self, params_file, capsys, monkeypatch):
        """A draw count that fits physical memory but not the memory free at
        run time is a bad flag value, not a traceback. The failure is
        injected: on a host that overcommits memory, a real large ``--n``
        could run instead of failing."""

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli.simulation, "compare_policies", out_of_memory)
        code = main(["simulate", "--params", str(params_file), "--n", "1000"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: Unable to allocate 745. GiB for an array\n"
        assert "Traceback" not in err

    def test_json_output_rejects_nan(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_json({"ci95_payment": float("nan")}, out)
        assert not out.exists()

    def test_json_output_deterministic(self, tmp_path, params_file):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["simulate", "--params", str(params_file), "--n", "20000", "--seed", "4"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noise_flags_lower_survival(self, tmp_path, params_file, icp_params, capsys):
        """Label noise comes from the parameter file's w0 and w1."""
        noisy_file = tmp_path / "noisy.json"
        dump_params(icp_params.with_misclassification(0.3, 0.0), noisy_file)
        base = ["simulate", "--n", "100000", "--seed", "3", "--params"]
        assert main(base + [str(params_file)]) == 0
        clean = json.loads(capsys.readouterr().out)
        assert main(base + [str(noisy_file)]) == 0
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


_DEEP = b"[" * 100_000 + b"]" * 100_000
_HUGE_INT = b"1" + b"0" * 400
_ESTIMATE = ["estimate", "--cohort", "{file}", "--out", "{out}"]
_SOLVE = ["solve", "--model", "nonneg", "--params", "{file}"]
_SOLVE_FREE = ["solve", "--model", "free", "--params", "{params}"]
_SOLVE_AVERSE = ["solve", "--model", "risk-averse", "--params", "{params}", "--out", "{out}"]
_REPRODUCE = ["reproduce", "--out", "{out}", "--n", "20000"]
_SIMULATE = ["simulate", "--params", "{params}", "--n", "1000"]
_SIMULATE_FILE = ["simulate", "--params", "{file}", "--n", "1000"]
_PARAMS = b'{"pi": {"00": 0.51, "01": 0.75, "10": 0.66, "11": 0.85}, "gamma": 0.44'
_HUGE_P11 = b'{"p00": 0, "p01": 0, "p10": 0, "p11": %s}'
_NOT_UTF8 = b"\xd4\xc3\xb2\xa1\x02\x00\x04\x00"
_PI = b'{"pi": {"00": %s, "01": 0.75, "10": 0.66, "11": 0.85}, "gamma": %s}'
_P00 = b'{"p00": %s, "p01": 0, "p10": 0, "p11": 1}'
_TOO_MANY = str(10**18)  # draws whose payments (8 EB) exceed any host's memory


@pytest.mark.parametrize(
    "argv, content, code, message",
    [
        (_ESTIMATE, b"id," + b"x" * 200_000 + b"\n", 2, "line 1"),
        (_ESTIMATE, b"id,e,t,los,event,z1\np1,1,2,3.0,1," + b"9" * 200_000 + b"\n", 2, "line 2"),
        (_SOLVE, _DEEP, 2, "{file}"),
        (_SIMULATE + ["--contract", "{file}"], _DEEP, 2, "{file}"),
        (_SIMULATE_FILE, _PARAMS + b', "w0": 2}', 1, "w0=2.0 must lie in [0, 1)"),
        (_SIMULATE_FILE, _PARAMS + b', "w1": NaN}', 1, "w1=nan must lie in [0, 1)"),
        (
            _SOLVE + ["--out", "{out}"],
            _PARAMS + b', "F": 2.5}',
            1,
            "F=2.5 must be 1: payments are in units of F",
        ),
        (
            _SOLVE + ["--out", "{out}"],
            _PARAMS + b', "F": 10000}',
            1,
            "F=10000.0 must be 1: payments are in units of F",
        ),
        (_SIMULATE + ["--n", _TOO_MANY], None, 2, "argument --n: must fit in physical memory"),
        (
            _SIMULATE + ["--contract", "{file}", "--format", "csv"],
            b'{"p00": NaN, "p01": 0, "p10": 0, "p11": 1}',
            2,
            "p00",
        ),
        (
            _SOLVE,
            b'{"pi": {"00": ' + _HUGE_INT + b', "01": 0.7, "10": 0.6, "11": 0.8}, "gamma": 0.4}',
            2,
            "too large",
        ),
        (
            _SIMULATE + ["--contract", "{file}"],
            b'{"p00": ' + _HUGE_INT + b', "p01": 0, "p10": 0, "p11": 1}',
            2,
            "{file}",
        ),
        (_SIMULATE + ["--contract", "{file}"], _HUGE_P11 % b"1e200", 2, "--contract {file}: a simulated"),
        (_SIMULATE + ["--contract", "{file}"], _HUGE_P11 % b"1e308", 2, "--contract {file}: a simulated"),
        (
            _SIMULATE + ["--contract", "{file}", "--format", "csv"],
            _HUGE_P11 % b"1e200",
            2,
            "--contract {file}: a simulated",
        ),
        (
            _SIMULATE + ["--contract", "{file}", "--format", "csv"],
            _HUGE_P11 % b"1e308",
            2,
            "--contract {file}: a simulated",
        ),
        (_SOLVE, b"", 2, "{file}: Expecting value"),
        (_SOLVE, _NOT_UTF8, 2, "{file}: 'utf-8' codec"),
        (_ESTIMATE, b"id,e,t,los,event,z1\n" + _NOT_UTF8, 2, "{file}: not UTF-8 text"),
        (["verify", "--trials", "0"], None, 2, "argument --trials: must be at least 1, got 0"),
        (["verify", "--trials", "-1"], None, 2, "argument --trials: must be at least 1, got -1"),
        (["verify", "--seed", "-1"], None, 2, "argument --seed: must be at least 0, got -1"),
        (_SIMULATE + ["--seed", "-1"], None, 2, "argument --seed: must be at least 0, got -1"),
        (_SOLVE_AVERSE + ["--g", "power:abc"], None, 2, "argument --g: could not convert string"),
        (_SOLVE_AVERSE + ["--g", "foo"], None, 2, "argument --g: unknown transform spec 'foo'"),
        (_SOLVE_AVERSE + ["--g", "power:1.5"], None, 2, "argument --g: power exponent 1.5"),
        (_SOLVE_FREE + ["--g", "foo", "--out", "{out}"], None, 2, "argument --g: unknown transform"),
        (_SOLVE_FREE + ["--p11", "nan"], None, 2, "--p11 must be finite, got nan"),
        (_SOLVE_FREE + ["--p11", "inf"], None, 2, "--p11 must be finite, got inf"),
        (_SOLVE_FREE + ["--f-dollars", "nan"], None, 2, "--f-dollars must be finite and positive"),
        (_SOLVE_FREE + ["--f-dollars", "inf"], None, 2, "--f-dollars must be finite and positive"),
        (_SOLVE_FREE + ["--f-dollars", "-1"], None, 2, "--f-dollars must be finite and positive"),
        (_SOLVE_FREE + ["--f-dollars", "0"], None, 2, "--f-dollars must be finite and positive"),
        (_SOLVE_FREE + ["--p11", "1e200"], None, 2, "--p11 must keep the contract finite, got 1e+200"),
        (_SOLVE_FREE + ["--p11", "1e308"], None, 2, "--p11 must keep the contract finite, got 1e+308"),
        (_SOLVE_FREE + ["--p11", "-1e200"], None, 2, "--p11 must keep the contract finite, got -1e+200"),
        (
            ["solve", "--model", "nonneg", "--params", "{params}", "--t", "-1e-3"],
            None,
            2,
            "family parameter t=-0.001 must lie in [0, 1]",
        ),
        (
            ["solve", "--model", "nonneg", "--params", "{params}", "--f-dollars", "1.7e308"],
            None,
            2,
            "--f-dollars must keep every dollar amount finite, got 1.7e+308",
        ),
        (_ESTIMATE + ["--caliper", "nan"], None, 2, "caliper must be finite and at least 0"),
        (_ESTIMATE + ["--caliper", "-1"], None, 2, "caliper must be finite and at least 0"),
        (_ESTIMATE + ["--caliper", "abc"], None, 2, "argument --caliper: expected a number or 'none'"),
        (_ESTIMATE + ["--cutoff", "inf"], None, 2, "cutoff must be finite, got inf"),
        (
            _ESTIMATE + ["--criterion", "death-within:-5"],
            None,
            2,
            "criterion must be death-before-discharge or death-within:<days> with finite"
            " positive days, got 'death-within:-5'",
        ),
        (["reproduce", "--out", "{out}", "--n", "0"], None, 2, "argument --n: must be at least 1, got 0"),
        (["reproduce", "--out", "{out}", "--sim-n", "1"], None, 2, "argument --sim-n: must be at least 2"),
        (_REPRODUCE + ["--seed", "-1"], None, 2, "argument --seed: must be at least 0, got -1"),
        (_REPRODUCE + ["--fixture-seed", "-1"], None, 2, "argument --fixture-seed: must be at least 0"),
        (
            ["estimate", "--cohort", "{file}", "--out", "{file}/p.json"],
            None,
            2,
            "--out directory {file} does not exist",
        ),
        (_SOLVE, _PARAMS + b', "F": true}', 2, "bad field 'F': True is not a JSON number"),
        (_SOLVE, _PI % (b'"0.51"', b"0.44"), 2, "bad field 'pi.00': '0.51' is not a JSON number"),
        (_SOLVE, _PI % (b"0.51", b"true"), 2, "bad field 'gamma': True is not a JSON number"),
        (_SIMULATE + ["--contract", "{file}"], _P00 % b"true", 2, "{file}: missing or bad field 'p00'"),
        (_SIMULATE + ["--contract", "{file}"], _P00 % b'"1e3"', 2, "'p00': '1e3' is not a JSON number"),
        (_ESTIMATE, b"", 2, "{file}: empty file"),
        (_ESTIMATE, b"id,e,t,los,event,z2\n", 2, "{file}: line 1: covariate columns must be z1..z1"),
        (_ESTIMATE + ["--orientation", "survival"], None, 2, "unrecognized arguments: --orientation"),
        (
            _SOLVE,
            b'{"pi": {"00": 0.4, "01": 0.8, "10": 0.6, "11": 0.8}, "gamma": 0.44}',
            1,
            "pi01 == pi11: good and bad responders survive intensive care alike",
        ),
    ],
    ids=[
        "cohort-header-field-limit",
        "cohort-row-field-limit",
        "params-nested",
        "contract-nested",
        "w0-out-of-range",
        "w1-nan",
        "f-not-the-unit",
        "f-in-dollars",
        "simulate-n-beyond-memory",
        "contract-nan",
        "params-huge-int",
        "contract-huge-int",
        "contract-p11-1e200-json",
        "contract-p11-1e308-json",
        "contract-p11-1e200-csv",
        "contract-p11-1e308-csv",
        "params-empty",
        "params-not-utf8",
        "cohort-not-utf8",
        "verify-zero-trials",
        "verify-negative-trials",
        "verify-negative-seed",
        "simulate-negative-seed",
        "g-power-not-a-number",
        "g-unknown-spec",
        "g-power-out-of-range",
        "g-unknown-spec-free-model",
        "p11-nan",
        "p11-inf",
        "f-dollars-nan",
        "f-dollars-inf",
        "f-dollars-negative",
        "f-dollars-zero",
        "p11-overflows-certificate",
        "p11-overflows-contract",
        "p11-negative-exponent-notation",
        "t-negative-exponent-notation",
        "f-dollars-overflows-dollars",
        "caliper-nan",
        "caliper-negative",
        "caliper-not-a-number",
        "cutoff-inf",
        "criterion-negative-days",
        "reproduce-zero-n",
        "reproduce-one-sim-n",
        "reproduce-negative-seed",
        "reproduce-negative-fixture-seed",
        "out-directory-missing",
        "f-boolean",
        "pi-string",
        "gamma-boolean",
        "contract-boolean",
        "contract-string",
        "cohort-empty",
        "cohort-covariates-misnamed",
        "orientation-gone",
        "equal-high-survival",
    ],
)
def test_bad_input_exit_code(tmp_path, params_file, capsys, recwarn, argv, content, code, message):
    """Bad input ends in its exit code and a message on stderr, never in a
    traceback, a Python warning, a report or an output file."""
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    fill = {"file": str(path), "params": str(params_file), "out": str(tmp_path / "out.json")}
    assert main([arg.format(**fill) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message.format(**fill) in captured.err
    assert not recwarn.list
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag", ["--w0", "--w1"])
@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "inf"])
def test_noise_rate_out_of_range_exits_2_before_any_read(tmp_path, capsys, flag, value):
    """Label noise has one home, the parameter file: a noise-rate flag is an
    unknown argument, so the parser exits 2 before the file is opened."""
    assert main(["simulate", "--params", str(tmp_path / "missing.json"), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert "missing.json" not in err


def test_cli_import_loads_no_process_pool():
    """Cohort CSV I/O forks with ``os`` alone, so importing the CLI loads
    neither ``multiprocessing`` nor ``concurrent``."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    probe = (
        "import sys, carecontracts.cli\n"
        "pools = ('multiprocessing', 'concurrent')\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in pools))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.CareContractsError("base"), 1),
        (errors.InvalidParamsError("bad value"), 1),
        (errors.ParamsFormatError("bad params file"), 2),
        (errors.CohortFormatError("bad cohort file"), 2),
        (errors.NumericalError("out of envelope"), 1),
        (errors.SingularMatrixError("pivot below tolerance"), 1),
        (errors.EstimationError("fit failed"), 1),
        (errors.StageError("fit_cox_control", errors.EstimationError("fit failed")), 1),
        (OSError("disk gone"), 2),
        (ValueError("bad flag"), 2),
        (MemoryError("too many draws"), 2),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, BaseException) else None,
)
def test_exit_code_table(monkeypatch, capsys, exc, code):
    """Each exception ``main`` catches ends in its documented exit code and
    one ``error:`` line; ``build_parser`` holds the handler, so a callee raises."""

    def failing_certify(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "certify", failing_certify)
    assert main(["verify", "--trials", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"


class TestParserReuse:
    """main() reuses one parser per process; nothing carries from one call to the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_string_default_is_converted_on_every_parse(self):
        estimate = ["estimate", "--cohort", "c.csv", "--out", "p.json"]
        assert build_parser().parse_args(estimate + ["--caliper", "0.2"]).caliper == 0.2
        assert build_parser().parse_args(estimate).caliper is None

    def test_parse_error_leaves_the_parser_reusable(self, capsys):
        build_parser.cache_clear()
        assert main(["verify", "--trials", "1", "--seed", "7"]) == 0
        fresh = capsys.readouterr().out
        assert main(["verify", "--trials", "x"]) == 2
        assert "argument --trials: invalid integer value: 'x'" in capsys.readouterr().err
        assert main(["verify", "--trials", "1", "--seed", "7"]) == 0
        assert capsys.readouterr().out == fresh

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        for _ in range(2):
            assert main(["verify", "--trials", "1"]) == 0
        # the top-level parser and its five subparsers, once each
        assert len(built) == 6 and built[0] == "carecontracts"


def test_readme_usage_matches_the_parser():
    """Every ``--flag`` of a ``carecontracts <cmd>`` line in a README ``sh``
    block is an option of that subcommand, and the README names every option."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        command: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for command, sub in subparsers.choices.items()
    }
    usage = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            code = line.partition("#")[0]
            if code.startswith("carecontracts "):
                usage.append((code.split()[1], set(re.findall(r"--[a-z][a-z0-9-]*", code))))
    assert {command for command, _ in usage} == set(options)
    for command, flags in usage:
        assert flags <= options[command], (command, sorted(flags - options[command]))
    for command, flags in options.items():
        unnamed = [flag for flag in sorted(flags) if not re.search(re.escape(flag) + r"(?![\w-])", readme)]
        assert not unnamed, (command, unnamed)


def test_readme_models_match_the_solvers():
    """The models the README's ``solve`` section names ("Models: `free` …"),
    in order, are ``solvers.MODELS``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"^Models: (.*?)\.\s", readme, flags=re.S | re.M).group(1)
    assert tuple(re.findall(r"`([a-z][\w-]*)`", sentence)) == solvers.MODELS


def test_model_choices_are_the_solvers_models():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (model,) = [a for a in subparsers.choices["solve"]._actions if a.dest == "model"]
    assert model.choices == solvers.MODELS


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

    @staticmethod
    def _one_part_bytes(tmp_path, force_parts, n):
        """``cohort.csv`` of ``reproduce --n n`` as a one-part save writes it."""
        path = tmp_path / "one-part.csv"
        with pytest.MonkeyPatch.context() as patch:
            force_parts(patch, 1)
            save_cohort(generate_cohort(SyntheticCohortSpec(n=n), DEFAULT_SEED)[0], path)
        return path.read_bytes()

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_cohort_csv_is_the_one_part_bytes(
        self, tmp_path, capsys, monkeypatch, force_parts, parts
    ):
        expected = self._one_part_bytes(tmp_path, force_parts, 3000)
        forks = force_parts(monkeypatch, parts)
        out = tmp_path / "repro"
        # a small cohort misses some 0.02 verdicts, so the exit code is 1
        assert main(["reproduce", "--out", str(out), "--n", "3000", "--sim-n", "1000"]) == 1
        assert (out / "cohort.csv").read_bytes() == expected
        assert len(forks) == (parts if parts > 1 else 0)

    def test_csv_children_are_forked_before_the_estimate(
        self, tmp_path, capsys, monkeypatch, force_parts
    ):
        """Both parts are a child's, and the parent has written nothing yet."""
        forks = force_parts(monkeypatch, 2)
        at_start = []
        run_pipeline = cli.synthetic.run_pipeline

        def counted_run_pipeline(*args):
            at_start.append((len(forks), (tmp_path / "cohort.csv").stat().st_size))
            return run_pipeline(*args)

        monkeypatch.setattr(cli.synthetic, "run_pipeline", counted_run_pipeline)
        assert main(["reproduce", "--out", str(tmp_path), "--n", "3000", "--sim-n", "1000"]) == 1
        assert at_start == [(2, 0)]

    @pytest.mark.parametrize("child", ["works", "fails"])
    def test_failed_estimate_exits_1_with_a_whole_cohort_csv(
        self, tmp_path, capsys, monkeypatch, force_parts, child
    ):
        """Also when a CSV child fails, which leaves the serial bytes."""
        expected = self._one_part_bytes(tmp_path, force_parts, 3000)
        force_parts(monkeypatch, 2)
        if child == "fails":
            parent, work = os.getpid(), estimation._row_blocks

            def fails_in_a_child(*args):
                if os.getpid() != parent:
                    raise RuntimeError("worker failure")
                return work(*args)

            monkeypatch.setattr(estimation, "_row_blocks", fails_in_a_child)

        def run_pipeline(*args):
            raise EstimationError("planted estimate failure")

        monkeypatch.setattr(cli.synthetic, "run_pipeline", run_pipeline)
        out = tmp_path / "repro"
        assert main(["reproduce", "--out", str(out), "--n", "3000"]) == 1
        assert "error: planted estimate failure" in capsys.readouterr().err
        assert (out / "cohort.csv").read_bytes() == expected
        assert not (out / "report.json").exists()

    def test_sim_n_beyond_memory_exits_2_before_generating(self, tmp_path, capsys, monkeypatch):
        def generate_cohort(*args, **kwargs):
            raise AssertionError("the cohort was generated")

        monkeypatch.setattr(cli.synthetic, "generate_cohort", generate_cohort)
        outdir = tmp_path / "repro"
        assert main(["reproduce", "--out", str(outdir), "--sim-n", _TOO_MANY]) == 2
        assert "argument --sim-n: must fit in physical memory" in capsys.readouterr().err
        assert not (outdir / "cohort.csv").exists()

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
