import hashlib
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from carecontracts.domain import ModelParams
from carecontracts.estimation import load_cohort, save_cohort
from carecontracts.solvers import solve_non_negative_misclassified
from carecontracts.synthetic import SyntheticCohortSpec, generate_cohort

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_make_fixture_writes_the_generated_cohort(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cohort.csv"
    monkeypatch.setattr(sys, "argv", ["make_fixture.py", "--n", "2000", "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "make_fixture.py"), run_name="__main__")
    assert "wrote 2000 records" in capsys.readouterr().out

    loaded = load_cohort(out)
    expected, _ = generate_cohort(SyntheticCohortSpec(n=2000), 13)
    assert loaded.ids.tolist() == expected.ids.tolist()
    for column in ("e", "t", "los", "event", "z"):
        assert np.array_equal(getattr(loaded, column), getattr(expected, column))


def test_noise_sweep_prints_the_closed_form_value(monkeypatch, capsys):
    argv = ["noise_sweep.py", "--steps", "2", "--n", "1000"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / "noise_sweep.py"), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    grid = [(w0, w1) for w0 in (0.0, 0.4) for w1 in (0.0, 0.4)]
    assert len(rows) == len(grid)
    base = ModelParams(pi00=0.51, pi01=0.75, pi10=0.66, pi11=0.85, gamma=0.44)
    for row, (w0, w1) in zip(rows, grid):
        value = solve_non_negative_misclassified(base.with_misclassification(w0, w1)).optimal_value
        assert row[:3] == [f"{w0:.2f}", f"{w1:.2f}", f"{value:.4f}"]
        assert row[5] in ("yes", "no")


@pytest.mark.parametrize(
    "script, argv, flag",
    [
        ("noise_sweep.py", ["--n", "1"], "--n"),
        ("noise_sweep.py", ["--max-noise", "1"], "--max-noise"),
        ("noise_sweep.py", ["--max-noise", "-0.1"], "--max-noise"),
        ("noise_sweep.py", ["--steps", "-1"], "--steps"),
        ("noise_sweep.py", ["--seed", "-1"], "--seed"),
        ("make_fixture.py", ["--n", "-5"], "--n"),
        ("make_fixture.py", ["--n", "0"], "--n"),
        ("make_fixture.py", ["--treated-fraction", "1.5"], "--treated-fraction"),
        ("make_fixture.py", ["--treated-fraction", "0"], "--treated-fraction"),
        ("make_fixture.py", ["--seed", "-1"], "--seed"),
    ],
)
def test_out_of_range_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, script, argv, flag):
    """Each script rejects the flag at parse time: exit 2 and a usage
    message naming it, before any cohort is written or any sweep runs."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: " in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


def test_bench_writes_its_file_in_the_current_directory(tmp_path, monkeypatch, capsys):
    """One ``reproduce --n 20000`` child: its wall time, its own peak RSS and
    the digest of the cohort.csv it wrote, in BENCH_<label>.json."""
    monkeypatch.chdir(tmp_path)
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    argv = ["--label", "smoke", "--sizes", "20000", "--repeats", "1"]
    assert bench["main"](argv) == 0
    data = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert data["command"] == ["scripts/bench.py", *argv]
    assert set(data["machine"]) >= {"nproc", "cpu_model", "python", "numpy"}
    assert list(data["checkouts"]) == ["change"]
    (run,) = data["results"]["change"]["20000"]["runs"]
    assert run["wall_s"] > 0 and run["peak_rss_mb"] > 10 and run["exit_code"] in (0, 1)

    cohort, _ = generate_cohort(SyntheticCohortSpec(n=20_000), 13)
    save_cohort(cohort, tmp_path / "cohort.csv")
    expected = hashlib.sha256((tmp_path / "cohort.csv").read_bytes()).hexdigest()
    assert data["results"]["change"]["20000"]["cohort_sha256"] == run["cohort_sha256"] == expected
