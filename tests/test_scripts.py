import runpy
import sys
from pathlib import Path

import numpy as np

from carecontracts.estimation import load_cohort
from carecontracts.synthetic import SyntheticCohortSpec, generate_cohort

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_make_fixture_writes_the_generated_cohort(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cohort.csv"
    monkeypatch.setattr(sys, "argv", ["make_fixture.py", "--n", "2000", "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "make_fixture.py"), run_name="__main__")
    assert "wrote 2000 records" in capsys.readouterr().out

    loaded = load_cohort(out)
    expected, _ = generate_cohort(SyntheticCohortSpec(n=2000), 13)
    assert loaded.ids == expected.ids
    for column in ("e", "t", "los", "event", "z"):
        assert np.array_equal(getattr(loaded, column), getattr(expected, column))
