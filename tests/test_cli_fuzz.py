"""Exit-code fuzz of the command line.

Any argv built from the five subcommands' flags, with any input-file
content, must end in exit code 0, 1 or 2 and never in a traceback. Flag
values come from small pools of non-finite, negative, overflowing,
malformed and plain values. Input files are a valid file (for
parameters, with or without label noise), a prefix of one, or random
bytes, and some paths name a missing file or a
directory. Cohort and simulation sizes stay at or below 3,000 and
``--trials`` at or below 3, so every example is small.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carecontracts.cli import main
from carecontracts.domain import ModelParams, params_to_dict
from carecontracts.estimation import save_cohort
from carecontracts.synthetic import SyntheticCohortSpec, generate_cohort

# Each pool is (valid values, bad values).
_NUMBERS = (["0", "0.25", "1"], ["nan", "inf", "-inf", "-1", "2", "1e400", "x"])
_SIZES = (["2000", "3000"], ["nan", "inf", "-1", "0", "1", "2", "1e400"])
_TRIALS = (["1", "3"], ["nan", "-1", "0", "1e400"])
_SEEDS = (["0", "13"], ["-1", "nan", "1e400"])
_G = (["power:0.5", "power:1", "log"], ["power:", "power:0", "power:2", "power:nan", "cubic", ""])
_CRITERIA = (
    ["death-before-discharge", "death-within:30"],
    ["death-within:", "death-within:nan", "death-within:-1", "death-within:inf", "x", ""],
)
_CALIPERS = (["none", "0.05"], ["0", "-1", "nan", "inf", "1e400", "x", ""])
# Output targets: a new file; stdout or cwd (""), an existing directory, a
# file in a missing directory, and an existing file where a directory goes.
_OUTS = (["{tmp}/out.json"], ["", "{tmp}", "{tmp}/missing/out.json", "{params}"])


def _valid_files() -> dict[str, bytes]:
    params = ModelParams(pi00=0.51, pi01=0.75, pi10=0.66, pi11=0.85, gamma=0.44)
    noisy = params.with_misclassification(0.2, 0.1)
    contract = {"p00": 0.0, "p01": 0.0, "p10": 0.0, "p11": 1.18}
    cohort, _ = generate_cohort(SyntheticCohortSpec(n=400, treated_fraction=0.25), 3)
    with tempfile.TemporaryDirectory() as tmp:
        save_cohort(cohort, Path(tmp) / "cohort.csv")
        cohort_bytes = (Path(tmp) / "cohort.csv").read_bytes()
    return {
        "params": json.dumps(params_to_dict(params)).encode(),
        "noisy-params": json.dumps(params_to_dict(noisy)).encode(),
        "contract": json.dumps(contract).encode(),
        "cohort": cohort_bytes,
    }


VALID = _valid_files()


@st.composite
def _case(draw) -> tuple[list[str], dict[str, bytes]]:
    """An argv with ``{name}`` placeholders, and the bytes of each named file."""
    files: dict[str, bytes] = {}

    # Valid choices are listed more often than bad ones, and first and last
    # (where hypothesis draws most often), so that more examples get past
    # argument parsing and into the commands.
    def option(flag: str, pool: tuple[list[str], list[str]], required: bool = False) -> list[str]:
        kinds = ("good", "bad", "good") if required else ("good", None, "bad", "good")
        kind = draw(st.sampled_from(kinds))
        if kind is None:
            return []
        return [flag, draw(st.sampled_from(pool[0] if kind == "good" else pool[1]))]

    def file(flag: str, kind: str) -> list[str]:
        valid = VALID[kind]
        content = draw(st.sampled_from(("valid", "prefix", "random", "valid")))
        if content == "valid":
            files[kind] = valid
        elif content == "prefix":
            files[kind] = valid[: draw(st.integers(0, len(valid) - 1))]
        else:
            files[kind] = draw(st.binary(max_size=64))
        path = f"{{{kind}}}"
        return [flag, draw(st.sampled_from([path, "{tmp}/missing.json", path, "{tmp}", path]))]

    command = draw(st.sampled_from(["solve", "estimate", "simulate", "verify", "reproduce"]))
    argv = [command]
    if command == "solve":
        argv += option("--model", (["free", "nonneg", "nonneg-w", "risk-averse"], ["cubic"]), True)
        argv += file("--params", draw(st.sampled_from(["params", "noisy-params"])))
        argv += option("--t", _NUMBERS) + option("--p11", _NUMBERS) + option("--g", _G)
        argv += option("--f-dollars", _NUMBERS) + option("--out", _OUTS)
    elif command == "estimate":
        argv += file("--cohort", "cohort") + option("--cutoff", _NUMBERS)
        argv += option("--caliper", _CALIPERS) + option("--criterion", _CRITERIA)
        argv += option("--orientation", (["survival", "mortality"], ["x"]))
        argv += option("--out", _OUTS, True)
    elif command == "simulate":
        argv += file("--params", draw(st.sampled_from(["params", "noisy-params"])))
        if draw(st.booleans()):
            argv += file("--contract", "contract")
        else:
            argv += option("--contract", (["from-solver"], [""]))
        argv += option("--n", _SIZES, True) + option("--seed", _SEEDS)
        argv += option("--out", _OUTS) + option("--format", (["csv", "json"], ["x"]))
    elif command == "verify":
        argv += option("--trials", _TRIALS, True) + option("--seed", _SEEDS)
    else:
        argv += option("--out", (["{tmp}/repro"], ["", "{params}"]), True)
        if draw(st.booleans()):
            argv += file("--fixture", "cohort")
        argv += option("--n", _SIZES, True) + option("--sim-n", _SIZES, True)
        argv += option("--fixture-seed", _SEEDS) + option("--seed", _SEEDS)
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(case=_case())
def test_exit_code_is_0_1_or_2(workdir, case):
    argv, files = case
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        fill = {"tmp": tmp, "params": str(Path(tmp) / "params.json")}
        Path(fill["params"]).write_bytes(VALID["params"])
        for kind, content in files.items():
            fill[kind] = str(Path(tmp) / f"{kind}.input")
            Path(fill[kind]).write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(tmp), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**fill) for arg in argv])
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2 and not err.getvalue():
        pytest.fail(f"exit 2 without a message: {argv}")
