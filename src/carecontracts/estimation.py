"""Parameter estimation from patient-level survival data.

The pipeline mirrors how the contract parameters are produced from an
observational cohort:

1. fit a logistic propensity model of treatment on baseline covariates,
2. 1-1 greedy nearest-neighbor matching on the propensity score,
3. fit separate Cox proportional-hazards models on the treated and
   control arms of the matched cohort,
4. score each patient by the covariate-weighted difference of the two
   coefficient vectors; the pipeline applies its cutoff (default 0) once,
   and a score strictly above it marks a good responder,
5. estimate per-cell outcome rates and the good-responder share from
   those classes.

Cohort files are CSV with header ``id,e,t,los,event,z1..zp``: treatment
indicator e, death-in-days t (positive integer), ICU length of stay los
(positive real), censoring indicator event (1 = death observed).
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import re
import signal
import threading
import warnings
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, repeat
from operator import eq
from pathlib import Path
from typing import Callable

import numpy as np

from .domain import ModelParams, freeze
from .errors import (
    CohortFormatError,
    EstimationError,
    SingularMatrixError,
    StageError,
)
from .lp import solve_linear_system

log = logging.getLogger(__name__)

SCORE_TOL = 1e-8
MAX_ITER = 100
SEPARATION_BAND = 1e-12
DIVERGENT_BETA = 50.0
HISTOGRAM_BINS = 40


# Cohort columns after ``id``, in CSV order, with their dtypes.
_COLUMNS = {"e": int, "t": int, "los": float, "event": int, "z": float}
# Rows formatted per write in ``save_cohort``; bounds the strings alive at
# once. 65,536 rows raised the perfbench reproduce peak RSS by 8 %, at the
# same speed. Also the fewest rows a forked part of cohort CSV I/O holds.
_WRITE_CHUNK = 8_192
# Characters that make ``csv.QUOTE_MINIMAL`` quote a field.
_NEEDS_QUOTES = re.compile('[,"\r\n]')
# Characters read per check in ``_plain_part`` (1 MB blocks cost 4 MB more
# peak RSS at 400k rows, at the same speed), also the bytes copied per read
# from a forked part, and the bytes a plain line may hold: printable ASCII
# but ``"``, and the newline.
_READ_HINT = 1 << 16
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"


@dataclass(frozen=True)
class Cohort:
    """ICU stays as columns of the CSV schema, one entry per patient.

    ``e`` treatment, ``t`` death in days, ``event`` censoring indicator
    (integer columns), ``los`` length of stay, and ``z`` the n x p
    covariate matrix. Rows are validated on construction.
    """

    ids: tuple[str, ...]
    e: np.ndarray
    t: np.ndarray
    los: np.ndarray
    event: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        for name, dtype in _COLUMNS.items():
            arr = np.asarray(getattr(self, name)).astype(dtype, casting="same_kind")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        fault = _first_invalid_row(self.ids, self.e, self.t, self.los, self.event, self.z)
        if fault is not None:
            raise EstimationError(f"record {self.ids[fault[0]]}: {fault[1]}")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> Cohort:
        """The sub-cohort at ``rows``, in that order.

        Distinct rows of a valid cohort make a valid cohort, so only the
        distinctness is checked, not every row rule again.
        """
        rows = np.asarray(rows, dtype=int)
        part = object.__new__(Cohort)
        for name in _COLUMNS:
            column = getattr(self, name)[rows]  # IndexError for a row out of range
            column.flags.writeable = False
            object.__setattr__(part, name, column)
        # A negative row is the record of its positive twin.
        counts = np.bincount(rows % max(len(self), 1), minlength=1)
        if counts.max() > 1:
            raise EstimationError(f"record {self.ids[int(counts.argmax())]}: duplicate id")
        object.__setattr__(part, "ids", tuple(map(self.ids.__getitem__, rows.tolist())))
        return part


def _first_invalid_row(ids, e, t, los, event, z) -> tuple[int, str] | None:
    """The first row that breaks a cohort rule, and the rule; columns of
    the wrong length are not a row fault and raise."""
    n = len(ids)
    if z.ndim != 2 or any(len(column) != n for column in (e, t, los, event, z)):
        raise EstimationError(f"cohort columns must have one entry per id ({n}) and z must be 2-D")
    repeated = np.zeros(n, dtype=bool)
    # Sorted neighbours, not a set: a set of 400k ids was the RSS peak of estimate.
    ordered = sorted(ids)
    if any(map(eq, ordered, islice(ordered, 1, None))):
        first = dict(zip(reversed(ids), range(n - 1, -1, -1)))  # id -> its first row
        repeated[:] = True
        repeated[list(first.values())] = False
    rules = (
        ((e < 0) | (e > 1) | (event < 0) | (event > 1), "e and event must be 0/1"),
        (t <= 0, "t must be a positive integer"),
        (~(los > 0), "los must be positive"),
        (~np.isfinite(los) | ~np.isfinite(z).all(axis=1), "los and z must be finite"),
        (repeated, "duplicate id"),
    )
    faults = [(int(np.argmax(bad)), message) for bad, message in rules if bad.any()]
    return min(faults, key=lambda fault: fault[0]) if faults else None


# --- cohort CSV schema --------------------------------------------------------


def _header(p: int) -> list[str]:
    return ["id", "e", "t", "los", "event", *(f"z{i}" for i in range(1, p + 1))]


def load_cohort(path: str | Path) -> Cohort:
    """Parse a cohort CSV; any malformed field is a hard error with its line.

    numpy parses a plain file in bulk, in one part per CPU (see
    ``_part_count``). Any other file, and any file with a fault, goes
    through the row reader, which alone words the errors.
    """
    cohort = _load_bulk(path)
    return _load_rows(path) if cohort is None else cohort


def _part_count(rows: int) -> int:
    """The contiguous parts cohort CSV I/O splits ``rows`` rows into: one
    per CPU this process may run on, each of at least ``_WRITE_CHUNK`` rows.
    One part where a fork is unknown or unsafe: without
    ``os.sched_getaffinity`` (off Linux), or with a second Python thread."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _WRITE_CHUNK))


@contextmanager
def _forked(jobs):
    """Run each of ``jobs`` in a forked child; yield, in order, a binary
    stream of the buffers each job returned.

    Every child is reaped on the way out. Should the ``with`` body raise,
    the children are killed first, since their results are not wanted; a
    child that did not exit 0 then raises ChildProcessError, so that the
    caller can take its serial path.
    """
    streams, pids = [], []
    try:
        for job in jobs:
            read_end, write_end = os.pipe()
            streams.append(open(read_end, "rb"))
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns on a fork beside threads it did not start, such
                    # as a BLAS pool; the children run no code that such threads lock.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _child(job, write_end, streams)
                pids.append(pid)
            finally:
                os.close(write_end)
        yield streams
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for stream in streams:  # first, so that a child blocked on a full pipe ends
            stream.close()
        failed = [pid for pid in pids if os.waitpid(pid, 0)[1]]
    if failed:
        raise ChildProcessError(f"{len(failed)} of {len(pids)} cohort I/O workers failed")


def _child(job, write_end: int, streams) -> None:
    """The forked side of ``_forked``: write what ``job`` returns, then end
    in ``os._exit``, so that no exit handler of the parent runs."""
    code = 1
    try:
        for stream in streams:  # a read end left open here would keep a sibling blocked
            stream.close()
        with open(write_end, "wb") as out:
            for buffer in job():
                out.write(buffer)
        code = 0
    finally:
        os._exit(code)


def _load_bulk(path: str | Path) -> Cohort | None:
    """The cohort in a plain file, or None where the row reader must decide.

    Plain means the exact header, then lines of printable ASCII without
    ``"``, each with as many fields as the header and none over the csv
    module's field size limit. Nothing else may reach ``np.loadtxt``: numpy
    2.4 can crash the process on an integer field that holds a code point
    above about U+40000, and it skips ``\\x1c`` to ``\\x1f`` as blanks where
    ``int`` and ``float`` refuse them. The parent parses the body's first
    byte range, and a forked child each other one (see ``_sent_part``).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, ranges = _part_ranges(path)
            jobs = [partial(_sent_part, path, start, stop, p) for start, stop in ranges[1:]]
            with _forked(jobs) as streams:
                ids, *tables = _plain_part(path, *ranges[0], p)
                for stream in streams:
                    size = int.from_bytes(stream.read(8), "little")
                    ids += stream.read(size).decode("ascii").split("\n")
                    tables.append(np.frombuffer(stream.read(), dtype=tables[0].dtype))
            table = np.concatenate(tables)
            del tables  # so that the part buffers are gone before the columns are copied
        return Cohort(ids=ids, **{name: table[name] for name in _COLUMNS})
    except Exception:  # every fault is the row reader's to name
        return None


def _part_ranges(path: str | Path) -> tuple[int, list[tuple[int, int]]]:
    """The header's covariate count, and the byte ranges the body splits into,
    each just after a ``\\n``; ValueError unless the header is exact and ends in one."""
    with open(path, "rb") as raw:
        first = raw.readline()
        p = first.count(b",") - 4
        header = ",".join(_header(p)).encode()
        if p < 1 or first not in (header + b"\n", header + b"\r\n"):
            raise ValueError("not a plain cohort header")
        size = os.fstat(raw.fileno()).st_size
        parts = _part_count((size - len(first)) // max(len(raw.readline()), 1))
        starts = [len(first)]
        for k in range(1, parts):
            raw.seek(len(first) + (size - len(first)) * k // parts - 1)
            raw.readline()
            if starts[-1] < raw.tell() < size:
                starts.append(raw.tell())
    return p, list(zip(starts, [*starts[1:], size]))


def _plain_part(path: str | Path, start: int, stop: int, p: int) -> tuple[list[str], np.ndarray]:
    """The ids, and the other columns as one structured array, of the plain
    lines in bytes ``start`` to ``stop`` of ``path``, read a buffer at a time."""
    ids: list[str] = []

    def plain_lines(fh):
        while chunk := fh.readlines(_READ_HINT):
            if (
                "".join(chunk).encode().translate(None, _PLAIN)
                or set(map(str.count, chunk, repeat(","))) != {p + 4}
                or max(map(len, chunk)) > csv.field_size_limit()
            ):
                raise ValueError("not a plain cohort file")
            ids.extend([line.partition(",")[0] for line in chunk])
            yield from chunk

    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        # Universal newlines end a line at \r, \n or \r\n, as csv.reader does.
        text = io.TextIOWrapper(io.BufferedReader(_Range(raw, stop - start)), encoding="ascii")
        table = np.loadtxt(
            plain_lines(text),
            dtype=[(name, dtype, (p,) if name == "z" else ()) for name, dtype in _COLUMNS.items()],
            delimiter=",",
            comments=None,
            quotechar=None,
            usecols=range(1, p + 5),
            ndmin=1,
        )
    if len(table) != len(ids):
        raise ValueError("not a plain cohort file")
    return ids, table


def _sent_part(path: str | Path, start: int, stop: int, p: int) -> list:
    """``_plain_part`` as the buffers a forked child sends: the byte size of
    the ids, the ids, one to a line, and the table."""
    ids, table = _plain_part(path, start, stop, p)
    blob = "\n".join(ids).encode()
    return [len(blob).to_bytes(8, "little"), blob, table.view(np.uint8)]


class _Range(io.RawIOBase):
    """The next ``size`` bytes of unbuffered binary file ``raw``, read
    through its ``readinto``, so that a reader above never holds more than
    its own buffer of them."""

    def __init__(self, raw, size: int) -> None:
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count


def _load_rows(path: str | Path) -> Cohort:
    """``load_cohort`` through ``csv.reader``, one row at a time."""
    ids: list[str] = []
    e, t, event = array("q"), array("q"), array("q")
    los, z = array("d"), array("d")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CohortFormatError(f"{path}: empty file")
            p = len(header) - 5
            if header[:5] != _header(0) or p < 1:
                raise CohortFormatError(
                    f"{path}: line 1: header must be id,e,t,los,event,z1..zp, got {','.join(header)}"
                )
            if header != _header(p):
                raise CohortFormatError(f"{path}: line 1: covariate columns must be z1..z{p}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise CohortFormatError(
                        f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    e.append(int(row[1]))
                    t.append(int(row[2]))
                    los.append(float(row[3]))
                    event.append(int(row[4]))
                    z.extend(map(float, row[5:]))
                except (ValueError, OverflowError) as exc:
                    raise CohortFormatError(f"{path}: line {lineno}: {exc}") from exc
                ids.append(row[0])
        except csv.Error as exc:  # a field over the csv module's size limit, say
            raise CohortFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # Decoding runs a block ahead of the reader, so no exact line is known.
            raise CohortFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    columns = dict(
        ids=tuple(ids),
        e=np.asarray(e),
        t=np.asarray(t),
        los=np.asarray(los),
        event=np.asarray(event),
        z=np.reshape(z, (len(ids), p)),
    )
    try:
        return Cohort(**columns)
    except EstimationError:
        fault = _first_invalid_row(**columns)
        if fault is None:
            raise
        raise CohortFormatError(f"{path}: line {fault[0] + 2}: {fault[1]}") from None


def _csv_field(text: str) -> str:
    """``text`` as ``csv.QUOTE_MINIMAL`` writes it."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def save_cohort(cohort: Cohort, path: str | Path) -> None:
    """Write ``cohort`` as CSV: ``saving_cohort`` with nothing to overlap."""
    with saving_cohort(cohort, path):
        pass


@contextmanager
def saving_cohort(cohort: Cohort, path: str | Path):
    """Write ``cohort`` as CSV while the ``with`` body runs; floats use
    ``%.17g`` and so load back exactly.

    On entry a forked child starts to format each part of the rows (see
    ``_part_count``). On exit, also when the body raised, the parent writes
    the header and copies the parts in, in order. With one part, a failed
    fork or a failed child, the parent writes the rows itself on exit.
    """
    p = cohort.z.shape[1]
    header = (",".join(_header(p)) + "\r\n").encode()
    blocks = partial(_row_blocks, cohort, "%s,%d,%d,%.17g,%d" + ",%.17g" * p)
    parts = _part_count(len(cohort))
    cuts = [len(cohort) * k // parts for k in range(parts + 1)]
    jobs = [partial(list, blocks(start, stop)) for start, stop in zip(cuts, cuts[1:])]
    with open(path, "wb") as fh, ExitStack() as children:
        try:
            streams = children.enter_context(_forked(jobs if parts > 1 else []))
        except OSError:  # a failed fork
            streams = []
        try:
            yield
        finally:
            fh.write(header)
            try:
                with children:  # reaps the children, never killed for the body's exception
                    for stream in streams:
                        while block := stream.read(_READ_HINT):
                            fh.write(block)
            except OSError:  # a failed child
                streams = []
                fh.truncate(fh.seek(len(header)))
            if not streams:
                fh.writelines(blocks(0, len(cohort)))


def _row_blocks(cohort: Cohort, row: str, start: int, stop: int):
    """Rows ``start`` to ``stop`` of ``cohort`` as encoded CSV, one block per
    ``_WRITE_CHUNK`` rows; ``row`` is the ``%`` template of one line."""
    for begin in range(start, stop, _WRITE_CHUNK):
        rows = slice(begin, min(begin + _WRITE_CHUNK, stop))
        ids = cohort.ids[rows]
        if _NEEDS_QUOTES.search("".join(ids)):
            ids = map(_csv_field, ids)
        columns = zip(
            ids,
            cohort.e[rows].tolist(),
            cohort.t[rows].tolist(),
            cohort.los[rows].tolist(),
            cohort.event[rows].tolist(),
            *cohort.z[rows].T.tolist(),
        )
        yield ("\r\n".join(map(row.__mod__, columns)) + "\r\n").encode()


# --- propensity model ---------------------------------------------------------


@dataclass(frozen=True)
class PropensityModel:
    """Logistic fit of treatment on covariates; intercept first."""

    coefficients: np.ndarray
    scores: np.ndarray
    iterations: int

    def __post_init__(self) -> None:
        freeze(self, "coefficients", "scores")


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-eta))``, with ``exp`` only of non-positive numbers."""
    e = np.exp(-np.abs(eta))
    out = np.where(eta >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def fit_propensity(cohort: Cohort) -> PropensityModel:
    """Maximum-likelihood logistic regression via iteratively reweighted
    least squares; converges when the score vector drops below 1e-8."""
    z = cohort.z
    y = cohort.e.astype(float)
    n, p = z.shape
    for arm, label in ((1, "treated"), (0, "control")):
        count = int(np.sum(y == arm))
        if count < p + 1:
            raise EstimationError(
                f"need at least {p + 1} {label} records for {p} covariates, got {count}"
            )
    x = np.hstack([np.ones((n, 1)), z])

    beta = np.zeros(p + 1)
    for iteration in range(1, MAX_ITER + 1):
        prob = _sigmoid(x @ beta)
        if np.any(prob <= SEPARATION_BAND) or np.any(prob >= 1.0 - SEPARATION_BAND):
            raise EstimationError("fitted propensity reached 0/1: data are (quasi-)separated")
        score = x.T @ (y - prob)
        score_norm = float(np.max(np.abs(score)))
        weights = prob * (1.0 - prob)
        info = (x.T * weights) @ x / n
        # Solved before the convergence test: the returned iterate meets the singularity rule too.
        try:
            step = solve_linear_system(info, score / n, pivot_tol=1e-10)
        except SingularMatrixError as exc:
            raise EstimationError(f"covariates are collinear: {exc}") from exc
        if score_norm <= SCORE_TOL:
            return PropensityModel(coefficients=beta, scores=prob, iterations=iteration - 1)
        beta = beta + step
    raise EstimationError(f"IRLS did not converge in {MAX_ITER} iterations")


# --- 1-1 propensity matching ----------------------------------------------------


@dataclass(frozen=True)
class MatchResult:
    """Treated/control pairing on propensity score.

    ``treated`` and ``controls`` are cohort row indices in pair order.
    """

    treated: np.ndarray
    controls: np.ndarray
    pairs: tuple[tuple[str, str], ...]
    dropped_treated: tuple[str, ...]
    mean_pair_distance: float

    def __post_init__(self) -> None:
        freeze(self, "treated", "controls", dtype=int)


def match_one_to_one(
    cohort: Cohort,
    scores: np.ndarray,
    *,
    caliper: float | None = None,
) -> MatchResult:
    """Greedy 1-1 nearest-neighbor matching without replacement.

    Treated records are processed in descending score order, equal scores
    in row order, and each takes the nearest remaining control:

    - of two equally near controls, the lower score wins;
    - among equal-score controls at or above the treated score, the lower
      row index wins;
    - among equal-score controls below the treated score, the higher row
      index wins (see ``DECISIONS.md``);
    - with a caliper, a treated record whose nearest control lies beyond
      it is dropped and logged, and that control stays in the pool.

    Without a caliper, fewer controls than treated is an error. The
    controls are sorted once by (score, index) and never moved; used slots
    are skipped through union-find links, so the cost is O(n log n).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(cohort),):
        raise EstimationError("scores must align one-to-one with the cohort")
    treated = np.flatnonzero(cohort.e == 1)
    controls = np.flatnonzero(cohort.e == 0)
    if caliper is None and len(controls) < len(treated):
        raise EstimationError(
            f"{len(controls)} controls for {len(treated)} treated and no caliper"
        )

    treated = treated[np.lexsort((treated, -scores[treated]))]
    pool = controls[np.lexsort((controls, scores[controls]))]
    pool_scores = scores[pool]
    targets = scores[treated]
    starts = np.searchsorted(pool_scores, targets, side="left")
    # Indexing a memoryview yields Python floats without boxing the pool.
    slot_score = memoryview(pool_scores)
    m = len(pool)
    # Union-find links over the static pool, kept only for used slots, so
    # they cost memory per pair and not per control. Following ``right``
    # from i reaches the first live slot >= i (m: none); following ``left``
    # from i reaches one past the last live slot < i (0: none).
    right: dict[int, int] = {}
    left: dict[int, int] = {}

    def find(links: dict[int, int], i: int) -> int:
        root = i
        while root in links:
            root = links[root]
        while i != root:
            links[i], i = root, links[i]
        return root

    ids = cohort.ids
    kept_treated: list[int] = []
    kept_slots: list[int] = []
    dropped: list[str] = []
    for ti, target, start in zip(treated.tolist(), targets.tolist(), starts.tolist()):
        # The nearest live controls: lo below the target, hi at or above it.
        lo = (find(left, start) if start in left else start) - 1
        hi = find(right, start) if start in right else start
        if lo < 0 and hi == m:  # no live control, only with a caliper: see the check above
            dropped.append(ids[ti])
            continue
        if hi == m or (lo >= 0 and target - slot_score[lo] <= slot_score[hi] - target):
            best, gap = lo, target - slot_score[lo]  # a tie goes to the lower score
        else:
            best, gap = hi, slot_score[hi] - target
        if caliper is not None and gap > caliper:
            dropped.append(ids[ti])
            continue
        kept_treated.append(ti)
        kept_slots.append(best)
        right[best] = best + 1
        left[best + 1] = best

    kept_controls = pool[kept_slots].tolist()
    if dropped:
        log.info("matching dropped %d treated outside caliper %s", len(dropped), caliper)
    distances = np.abs(scores[kept_treated] - scores[kept_controls])
    return MatchResult(
        treated=kept_treated,
        controls=kept_controls,
        pairs=tuple(zip(map(ids.__getitem__, kept_treated), map(ids.__getitem__, kept_controls))),
        dropped_treated=tuple(dropped),
        mean_pair_distance=float(np.mean(distances)) if distances.size else 0.0,
    )


# --- Cox proportional hazards ----------------------------------------------------


@dataclass(frozen=True)
class CoxFit:
    """Partial-likelihood maximum with its convergence trace."""

    beta: np.ndarray
    log_partial_likelihood: float
    iterations: int
    gradient_norm: float
    ll_trace: tuple[float, ...]

    def __post_init__(self) -> None:
        freeze(self, "beta")


def cox_partial_likelihood(
    beta: np.ndarray,
    times: np.ndarray,
    events: np.ndarray,
    covariates: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Breslow partial log-likelihood with gradient and Hessian.

    Tied event times share the full risk-set denominator; censored
    records enter risk sets only.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    x = np.asarray(covariates, dtype=float)
    n, p = x.shape
    order = np.lexsort((np.arange(n), times))
    t, d, x = times[order], events[order], x[order]

    eta = x @ np.asarray(beta, dtype=float)
    w = np.exp(eta)
    wx = w[:, None] * x
    wxx = w[:, None, None] * (x[:, :, None] * x[:, None, :])
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum(wx[::-1], axis=0)[::-1]
    s2 = np.cumsum(wxx[::-1], axis=0)[::-1]

    mask = d == 1
    event_times = t[mask]
    taus, counts = np.unique(event_times, return_counts=True)
    if taus.size == 0:
        raise EstimationError("no observed events")
    starts = np.searchsorted(t, taus, side="left")
    bounds = np.searchsorted(event_times, taus, side="left")
    eta_sums = np.add.reduceat(eta[mask], bounds)
    x_sums = np.add.reduceat(x[mask], bounds, axis=0)

    s0_tau = s0[starts]
    mean_tau = s1[starts] / s0_tau[:, None]
    ll = float(np.sum(eta_sums - counts * np.log(s0_tau)))
    grad = np.sum(x_sums - counts[:, None] * mean_tau, axis=0)
    curvature = s2[starts] / s0_tau[:, None, None] - mean_tau[:, :, None] * mean_tau[:, None, :]
    hess = -np.einsum("k,kij->ij", counts.astype(float), curvature)
    return ll, grad, hess


def fit_cox(group: Cohort) -> CoxFit:
    """Newton-Raphson maximization of the Breslow partial likelihood with
    step-halving; the accepted likelihood path never decreases."""
    x = group.z
    times = group.t.astype(float)
    events = group.event
    n, p = x.shape
    n_events = int(events.sum())
    if n_events < p + 1:
        raise EstimationError(f"need at least {p + 1} events for {p} covariates, got {n_events}")
    if np.unique(times[events == 1]).size < 2:
        raise EstimationError("need at least 2 distinct event times")
    center = x.mean(axis=0)
    xc = x - center  # location shift leaves the partial likelihood invariant

    beta = np.zeros(p)
    ll, grad, hess = cox_partial_likelihood(beta, times, events, xc)
    trace = [ll]
    for iteration in range(1, MAX_ITER + 1):
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= SCORE_TOL:
            return CoxFit(
                beta=beta,
                log_partial_likelihood=ll,
                iterations=iteration - 1,
                gradient_norm=grad_norm,
                ll_trace=tuple(trace),
            )
        try:
            direction = solve_linear_system(-hess, grad, pivot_tol=1e-10)
        except SingularMatrixError as exc:
            raise EstimationError(
                f"Cox information matrix is singular (flat or collinear covariate): {exc}"
            ) from exc
        step = 1.0
        for _ in range(40):
            candidate = beta + step * direction
            cand_ll, cand_grad, cand_hess = cox_partial_likelihood(candidate, times, events, xc)
            if cand_ll >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            step *= 0.5
        else:
            raise EstimationError("step-halving failed to improve the partial likelihood")
        beta, ll, grad, hess = candidate, cand_ll, cand_grad, cand_hess
        trace.append(ll)
        if float(np.max(np.abs(beta))) > DIVERGENT_BETA:
            raise EstimationError(
                "coefficients diverged; the partial likelihood has no finite maximum"
            )
    raise EstimationError(f"Cox fit did not converge in {MAX_ITER} iterations")


# --- response scores ---------------------------------------------------------


def response_scores(fit0: CoxFit, fit1: CoxFit, cohort: Cohort) -> np.ndarray:
    """Per-patient score = covariates . (treated beta - control beta);
    ``run_pipeline`` marks a good responder where it exceeds the cutoff."""
    if fit0.beta.shape != fit1.beta.shape:
        raise EstimationError(
            f"coefficient dimension mismatch: {fit0.beta.shape} vs {fit1.beta.shape}"
        )
    z = cohort.z
    if z.shape[1] != fit0.beta.shape[0]:
        raise EstimationError(
            f"cohort has {z.shape[1]} covariates, fits have {fit0.beta.shape[0]}"
        )
    return z @ (fit1.beta - fit0.beta)


# --- outcome rates -----------------------------------------------------------

OutcomeCriterion = Callable[[Cohort], np.ndarray]


def death_before_discharge(cohort: Cohort) -> np.ndarray:
    """1 for each patient whose observed death came before ICU discharge."""
    return ((cohort.event == 1) & (cohort.t < cohort.los)).astype(int)


def death_within(days: float) -> OutcomeCriterion:
    def criterion(cohort: Cohort) -> np.ndarray:
        return ((cohort.event == 1) & (cohort.t <= days)).astype(int)

    return criterion


def criterion_from_name(name: str) -> OutcomeCriterion:
    """``death-before-discharge``, or ``death-within:<days>`` with finite positive days."""
    if name == "death-before-discharge":
        return death_before_discharge
    days = name.removeprefix("death-within:")
    try:
        if days != name and 0 < float(days) < math.inf:
            return death_within(float(days))
    except ValueError:
        pass
    raise ValueError(
        "criterion must be death-before-discharge or death-within:<days> with finite"
        f" positive days, got {name!r}"
    )


@dataclass(frozen=True)
class OutcomeRateTable:
    """Cell rates by (responder class, expenditure) plus the class share.

    ``counts`` and ``pi_hat`` are read-only 2x2 arrays indexed [class, e];
    ``pi_hat`` carries the survival rate per cell, the complement of the
    criterion (death) frequency, NaN for an empty cell, which is logged.
    """

    counts: np.ndarray
    pi_hat: np.ndarray
    gamma_hat: float

    def __post_init__(self) -> None:
        freeze(self, "counts", "pi_hat", dtype=None)

    def to_model_params(self) -> ModelParams:
        empty = np.argwhere(self.counts == 0).tolist()
        if empty:
            raise EstimationError(f"cell {tuple(empty[0])} is empty, outcome rate undefined")
        return ModelParams(*self.pi_hat.ravel().tolist(), gamma=self.gamma_hat)


def outcome_rates(
    classes: np.ndarray,
    cohort: Cohort,
    criterion: OutcomeCriterion = death_before_discharge,
) -> OutcomeRateTable:
    """Per-cell survival rates and the good-responder share, from each
    patient's responder class (0 or 1).

    The criterion counts deaths; a cell's rate is their complement, so the
    rates line up with survival probabilities.
    """
    if len(classes) != len(cohort):
        raise EstimationError("responder classes and cohort are misaligned")
    # min and max, not a mask: three temporary masks raised perfbench estimate's peak RSS 2.6 %.
    if classes.dtype.kind not in "biu" or (len(classes) and not 0 <= classes.min() <= classes.max() <= 1):
        raise EstimationError("responder classes must be 0 or 1")
    cell = 2 * classes + cohort.e
    counts = np.bincount(cell, minlength=4)
    deaths = np.bincount(cell, weights=criterion(cohort), minlength=4)
    rates = np.divide(deaths, counts, out=np.full(4, np.nan), where=counts > 0)
    empty = [divmod(i, 2) for i in np.flatnonzero(counts == 0).tolist()]
    if empty:
        log.warning("empty outcome cells: %s", empty)
    return OutcomeRateTable(
        counts=counts.reshape(2, 2),
        pi_hat=(1.0 - rates).reshape(2, 2),
        gamma_hat=float(np.mean(classes)),
    )


# --- end-to-end pipeline -------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings, checked here so that a bad one fails before any work."""

    cutoff: float = 0.0
    caliper: float | None = None
    criterion: str = "death-before-discharge"
    outcome: OutcomeCriterion = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.caliper is not None and not 0 <= self.caliper < math.inf:
            raise ValueError(f"caliper must be finite and at least 0, got {self.caliper}")
        if not math.isfinite(self.cutoff):
            raise ValueError(f"cutoff must be finite, got {self.cutoff}")
        object.__setattr__(self, "outcome", criterion_from_name(self.criterion))


@dataclass(frozen=True)
class PipelineDiagnostics:
    n_input: int
    n_treated: int
    n_matched: int
    n_dropped_treated: int
    mean_pair_distance: float
    propensity_iterations: int
    cox_control: dict
    cox_treated: dict
    score_summary: dict
    histogram: dict
    cell_counts: dict
    assumption_warnings: tuple[str, ...]


@dataclass(frozen=True)
class PipelineResult:
    params: ModelParams
    diagnostics: PipelineDiagnostics


def _stage(name: str, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except EstimationError as exc:
        raise StageError(name, exc) from exc


def _cox_summary(fit: CoxFit) -> dict:
    return {
        "beta": fit.beta.tolist(),
        "iterations": fit.iterations,
        "gradient_norm": fit.gradient_norm,
        "log_partial_likelihood": fit.log_partial_likelihood,
    }


def run_pipeline(cohort: Cohort, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Chain propensity fit, matching, the two Cox fits, scoring, and rates."""
    propensity = _stage("fit_propensity", fit_propensity, cohort)
    match = _stage("match_one_to_one", match_one_to_one, cohort, propensity.scores, caliper=config.caliper)
    matched = cohort.take(np.concatenate([match.treated, match.controls]))
    control_arm = cohort.take(match.controls)
    treated_arm = cohort.take(match.treated)
    fit0 = _stage("fit_cox_control", fit_cox, control_arm)
    fit1 = _stage("fit_cox_treated", fit_cox, treated_arm)
    scores = _stage("response_scores", response_scores, fit0, fit1, matched)
    classes = (scores > config.cutoff).astype(int)
    rates = _stage("outcome_rates", outcome_rates, classes, matched, config.outcome)
    params = _stage("parameter_mapping", rates.to_model_params)

    notes = [f"ordering violated: {v}" for v in params.ordering_violations()]
    if abs(params.distinct_benefit_margin()) <= 1e-6:
        notes.append("pi01*pi10 is within 1e-6 of pi00*pi11 (degenerate benefit margin)")

    hist_counts, hist_edges = np.histogram(scores, bins=HISTOGRAM_BINS)
    quartiles = np.percentile(scores, [25, 50, 75])
    diagnostics = PipelineDiagnostics(
        n_input=len(cohort),
        n_treated=len(treated_arm),
        n_matched=len(matched),
        n_dropped_treated=len(match.dropped_treated),
        mean_pair_distance=match.mean_pair_distance,
        propensity_iterations=propensity.iterations,
        cox_control=_cox_summary(fit0),
        cox_treated=_cox_summary(fit1),
        score_summary={
            "mean": float(scores.mean()),
            "std": float(scores.std(ddof=1)),
            "min": float(scores.min()),
            "q25": float(quartiles[0]),
            "median": float(quartiles[1]),
            "q75": float(quartiles[2]),
            "max": float(scores.max()),
            "fraction_positive": float(np.mean(classes)),
        },
        histogram={
            "bin_edges": hist_edges.tolist(),
            "counts": hist_counts.tolist(),
        },
        cell_counts={f"r{r}e{e}": int(rates.counts[r, e]) for r in (0, 1) for e in (0, 1)},
        assumption_warnings=tuple(notes),
    )
    return PipelineResult(params=params, diagnostics=diagnostics)
