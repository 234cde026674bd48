"""CSV ingestion and run configuration for the command-line workflows."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import pickle
import re
import sys
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, NoReturn, TextIO

import numpy as np

from .errors import (
    ConfigError,
    EmptyFile,
    InputDataError,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    WrongFieldCount,
)
from .rct import RctDataset


@contextlib.contextmanager
def named_file(path: str, verb: str) -> Iterator[None]:
    """Report an OS or decoding failure on the file the user named as InputDataError."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) and err.strerror else str(err)
        raise InputDataError(f"cannot {verb} {path!r}: {reason}") from None


@dataclass(frozen=True)
class AnalyzeConfig:
    """Input file, column roles and covariance mode for the analyze workflow.

    Row indices in error messages are 1-based over data rows (the header is
    row 0).
    """

    input_path: str
    outcome: str
    treatment: str
    covariates: tuple[str, ...]
    cluster: str | None = None
    strata: str | None = None
    covariance_mode: str = "iid"

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if not self.covariates:
            raise ConfigError("at least one covariate column is required")
        roles = [self.outcome, self.treatment, *self.covariates]
        if self.cluster is not None:
            roles.append(self.cluster)
        if self.strata is not None:
            roles.append(self.strata)
        if len(set(roles)) != len(roles):
            raise ConfigError(f"column roles must be disjoint, got {roles}")
        if self.covariance_mode not in ("iid", "cluster"):
            raise ConfigError(f"covariance mode must be iid or cluster, got {self.covariance_mode!r}")
        if self.covariance_mode == "cluster" and self.cluster is None:
            raise ConfigError("cluster covariance mode requires a cluster column")


@dataclass(frozen=True)
class LoadedDataset:
    """A loaded CSV; stratum and cluster labels are integer codes in sorted label order."""

    data: RctDataset
    covariate_names: tuple[str, ...]
    cluster_ids: np.ndarray | None = None


def _parse_numeric(token: str, row: int, column: str) -> float:
    """A numeric cell as numpy's parser reads it, or NonFiniteValue.

    The grammar is that of ``float`` on the stripped token, restricted to
    ASCII and without digit-separating underscores, which numpy rejects.
    """
    text = token.strip()
    try:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        value = float(text)
    except ValueError:
        raise NonFiniteValue(row, column, token) from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, column, token)
    return value


def _read_header(path: str) -> tuple[list[str], int]:
    """Stripped header cells and the number of lines up to and including them."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next((row for row in reader if row), None)
        if header is None:
            raise EmptyFile(f"{path!r} has no header row")
        header_lines = reader.line_num
        if next((row for row in reader if row), None) is None:
            raise EmptyFile(f"{path!r} has a header but no data rows")
    return [cell.strip() for cell in header], header_lines


def _raise_first_error(
    config: AnalyzeConfig, width: int, index: dict[str, int], reason: str
) -> NoReturn:
    """Raise the error of the first bad cell, scanning rows as ``csv`` splits them.

    Runs only after the one-pass parse or its checks failed, and returns no
    data. Rows are numbered over non-empty data rows; within a row the
    outcome is checked first, then the treatment, then the covariates in
    config order. Should the scan find nothing (``csv`` and numpy split the
    file differently), ``reason`` is reported instead.
    """
    with open(config.input_path, newline="", encoding="utf-8-sig") as handle:
        records = (row for row in csv.reader(handle) if row)
        next(records)  # the header
        for i, record in enumerate(records, start=1):
            if len(record) != width:
                raise WrongFieldCount(i, width, len(record))
            _parse_numeric(record[index[config.outcome]], i, config.outcome)
            t_tok = record[index[config.treatment]].strip()
            if _parse_numeric(t_tok, i, config.treatment) not in (0.0, 1.0):
                raise NonBinaryTreatment(i, t_tok)
            for cov in config.covariates:
                _parse_numeric(record[index[cov]], i, cov)
    raise InputDataError(f"{config.input_path!r} could not be parsed: {reason}")


def load_dataset(config: AnalyzeConfig) -> LoadedDataset:
    r"""Read the CSV named in the config into a validated RctDataset.

    ``np.loadtxt`` parses the file: RFC-4180 quoting, no comment lines,
    float columns for the outcome, treatment and covariates, strings for the
    stratum and cluster labels, and zero-width strings for the rest. Stratum
    and cluster labels come back as integer codes in sorted label order. A
    large file is cut at line ends into one byte range per usable core (CPU
    affinity, at least ``_MIN_RANGE_BYTES`` each); this process parses the
    first range and a forked child each other one, which yields the same
    bits as one pass. The file is read as one range when it
    holds a ``"`` or a ``\r`` not followed by ``\n`` (a quoted cell may
    hold a line break, and a lone ``\r`` ends a line), or when forking is
    unavailable or would warn. Any parse or value error is located by
    :func:`_raise_first_error` over the whole file.
    """
    with named_file(config.input_path, "read"):
        return _load_dataset(config)


# Body bytes per range below which a fork costs more than it saves: on a
# 2-vCPU x86 VM two ranges break even at about 1.5 MiB each.
_MIN_RANGE_BYTES = 2 << 20
# Block size of the scans that place the range boundaries.
_SCAN_BYTES = 1 << 20
# A line end followed by the first byte of a non-blank line.
_NONBLANK_LINE = re.compile(rb"\n[^\r\n]")

_Part = tuple[np.ndarray, dict[str, tuple[list[str], np.ndarray]]]


def _parse(
    source: str | TextIO, skiprows: int, dtype: np.dtype, numeric: list[int], labels: dict[str, int]
) -> _Part:
    """Parse CSV records into float rows and first-seen label codes.

    ``source`` is the file's path or a text stream over some of its lines.
    Returns the ``(len(numeric), rows)`` float block and, per label role,
    its distinct labels in first-seen order with each row's index into them.
    """
    table = np.loadtxt(
        source,
        dtype=dtype,
        delimiter=",",
        quotechar='"',
        comments=None,
        skiprows=skiprows,
        encoding="utf-8-sig",
        ndmin=1,
    )
    coded = {}
    for name, j in labels.items():
        column = table[f"c{j}"]
        first_seen = {label: code for code, label in enumerate(dict.fromkeys(column))}
        codes = np.fromiter(map(first_seen.__getitem__, column), np.intp, len(column))
        coded[name] = (list(first_seen), codes)
    for j in labels.values():
        table[f"c{j}"] = None  # free the label strings before the numbers are copied
    block = np.empty((len(numeric), table.shape[0]))
    for row, j in zip(block, numeric):
        row[:] = table[f"c{j}"]
    return block, coded


def _sorted_codes(parts: list[tuple[list[str], np.ndarray]]) -> np.ndarray:
    """Each row's code in sorted label order over all parts.

    Numbers labels as ``np.unique(labels.astype(str), return_inverse=True)``
    does, so a trailing NUL is dropped and ``"a"`` and ``"a\\x00"`` share a
    code, but sorts only the parts' distinct labels, not every row's.
    """
    union = [label for labels, _ in parts for label in labels]
    inverse = np.unique(np.array(union, dtype=str), return_inverse=True)[1]
    offsets = np.cumsum([0] + [len(labels) for labels, _ in parts[:-1]])
    return np.concatenate([inverse[offset + codes] for offset, (_, codes) in zip(offsets, parts)])


def _fork_warns() -> bool:
    """Whether ``os.fork`` would warn that this process runs other threads.

    Python 3.12 and later warn; a BLAS thread pool counts.
    """
    if sys.version_info < (3, 12):
        return False
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return True


def _byte_ranges(path: str, header_lines: int) -> list[tuple[int, int]]:
    """Line-aligned ``(start, stop)`` byte ranges of the body to parse apart.

    One range per usable core, each of at least ``_MIN_RANGE_BYTES``; each
    starts at a non-blank line, so none parses to no rows. An empty list
    means parse the file as one range.
    """
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork") or _fork_warns():
        return []
    cores = len(os.sched_getaffinity(0))
    size = os.path.getsize(path)
    if min(cores, size // _MIN_RANGE_BYTES) < 2:
        return []
    with open(path, "rb") as handle:
        body = _body_start(handle, header_lines)
        if body is None:
            return []
        k = min(cores, (size - body) // _MIN_RANGE_BYTES)
        starts: list[int] = []
        for i in range(k):
            start = _line_start(handle, body + i * (size - body) // k)
            if start is None:
                break
            if start not in starts:
                starts.append(start)
    return list(zip(starts, starts[1:] + [size]))


def _body_start(handle: BinaryIO, header_lines: int) -> int | None:
    r"""Offset after the header's lines, or None if the file may not be cut at ``\n``.

    Scans the whole file in bounded blocks for a ``"`` (a quoted cell may
    hold a line break) or a ``\r`` not followed by ``\n`` (a line end that
    universal newlines reads and a cut at ``\n`` would miss).
    """
    body, offset, pending_cr = None, 0, False
    while block := handle.read(_SCAN_BYTES):
        if b'"' in block or (pending_cr and not block.startswith(b"\n")):
            return None
        pending_cr = block.endswith(b"\r")
        if b"\r" in block and block.count(b"\r") - block.count(b"\r\n") > pending_cr:
            return None
        if body is None:
            at = -1
            while header_lines and (at := block.find(b"\n", at + 1)) >= 0:
                header_lines -= 1
            if not header_lines:
                body = offset + at + 1
        offset += len(block)
    return None if pending_cr else body


def _line_start(handle: BinaryIO, pos: int) -> int | None:
    r"""The first offset at or after ``pos`` that starts a non-blank line, or None.

    A line starts just after a ``\n``; ``pos`` is at least 1.
    """
    while True:
        handle.seek(pos - 1)
        block = handle.read(_SCAN_BYTES)
        if len(block) < 2:
            return None
        found = _NONBLANK_LINE.search(block)
        if found:
            return pos + found.start()
        pos += len(block) - 1


class _ByteRange(io.RawIOBase):
    """Raw reads of bytes ``[start, stop)`` of a file, so a range streams to the parser."""

    def __init__(self, path: str, start: int, stop: int):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            read = self._file.readinto(view[: self._left])
        self._left -= read
        return read

    def close(self) -> None:
        self._file.close()
        super().close()


def _parse_range(parse, path: str, start: int, stop: int) -> _Part:
    # Plain utf-8: a byte-order mark can only open the file, inside the header.
    with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop)), encoding="utf-8") as text:
        return parse(text, 0)


def _parse_in_child(parse, path: str, start: int, stop: int, write_fd: int) -> NoReturn:
    """Pickle a range's part, or None on a parse error, into the pipe; never returns.

    Exits 0 only once the whole part is written, so any other exit status
    tells the parent the range is still unparsed.
    """
    status = 1
    try:
        try:
            part = _parse_range(parse, path, start, stop)
        except ValueError:
            part = None
        with open(write_fd, "wb") as pipe:
            pickle.dump(part, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _parse_forked(parse, path: str, ranges: list[tuple[int, int]]) -> list[_Part] | None:
    """Parts of every range in order: the first parsed here, each other in a forked child.

    None when any range fails to parse. A range whose child could not start
    or died without a result is parsed here. Every child is reaped before
    this returns or raises.
    """
    pids: dict[int, int] = {}
    pipes: dict[int, BinaryIO] = {}
    try:
        for i, (start, stop) in enumerate(ranges[1:], start=1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the ranges left are parsed here
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _parse_in_child(parse, path, start, stop, write_fd)
            os.close(write_fd)
            pids[i], pipes[i] = pid, open(read_fd, "rb")
        parts = [_parse_range(parse, path, *ranges[0])]
        for i, (start, stop) in enumerate(ranges[1:], start=1):
            data = None
            if i in pids:
                data = pipes[i].read()  # to EOF first: a child blocks on a full pipe
                pipes.pop(i).close()
                if os.waitstatus_to_exitcode(os.waitpid(pids.pop(i), 0)[1]) != 0:
                    data = None  # died without a result
            part = _parse_range(parse, path, start, stop) if data is None else pickle.loads(data)
            if part is None:
                return None
            parts.append(part)
        return parts
    except ValueError:
        return None
    finally:
        for pipe in pipes.values():
            pipe.close()
        if pids:
            import signal  # only here: numpy does not load it, and the CLI's import time is tracked

            for pid in pids.values():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _load_dataset(config: AnalyzeConfig) -> LoadedDataset:
    header, header_lines = _read_header(config.input_path)

    index: dict[str, int] = {}
    roles = (config.outcome, config.treatment, *config.covariates, config.cluster, config.strata)
    for name in roles:
        if name is not None:
            if name not in header:
                raise MissingColumn(name)
            if header.count(name) > 1:
                raise InputDataError(f"column {name!r} appears more than once in the CSV header")
            index[name] = header.index(name)

    numeric = [index[name] for name in (config.outcome, config.treatment, *config.covariates)]
    labels = {name: index[name] for name in (config.strata, config.cluster) if name is not None}
    # A column that no role names parses to a zero-width string: it still counts
    # for the row's field count, but holds no bytes.
    dtype = np.dtype([
        (f"c{j}", "f8" if j in numeric else "O" if j in labels.values() else "U0")
        for j in range(len(header))
    ])
    parse = functools.partial(_parse, dtype=dtype, numeric=numeric, labels=labels)

    ranges = _byte_ranges(config.input_path, header_lines)
    parts = _parse_forked(parse, config.input_path, ranges) if len(ranges) > 1 else None
    if parts is None:
        # One range; after a failed split too, so that errors read as before.
        try:
            parts = [parse(config.input_path, header_lines)]
        except ValueError as err:
            _raise_first_error(config, len(header), index, str(err))
    codes = {name: _sorted_codes([coded[name] for _, coded in parts]) for name in labels}
    # Rows y, t, x_1..x_p: the covariates are a view of one contiguous block.
    columns = parts[0][0] if len(parts) == 1 else np.concatenate([block for block, _ in parts], axis=1)
    del parts
    t = columns[1]
    if not (np.isfinite(columns).all() and ((t == 0.0) | (t == 1.0)).all()):
        _raise_first_error(config, len(header), index, "a non-finite or non-binary value")

    data = RctDataset(
        outcome=columns[0],
        treatment=t,
        covariates=columns[2:].T,
        strata=codes.get(config.strata),
    )
    return LoadedDataset(
        data=data,
        covariate_names=config.covariates,
        cluster_ids=codes.get(config.cluster),
    )


@dataclass(frozen=True)
class GaussianDgpSpec:
    rho: float = 0.5


@dataclass(frozen=True)
class RctDgpSpec:
    tau: float = 1.0
    beta: tuple[float, ...] = (1.0,)
    interaction: tuple[float, ...] = (0.0,)
    pi: float = 0.5
    noise_sd: float = 1.0


@dataclass(frozen=True)
class RuleSpec:
    kind: str = "two_sided_t"
    threshold: float = 1.96
    coord: int = 0


@dataclass(frozen=True)
class ScoreSpec:
    """Worst-case score at a coefficient choice: optimal, zero, or a number."""

    lam: str | float = "optimal"
    mu: float = 1.0


@dataclass(frozen=True)
class SimulateConfig:
    """Seeded lab run; reproducibility is mandatory, so the seed is required."""

    lab: str
    n: int
    reps: int
    seed: int
    dgp: GaussianDgpSpec | RctDgpSpec = field(default_factory=GaussianDgpSpec)
    rule: RuleSpec = field(default_factory=RuleSpec)
    score: ScoreSpec = field(default_factory=ScoreSpec)

    def __post_init__(self):
        if self.lab not in ("selection", "misspec"):
            from .errors import UnknownLab

            raise UnknownLab(f"lab must be selection or misspec, got {self.lab!r}")
        if self.n < 50:
            raise ConfigError(f"n must be at least 50, got {self.n}")
        if self.reps < 1000:
            raise ConfigError(f"reps must be at least 1000, got {self.reps}")
        if self.seed is None:
            raise ConfigError("a seed is required for reproducibility")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        mu, lam = float(self.score.mu), self.score.lam
        if not 0.0 <= mu < math.inf:
            raise ConfigError(f"mu must be finite and at least 0, got {mu}")
        if lam not in ("optimal", "zero") and not (
            isinstance(lam, (int, float)) and math.isfinite(lam)
        ):
            raise ConfigError(f"lambda must be 'optimal', 'zero' or a finite number, got {lam!r}")
        threshold = float(self.rule.threshold)
        if self.lab == "selection" and not (math.isfinite(threshold) and threshold > 0.0):
            # A built-in rule with such a threshold passes always or never.
            raise ConfigError(f"rule threshold must be positive and finite, got {threshold}")
        if self.lab == "misspec" and not isinstance(self.dgp, GaussianDgpSpec):
            raise ConfigError("the misspec lab runs on the gaussian DGP only")
