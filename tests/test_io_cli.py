import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import residcheck.io
from residcheck.cli import main
from residcheck.dgps import GaussianPairDGP, RctLinearDGP
from residcheck.errors import (
    ConfigError,
    EmptyFile,
    InputDataError,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    WrongFieldCount,
)
from residcheck.io import AnalyzeConfig, load_dataset
from residcheck.report import analyze_report_csv, build_analyze_report, json_bytes

DATA_DIR = pathlib.Path(__file__).parent / "data"
FIXTURE_CSV = DATA_DIR / "rct_fixture.csv"
GOLDEN_JSON = DATA_DIR / "rct_fixture_report.json"
SIZES = ("--n", "100", "--reps", "1000", "--seed", "1")

WELL_FORMED = """y,t,x1,x2
1.0,1,0.1,0.2
2.0,0,0.3,0.1
1.5,1,0.0,0.4
0.5,0,0.2,0.3
2.5,1,0.5,0.0
1.1,0,0.1,0.1
"""


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def config_for(path, **kwargs):
    defaults = dict(
        input_path=path, outcome="y", treatment="t", covariates=("x1", "x2")
    )
    defaults.update(kwargs)
    return AnalyzeConfig(**defaults)


def labelled_csv(labels, quote=False):
    """WELL_FORMED plus a cluster column g holding one label per row."""
    head, *rows = WELL_FORMED.splitlines()
    cells = [f'"{lab.replace(chr(34), 2 * chr(34))}"' if quote else lab for lab in labels]
    return "\n".join([head + ",g"] + [f"{r},{c}" for r, c in zip(rows, cells)]) + "\n"


def cluster_codes(tmp_path, text):
    return load_dataset(config_for(write(tmp_path, text), cluster="g")).cluster_ids.tolist()


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        loaded = load_dataset(config_for(write(tmp_path, WELL_FORMED)))
        assert loaded.data.n == 6
        assert loaded.data.p_gamma == 2
        assert loaded.covariate_names == ("x1", "x2")

    def test_missing_column(self, tmp_path):
        bad = WELL_FORMED.replace("y,t,x1,x2", "y,treat,x1,x2")
        with pytest.raises(MissingColumn) as err:
            load_dataset(config_for(write(tmp_path, bad)))
        assert err.value.column == "t"

    @pytest.mark.parametrize("header, column", [
        ("y,t,x1,x2,y", "y"), ("y,t,x1,x2, x1", "x1"), ("y,t,x1,x2,t ", "t"),
    ], ids=["outcome", "covariate-spaced", "treatment-spaced"])
    def test_role_column_named_twice(self, tmp_path, header, column):
        head, *rows = WELL_FORMED.splitlines()
        text = "\n".join([header] + [row + ",0.0" for row in rows]) + "\n"
        with pytest.raises(InputDataError, match=f"column {column!r} appears more than once"):
            load_dataset(config_for(write(tmp_path, text)))

    def test_repeats_among_unnamed_columns_are_allowed(self, tmp_path):
        head, *rows = WELL_FORMED.splitlines()
        text = "\n".join([head + ",z,z"] + [row + ",a,b" for row in rows]) + "\n"
        assert load_dataset(config_for(write(tmp_path, text))).data.n == 6

    def test_non_binary_treatment_row_index(self, tmp_path):
        bad = WELL_FORMED.replace("0.5,0,0.2,0.3", "0.5,2,0.2,0.3")
        with pytest.raises(NonBinaryTreatment) as err:
            load_dataset(config_for(write(tmp_path, bad)))
        assert err.value.row == 4

    def test_non_finite_value(self, tmp_path):
        bad = WELL_FORMED.replace("1.5,1,0.0,0.4", "1.5,1,nan,0.4")
        with pytest.raises(NonFiniteValue) as err:
            load_dataset(config_for(write(tmp_path, bad)))
        assert err.value.row == 3
        assert err.value.column == "x1"

    def test_unparseable_token(self, tmp_path):
        bad = WELL_FORMED.replace("2.0,0,0.3,0.1", "abc,0,0.3,0.1")
        with pytest.raises(NonFiniteValue):
            load_dataset(config_for(write(tmp_path, bad)))

    def test_wrong_field_count(self, tmp_path):
        bad = WELL_FORMED.replace("2.0,0,0.3,0.1", "2.0,0,0.3")
        with pytest.raises(WrongFieldCount) as err:
            load_dataset(config_for(write(tmp_path, bad)))
        assert (err.value.row, err.value.expected, err.value.actual) == (2, 4, 3)
        assert "row 2" in str(err.value)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_dataset(config_for(write(tmp_path, "")))
        with pytest.raises(EmptyFile):
            load_dataset(config_for(write(tmp_path, "y,t,x1,x2\n")))

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "nope.csv")
        with pytest.raises(InputDataError, match="No such file") as err:
            load_dataset(config_for(path))
        assert type(err.value) is InputDataError and repr(path) in str(err.value)

    def test_roles_must_be_disjoint(self, tmp_path):
        with pytest.raises(ConfigError):
            config_for(write(tmp_path, WELL_FORMED), covariates=("x1", "t"))

    def test_cluster_and_strata_columns(self, tmp_path):
        text = "y,t,x1,g,s\n" + "".join(
            f"{y},{t},{x},{g},{s}\n"
            for y, t, x, g, s in zip(
                np.arange(8) * 0.5,
                [0, 1] * 4,
                np.arange(8) * 0.1,
                list("aabbccdd"),
                list("uuuuvvvv"),
            )
        )
        config = AnalyzeConfig(
            input_path=write(tmp_path, text),
            outcome="y",
            treatment="t",
            covariates=("x1",),
            cluster="g",
            strata="s",
            covariance_mode="cluster",
        )
        loaded = load_dataset(config)
        assert loaded.cluster_ids is not None and len(loaded.cluster_ids) == 8
        assert loaded.data.strata is not None

    def test_hash_inside_label_is_data(self, tmp_path):
        # A comment character would cut "g#1" and "g#2" down to one label "g".
        text = labelled_csv(["g#1", "g#2", "g#1", "g#2", "g#1", "g#2"])
        assert cluster_codes(tmp_path, text) == [0, 1, 0, 1, 0, 1]

    def test_quoted_comma_and_doubled_quote(self, tmp_path):
        labels = ["a,b", 'a"b', "a,b", 'a"b', "a", "a,b"]
        codes = cluster_codes(tmp_path, labelled_csv(labels, quote=True))
        # Sorted label order: 'a' < 'a"b' < 'a,b'.
        assert codes == [2, 1, 2, 1, 0, 2]

    def test_crlf_and_byte_order_mark(self, tmp_path):
        plain = load_dataset(config_for(write(tmp_path, WELL_FORMED, "lf.csv"))).data
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"\xef\xbb\xbf" + WELL_FORMED.replace("\n", "\r\n").encode())
        crlf = load_dataset(config_for(str(path))).data
        assert crlf.outcome.tobytes() == plain.outcome.tobytes()
        assert crlf.covariates.tobytes() == plain.covariates.tobytes()

    def test_blank_lines_do_not_count_as_rows(self, tmp_path):
        text = WELL_FORMED.replace("2.0,0,0.3,0.1\n", "2.0,0,0.3,0.1\n\n\n")
        assert load_dataset(config_for(write(tmp_path, text))).data.n == 6
        bad = text.replace("1.5,1,0.0,0.4", "1.5,1,inf,0.4")
        with pytest.raises(NonFiniteValue) as err:
            load_dataset(config_for(write(tmp_path, bad)))
        assert err.value.row == 3

    def test_extra_field_is_wrong_field_count(self, tmp_path):
        bad = WELL_FORMED.replace("1.5,1,0.0,0.4", "1.5,1,0.0,0.4,9")
        with pytest.raises(WrongFieldCount) as err:
            load_dataset(config_for(write(tmp_path, bad)))
        assert (err.value.row, err.value.expected, err.value.actual) == (3, 4, 5)

    def test_unused_column_parses_to_zero_width(self, tmp_path, monkeypatch):
        # Its cells hold no bytes, whatever they hold; the cluster labels keep theirs.
        tables, loadtxt = [], np.loadtxt

        def recording(*args, **kwargs):
            tables.append(loadtxt(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(np, "loadtxt", recording)
        head, *rows = WELL_FORMED.splitlines()
        text = "\n".join([head + ",note,g"] + [row + ",some words,a" for row in rows]) + "\n"
        assert load_dataset(config_for(write(tmp_path, text), cluster="g")).data.n == 6
        (table,) = tables
        assert table.dtype["c4"].itemsize == 0 and table.dtype["c5"] == object

    def test_labels_are_compared_as_written(self, tmp_path):
        text = labelled_csv(["01", "1", " a", "a", "01", "a"])
        # Sorted label order: ' a' < '01' < '1' < 'a'.
        assert cluster_codes(tmp_path, text) == [1, 2, 0, 3, 1, 3]

    @pytest.mark.parametrize(
        "row, covariates, error, column",
        [
            ("abc,2,nan,0.4", ("x1", "x2"), NonFiniteValue, "y"),
            ("1.5,2,nan,0.4", ("x1", "x2"), NonBinaryTreatment, None),
            ("1.5,x,nan,0.4", ("x1", "x2"), NonFiniteValue, "t"),
            ("1.5,1,nan,inf", ("x1", "x2"), NonFiniteValue, "x1"),
            ("1.5,1,nan,inf", ("x2", "x1"), NonFiniteValue, "x2"),
        ],
    )
    def test_first_bad_cell_in_row_is_reported(self, tmp_path, row, covariates, error, column):
        bad = WELL_FORMED.replace("1.5,1,0.0,0.4", row).replace("2.5,1,0.5,0.0", "2.5,9,0.5,0.0")
        with pytest.raises(error) as err:
            load_dataset(config_for(write(tmp_path, bad), covariates=covariates))
        assert err.value.row == 3
        if column is not None:
            assert err.value.column == column

    @pytest.mark.parametrize("token", ["1_000", "\uff11", "1\u0663", "0x10"])
    def test_tokens_outside_numpy_grammar(self, tmp_path, token):
        # float() reads the first three, numpy's parser none of them.
        bad = WELL_FORMED.replace("0.5,0,0.2,0.3", f"0.5,0,0.2,{token}")
        with pytest.raises(NonFiniteValue) as err:
            load_dataset(config_for(write(tmp_path, bad)))
        assert (err.value.row, err.value.column) == (4, "x2")

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
                # No CR: numpy reads with universal newlines, so a CR inside
                # quotes comes back as LF, where csv keeps it.
                st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r")),
            ),
            min_size=4,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_csv_module_reference(self, tmp_path_factory, rows):
        lines = ["y,t,x1,g"]
        for i, (y, x, label) in enumerate(rows):
            quoted = label.replace('"', '""')
            lines.append(f'{y!r},{i % 2},{x!r},"{quoted}"')
        path = tmp_path_factory.mktemp("prop") / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        loaded = load_dataset(config_for(str(path), covariates=("x1",), cluster="g"))

        with open(path, newline="", encoding="utf-8") as handle:
            records = [r for r in csv.reader(handle) if r][1:]
        want = np.array([[float(c) for c in r[:3]] for r in records])
        assert loaded.data.outcome.tobytes() == want[:, 0].tobytes()
        assert loaded.data.treatment.tobytes() == want[:, 1].tobytes()
        assert loaded.data.covariates.tobytes() == want[:, 2:].tobytes()
        want_codes = np.unique(np.array([r[3] for r in records]), return_inverse=True)[1]
        assert loaded.cluster_ids.tolist() == want_codes.tolist()


SPLIT_PARSE = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not hasattr(os, "sched_getaffinity")
    or not os.path.isdir("/proc/self/fd")
    or residcheck.io._fork_warns(),
    reason="the range-split parse needs os.fork, CPU affinity and /proc/self/fd",
)


@contextlib.contextmanager
def parse_ranges(monkeypatch, k):
    """Cut any body into up to k ranges, scanning it 5 bytes at a time.

    Yields the counts of fork calls and of parses of the whole file by path
    (the one-range parse, also run after a range failed).
    """
    calls = {"fork": 0, "whole_file": 0}
    fork, parse = os.fork, residcheck.io._parse

    def counting_fork():
        calls["fork"] += 1
        return fork()

    def counting_parse(source, *args, **kwargs):
        calls["whole_file"] += isinstance(source, str)
        return parse(source, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(residcheck.io, "_MIN_RANGE_BYTES", 1)
        patch.setattr(residcheck.io, "_SCAN_BYTES", 5)
        patch.setattr(residcheck.io, "_parse", counting_parse)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        patch.setattr(os, "fork", counting_fork)
        yield calls


def assert_same_arrays(a, b):
    for x, y in zip(loaded_arrays(a), loaded_arrays(b)):
        if x is None:
            assert y is None
        else:
            assert (x.dtype, x.shape, x.strides, x.tobytes()) == (y.dtype, y.shape, y.strides, y.tobytes())


def assert_no_children_or_fds_left(fds_before):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds_before


def loaded_arrays(loaded):
    return [
        loaded.data.outcome,
        loaded.data.treatment,
        loaded.data.covariates,
        loaded.data.strata,
        loaded.cluster_ids,
    ]


def labelled_rows(n, labels=("a", "b")):
    """n random rows with stratum s and cluster g label columns."""
    rng = np.random.default_rng(n)
    y, x1, x2 = rng.standard_normal((3, n)).tolist()
    t = rng.integers(0, 2, n).tolist()
    return "".join(
        f"{y[i]!r},{t[i]},{x1[i]!r},{x2[i]!r},{labels[i % len(labels)]},g{i % 7}\n"
        for i in range(n)
    )


LABELLED_HEAD = "y,t,x1,x2,s,g\n"


def split_case(name):
    """The bytes of one equivalence case of the range-split parse."""
    rows = labelled_rows(40)
    if name == "blank_lines_at_split":
        # The blank run covers every cut point, and the body starts blank.
        return (LABELLED_HEAD + "\n\n" + labelled_rows(5) + "\n" * 20000 + rows).encode()
    if name == "crlf":
        return (LABELLED_HEAD + rows).replace("\n", "\r\n").encode()
    if name == "no_trailing_newline":
        return (LABELLED_HEAD + rows).rstrip("\n").encode()
    if name == "label_in_one_range":
        return (LABELLED_HEAD + rows + labelled_rows(3, ("only_last",))).encode()
    if name == "labels_differ_by_spaces_or_nul":
        return (LABELLED_HEAD + labelled_rows(40, ("a", " a", "a ", "a\x00", "b\x00\x00", "b"))).encode()
    raise AssertionError(name)


@SPLIT_PARSE
class TestRangeSplitParse:
    """A body cut into k line-aligned ranges, parsed in forked children,
    loads the same bits and raises the same errors as one range."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_golden_fixture(self, monkeypatch, k):
        config = AnalyzeConfig(
            input_path=str(FIXTURE_CSV), outcome="y", treatment="t", covariates=("x1", "x2", "x3")
        )
        with parse_ranges(monkeypatch, 1) as calls:
            one = load_dataset(config)
        assert calls == {"fork": 0, "whole_file": 1}
        fds = len(os.listdir("/proc/self/fd"))
        with parse_ranges(monkeypatch, k) as calls:
            split = load_dataset(config)
            report = json_bytes(build_analyze_report(config))
        assert calls == {"fork": 2 * (k - 1), "whole_file": 0}
        assert_same_arrays(split, one)
        assert report == GOLDEN_JSON.read_bytes()
        assert_no_children_or_fds_left(fds)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "case",
        [
            "blank_lines_at_split",
            "crlf",
            "no_trailing_newline",
            "label_in_one_range",
            "labels_differ_by_spaces_or_nul",
        ],
    )
    def test_same_arrays_and_codes_as_one_range(self, tmp_path, monkeypatch, case, k):
        path = tmp_path / "data.csv"
        path.write_bytes(split_case(case))
        config = config_for(str(path), strata="s", cluster="g")
        with parse_ranges(monkeypatch, 1):
            one = load_dataset(config)
        # A range of blank lines alone would make loadtxt warn.
        with parse_ranges(monkeypatch, k) as calls, warnings.catch_warnings():
            warnings.simplefilter("error")
            split = load_dataset(config)
        assert calls["fork"] and not calls["whole_file"]
        assert_same_arrays(split, one)
        if case == "labels_differ_by_spaces_or_nul":
            # As np.unique(labels.astype(str)) numbers them: a trailing NUL
            # is dropped, surrounding spaces are kept.
            assert one.data.strata[:6].tolist() == [1, 0, 2, 1, 3, 3]

    @pytest.mark.parametrize(
        "last_row, error",
        [
            (b"1.5,1,abc,0.4,a,g1", NonFiniteValue),
            (b"1.5,1,0.3,a,g1", WrongFieldCount),
            (b"1.5,1,0.3,0.4,\xff,g1", InputDataError),
            (b"1.5,2,0.3,0.4,a,g1", NonBinaryTreatment),
        ],
    )
    def test_error_in_last_range_is_the_one_range_error(self, tmp_path, monkeypatch, last_row, error):
        path = tmp_path / "data.csv"
        # Past the first 8 KiB, which the header check decodes.
        path.write_bytes(LABELLED_HEAD.encode() + labelled_rows(300).encode() + last_row + b"\n")
        config = config_for(str(path), strata="s", cluster="g")
        with parse_ranges(monkeypatch, 1), pytest.raises(error) as one:
            load_dataset(config)
        fds = len(os.listdir("/proc/self/fd"))
        with parse_ranges(monkeypatch, 3) as calls, pytest.raises(error) as split:
            load_dataset(config)
        assert calls["fork"] == 2
        assert (type(split.value), str(split.value)) == (type(one.value), str(one.value))
        assert_no_children_or_fds_left(fds)

    def test_lost_child_range_is_parsed_by_the_parent(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_bytes(split_case("label_in_one_range"))
        config = config_for(str(path), strata="s", cluster="g")
        with parse_ranges(monkeypatch, 1):
            one = load_dataset(config)
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(residcheck.io, "_parse_in_child", lambda *args: os._exit(1))
        with parse_ranges(monkeypatch, 3) as calls:
            split = load_dataset(config)
        assert calls == {"fork": 2, "whole_file": 0}
        assert_same_arrays(split, one)
        assert_no_children_or_fds_left(fds)

    def test_interrupt_kills_and_reaps_every_child(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_bytes(split_case("crlf"))
        parent = os.getpid()

        def interrupted_here_stuck_in_children(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(residcheck.io, "_parse_range", interrupted_here_stuck_in_children)
        fds = len(os.listdir("/proc/self/fd"))
        start = time.monotonic()
        with parse_ranges(monkeypatch, 3) as calls, pytest.raises(KeyboardInterrupt):
            load_dataset(config_for(str(path), strata="s", cluster="g"))
        assert time.monotonic() - start < 30  # the stuck children were killed
        assert calls["fork"] == 2
        assert_no_children_or_fds_left(fds)

    @pytest.mark.parametrize(
        "text",
        [
            labelled_csv(["a"] * 6, quote=True),
            WELL_FORMED.replace("2.0,0,0.3,0.1\n", "2.0,0,0.3,0.1\r"),
            WELL_FORMED + "\r",
        ],
    )
    def test_quotes_or_a_lone_cr_read_as_one_range(self, tmp_path, monkeypatch, text):
        path = write(tmp_path, text)
        cluster = "g" if text.startswith("y,t,x1,x2,g") else None
        with parse_ranges(monkeypatch, 3) as calls:
            assert load_dataset(config_for(path, cluster=cluster)).data.n == 6
        assert calls == {"fork": 0, "whole_file": 1}

    def test_cli_output_matches_one_range(self, tmp_path, monkeypatch):
        # Just over the size at which a two-core machine cuts the body in two.
        row_bytes = len(labelled_rows(100)) / 100
        rows = labelled_rows(int(2.05 * residcheck.io._MIN_RANGE_BYTES / row_bytes))
        assert len(rows) > 2 * residcheck.io._MIN_RANGE_BYTES
        path = tmp_path / "large.csv"
        path.write_text(LABELLED_HEAD + rows)
        result = run_cli(
            "analyze", "--input", str(path), "--covariates", "x1,x2",
            "--strata-col", "s", "--cluster-col", "g", python_flags=("-W", "error"),
        )
        assert (result.returncode, result.stderr) == (0, b"")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        config = config_for(str(path), strata="s", cluster="g", covariance_mode="cluster")
        assert result.stdout == json_bytes(build_analyze_report(config))


class TestAnalyzeReport:
    def test_golden_bytes(self):
        config = AnalyzeConfig(
            input_path=str(FIXTURE_CSV),
            outcome="y",
            treatment="t",
            covariates=("x1", "x2", "x3"),
        )
        assert json_bytes(build_analyze_report(config)) == GOLDEN_JSON.read_bytes()

    def test_independent_lambda_check(self):
        # Recompute the adjustment coefficient from the raw CSV without the
        # library: stack the arm-formula contributions and solve directly.
        with open(FIXTURE_CSV) as handle:
            rows = list(csv.reader(handle))[1:]
        arr = np.array([[float(v) for v in row] for row in rows])
        y, t, x = arr[:, 0], arr[:, 1], arr[:, 2:]
        pi = t.mean()
        phi_c = t * (y - y[t == 1].mean()) / pi - (1 - t) * (y - y[t == 0].mean()) / (1 - pi)
        phi_g = (t / pi - (1 - t) / (1 - pi))[:, None] * (
            x - np.where(t[:, None] == 1, x[t == 1].mean(axis=0), x[t == 0].mean(axis=0))
        )
        stacked = np.column_stack([phi_c, phi_g])
        stacked -= stacked.mean(axis=0)
        sigma = stacked.T @ stacked / len(y)
        lam = np.linalg.solve(sigma[1:, 1:], sigma[0, 1:])
        report = json.loads(GOLDEN_JSON.read_text())
        reported = [row["lambda_k"] for row in report["decomposition"]]
        assert np.allclose(lam, reported, rtol=1e-10)
        gamma = x[t == 1].mean(axis=0) - x[t == 0].mean(axis=0)
        c_short = y[t == 1].mean() - y[t == 0].mean()
        assert report["estimates"]["residualized"]["estimate"] == pytest.approx(
            c_short - lam @ gamma, rel=1e-12
        )

    def test_zero_covariate_effect_fixture(self, tmp_path):
        rng = np.random.default_rng(55)
        n = 2000
        t = (rng.random(n) < 0.5).astype(int)
        y = t + rng.standard_normal(n)
        x = rng.standard_normal(n)
        text = "y,t,x1\n" + "".join(
            f"{yi!r},{ti},{xi!r}\n" for yi, ti, xi in zip(y.tolist(), t, x.tolist())
        )
        report = build_analyze_report(config_for(write(tmp_path, text), covariates=("x1",)))
        assert report["diagnostics"]["informativeness"] < 0.01
        base = report["estimates"]["baseline"]["estimate"]
        resid = report["estimates"]["residualized"]["estimate"]
        assert abs(resid - base) < 0.05

    def test_p_values_consistent_with_t_stats(self):
        report = json.loads(GOLDEN_JSON.read_text())
        for block in report["estimates"].values():
            expected = 2.0 * norm.sf(abs(block["t_stat"]))
            assert block["p_value"] == pytest.approx(expected, abs=1e-6)
            half = block["ci_upper"] - block["estimate"]
            assert half == pytest.approx(norm.ppf(0.975) * block["std_error"], rel=1e-9)

    def test_json_round_trip(self):
        config = AnalyzeConfig(
            input_path=str(FIXTURE_CSV),
            outcome="y",
            treatment="t",
            covariates=("x1", "x2", "x3"),
        )
        report = build_analyze_report(config)
        parsed = json.loads(json_bytes(report).decode("utf-8"))
        assert json_bytes(parsed) == json_bytes(report)

    def test_decomposition_sums_to_correction(self):
        report = json.loads(GOLDEN_JSON.read_text())
        total = sum(row["contribution"] for row in report["decomposition"])
        corr = report["diagnostics"]["correction"]
        assert total == pytest.approx(corr, rel=1e-12)

    def test_cluster_mode_changes_ses_not_points(self, tmp_path):
        rng = np.random.default_rng(66)
        n_clusters, per = 80, 10
        cluster_effect = np.repeat(rng.standard_normal(n_clusters), per)
        n = n_clusters * per
        t = np.repeat((rng.random(n_clusters) < 0.5).astype(int), per)
        x = rng.standard_normal(n) + 0.5 * cluster_effect
        y = t + x + cluster_effect + rng.standard_normal(n)
        g = np.repeat(np.arange(n_clusters), per)
        text = "y,t,x1,g\n" + "".join(
            f"{yi!r},{ti},{xi!r},c{gi}\n"
            for yi, ti, xi, gi in zip(y.tolist(), t, x.tolist(), g)
        )
        path = write(tmp_path, text)
        iid = build_analyze_report(config_for(path, covariates=("x1",)))
        cl = build_analyze_report(
            config_for(path, covariates=("x1",), cluster="g", covariance_mode="cluster")
        )
        assert cl["estimates"]["baseline"]["estimate"] == pytest.approx(
            iid["estimates"]["baseline"]["estimate"], rel=1e-12
        )
        assert (
            cl["estimates"]["baseline"]["std_error"]
            > iid["estimates"]["baseline"]["std_error"]
        )


def run_cli(*args, env_extra=None, python_flags=()):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "residcheck.cli", *args],
        capture_output=True,
        env=env,
    )


def numpy_dispatch_off() -> str | None:
    """NPY_DISABLE_CPU_FEATURES naming every feature numpy dispatches to that this CPU has.

    None when there is none: numpy cannot switch off its baseline features.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return " ".join(found) or None


def kernel_envs() -> list[dict | None]:
    """Child environments to compare: as inherited (normally unset), OPENBLAS_CORETYPE at
    two pre-AVX kernels and at Haswell where the CPU has AVX2, and numpy's dispatched CPU
    features switched off where any can be."""
    cores = ["Prescott", "Nehalem"]
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    if cpuinfo.exists() and "avx2" in cpuinfo.read_text().split():
        cores.append("Haswell")
    envs = [None] + [{"OPENBLAS_CORETYPE": core} for core in cores]
    off = numpy_dispatch_off()
    if off is not None:
        envs.append({"NPY_DISABLE_CPU_FEATURES": off})
    return envs


def stratified_cluster_csv(tmp_path):
    rng = np.random.default_rng(20240818)
    n, n_clusters = 1200, 60
    g = rng.integers(0, n_clusters, size=n)
    s = g % 6
    t = (rng.random(n) < 0.4).astype(int)
    x = rng.standard_normal((n, 3)) + 0.3 * s[:, None]
    y = t + x @ np.array([0.5, -0.25, 0.1]) + 0.4 * t * x[:, 0] + rng.standard_normal(n)
    rows = "".join(
        f"{yi!r},{ti},{x1!r},{x2!r},{x3!r},c{gi},s{si}\n"
        for yi, ti, (x1, x2, x3), gi, si in zip(y.tolist(), t, x.tolist(), g, s)
    )
    path = tmp_path / "strata_cluster.csv"
    path.write_text("y,t,x1,x2,x3,g,s\n" + rows)
    return path


class TestBlasKernelIndependence:
    """analyze bytes, and the bytes of every simulate lab, do not depend on
    the BLAS kernel OpenBLAS dispatches to, nor on the CPU features numpy
    dispatches to.

    The Gaussian simulate cases are the two thread-count determinism
    commands of the acceptance suite (criterion 9); the RCT case draws each
    arm's sufficient statistics and runs the covariance validation and the
    long regression on them. OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES
    are set only in the environment of each child process.
    """

    def assert_same_bytes_across_kernels(self, *args):
        outputs = {}
        for env in kernel_envs():
            key = str(env)
            result = run_cli(*args, env_extra=env)
            assert result.returncode == 0, (key, result.stderr)
            outputs[key] = result.stdout
        assert len(set(outputs.values())) == 1, {
            key: hashlib.md5(out).hexdigest() for key, out in outputs.items()
        }

    def test_fixture_report(self):
        self.assert_same_bytes_across_kernels(
            "analyze", "--input", str(FIXTURE_CSV), "--covariates", "x1,x2,x3"
        )

    def test_clustered_stratified_report(self, tmp_path):
        self.assert_same_bytes_across_kernels(
            "analyze", "--input", str(stratified_cluster_csv(tmp_path)),
            "--covariates", "x1,x2,x3", "--cluster-col", "g", "--strata-col", "s",
        )

    def test_gaussian_selection_lab(self):
        self.assert_same_bytes_across_kernels(
            "simulate", "--lab", "selection", "--rho", "0.5", "--rule", "wald",
            "--threshold", "3.841", "--n", "200", "--reps", "1000", "--seed", "7",
        )

    def test_misspec_lab(self):
        self.assert_same_bytes_across_kernels(
            "simulate", "--lab", "misspec", "--rho", "0.5", "--mu", "0.5",
            "--lambda", "optimal", "--n", "400", "--reps", "1000", "--seed", "3",
        )

    def test_rct_selection_lab(self):
        self.assert_same_bytes_across_kernels(
            "simulate", "--lab", "selection", "--dgp", "rct",
            "--beta", "0.5,-0.25,0.1", "--interaction", "0.4,0,-0.2", "--pi", "0.4",
            "--rule", "wald", "--threshold", "7.815",
            "--n", "60", "--reps", "1000", "--seed", "5",
        )


class TestCli:
    def test_analyze_success_and_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "analyze",
            "--input", str(FIXTURE_CSV),
            "--covariates", "x1,x2,x3",
            "--output", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == GOLDEN_JSON.read_bytes()

    def test_analyze_text_and_csv_formats(self):
        text = run_cli(
            "analyze", "--input", str(FIXTURE_CSV), "--covariates", "x1,x2,x3",
            "--format", "text",
        )
        assert text.returncode == 0
        assert b"Panel A. Estimates" in text.stdout
        flat = run_cli(
            "analyze", "--input", str(FIXTURE_CSV), "--covariates", "x1,x2,x3",
            "--format", "csv",
        )
        assert flat.returncode == 0
        assert flat.stdout.startswith(b"section,key,value")

    def test_input_error_exit_code(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(WELL_FORMED)
        result = run_cli(
            "analyze", "--input", str(path), "--covariates", "x9"
        )
        assert result.returncode == 2
        error = json.loads(result.stderr.decode())
        assert error["error"] == "MissingColumn"

    def test_duplicate_header_name_is_an_input_error(self, tmp_path):
        head, *rows = WELL_FORMED.splitlines()
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["y,t,x1,y"] + [r.rsplit(",", 1)[0] + ",0.0" for r in rows]))
        result = run_cli("analyze", "--input", str(path), "--covariates", "x1")
        assert result.returncode == 2
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "InputDataError"
        assert "'y' appears more than once" in error["message"]

    def test_token_numpy_rejects_is_an_input_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(WELL_FORMED.replace("0.5,0,0.2,0.3", "0.5,0,1_000,0.3"))
        result = run_cli("analyze", "--input", str(path), "--covariates", "x1,x2")
        assert result.returncode == 2
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "NonFiniteValue"
        assert "'x1' on row 4" in error["message"]

    def test_validation_error_exit_code(self, tmp_path):
        # A covariate identical to the outcome makes the residual variance zero.
        rows = ["y,t,x1"]
        rng = np.random.default_rng(5)
        for i in range(40):
            y = float(rng.standard_normal())
            rows.append(f"{y!r},{i % 2},{y!r}")
        path = tmp_path / "degenerate.csv"
        path.write_text("\n".join(rows) + "\n")
        result = run_cli("analyze", "--input", str(path), "--covariates", "x1")
        assert result.returncode == 3
        error = json.loads(result.stderr.decode())
        assert error["error"] == "DegenerateResidualVariance"

    def test_oracle_subcommand(self):
        result = run_cli("oracle", "--rho", "0.5", "--threshold", "1.96")
        assert result.returncode == 0
        payload = json.loads(result.stdout.decode())
        assert payload["cond_var_zs"] == pytest.approx(0.9398, abs=2e-4)

    @pytest.mark.parametrize("threshold", ["1e-300", "1e-17", "5e-324"])
    def test_oracle_tiny_threshold(self, threshold, capsys):
        # 2 Phi(t) - 1 is 0.0 at these t; Var(Z_g | |Z_g| <= t) = t^2/3 is below 1e-33.
        assert main(["oracle", "--rho", "0.5", "--threshold", threshold]) == 0
        assert json.loads(capsys.readouterr().out)["cond_var_zs"] == 0.75

    def test_oracle_domain_error(self):
        result = run_cli("oracle", "--rho", "1.5", "--threshold", "1.96")
        assert result.returncode == 2
        assert json.loads(result.stderr.decode())["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "rho, threshold, name",
        [
            ("0.5", "-1", "threshold"),
            ("0.5", "0", "threshold"),
            ("0.5", "inf", "threshold"),
            ("0.5", "nan", "threshold"),
            ("1", "1.96", "rho"),
            ("-1", "1.96", "rho"),
            ("nan", "1.96", "rho"),
        ],
        ids=["threshold-neg", "threshold-0", "threshold-inf", "threshold-nan",
             "rho-1", "rho-minus-1", "rho-nan"],
    )
    def test_oracle_config_errors_are_json(self, rho, threshold, name, capsys):
        # The same mistakes exit 2 from simulate; truncated_oracle itself
        # keeps DomainError for library callers.
        assert main(["oracle", "--rho", rho, "--threshold", threshold]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError" and name in error["message"]

    def test_simulate_selection_reruns_identically(self, tmp_path):
        args = (
            "simulate", "--lab", "selection", "--rho", "0.5",
            "--rule", "two_sided_t", "--threshold", "1.96",
            "--n", "200", "--reps", "1000", "--seed", "7",
        )
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        payload = json.loads(a.stdout.decode())
        assert payload["config"]["seed"] == 7
        assert payload["oracle"]["cond_var_zs"] == pytest.approx(0.9398, abs=2e-4)

    def test_simulate_output_file_matches_stdout(self, tmp_path):
        args = (
            "simulate", "--lab", "selection", "--rho", "0.5", "--rule", "wald",
            "--threshold", "3.841", "--n", "200", "--reps", "1000", "--seed", "7",
        )
        out = tmp_path / "simulate.json"
        to_file = run_cli(*args, "--output", str(out))
        to_stdout = run_cli(*args)
        assert to_file.returncode == 0, to_file.stderr
        assert to_file.stdout == b""
        assert out.read_bytes() == to_stdout.stdout

    def test_simulate_rct_selection_same_at_any_thread_count(self, workers, tmp_path):
        # 1,003 replications in 50 batches of 20 or 21, each drawn from per-arm
        # sufficient statistics; criterion 9 covers the Gaussian labs only.
        out = tmp_path / "simulate.json"
        args = [
            "simulate", "--lab", "selection", "--dgp", "rct",
            "--beta", "1.0,-0.5", "--interaction", "0.5,0.0", "--pi", "0.3",
            "--rule", "wald", "--threshold", "5.99",
            "--n", "200", "--reps", "1003", "--seed", "11", "--output", str(out),
        ]
        workers(1)
        assert main(args) == 0
        one = out.read_bytes()
        workers(4)
        assert main(args) == 0
        assert one == out.read_bytes()
        assert json.loads(one.decode())["results"]["n_reps"] == 1003

    def test_the_worker_variable_is_ignored(self, monkeypatch, tmp_path):
        # No environment variable sets the labs' workers: RESID_THREADS changes no byte.
        out = tmp_path / "simulate.json"
        args = ["simulate", "--lab", "misspec", "--rho", "0.5", "--n", "400", "--reps", "1000",
                "--seed", "3", "--output", str(out)]
        monkeypatch.delenv("RESID_THREADS", raising=False)
        assert main(args) == 0
        unset = out.read_bytes()
        for value in ("x", "1"):
            monkeypatch.setenv("RESID_THREADS", value)
            assert main(args) == 0, value
            assert out.read_bytes() == unset, value

    def test_simulate_rct_selection_at_ten_checks_keeps_its_bytes(self):
        # k = 11 per arm, so each scatter entry sums a row of 11 products:
        # the pairwise branch of numpy's sum order, which no p <= 5 pin reaches.
        result = run_cli(
            "simulate", "--lab", "selection", "--dgp", "rct",
            "--beta", "0.5,-0.25,0.1,0.3,-0.2,0.15,0.05,-0.1,0.25,-0.05",
            "--interaction", "0.4,0,-0.2,0.1,0,0.3,-0.1,0,0.2,0", "--pi", "0.4",
            "--rule", "wald", "--threshold", "18.307",
            "--n", "2000", "--reps", "3000", "--seed", "7",
        )
        assert result.returncode == 0, result.stderr
        assert hashlib.md5(result.stdout).hexdigest() == "decd1ee10a7a71e5fb98c4b488028eb3"

    def test_simulate_misspec_zero_mu(self):
        result = run_cli(
            "simulate", "--lab", "misspec", "--rho", "0.5", "--mu", "0",
            "--lambda", "optimal", "--n", "400", "--reps", "1000", "--seed", "3",
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout.decode())
        bias = payload["results"]["sqrt_n_bias"]
        assert abs(bias) <= 3 * payload["results"]["mc_se"]
        assert payload["results"]["predicted"] == 0.0

    def test_simulate_unknown_lab(self):
        result = run_cli(
            "simulate", "--lab", "nope", "--n", "200", "--reps", "1000", "--seed", "1"
        )
        assert result.returncode == 2
        assert json.loads(result.stderr.decode())["error"] == "UnknownLab"

    def test_simulate_degenerate_rule_exit_code(self):
        result = run_cli(
            "simulate", "--lab", "selection", "--rho", "0.5",
            "--rule", "two_sided_t", "--threshold", "20",
            "--n", "200", "--reps", "1000", "--seed", "7",
        )
        assert result.returncode == 3
        assert result.stdout == b""
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DegenerateRule"

    def test_simulate_config_floor_enforced(self):
        result = run_cli(
            "simulate", "--lab", "selection", "--n", "200", "--reps", "10", "--seed", "1"
        )
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("--lab", "misspec", "--dgp", "rct", *SIZES),
            ("--lab", "misspec", "--lambda", "abc", *SIZES),
            ("--lab", "selection", "--coord", "3", *SIZES),
            ("--lab", "misspec", "--oversample", "0", *SIZES),
            ("--lab", "selection", "--threshold", "-1", *SIZES),
            ("--lab", "selection", "--n", "abc", "--reps", "1000", "--seed", "1"),
            # numpy's samplers take n as a C long.
            ("--lab", "selection", "--dgp", "rct", "--n", str(2**63), "--reps", "1000",
             "--seed", "1"),
            ("--lab", "selection", "--n", str(2**64), "--reps", "1000", "--seed", "1"),
            ("--lab", "selection", "--n", "100", "--reps", "1000"),
            ("--lab", "selection", "--n", "100", "--reps", "1000", "--seed", "-1"),
            ("--lab", "misspec", "--mu", "nan", *SIZES),
            ("--lab", "misspec", "--mu", "inf", *SIZES),
            ("--lab", "misspec", "--mu", "-1", *SIZES),
            ("--lab", "misspec", "--lambda", "inf", *SIZES),
            ("--lab", "selection", "--dgp", "rct", "--beta", "", "--interaction", "",
             "--rule", "wald", "--threshold", "3", *SIZES),
            ("--lab", "selection", "--dgp", "rct", "--beta", "", "--interaction", "",
             "--rule", "max_abs", "--threshold", "3", *SIZES),
        ],
        ids=[
            "misspec-rct",
            "lambda-abc",
            "coord-out-of-range",
            "oversample-0",
            "threshold-neg",
            "n-abc",
            "n-2-63-rct",
            "n-2-64-gaussian",
            "missing-seed",
            "seed-neg",
            "mu-nan",
            "mu-inf",
            "mu-neg",
            "lambda-inf",
            "rct-no-checks-wald",
            "rct-no-checks-max-abs",
        ],
    )
    def test_simulate_config_errors_are_json(self, args):
        result = run_cli("simulate", *args)
        assert result.returncode == 2, result.stderr
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    @pytest.mark.parametrize("flag, beta, interaction", [
        ("--beta", "1,,2", "0,0"), ("--beta", "1,", "0"), ("--interaction", "1,2", "0,,0"),
    ])
    def test_simulate_rct_empty_entry_is_refused(self, capsys, flag, beta, interaction):
        # Every comma-separated entry is a number: an empty one is not dropped.
        code = main(["simulate", "--lab", "selection", "--dgp", "rct", "--beta", beta,
                     "--interaction", interaction, *SIZES])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ConfigError" and flag in error["message"]

    def test_simulate_rct_empty_beta_names_itself(self, capsys):
        # With the default --interaction 0 the lengths differ too; the empty beta is named.
        code = main(["simulate", "--lab", "selection", "--dgp", "rct", "--beta", "", *SIZES])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error == {
            "error": "ConfigError",
            "message": "beta needs at least one entry: each covariate is a check",
        }

    @pytest.mark.parametrize("flag", ["--mu", "--lambda"])
    def test_simulate_misspec_overflow_is_one_json_line(self, flag):
        result = run_cli("simulate", "--lab", "misspec", flag, "1e308", *SIZES)
        assert result.returncode == 3, result.stderr
        assert result.stdout == b""
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"]

    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--tau", "nan"), "tau"),
            (("--beta", "nan,0,0", "--interaction", "0,0,0"), "beta"),
            (("--noise-sd", "-1"), "noise_sd"),
            (("--noise-sd", "inf"), "noise_sd"),
        ],
        ids=["tau-nan", "beta-nan", "noise-sd-neg", "noise-sd-inf"],
    )
    def test_simulate_rct_parameters_are_config_errors(self, flags, name):
        result = run_cli("simulate", "--lab", "selection", "--dgp", "rct", *flags, *SIZES)
        assert result.returncode == 2, result.stderr
        assert result.stdout == b""
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError" and name in error["message"]

    @pytest.mark.parametrize(
        "flags",
        [("--noise-sd", "1e200"), ("--beta", "1e200"), ("--tau", "1e308"), ("--beta", "1e154")],
        ids=["noise-sd", "beta", "tau", "beta-sums-overflow"],
    )
    def test_simulate_rct_overflow_is_one_json_line_without_warning(self, flags, capsys):
        # The first three overflow the outcome's population second moment; at
        # beta = 1e154 only the lab's sums over n rows overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--lab", "selection", "--dgp", "rct", *flags, *SIZES])
        out, err = capsys.readouterr()
        assert code in (2, 3)
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, lines
        assert set(json.loads(lines[0])) == {"error", "message"}

    @pytest.mark.parametrize(
        "flags",
        [("--rho", "0.5"), ("--dgp", "rct", "--beta", "1,0,0", "--interaction", "0,0,0")],
        ids=["gaussian", "rct"],
    )
    def test_simulate_huge_reps_refused_before_any_draw(self, flags, capsys, monkeypatch):
        drawn = []
        for dgp in (GaussianPairDGP, RctLinearDGP):
            monkeypatch.setattr(dgp, "draw_replications", lambda *args: drawn.append(args))
        code = main(["simulate", "--lab", "selection", *flags,
                     "--n", "200", "--reps", "100000000000", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError" and "budget" in error["message"]
        assert drawn == []

    def test_help_exits_zero(self):
        result = run_cli("simulate", "--help")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith(b"usage: residcheck simulate")

    def test_import_leaves_scipy_unloaded(self):
        # Nor the thread-pool, queue and logging modules, which the labs' draws do not need.
        code = (
            "import sys, residcheck.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m in ('concurrent.futures', 'queue', 'logging')))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_simulate_csv_format(self):
        result = run_cli(
            "simulate", "--lab", "selection", "--rho", "0.0",
            "--n", "100", "--reps", "1000", "--seed", "5", "--format", "csv",
        )
        assert result.returncode == 0
        assert result.stdout.startswith(b"key,value")

    def test_decompose_subcommand(self, tmp_path):
        result = run_cli("decompose", "--input", str(GOLDEN_JSON))
        assert result.returncode == 0
        lines = result.stdout.decode().strip().splitlines()
        assert lines[0] == "covariate,lambda_k,gamma_k,contribution"
        assert lines[-1].startswith("total")
        text = run_cli("decompose", "--input", str(GOLDEN_JSON), "--format", "text")
        assert b"total" in text.stdout

    def test_csv_keeps_covariate_names_whole(self, tmp_path):
        """A name holding a comma, a quote or a line break reads back through csv.reader."""
        names = ["age, years", 'say "hi"', "two\nlines"]
        report = json.loads(GOLDEN_JSON.read_text())
        for row, name in zip(report["decomposition"], names):
            row["covariate"] = name
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        result = run_cli("decompose", "--input", str(path))
        assert result.returncode == 0, result.stderr
        for text in (result.stdout.decode(), analyze_report_csv(report)):
            rows = list(csv.reader(io.StringIO(text)))
            table = rows[[row[0] for row in rows].index("covariate"):]
            assert [row[0] for row in table[1:-1]] == names
            assert all(len(row) == 4 for row in table)

    def test_decompose_missing_file(self, tmp_path):
        result = run_cli("decompose", "--input", str(tmp_path / "nope.json"))
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "report",
        [
            {"decomposition": 5},
            {"decomposition": "decomposition"},
            {"decomposition": [5]},
            {"decomposition": [{"covariate": "x1", "lambda_k": 1.0, "gamma_k": 0.5}]},
            {"decomposition": [{"covariate": "x1", "lambda_k": "a", "gamma_k": 0.5,
                                "contribution": 0.5}]},
            {"decomposition": []},
            {"decomposition": [], "diagnostics": {"correction": "0"}},
            [1],
        ],
        ids=["number", "string", "row-number", "row-missing-key", "row-string-value",
             "no-diagnostics", "correction-string", "top-level-list"],
    )
    def test_decompose_malformed_report(self, tmp_path, report):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        result = run_cli("decompose", "--input", str(path), "--format", "text")
        assert result.returncode == 2, result.stderr
        assert result.stdout == b""
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputDataError"


def _output_in_missing_directory(tmp_path):
    return ("analyze", "--input", str(FIXTURE_CSV), "--covariates", "x1,x2,x3",
            "--output", str(tmp_path / "missing" / "report.json"))


def _input_is_a_directory(tmp_path):
    return ("analyze", "--input", str(tmp_path), "--covariates", "x1")


def _input_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(WELL_FORMED.replace("2.0,0,0.3", "2.0,0,0.3\xe9").encode("latin-1"))
    return ("analyze", "--input", str(path), "--covariates", "x1,x2")


def _input_missing(tmp_path):
    return ("analyze", "--input", str(tmp_path / "nope.csv"), "--covariates", "x1")


@pytest.mark.parametrize(
    "make_args",
    [_output_in_missing_directory, _input_is_a_directory, _input_not_utf8, _input_missing],
    ids=["output-missing-dir", "input-directory", "input-not-utf8", "input-missing"],
)
def test_named_file_failures_are_one_json_line(tmp_path, make_args):
    result = run_cli(*make_args(tmp_path))
    assert result.returncode == 2, result.stderr
    assert result.stdout == b""
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "InputDataError" and str(tmp_path) in error["message"]


def fixture_with_unused_column(path, cell, fields=None):
    """The fixture CSV with a column after t that no role names, each cell ``cell``.

    Row ``fields[0]`` (numbered from 1), if given, keeps only ``fields[1]`` fields.
    """
    with open(FIXTURE_CSV, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    rows = [row[:2] + [cell] + row[2:] for row in rows]
    if fields is not None:
        row, width = fields
        rows[row - 1] = (rows[row - 1] + ["0"])[:width]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header[:2] + ["note"] + header[2:])
        writer.writerows(rows)


@pytest.mark.parametrize("cell", ["two\nlines", "ünïcødé €"], ids=["line-break", "non-ascii"])
def test_analyze_reads_past_an_unused_column(tmp_path, cell):
    wide = tmp_path / "wide.csv"
    fixture_with_unused_column(wide, cell)
    reports = []
    for i, source in enumerate((wide, FIXTURE_CSV)):
        out = tmp_path / f"report{i}.json"
        assert main(["analyze", "--input", str(source), "--covariates", "x1,x2,x3",
                     "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# Rows of the file with the unused column hold 6 fields.
@pytest.mark.parametrize("width", [5, 7], ids=["one-field-short", "one-field-long"])
def test_unused_column_still_counts_for_the_field_count(tmp_path, capsys, width):
    path = tmp_path / "wide.csv"
    fixture_with_unused_column(path, "note", fields=(3, width))
    assert main(["analyze", "--input", str(path), "--covariates", "x1,x2,x3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "WrongFieldCount" and "row 3" in error["message"]


@pytest.mark.parametrize("column", ["y", "x2"])
def test_analyze_overflow_is_one_json_line(tmp_path, column):
    with open(FIXTURE_CSV, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    k = header.index(column)
    path = tmp_path / "scaled.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(row[:k] + [repr(float(row[k]) * 1e160)] + row[k + 1:] for row in rows)
    result = run_cli("analyze", "--input", str(path), "--covariates", "x1,x2,x3")
    assert result.returncode == 3, result.stderr
    assert result.stdout == b""
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "InvalidCovariance"


# Property test over the command-line grammar (in-process, small sizes only:
# --n and --reps stay at most 200 and 1,100, and at most 2 forced workers).
_FIXTURE_BYTES = FIXTURE_CSV.read_bytes()


@st.composite
def _mutated_fixture(draw):
    """The fixture CSV with a few bytes replaced, deleted or inserted, or cut short."""
    data = bytearray(_FIXTURE_BYTES)
    position = st.one_of(st.integers(0, 120), st.integers(0, len(data) - 1))
    edit = st.tuples(
        st.sampled_from(("replace", "delete", "insert")), position, st.binary(min_size=1, max_size=3)
    )
    for kind, at, chunk in draw(st.lists(edit, max_size=draw(st.sampled_from((0, 0, 1, 3))))):
        if kind == "replace":
            data[at:at + len(chunk)] = chunk
        elif kind == "delete":
            del data[at:at + len(chunk)]
        else:
            data[at:at] = chunk
    if draw(st.sampled_from((False, False, False, True))):
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data)


def _grammar(csv_path, missing_path):
    """Per subcommand: (flag, valid values, invalid values, required)."""
    numbers = ("0", "-1", "1e308", "inf", "nan", "abc")
    return {
        "analyze": [
            ("--input", (csv_path,), (missing_path,), True),
            ("--covariates", ("x1,x2,x3", "x1"), ("x1,x1", "y", "zz", ","), True),
            ("--outcome", ("y",), ("t", "x1", "nope"), False),
            ("--treatment", ("t",), ("y", "x2"), False),
            ("--cluster-col", ("x1", "x2"), ("t", "nope"), False),
            ("--strata-col", ("x3",), ("t", "nope"), False),
            ("--covariance", ("iid", "cluster"), ("hc",), False),
            ("--format", ("json", "csv", "text"), ("xml",), False),
        ],
        "simulate": [
            ("--lab", ("selection", "misspec"), ("other",), True),
            ("--dgp", ("gaussian", "rct"), ("other",), False),
            ("--rho", ("0.5", "-0.9"), ("1", "nan", "x"), False),
            ("--mu", ("0", "0.5", "2"), ("-1", "1e308", "inf", "nan"), False),
            ("--lambda", ("optimal", "zero", "0.3"), ("1e308", "inf", "abc"), False),
            ("--rule", ("two_sided_t", "wald", "max_abs"), ("other",), False),
            ("--threshold", ("1.96", "3.841"), ("20", "0", "-1", "inf", "nan"), False),
            ("--coord", ("0",), ("1", "-1", "x"), False),
            ("--tau", ("1",), ("nan", "inf", "1e200", "1e308"), False),
            ("--beta", ("1", "0.5,-0.25"), ("nan", "", "a", "1e200", "1e308", "1,,2", "1,"),
             False),
            ("--interaction", ("0", "0.4,0"), ("inf", "", "1e200", "1e308", "1,,2", "1,"), False),
            ("--pi", ("0.5", "0.3"), ("0", "1", "nan"), False),
            ("--noise-sd", ("1", "0"), ("-1", "inf", "1e200", "1e308"), False),
            ("--n", ("50", "100", "200"),
             ("10", "0", "-5", "abc", "9223372036854775808", "100000000000000000000"), True),
            ("--reps", ("1000", "1100"), ("10", "-1", "x"), True),
            ("--seed", ("1", "7"), ("-1", "x"), True),
            ("--format", ("json", "csv"), ("text",), False),
        ],
        "oracle": [
            ("--rho", ("0.5", "-0.3"), numbers, True),
            ("--threshold", ("1.96", "0.5", "1e-300", "1e-17", "5e-324"), numbers, True),
        ],
        "decompose": [
            ("--input", (str(GOLDEN_JSON),), (csv_path, missing_path), True),
            ("--format", ("csv", "text"), ("json",), False),
        ],
    }


@st.composite
def _argv(draw, csv_path, missing_path):
    """A command line of the grammar: valid options, then at most one fault."""
    command, options = draw(st.sampled_from(sorted(_grammar(csv_path, missing_path).items())))
    chosen = {
        flag: draw(st.sampled_from(valid))
        for flag, valid, _, required in options
        if required or draw(st.booleans())
    }
    fault = draw(st.sampled_from(("none", "none", "value", "omit", "extra")))
    if fault == "value":
        flag, _, invalid, _ = draw(st.sampled_from(options))
        chosen[flag] = draw(st.sampled_from(invalid))
    elif fault == "omit":
        del chosen[draw(st.sampled_from(sorted(chosen)))]
    items = draw(st.permutations(sorted(chosen.items())))
    extra = [draw(st.sampled_from(("--bogus", "stray")))] if fault == "extra" else []
    return [command, *(token for item in items for token in item), *extra]


def _assert_exit_code_and_at_most_one_json_line(argv):
    """Run main(argv) in-process; return its exit code."""
    out, err = io.BytesIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.TextIOWrapper(out, encoding="utf-8")), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert [str(w.message) for w in caught] == [], argv
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1, (argv, lines)
        assert set(json.loads(lines[0])) == {"error", "message"}, argv
    return code


# Each example forces its own worker count, so the fixture is safe to share.
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_command_line_ends_in_an_exit_code_and_at_most_one_json_line(
    tmp_path_factory, workers, data
):
    directory = tmp_path_factory.getbasetemp() / "cli_property"
    directory.mkdir(exist_ok=True)
    csv_path = directory / "data.csv"
    csv_path.write_bytes(data.draw(_mutated_fixture()))
    argv = data.draw(_argv(str(csv_path), str(directory / "missing.csv")))
    workers(data.draw(st.sampled_from((None, 1, 2))))
    _assert_exit_code_and_at_most_one_json_line(argv)


# Flags whose invalid values are refused before any data is read or drawn.
_REFUSED_UP_FRONT = ("--n", "--reps", "--seed", "--lab")


def test_every_invalid_value_on_a_minimal_command_line(tmp_path):
    """Each invalid value of the grammar, once, on its subcommand's minimal valid command line.

    The minimal line gives each required flag its first valid value; the
    property test above reaches a given invalid value only by chance.
    """
    for command, options in _grammar(str(FIXTURE_CSV), str(tmp_path / "missing.csv")).items():
        minimal = {flag: valid[0] for flag, valid, _, required in options if required}
        for flag, _, invalid, _ in options:
            for token in invalid:
                chosen = {**minimal, flag: token}
                argv = [command, *(t for item in chosen.items() for t in item)]
                code = _assert_exit_code_and_at_most_one_json_line(argv)
                if command == "simulate" and flag in _REFUSED_UP_FRONT:
                    assert code == 2, argv
