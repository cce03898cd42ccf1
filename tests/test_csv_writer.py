"""The columnar report writer against the ``csv.writer`` row writer and the
whole-document ``json.dumps`` it replaced."""

import csv
import errno
import io
import json
import os
import tracemalloc
from argparse import Namespace

import numpy as np
import pytest

from epicost import _forkwrite, cli
from epicost.config import parse_config
from epicost.fixtures import fixture_path

CONFIG = {"regions": [{"id": "a,b", "weight": 0.1 + 0.2}], "note": 'say "hi"'}
COMMENTS = ["# summary: first", "# second"]
SPECIAL_FLOATS = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e21, 0.1 + 0.2, 0.0,
                  1.0, 123456789012.5, 1e-7, 2.0**60]
STRINGS = ["plain", "with,comma", 'with "quotes"', "two\nlines", "", " lead",
           "trail ", "é ü", "'single'", "%d %s %%"]


def reference_write_csv(path, header, rows, config_raw, comments=()):
    """One ``csv.writer`` row per table row, every value through ``_cell``."""
    with open(path, "w", newline="") as fh:
        fh.write("# config: "
                 + json.dumps(cli._jsonable(config_raw), sort_keys=True,
                              separators=(",", ":")) + "\n")
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._cell(v) for v in row])
    return path


def reference_write_json(path, header, rows, config_raw):
    """One ``json.dumps`` of a document holding the table as one dict a row."""
    doc = {"config": config_raw, "rows": [dict(zip(header, row)) for row in rows]}
    path.write_text(json.dumps(cli._jsonable(doc), indent=2, sort_keys=True) + "\n")
    return path


def write_csv(path, header, columns, config_raw, comments=()):
    """The CLI's report writer on one CSV table."""
    return cli._write_report(path, "csv", cli._Table(header, columns, comments), config_raw)


def table(n_rows):
    """Columns of every kind the writer handles, ``n_rows`` long."""
    rng = np.random.default_rng(11)
    floats = np.resize(np.array(SPECIAL_FLOATS), n_rows)
    scaled = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    mixed = [STRINGS[i % len(STRINGS)] if i % 3 == 0 else
             float(floats[i]) if i % 3 == 1 else bool(i % 2) for i in range(n_rows)]
    return {
        "index": np.arange(n_rows),
        "float,special": floats,
        "float_random": scaled,
        "int_signed": rng.integers(-2**62, 2**62, n_rows),
        "uint": rng.integers(0, 2**63, n_rows, dtype=np.uint64),
        "flag": rng.random(n_rows) < 0.5,
        "label": np.resize(np.array(STRINGS, dtype=object), n_rows),
        "text": [STRINGS[(3 * i) % len(STRINGS)] for i in range(n_rows)],
        'mixed "cell"': mixed,
    }


@pytest.mark.parametrize("n_rows", [0, 1, cli._CHUNK_ROWS,
                                    2 * cli._CHUNK_ROWS + 123])
def test_same_bytes_as_row_writer(n_rows, tmp_path):
    cols = table(n_rows)
    header = tuple(cols)
    columns = list(cols.values())
    rows = [[col[i] for col in columns] for i in range(n_rows)]
    got = write_csv(tmp_path / "columns.csv", header, columns, CONFIG, COMMENTS)
    want = reference_write_csv(tmp_path / "rows.csv", header, rows, CONFIG, COMMENTS)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, cli._CHUNK_ROWS,
                                    2 * cli._CHUNK_ROWS + 123])
@pytest.mark.parametrize("code_dtype", [np.uint8, np.int64])
def test_coded_columns_write_their_values(n_rows, code_dtype, tmp_path):
    # a coded column, first or not, writes the bytes of values[codes]
    rng = np.random.default_rng(12)
    floats = np.array(SPECIAL_FLOATS)
    ints = np.array([-2**62, -1, 0, 7, 2**62])
    float_codes = rng.integers(0, floats.shape[0], n_rows).astype(code_dtype)
    int_codes = rng.integers(0, ints.shape[0], n_rows).astype(code_dtype)
    flags = rng.random(n_rows) < 0.5
    header = ("floats", "index", "ints", "flag")
    coded = [cli._Coded(floats, float_codes), np.arange(n_rows),
             cli._Coded(ints, int_codes), flags]
    plain = [floats[float_codes], np.arange(n_rows), ints[int_codes], flags]
    rows = [[col[i] for col in plain] for i in range(n_rows)]
    got = write_csv(tmp_path / "coded.csv", header, coded, CONFIG, COMMENTS)
    want = reference_write_csv(tmp_path / "rows.csv", header, rows, CONFIG, COMMENTS)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, 2 * cli._CHUNK_ROWS + 123])
def test_coded_text_and_range_columns(n_rows, tmp_path):
    # coded text is quoted as a plain text column is; a range writes as ints
    rng = np.random.default_rng(13)
    labels = np.array(STRINGS, dtype=object)
    codes = rng.integers(0, labels.shape[0], n_rows).astype(np.int32)
    header = ("index", "label")
    got = write_csv(tmp_path / "coded.csv", header,
                         [range(n_rows), cli._Coded(labels, codes)], CONFIG)
    rows = [[i, labels[c]] for i, c in enumerate(codes.tolist())]
    want = reference_write_csv(tmp_path / "rows.csv", header, rows, CONFIG)
    assert got.read_bytes() == want.read_bytes()


# the import-dist table of the scenario below holds 16.2 bytes a row: the
# pmf and the tail sums of each link; each chunk computes its nu column
# and its link codes. A whole table of columns held 28 bytes a row (three
# numeric columns and an int32 link code), and a str per row for origin
# and destination 144
IMPORT_TABLE_BYTES_PER_ROW = 17


def test_import_dist_table_holds_no_string_per_row():
    cfg = json.loads(fixture_path("import_dist_small").read_text())
    for region in cfg["regions"]:
        region.update(population=10**6, prevalence=0.1)
    cfg["links"] = [{"origin": "src", "destination": "dst", "travelers": 20_000},
                    {"origin": "dst", "destination": "src", "travelers": 20_000}]
    scenario = parse_config(cfg)
    tracemalloc.start()
    try:
        table, _ = cli.cmd_import_dist(scenario, "csv", Namespace(mc_trials=0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = table.columns
    assert isinstance(rows, cli._Rows) and rows.n == 40_002
    # a chunk across the boundary: the last 3 rows of the first link, the
    # first 4 of the second
    origin, destination, nus, probs, tails = rows.chunk(19_998, 20_005)
    assert origin.values.tolist() == ["src", "dst"]
    assert destination.values.tolist() == ["dst", "src"]
    assert origin.codes is destination.codes
    assert origin.codes.tolist() == [0] * 3 + [1] * 4
    assert nus.tolist() == [19_998, 19_999, 20_000, 0, 1, 2, 3]
    assert probs.shape == tails.shape == (7,)
    assert held / rows.n < IMPORT_TABLE_BYTES_PER_ROW, f"{held / rows.n:.1f} B a row"


def import_dist_peak(scenario, trials, path):
    """tracemalloc peak of the import-dist handler and writer over one run."""
    tracemalloc.start()
    try:
        report, _ = cli.cmd_import_dist(scenario, "csv", Namespace(mc_trials=trials))
        cli._write_report(path, "csv", report, scenario.raw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_import_dist_memory_does_not_grow_with_trials(tmp_path):
    # one link of 3,001 support values: about 0.42 MB at 1e4 trials and at
    # 1e6 alike; an array of the draws held 8 bytes a trial, 8 MB at 1e6
    cfg = json.loads(fixture_path("import_dist_small").read_text())
    for region in cfg["regions"]:
        region.update(population=10**6, prevalence=0.1)
    cfg["links"] = [{"origin": "src", "destination": "dst", "travelers": 3_000}]
    scenario = parse_config(cfg)
    path = tmp_path / "import_dist.csv"
    import_dist_peak(scenario, 10**4, path)   # the first run imports the sampler
    small = import_dist_peak(scenario, 10**4, path)
    large = import_dist_peak(scenario, 10**6, path)
    assert large < 1.1 * small, f"{small / 1e6:.2f} MB, then {large / 1e6:.2f} MB"


# tracemalloc peak inside _write_report for the table below was 2.0 MB before the
# R columns were coded; one whole column of int64 codes or of object
# pointers is another 0.77 MB
WRITER_PEAK_BOUND = 2.4e6


def test_compare_schedules_writer_memory_is_chunk_sized(tmp_path, monkeypatch):
    cfg = json.loads(fixture_path("one_region_quadratic").read_text())
    cfg["dynamics"].update(horizon=60, r_grid_step=0.05)
    path = tmp_path / "schedules.json"
    path.write_text(json.dumps(cfg))
    write, peaks = cli._write_report, []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return write(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_report", traced)
    assert cli.main(["compare-schedules", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "compare_schedules.csv") as fh:
        assert sum(not line.startswith("#") for line in fh) == 96_801 + 1
    assert peaks[0] < WRITER_PEAK_BOUND, f"peak {peaks[0] / 1e6:.2f} MB"



# rows a chunk holds in the forked-writer tests, so that few rows span many chunks
SMALL_CHUNK = 5


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_one_per_cpu_and_two_chunks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [cli._workers(n) for n in (0, 1, 3, 4, 5, 6, 100)] == [1, 1, 1, 2, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._workers(100) == 1


@pytest.mark.parametrize("n_rows, workers, fmt", [
    pytest.param(n_rows, workers, fmt,
                 id=f"{n_rows}-{workers}" + ("-json" if fmt == "json" else ""))
    for fmt in ("csv", "json") for n_rows in (0, SMALL_CHUNK, 2 * SMALL_CHUNK,
                                              3 * SMALL_CHUNK, 7 * SMALL_CHUNK,
                                              7 * SMALL_CHUNK + 2)
    for workers in (1, 2, 3)])
def test_forked_writer_same_bytes(workers, n_rows, fmt, tmp_path, monkeypatch):
    # text, coded, bool and float columns over 0-7 whole chunks and a partial one
    monkeypatch.setattr(cli, "_CHUNK_ROWS", SMALL_CHUNK)
    monkeypatch.setattr(cli, "_workers", lambda n_chunks: workers)
    cols = table(n_rows)
    labels = np.array(STRINGS, dtype=object)
    codes = np.arange(n_rows, dtype=np.int16) % len(STRINGS)
    header = (*cols, "coded")
    columns = [*cols.values(), cli._Coded(labels, codes)]
    rows = [[col[i] for col in cols.values()] + [labels[codes[i]]] for i in range(n_rows)]
    if fmt == "csv":
        got = write_csv(tmp_path / "forked.csv", header, columns, CONFIG, COMMENTS)
        want = reference_write_csv(tmp_path / "rows.csv", header, rows, CONFIG, COMMENTS)
    else:
        got = cli._write_report(tmp_path / "forked.json", "json",
                                {"rows": cli._Table(header, columns)}, CONFIG)
        want = reference_write_json(tmp_path / "rows.json", header, rows, CONFIG)
    assert got.read_bytes() == want.read_bytes()
    assert_no_child_left()


def schedules_args(tmp_path):
    # one_region_quadratic's 12,201 schedules: 2,441 chunks of SMALL_CHUNK rows
    return ["compare-schedules", "--config", str(fixture_path("one_region_quadratic")),
            "--out", str(tmp_path)]


def test_failing_formatter_child_is_invariant_violation(tmp_path, monkeypatch, capfd):
    parent = os.getpid()
    column_format = cli._column_format

    def failing_in_children(column):
        fmt, take = column_format(column)

        def checked(rows):
            if os.getpid() != parent:
                raise ValueError("formatter failed")
            return take(rows)
        return fmt, checked

    monkeypatch.setattr(cli, "_column_format", failing_in_children)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", SMALL_CHUNK)
    monkeypatch.setattr(cli, "_workers", lambda n_chunks: 3)
    assert cli.main(schedules_args(tmp_path)) == 3
    err = capfd.readouterr().err
    assert err.startswith("invariant violation: CSV formatter process ")
    assert err.endswith(" ended before sending chunk 1\n") and err.count("\n") == 1
    assert_no_child_left()


def test_child_exit_status_is_checked(tmp_path, monkeypatch, capfd):
    # a child that sends every chunk and then exits 1
    format_chunks, exit_ = _forkwrite._format_chunks, os._exit

    def sends_then_fails(*args):
        os._exit = lambda code: exit_(1)
        format_chunks(*args)

    monkeypatch.setattr(_forkwrite, "_format_chunks", sends_then_fails)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 1000)
    monkeypatch.setattr(cli, "_workers", lambda n_chunks: 2)
    assert cli.main(schedules_args(tmp_path)) == 3
    err = capfd.readouterr().err
    assert err.startswith("invariant violation: CSV formatter process ")
    assert err.endswith(" exited with 1\n") and err.count("\n") == 1
    assert_no_child_left()


class FillingFile(io.BufferedWriter):
    """A file whose device fills up after ``room`` bytes."""

    def __init__(self, path, room):
        super().__init__(io.FileIO(path, "w"))
        self.path, self.room = str(path), room

    def write(self, data):
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.path)
        self.room -= len(data)
        return super().write(data)


def test_parent_write_error_mid_table_is_config_error(tmp_path, monkeypatch, capfd):
    # the device fills after the header and some chunks, while the children
    # still hold chunks to send
    writes = []

    def open_filling(file, mode, newline):
        writes.append(FillingFile(file, room=50_000))
        return io.TextIOWrapper(writes[-1], newline=newline)

    monkeypatch.setattr(cli, "open", open_filling, raising=False)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 100)
    monkeypatch.setattr(cli, "_workers", lambda n_chunks: 2)
    assert cli.main(schedules_args(tmp_path)) == 1
    err = capfd.readouterr().err
    assert err == f"config error: {tmp_path / 'compare_schedules.csv'}: No space left on device\n"
    assert 0 < writes[0].room < 50_000
    assert_no_child_left()


def test_large_table_is_formatted_in_children_and_reaps_them(tmp_path, monkeypatch):
    cfg = json.loads(fixture_path("one_region_quadratic").read_text())
    cfg["dynamics"].update(horizon=60, r_grid_step=0.05)
    path = tmp_path / "schedules.json"
    path.write_text(json.dumps(cfg))
    fork, forks = os.fork, []

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    assert cli.main(["compare-schedules", "--config", str(path), "--out", str(tmp_path)]) == 0
    # 96,801 rows are 24 chunks: one process per usable CPU, at most 12
    assert len(forks) == cli._workers(24) - 1
    with open(tmp_path / "compare_schedules.csv") as fh:
        assert sum(not line.startswith("#") for line in fh) == 96_801 + 1
    assert_no_child_left()
