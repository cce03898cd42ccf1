"""The columnar CSV writer against the ``csv.writer`` row writer it replaced."""

import csv
import json

import numpy as np
import pytest

from epicost import cli

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


@pytest.mark.parametrize("n_rows", [0, 1, cli._CSV_CHUNK_ROWS,
                                    2 * cli._CSV_CHUNK_ROWS + 123])
def test_same_bytes_as_row_writer(n_rows, tmp_path):
    cols = table(n_rows)
    header = tuple(cols)
    columns = list(cols.values())
    rows = [[col[i] for col in columns] for i in range(n_rows)]
    got = cli._write_csv(tmp_path / "columns.csv", header, columns, CONFIG, COMMENTS)
    want = reference_write_csv(tmp_path / "rows.csv", header, rows, CONFIG, COMMENTS)
    assert got.read_bytes() == want.read_bytes()

