import math
import tomllib
from pathlib import Path

import numpy as np
import pytest

from zenosim import __version__
from zenosim.csvout import format_cell, write_csv
from zenosim.svgplot import Series, render_svg

META = {"command": "test", "seed": 1}


def cell_by_cell(columns, rows) -> bytes:
    """The file as formatting every cell on its own gives it."""
    lines = [f"# zenosim {__version__}, command=test, seed=1", ",".join(columns)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    return ("\r\n".join(lines) + "\r\n").encode()


def written(tmp_path, columns, rows) -> bytes:
    path = tmp_path / "out.csv"
    write_csv(str(path), columns, rows, meta=META)
    return path.read_bytes()


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
               1.0, -1.0, 0.1, 1 / 3, 1e16, 123456789.0]


class TestWriteCsv:
    def test_float_and_int_columns_match_cell_by_cell(self, tmp_path):
        rng = np.random.default_rng(3)
        floats = EDGE_FLOATS + (rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
        ints = [0, -1, 7, 2**70, -(2**63)] + list(range(len(floats) - 5))
        rows = list(zip(ints, floats, reversed(floats)))
        assert written(tmp_path, ("i", "x", "y"), rows) == cell_by_cell(("i", "x", "y"), rows)

    @pytest.mark.parametrize("column", [
        ["", 3, "", 12],                       # rate.csv's count column
        [True, False, True],                   # bool is not int
        [1, True, 2],
        [1.5, 2, 3.0],
        [np.float64(0.1), np.float64(-0.0)],   # numpy scalars
        [np.int64(5), np.int64(-6)],
        ["plain", "a,b", 'say "x"', "two\nlines"],
    ])
    def test_other_columns_go_through_format_cell(self, tmp_path, column):
        rows = [(j, v) for j, v in enumerate(column)]
        assert written(tmp_path, ("j", "v"), rows) == cell_by_cell(("j", "v"), rows)

    def test_rows_may_be_an_iterator(self, tmp_path):
        xs = [0.5, -0.0, math.inf]
        expected = cell_by_cell(("i", "x"), list(zip(range(3), xs)))
        assert written(tmp_path, ("i", "x"), zip(range(3), xs)) == expected

    def test_no_rows_writes_the_header(self, tmp_path):
        assert written(tmp_path, ("a", "b"), []) == cell_by_cell(("a", "b"), [])

    @pytest.mark.parametrize("rows", [[(1, 2.0), (3,)], [(1, 2.0), (3, 4.0, 5.0)],
                                      [(1, 2.0, 3.0)]])
    def test_rows_must_match_the_columns(self, tmp_path, rows):
        with pytest.raises(ValueError):
            written(tmp_path, ("a", "b"), rows)


@pytest.mark.parametrize("x", [-3.9e-8, 0.0])
def test_svg_of_a_range_flat_to_round_off(x):
    # points one ulp apart once stepped the ticks by less than an ulp, forever
    xs, ys = [x, float(np.nextafter(x, 1.0))], [-1e-9, float(np.nextafter(-1e-9, 1.0))]
    svg = render_svg([Series("s", xs, ys, marker=True)])
    assert svg.count('font-size="11"') == 10  # both axes widened to 1: 5 ticks each


def test_version_matches_pyproject():
    # the version every CSV header carries is the one the package declares
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__
