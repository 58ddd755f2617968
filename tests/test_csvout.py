import math
import struct
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import __version__, csvout, run_ensemble
from zenosim.cli import main
from zenosim.csvout import format_cell, write_csv
from zenosim.expconfig import load_config
from zenosim.svgplot import Series, render_svg

META = {"command": "test", "seed": 1}


def cell_by_cell(columns, rows, tags="command=test, seed=1") -> bytes:
    """The file as formatting every cell on its own gives it."""
    lines = [f"# zenosim {__version__}, {tags}", ",".join(columns)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    return ("\r\n".join(lines) + "\r\n").encode()


def written(tmp_path, columns, rows) -> bytes:
    path = tmp_path / "out.csv"
    write_csv(str(path), columns, rows, meta=META)
    return path.read_bytes()


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: NaNs whose bits differ but whose text is the same, zeros that compare
#: equal but print apart, the infinities and the smallest subnormals
SPECIALS = [0.0, -0.0, math.nan, -math.nan, from_bits(0x7FF8_0000_0000_0001),
            from_bits(0x7FF0_0000_0000_0001), from_bits(0xFFF4_0000_0000_BEEF),
            math.inf, -math.inf, 5e-324, -5e-324]
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

    def test_repeated_specials_in_any_order(self, tmp_path):
        rng = np.random.default_rng(16)
        pool = SPECIALS + [0.1, -2.5, 1e300, 3e-9, 1 / 3]
        xs = [pool[k] for k in rng.integers(0, len(pool), 3000)]
        assert len(set(map(float.hex, xs))) < 20  # many repeats
        rows = list(zip(range(len(xs)), xs, xs[::-1], [xs[0]] * len(xs)))
        columns = ("i", "x", "y", "z")
        assert written(tmp_path, columns, rows) == cell_by_cell(columns, rows)

    def test_zeros_keep_their_sign_and_nans_their_text(self, tmp_path):
        xs = [0.0, -0.0, from_bits(0x7FF8_0000_0000_0001), math.nan, -0.0, -math.nan, 0.0]
        body = written(tmp_path, ("x",), [(x,) for x in xs]).decode().split("\r\n")[2:-1]
        zero, nzero = f"{0.0:.16e}", f"{-0.0:.16e}"
        assert body == [zero, nzero, "nan", "nan", nzero, "nan", zero]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(SPECIALS) | st.floats(),
                              st.sampled_from(SPECIALS) | st.floats(width=32)),
                    min_size=1, max_size=60))
    def test_float_columns_match_cell_by_cell(self, tmp_path_factory, rows):
        tmp_path = tmp_path_factory.mktemp("prop")
        assert written(tmp_path, ("x", "y"), rows) == cell_by_cell(("x", "y"), rows)

    def test_float_and_numpy_float_column_goes_through_format_cell(self, tmp_path,
                                                                    monkeypatch):
        column = [0.5, np.float64(0.5), -0.0, np.float64(-0.0), np.float64(math.nan)]
        seen = []

        def spy(value):
            seen.append(value)
            return format_cell(value)

        monkeypatch.setattr(csvout, "format_cell", spy)
        rows = [(j, v) for j, v in enumerate(column)]
        assert written(tmp_path, ("j", "v"), rows) == cell_by_cell(("j", "v"), rows)
        assert [type(v) for v in seen] == list(map(type, column))

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


RUN_CONFIG = """
[system]
omegas = 30 kHz, 20 kHz, 10 kHz
coupling = 100 kHz
initial_state = entangled_default

[distribution]
kind = discrete
values = 1 ns, 3 ns
probs = 0.3, 0.7

[run]
mode = fixed_m
m = 20
realizations = 300
seed = 16

[outputs]
csv = run.csv
"""


def test_run_csv_matches_cell_by_cell_of_the_ensemble(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(RUN_CONFIG)
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    ens = run_ensemble(load_config(str(path)).ensemble)
    rows = list(zip(range(ens.n), ens.ms.tolist(), ens.total_times.tolist(),
                    ens.log_survivals.tolist()))
    assert len(set(ens.log_survivals.tolist())) < 25  # a few atom counts, many repeats
    expected = cell_by_cell(("realization_index", "m", "total_time_s", "log_survival"), rows,
                            tags="command=run, preset=none, seed=16, mode=fixed_m")
    assert (tmp_path / "run.csv").read_bytes() == expected


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
