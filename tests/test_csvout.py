import csv
import math
import struct
import tomllib
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import __version__, csvout, run_ensemble
from zenosim.cli import main
from zenosim.csvout import format_cell, write_csv
from zenosim.expconfig import load_config
from zenosim.ldstats import LdProblem, rate_curve
from zenosim.montecarlo import empirical_rate
from zenosim.presets import PRESETS, default_system, run_preset
from zenosim.rng import DEFAULT_SEED
from zenosim.svgplot import Series, render_svg

META = {"command": "test", "seed": 1}


def cell_by_cell(columns, rows, tags="command=test, seed=1") -> bytes:
    """The file as formatting every cell on its own gives it."""
    lines = [f"# zenosim {__version__}, {tags}", ",".join(columns)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    return ("\r\n".join(lines) + "\r\n").encode()


def written(tmp_path, names, rows) -> bytes:
    """The file ``write_csv`` gives for the columns of ``rows``."""
    return written_columns(tmp_path, names, list(zip(*rows, strict=True)) or [()] * len(names))


def written_columns(tmp_path, names, columns) -> bytes:
    path = tmp_path / "out.csv"
    write_csv(str(path), names, columns, meta=META)
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
        [np.True_, np.False_],
        [np.float32(0.1), np.float32(-2.5), np.float32(math.nan)],
        [np.int8(-128), np.int8(7)],
        [np.str_("plain"), np.str_("a,b")],
        ["plain", "a,b", 'say "x"', "two\nlines"],
    ])
    def test_other_columns_go_through_format_cell(self, tmp_path, column):
        rows = [(j, v) for j, v in enumerate(column)]
        assert written(tmp_path, ("j", "v"), rows) == cell_by_cell(("j", "v"), rows)
        # a numpy scalar writes as its Python value
        values = [(j, v.item() if isinstance(v, np.generic) else v) for j, v in rows]
        assert written(tmp_path, ("j", "v"), rows) == cell_by_cell(("j", "v"), values)

    def test_text_cells_round_trip_through_csv_reader(self, tmp_path):
        # a bare carriage return is quoted like a newline: the rows end in
        # \r\n, so an RFC-4180 reader would split the cell at it
        texts = ["plain", "a,b", 'say "x"', "two\nlines", "a\rb", "\r", "end\r\n"]
        assert format_cell("a\rb") == '"a\rb"'
        written(tmp_path, ("j", "t"), list(enumerate(texts)))
        with open(tmp_path / "out.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[2:] == [[str(j), t] for j, t in enumerate(texts)]

    @pytest.mark.parametrize("n", [0, 1, 20_000])
    def test_a_range_writes_what_the_list_of_its_ints_writes(self, n):
        # a range takes the {int} sequence rule: the same bytes as its list
        assert csvout._column_texts(range(n)) == csvout._column_texts(list(range(n)))
        assert csvout._column_texts(range(-3, n, 7)) == list(map(str, range(-3, n, 7)))

    def test_columns_may_be_a_range_and_numpy_arrays(self, tmp_path):
        xs = [0.5, -0.0, math.inf]
        expected = cell_by_cell(("i", "m", "x"), list(zip(range(3), [20] * 3, xs)))
        columns = (range(3), np.full(3, 20), np.array(xs))
        assert written_columns(tmp_path, ("i", "m", "x"), columns) == expected

    def test_no_rows_writes_the_header(self, tmp_path):
        assert written(tmp_path, ("a", "b"), []) == cell_by_cell(("a", "b"), [])

    @pytest.mark.parametrize("columns", [
        ([1, 3], [2.0]),                         # unequal lengths
        ([1], [2.0, 4.0]),
        (range(3), np.zeros(2)),
        (np.arange(2), np.zeros(3)),
        ([1], [2.0], [3.0]),                     # wrong column count
        ([1, 3],),
        (),
    ])
    def test_a_wrong_column_count_or_unequal_lengths_raise(self, tmp_path, columns):
        with pytest.raises(ValueError):
            written_columns(tmp_path, ("a", "b"), columns)
        assert not (tmp_path / "out.csv").exists()


class TestArrayColumns:
    """An array column writes what its cells, one by one, write."""

    def test_float64_specials_in_any_order(self, tmp_path):
        rng = np.random.default_rng(23)
        pool = np.array(SPECIALS + [0.1, -2.5, 1e300, 3e-9, 1 / 3])
        xs = pool[rng.integers(0, len(pool), 3000)]
        assert len(np.unique(xs.view(np.int64))) < 20  # many repeats
        assert {float.hex(x) for x in SPECIALS} <= set(map(float.hex, xs.tolist()))
        columns = (xs, xs[::-1], np.full(len(xs), xs[0]))
        rows = list(zip(*(c.tolist() for c in columns)))
        names = ("x", "y", "z")
        assert written_columns(tmp_path, names, columns) == cell_by_cell(names, rows)

    def test_nan_payloads_and_signed_zeros_survive_the_array(self, tmp_path):
        xs = np.array(SPECIALS)
        assert xs.view(np.int64).tolist() == [struct.unpack("<q", struct.pack("<d", x))[0]
                                              for x in SPECIALS]
        rows = [(x,) for x in SPECIALS]
        assert written_columns(tmp_path, ("x",), (xs,)) == cell_by_cell(("x",), rows)

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint64])
    def test_integer_arrays(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(5)
        pool = np.array([info.min, info.max, 0, 1, 20, info.max // 3], dtype=dtype)
        ks = pool[rng.integers(0, len(pool), 500)]
        rows = [(k,) for k in ks.tolist()]
        assert written_columns(tmp_path, ("k",), (ks,)) == cell_by_cell(("k",), rows)

    def test_bool_and_float32_arrays(self, tmp_path):
        rng = np.random.default_rng(9)
        flags = rng.random(200) < 0.5
        small = np.concatenate([np.array(SPECIALS, dtype=np.float32),
                                rng.standard_normal(189).astype(np.float32)])
        rows = list(zip(flags.tolist(), small.tolist()))
        names = ("b", "f")
        assert written_columns(tmp_path, names, (flags, small)) == cell_by_cell(names, rows)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(SPECIALS) | st.floats(), min_size=1, max_size=60))
    def test_float64_arrays_match_cell_by_cell(self, tmp_path_factory, xs):
        tmp_path = tmp_path_factory.mktemp("prop")
        expected = cell_by_cell(("i", "x"), list(zip(range(len(xs)), xs)))
        assert written_columns(tmp_path, ("i", "x"), (range(len(xs)), np.array(xs))) == expected

    def test_numeric_columns_never_format_cell_by_cell(self, tmp_path, monkeypatch):
        # 20,000 rows shaped like a fixed-m run's: index, m, total time, ln P
        n, rng = 20_000, np.random.default_rng(20)
        atoms = rng.binomial(20, 0.3, n)
        columns = (range(n), np.full(n, 20), atoms * 1e-9 + (20 - atoms) * 3e-9,
                   atoms * -1.3e-4 + (20 - atoms) * -2.2e-4)
        names = ("realization_index", "m", "total_time_s", "log_survival")
        expected = cell_by_cell(names, zip(*(list(c) for c in columns)))

        def refuse(value):
            raise AssertionError(f"format_cell({value!r}) on a numeric column")

        monkeypatch.setattr(csvout, "format_cell", refuse)
        assert written_columns(tmp_path, names, columns) == expected


B = csvout._BLOCK_ROWS


class TestBlocks:
    """Rows are written a block of ``_BLOCK_ROWS`` at a time; where the
    blocks are cut moves no byte."""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3])
    def test_every_cut_writes_cell_by_cell(self, tmp_path, n):
        rng = np.random.default_rng(n)
        xs = rng.choice(np.array(SPECIALS + [0.1, 1 / 3, -2.5e-9]), n)
        # ints in the first block, "" from the second on, as rate.csv's
        # count column holds "" then ints
        counts = [j if j < B else "" for j in range(n)]
        flags = (rng.random(n) < 0.5).tolist()
        scalars = [np.float64(x) if j % 3 else np.int64(j) for j, x in enumerate(xs.tolist())]
        columns = (range(n), np.full(n, 20), xs, rng.standard_normal(n), counts, counts[::-1],
                   flags, scalars)
        names = ("i", "m", "x", "y", "count", "tnuoc", "flag", "scalar")
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        assert written_columns(tmp_path, names, columns) == cell_by_cell(names, rows)

    @staticmethod
    def peak(tmp_path, columns) -> int:
        """The tracemalloc peak of writing ``columns`` as a run's CSV."""
        path = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            write_csv(str(path), ("realization_index", "m", "total_time_s", "log_survival"),
                      columns, meta=META)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes().count(b"\r\n") == len(columns[0]) + 2
        return peak

    def test_peak_memory_of_a_fixed_m_run_is_one_block_of_text(self, tmp_path):
        # 2 x 10^5 rows shaped like a fixed-m run's: all of the rows' text
        # at once took about 60 MiB
        n, rng = 200_000, np.random.default_rng(2)
        atoms = rng.binomial(20, 0.3, n)
        columns = (range(n), np.full(n, 20), atoms * 1e-9 + (20 - atoms) * 3e-9,
                   atoms * -1.3e-4 + (20 - atoms) * -2.2e-4)
        assert self.peak(tmp_path, columns) < 2 * 2**20

    def test_peak_memory_is_flat_in_the_row_count(self, tmp_path):
        # every time and log survival distinct, as in a fixed-T run
        rng = np.random.default_rng(3)
        peaks = [self.peak(tmp_path, (range(n), np.full(n, 20), rng.random(n) * 1e-7,
                                      -rng.random(n) * 1e-3)) for n in (3 * B, 12 * B)]
        assert peaks[1] < 1.1 * peaks[0] and peaks[1] < 4 * 2**20


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


def test_fixed_t_run_csv_matches_cell_by_cell_of_the_ensemble(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(RUN_CONFIG.replace("kind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7",
                                       "kind = powerlaw\nmu0 = 1 ns\nalpha = 3")
                    .replace("mode = fixed_m\nm = 20", "mode = fixed_T\nt_total = 200 ns"))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    ens = run_ensemble(load_config(str(path)).ensemble)
    assert len(set(ens.ms.tolist())) > 1  # ragged lengths
    rows = list(zip(range(ens.n), ens.ms.tolist(), ens.total_times.tolist(),
                    ens.log_survivals.tolist()))
    expected = cell_by_cell(("realization_index", "m", "total_time_s", "log_survival"), rows,
                            tags="command=run, preset=none, seed=16, mode=fixed_T")
    assert (tmp_path / "run.csv").read_bytes() == expected


def test_rate_csv_matches_cell_by_cell_of_its_curves(tmp_path, capsys):
    path = tmp_path / "rate.ini"
    path.write_text(RUN_CONFIG.replace("m = 20", "m = 200\nbins = 9")
                    .replace("run.csv", "rate.csv"))
    assert main(["rate", str(path), "--out", str(tmp_path)]) == 0
    cfg = load_config(str(path))
    run = cfg.ensemble
    prob = LdProblem.for_system(cfg.hamiltonian, cfg.state, run.dist, run.m)
    rows = []
    for name in ("explicit", "tilting"):
        curve = rate_curve(prob, points=200, method=name)
        rows += [(name, x, rate, "") for x, rate in zip(curve.xs.tolist(), curve.rates.tolist())]
    est = empirical_rate(run_ensemble(run), bins=9)
    rows += [("empirical", x, rate, count) for x, rate, count in
             zip(est.centers.tolist(), est.rates.tolist(), est.counts.tolist())]
    assert {type(row[3]) for row in rows} == {str, int}  # the count column mixes "" and ints
    expected = cell_by_cell(("series", "x", "rate", "count"), rows,
                            tags="command=rate, preset=none, seed=16, m=200, realizations=300")
    assert (tmp_path / "rate.csv").read_bytes() == expected


@pytest.mark.parametrize("name", ["fig2", "fig5"])
def test_preset_csv_matches_cell_by_cell_of_its_rows(tmp_path, name):
    written_paths = run_preset(name, out_dir=str(tmp_path))
    rows = PRESETS[name].runner(*default_system(), DEFAULT_SEED)
    expected = cell_by_cell(PRESETS[name].columns, rows,
                            tags=f"preset={name}, seed={DEFAULT_SEED}")
    assert Path(written_paths["csv"]).read_bytes() == expected


@pytest.mark.parametrize("x", [-3.9e-8, 0.0])
def test_svg_of_a_range_flat_to_round_off(x):
    # points one ulp apart once stepped the ticks by less than an ulp, forever
    xs, ys = [x, float(np.nextafter(x, 1.0))], [-1e-9, float(np.nextafter(-1e-9, 1.0))]
    svg = render_svg([Series("s", xs, ys, marker=True)])
    assert svg.count('font-size="11"') == 10  # both axes widened to 1: 5 ticks each


def test_svg_text_is_escaped():
    # a title, axis label or series label with markup characters still
    # makes a document an XML parser reads back, text and all
    texts = {"title": "a < b & c", "xlabel": "<x>", "ylabel": "ln <P>"}
    svg = render_svg([Series("1 > 0 & <y>", [0.0, 1.0], [1.0, 2.0])], **texts)
    got = [el.text for el in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert {*texts.values(), "1 > 0 & <y>"} <= set(got)


def test_version_matches_pyproject():
    # the version every CSV header carries is the one the package declares
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__
