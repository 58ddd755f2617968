import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import tilted_rate

from zenosim import DegenerateInterval, DiscreteIntervals, PowerLawIntervals, cli, run_ensemble
from zenosim.cli import main
from zenosim.expconfig import (
    _DIST_KEYS,
    _KEYS,
    ConfigError,
    load_config,
    parse_distribution,
    parse_frequency,
    parse_time,
)
from zenosim.ldstats import LdProblem, explicit_domain, rate_curve
from zenosim.presets import PRESETS, list_presets

GENERIC_CONFIG = """
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
m = 50
realizations = 60
seed = 11
bins = 5

[outputs]
csv = out.csv
svg = out.svg
"""


#: GENERIC_CONFIG's [distribution] and [run] sections
RUN_SECTIONS = GENERIC_CONFIG[GENERIC_CONFIG.index("[distribution]"):
                              GENERIC_CONFIG.index("[outputs]")]


class TestQuantities:
    def test_times(self):
        assert parse_time("1 ns") == 1e-9
        assert parse_time("2.5 us") == pytest.approx(2.5e-6)
        assert parse_time("3 ms") == pytest.approx(3e-3)
        assert parse_time("4 s") == 4.0
        assert parse_time("0.25") == 0.25  # bare numbers are seconds

    def test_frequencies(self):
        # 2 pi (value unit), the product presets.default_system forms
        assert parse_frequency("100 kHz") == 2 * math.pi * 1e5
        assert parse_frequency("30 kHz") == 2 * math.pi * 30e3
        assert parse_frequency("2 MHz") == 2 * math.pi * 2e6
        assert parse_frequency("50 Hz") == 2 * math.pi * 50
        assert parse_frequency("6.28") == 6.28  # bare: already angular

    def test_bad_quantities(self):
        with pytest.raises(ConfigError):
            parse_time("1 lightyear")
        with pytest.raises(ConfigError):
            parse_time("fast")
        with pytest.raises(ConfigError):
            parse_frequency("1 2 3 kHz")


class TestDistributionGrammar:
    def test_discrete(self):
        dist = parse_distribution(
            {"kind": "discrete", "values": "1 ns, 3 ns", "probs": "0.3, 0.7"}
        )
        assert isinstance(dist, DiscreteIntervals)
        assert dist.values.tolist() == [1 * 1e-9, 3 * 1e-9]

    def test_powerlaw(self):
        dist = parse_distribution({"kind": "powerlaw", "mu0": "1 ns", "alpha": "3"})
        assert isinstance(dist, PowerLawIntervals)
        assert dist.mu0 == 1e-9 and dist.alpha == 3.0

    def test_degenerate(self):
        dist = parse_distribution({"kind": "degenerate", "mu_bar": "10 us"})
        assert isinstance(dist, DegenerateInterval)
        assert dist.mu_bar == pytest.approx(1e-5)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_distribution({"kind": "zipf", "alpha": "2"})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            parse_distribution({"kind": "powerlaw", "alpha": "2"})

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            parse_distribution(
                {"kind": "discrete", "values": "1 ns, 1 ns", "probs": "0.5, 0.5"}
            )


class TestLoadConfig:
    def test_full_roundtrip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(GENERIC_CONFIG)
        cfg = load_config(str(path))
        assert cfg.hamiltonian.dim == 3
        run = cfg.ensemble
        assert run.mode == "fixed_m" and run.m == 50 and run.t_total is None
        assert run.realizations == 60 and cfg.seed == run.master_seed == 11
        assert cfg.csv_path == "out.csv"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/zeno.ini")

    def test_initial_state_amplitudes(self, tmp_path):
        path = tmp_path / "amp.ini"
        path.write_text("[system]\ninitial_state = 0.6, 0.8\n")
        cfg = load_config(str(path))
        assert cfg.state.amplitudes.tolist() == [0.6, 0.0, 0.8]

    def test_values_are_literal(self, tmp_path):
        path = tmp_path / "pct.ini"
        path.write_text("[outputs]\ncsv = run%1.csv\nsvg = 100%%.svg\n")
        cfg = load_config(str(path))
        assert (cfg.csv_path, cfg.svg_path) == ("run%1.csv", "100%%.svg")

    def test_preset_is_named_in_run_only(self, tmp_path):
        path = tmp_path / "pre.ini"
        path.write_text("[preset]\nname = fig5\n")
        with pytest.raises(ConfigError, match=r"\[run\] preset ="):
            load_config(str(path))

    def test_readme_example_loads_and_names_every_key(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n")[1].split("```")[0]
        path = tmp_path / "readme.ini"
        path.write_text(example)
        assert load_config(str(path)).ensemble is not None
        for section, keys in _KEYS.items():
            assert f"[{section}]" in example
            for key in keys:
                assert f"`{key}`" in readme or f"\n{key} =" in example, key
        # each kind's own keys, as "`values` and `probs` (discrete)"
        words = " ".join(readme.split())
        for kind, keys in _DIST_KEYS.items():
            assert f"{' and '.join(f'`{key}`' for key in keys[1:])} ({kind})" in words, kind

    def test_readme_library_quick_start_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```python\n")[1].split("```")[0]
        exec(compile(example, "README.md", "exec"), {})
        out = capsys.readouterr().out
        for label in ("Zeno time:", "most probable survival:", "typical vs p1:"):
            assert label in out, label

    @pytest.mark.parametrize("law,key", [
        ("kind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7\nalpha = 3", "alpha"),
        ("kind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7\nmu_bar = 2 ns", "mu_bar"),
        ("kind = powerlaw\nmu0 = 1 ns\nalpha = 3\nprobs = 1", "probs"),
        ("kind = degenerate\nmu_bar = 1 ns\nmu0 = 1 ns", "mu0"),
    ])
    def test_each_kind_takes_only_its_own_keys(self, tmp_path, law, key):
        path = tmp_path / "law.ini"
        path.write_text(f"[distribution]\n{law}\n[run]\nmode = fixed_m\nm = 10\n")
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[distribution\]$"):
            load_config(str(path))

    @pytest.mark.parametrize("law,hint", [
        ("kind = powerlaw\nalpha = 3", "; did you mean mu0?"),
        ("kind = degenerate", ""),  # mu0 is not a degenerate law's key
    ])
    def test_a_misspelt_key_is_hinted_from_its_kinds_keys(self, tmp_path, law, hint):
        path = tmp_path / "law.ini"
        path.write_text(f"[distribution]\n{law}\nmu = 1 ns\n[run]\nmode = fixed_m\nm = 10\n")
        with pytest.raises(ConfigError) as caught:
            load_config(str(path))
        assert str(caught.value) == f"unknown key 'mu' in [distribution]{hint}"

    @pytest.mark.parametrize("line,named", [
        ("mode = fixed_m", "run.mode"),
        ("m = 9", "run.m"),
        ("t_total = 1 us", "run.t_total"),
        ("realizations = 7", "run.realizations"),
        ("bins = 5", "run.bins"),
        ("[distribution]\nkind = degenerate\nmu_bar = 1 ns", r"\[distribution\]"),
    ])
    def test_preset_run_names_what_it_never_reads(self, tmp_path, line, named):
        path = tmp_path / "pre.ini"
        path.write_text(f"[run]\npreset = fig6\nseed = 3\n{line}\n")
        with pytest.raises(ConfigError, match=f"preset run takes no {named}"):
            load_config(str(path))

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nmode = sometimes\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestPresetCatalog:
    def test_eight_presets(self):
        assert len(PRESETS) == 8
        listing = list_presets()
        for name in ("fig1-d2", "fig1-d3", "fig1-d4", "fig2", "fig3",
                     "fig4", "fig5", "fig6"):
            assert name in PRESETS
            assert name in listing

    def test_dump_echoes_parameters(self):
        dump = list_presets(dump=True)
        assert "probs = (0.3, 0.2, 0.05, 0.45)" in dump  # the 4-atom set
        assert "p1 = 0.99" in dump  # the ratio-sweep preset
        assert "default_seed" in dump


class TestCli:
    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fig1-d2" in out and "fig6" in out

    def test_unknown_preset_suggests(self, tmp_path, capsys):
        code = main(["preset", "fig1-d5", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "fig1-d" in err  # close-match suggestion

    def test_preset_writes_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["preset", "fig2", "--seed", "5", "--out", str(out1)]) == 0
        assert main(["preset", "fig2", "--seed", "5", "--out", str(out2)]) == 0
        csv1 = (out1 / "fig2.csv").read_bytes()
        csv2 = (out2 / "fig2.csv").read_bytes()
        assert csv1 == csv2
        text = csv1.decode()
        assert text.startswith("# zenosim")
        assert "preset=fig2" in text and "seed=5" in text
        assert text.splitlines()[1] == "realization_index,log_P,log_P_star"
        assert (out1 / "fig2.svg").exists()

    def test_run_generic_config(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(GENERIC_CONFIG)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ln P*" in out and "tau_Z" in out
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[1] == "realization_index,m,total_time_s,log_survival"
        assert len(lines) == 62  # comment + header + 60 records
        assert (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize("realizations", [2000, 200_000])
    def test_run_svg_plots_at_most_2000_markers(self, tmp_path, capsys, realizations):
        # one marker per realization up to 2,000, then every ceil(n / 2000)-th
        path = tmp_path / "exp.ini"
        path.write_text(GENERIC_CONFIG.replace("m = 50", "m = 1").replace(
            "realizations = 60", f"realizations = {realizations}"))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "out.svg").read_text().count("<circle") == 2000

    @pytest.mark.parametrize("alpha", ["3", "2", "1.5"])
    def test_run_powerlaw_summary(self, tmp_path, capsys, powerlaw_log_q_oracle, alpha):
        path = tmp_path / "pl.ini"
        path.write_text(GENERIC_CONFIG.replace(
            "kind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7\n",
            f"kind = powerlaw\nmu0 = 1 ns\nalpha = {alpha}\n",
        ))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        star = next(line for line in capsys.readouterr().out.splitlines()
                    if "ln P*" in line).split("=", 1)[1].strip()
        if alpha != "1.5":  # alpha = 2 by the closed tail of the two-level support
            assert math.isfinite(float(star))
            assert float(star) == pytest.approx(
                50 * powerlaw_log_q_oracle(1e-9, float(alpha)), rel=1e-8, abs=0.0)
        else:  # alpha <= 1.5: the tail is too heavy for the quadrature
            assert star.startswith("n/a") and "the closed tail needs" in star

    def test_run_delegates_to_preset(self, tmp_path, capsys):
        path = tmp_path / "pre.ini"
        path.write_text("[run]\npreset = fig5\nseed = 3\n")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig5.csv").exists()

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_delegation_runs_the_default_system_bit_for_bit(self, tmp_path, capsys, name):
        path = tmp_path / "pre.ini"
        path.write_text(f"[run]\npreset = {name}\nseed = 3\n")
        assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 0
        assert main(["preset", name, "--seed", "3", "--out", str(tmp_path / "preset")]) == 0
        for ext in ("csv", "svg"):
            assert (tmp_path / "run" / f"{name}.{ext}").read_bytes() == (
                tmp_path / "preset" / f"{name}.{ext}").read_bytes()

    # one realization; a fixed-T budget below both atoms (1 and 3 ns), so m = 0
    @pytest.mark.parametrize("old,new,rows", [
        ("realizations = 60", "realizations = 1", 1),
        ("mode = fixed_m\nm = 50", "mode = fixed_T\nt_total = 0.5 ns", 60),
    ], ids=["one_realization", "budget_below_atoms"])
    def test_run_summary_needs_no_two_measured_realizations(self, tmp_path, capsys, old, new,
                                                             rows):
        assert old in GENERIC_CONFIG
        path = tmp_path / "few.ini"
        path.write_text(GENERIC_CONFIG.replace(old, new))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for line in ("sample ln<P>", "sample ESS", "sample ln geo-mean", "sample mean T"):
            assert line in out
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 2 + rows

    def test_fixed_t_run_rejects_a_stray_m(self, tmp_path, capsys):
        # a fixed-T run draws no fixed count of intervals, so an m left in
        # its config is an error, not an analytic ln P* for m = 5000
        old = "mode = fixed_m\nm = 50"
        assert old in GENERIC_CONFIG
        path = tmp_path / "stray.ini"
        path.write_text(GENERIC_CONFIG.replace(old, "mode = fixed_T\nt_total = 300 ns\nm = 5000"))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("config error") and "takes no m" in err
        assert "ln P*" not in out and not (tmp_path / "out.csv").exists()

    def test_rate_command(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(GENERIC_CONFIG)
        assert main(["rate", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[1] == "series,x,rate,count"
        series = {line.split(",")[0] for line in lines[2:]}
        assert series == {"explicit", "tilting", "empirical"}

    @pytest.mark.parametrize("values,probs,explicit", [
        ("1 ns, 2 ns, 3 ns", "0.2, 0.3, 0.5", "part"),
        ("1 ns, 3 ns, 2 ns", "0.3, 0.2, 0.5", "none"),  # the last atom's ln q in the middle
        ("1 ns, 3 ns, 2 ns, 0.5 ns", "0.3, 0.2, 0.05, 0.45", "part"),
    ], ids=["d3", "d3_middle_last", "d4"])
    def test_rate_of_three_or_more_atoms(self, tmp_path, capsys, values, probs, explicit):
        # the tilting series covers the whole grid, the explicit one the
        # grid points where its occupation fractions stay on the simplex
        path = tmp_path / "d.ini"
        path.write_text(GENERIC_CONFIG.replace("values = 1 ns, 3 ns\nprobs = 0.3, 0.7",
                                               f"values = {values}\nprobs = {probs}"))
        assert main(["rate", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "out.svg").exists()
        rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[2:]]
        series = {name: [(float(x), float(rate)) for n, x, rate, _ in rows if n == name]
                  for name in ("explicit", "tilting")}
        cfg = load_config(str(path))
        prob = LdProblem.for_system(cfg.hamiltonian, cfg.state, cfg.ensemble.dist)
        xs = [x for x, _ in series["tilting"]]
        assert len(xs) == 200 and xs == rate_curve(prob).xs.tolist()
        for x, rate in series["tilting"][::8] + series["tilting"][-1:]:
            assert rate == pytest.approx(tilted_rate(prob.dist.probs, prob.logq, x, dps=30),
                                         rel=1e-14, abs=1e-15)
        tilting = dict(series["tilting"])
        inside = [x for x in xs if explicit_domain(prob, x)]
        assert [x for x, _ in series["explicit"]] == inside
        assert (0 < len(inside) < 200) if explicit == "part" else inside == []
        for x, rate in series["explicit"]:
            assert tilting[x] <= rate + 1e-12  # the tilting rate is the least

    def test_rate_point_mass_is_the_one_atom_law(self, tmp_path, capsys):
        one_atom = "kind = discrete\nvalues = 1 ns\nprobs = 1\n"
        point = "kind = degenerate\nmu_bar = 1 ns\n"
        two_atoms = "kind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7\n"
        for name, law in (("one", one_atom), ("point", point)):
            path = tmp_path / f"{name}.ini"
            path.write_text(GENERIC_CONFIG.replace(two_atoms, law))
            assert main(["rate", str(path), "--out", str(tmp_path / name)]) == 0
        csv = (tmp_path / "point" / "out.csv").read_bytes()
        assert csv == (tmp_path / "one" / "out.csv").read_bytes()
        rows = [line.split(",") for line in csv.decode().splitlines()[2:]]
        assert {row[0] for row in rows} == {"explicit", "tilting", "empirical"}
        assert all(float(row[2]) == 0.0 for row in rows)

    def test_rate_of_a_point_mass_has_one_point_per_analytic_series(self, tmp_path, capsys):
        # the rate's domain [min ln q, max ln q] is one value here
        path = tmp_path / "point.ini"
        path.write_text(GENERIC_CONFIG.replace(
            "kind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7\n",
            "kind = degenerate\nmu_bar = 1 ns\n"))
        assert main(["rate", str(path), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[2:]]
        analytic = [row for row in rows if row[0] in ("explicit", "tilting")]
        assert sorted(row[0] for row in analytic) == ["explicit", "tilting"]
        assert analytic[0][1:3] == analytic[1][1:3] and float(analytic[0][2]) == 0.0

    def test_rate_of_non_finite_records_is_a_numerical_failure(self, tmp_path, monkeypatch,
                                                                 capsys):
        # a factor q(mu) of exactly zero gives L = -inf, and no histogram
        def with_zero_factors(cfg):
            ens = run_ensemble(cfg)
            ens.log_survivals[:2] = -math.inf
            return ens

        monkeypatch.setattr(cli, "run_ensemble", with_zero_factors)
        path = tmp_path / "exp.ini"
        path.write_text(GENERIC_CONFIG)
        assert main(["rate", str(path), "--out", str(tmp_path)]) == 2
        assert "2 of 60 are not" in capsys.readouterr().err

    def test_rate_needs_discrete_fixed_m(self, tmp_path, capsys):
        path = tmp_path / "pl.ini"
        path.write_text(
            "[distribution]\nkind = powerlaw\nmu0 = 1 ns\nalpha = 3\n"
            "[run]\nmode = fixed_m\nm = 10\n"
        )
        assert main(["rate", str(path)]) == 1

    def test_outdir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ZENOSIM_OUTDIR", str(tmp_path))
        assert main(["preset", "fig6"]) == 0
        assert (tmp_path / "fig6.csv").exists()

    @pytest.mark.parametrize("command,old,new", [
        ("run", "m = 50", "m = 0"),
        ("run", "mode = fixed_m\nm = 50", "mode = fixed_T"),
        ("run", "realizations = 60", "realizations = 0"),
        ("rate", "bins = 5", "bins = 0"),
        ("run", "mode = fixed_m\nm = 50", "mode = fixed_T\nt_total = 1 us\nm = 50"),
        ("run", "m = 50", "m = 50\nt_total = 1 us"),
        ("run", "mode = fixed_m\nm = 50", "mode = fixed_T\nt_total = inf s"),
        ("run", "mode = fixed_m\nm = 50", "mode = fixed_T\nt_total = nan"),
        ("run", "mode = fixed_m\nm = 50", "mode = fixed_T\nt_total = -1 ns"),
        ("run", "realizations = 60", "realisations = 60"),
        ("run", "coupling = 100 kHz", "couplng = 100 kHz"),
        ("run", "[system]", "[sytem]"),
        ("run", "[distribution]\nkind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7\n", ""),
        ("run", "mode = fixed_m\n", ""),
        ("run", "probs = 0.3, 0.7\n", "probs = nan, 1.0\n"),
        ("run", "probs = 0.3, 0.7\n", "probs = 0.3, 0.7\nalpha = 3\n"),
        ("run", "probs = 0.3, 0.7\n", "probs = 0.3, 0.7\nmu_bar = 2 ns\n"),
        # power-law draws up to 1 ns 2^(53/alpha) would overflow to inf
        ("run", "kind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7\n",
         "kind = powerlaw\nmu0 = 1 ns\nalpha = 0.01\n"),
        *(("run", RUN_SECTIONS, f"[run]\npreset = fig6\n{line}\n")
          for line in ("mode = fixed_m", "m = 9", "t_total = 1 us", "realizations = 7",
                       "bins = 5")),
        ("run", RUN_SECTIONS, "[run]\npreset = fig6\nrealizations = 7\nm = 9\n"),
        ("run", "mode = fixed_m\n", "preset = fig6\nmode = fixed_m\n"),  # a whole run, too
    ])
    def test_bad_run_values_are_config_errors(self, tmp_path, capsys, command, old, new):
        path = tmp_path / "bad.ini"
        path.write_text(GENERIC_CONFIG.replace(old, new))
        with pytest.raises(ConfigError):  # at load time, before anything runs
            load_config(str(path))
        assert main([command, str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err

    def test_missing_config_is_config_error(self, capsys):
        assert main(["run", "/no/such/file.ini"]) == 1

    def test_run_output_is_byte_deterministic(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(GENERIC_CONFIG)
        assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "out.csv").read_bytes() == (
            tmp_path / "b" / "out.csv"
        ).read_bytes()


class TestAllPresetsRun:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_produces_declared_schema(self, name, tmp_path):
        from zenosim.presets import run_preset

        written = run_preset(name, out_dir=str(tmp_path))
        with open(written["csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("# zenosim")
        assert f"preset={name}" in lines[0]
        assert lines[1] == ",".join(PRESETS[name].columns)
        assert len(lines) > 2
        assert os.path.getsize(written["svg"]) > 500


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = (
        "import sys, zenosim.cli\n"
        "print('scipy.integrate' in sys.modules)\n"
        "print('concurrent.futures' in sys.modules)\n"
        "from zenosim import PowerLawIntervals, build_chain_hamiltonian, "
        "entangled_initial_state, survival_stats_for\n"
        "h = build_chain_hamiltonian([1.9e5, 1.3e5, 6.3e4], 6.3e5)\n"
        "survival_stats_for(PowerLawIntervals(1e-9, 3.0), h, entangled_initial_state(), 100)\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.split() == ["False", "False", "False"]


@pytest.mark.parametrize("run,splits", [
    ("mode = fixed_m\nm = 20", False),
    ("mode = fixed_T\nt_total = 300 ns", False),
    ("mode = fixed_m\nm = 200000", True),  # a row of more than one segment
], ids=["fixed_m_short", "fixed_T", "fixed_m_long"])
def test_run_imports_concurrent_futures_only_for_rows_that_split(tmp_path, run, splits):
    # in a fresh interpreter: the thread pool module is loaded, and a
    # thread started, only when a long row runs in more than one part
    path = tmp_path / "exp.ini"
    path.write_text(GENERIC_CONFIG.replace("mode = fixed_m\nm = 50", run)
                    .replace("realizations = 60", "realizations = 2"))
    code = (
        "import sys, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda t: (started.append(t), start(t))[1]\n"
        "from zenosim import cli, montecarlo\n"
        f"assert cli.main(['run', {str(path)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "parts = min(montecarlo._MAX_PARTS, montecarlo._usable_cores())\n"
        "print('concurrent.futures' in sys.modules, bool(started), parts > 1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    loaded, threaded, cores = out.stdout.split()[-3:]
    expected = str(splits and cores == "True")
    assert (loaded, threaded) == (expected, expected)
