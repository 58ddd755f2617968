import math
import os
import subprocess
import sys

import numpy as np
import pytest

from zenosim import DegenerateInterval, DiscreteIntervals, PowerLawIntervals
from zenosim.cli import main
from zenosim.expconfig import (
    ConfigError,
    load_config,
    parse_distribution,
    parse_frequency,
    parse_time,
)
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
        assert cfg.mode == "fixed_m" and cfg.m == 50
        assert cfg.realizations == 60 and cfg.seed == 11
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

    @pytest.mark.parametrize("alpha", ["3", "1.5"])
    def test_run_powerlaw_summary(self, tmp_path, capsys, powerlaw_log_q_oracle, alpha):
        path = tmp_path / "pl.ini"
        path.write_text(GENERIC_CONFIG.replace(
            "kind = discrete\nvalues = 1 ns, 3 ns\nprobs = 0.3, 0.7\n",
            f"kind = powerlaw\nmu0 = 1 ns\nalpha = {alpha}\n",
        ))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        star = next(line for line in capsys.readouterr().out.splitlines()
                    if "ln P*" in line).split("=")[1].strip()
        if alpha == "3":
            assert float(star) == pytest.approx(
                50 * powerlaw_log_q_oracle(1e-9, 3.0), rel=1e-8, abs=0.0)
        else:  # alpha <= 2: the tail is too heavy for the quadrature
            assert star.startswith("n/a")

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
        for line in ("sample ln<P>", "sample ln geo-mean", "sample mean T"):
            assert line in out
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 2 + rows

    def test_rate_command(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(GENERIC_CONFIG)
        assert main(["rate", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[1] == "series,x,rate,count"
        series = {line.split(",")[0] for line in lines[2:]}
        assert series == {"explicit", "tilting", "empirical"}

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
    ])
    def test_bad_run_values_are_config_errors(self, tmp_path, capsys, command, old, new):
        path = tmp_path / "bad.ini"
        path.write_text(GENERIC_CONFIG.replace(old, new))
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
        "from zenosim import PowerLawIntervals, build_chain_hamiltonian, "
        "entangled_initial_state, survival_stats_for\n"
        "h = build_chain_hamiltonian([1.9e5, 1.3e5, 6.3e4], 6.3e5)\n"
        "survival_stats_for(PowerLawIntervals(1e-9, 3.0), h, entangled_initial_state(), 100)\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.split() == ["False", "False"]
