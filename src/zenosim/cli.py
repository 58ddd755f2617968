"""Command-line front end.

Subcommands:

* ``presets``          list the preset catalog (``--dump`` echoes every parameter)
* ``preset NAME``      run one preset (``--seed``, ``--out``)
* ``run CONFIG``       run a config-file experiment (generic or preset delegation)
* ``rate CONFIG``      emit analytic + empirical rate curves for a fixed-m config

Exit codes: 0 success, 1 configuration problem, 2 numerical failure.
The default output directory comes from ``--out`` or the ``ZENOSIM_OUTDIR``
environment variable, falling back to the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .csvout import write_csv
from .dynamics import ZeroVarianceError, zeno_time
from .expconfig import ConfigError, did_you_mean, load_config
from .intervals import (
    DiscreteIntervals,
    InfiniteMeanError,
    InfiniteSecondMomentError,
    QuadratureNoConvergenceError,
)
from .ldstats import (
    LdProblem,
    OutOfRangeError,
    RateCurve,
    RootBracketFailureError,
    explicit_domain,
    qze_condition,
    rate_curve,
    rate_function_I,
    survival_stats_for,
)
from .montecarlo import (
    InsufficientSamplesError,
    NonFiniteRecordsError,
    empirical_rate,
    ensemble_summary,
    run_ensemble,
)
from .presets import PRESETS, list_presets, run_preset
from .svgplot import Series, write_svg

_NUMERICAL_ERRORS = (
    QuadratureNoConvergenceError,
    RootBracketFailureError,
    OutOfRangeError,
    ZeroVarianceError,
    InfiniteMeanError,
    InfiniteSecondMomentError,
    NonFiniteRecordsError,
)


def _out_dir(arg: str | None) -> str:
    return arg or os.environ.get("ZENOSIM_OUTDIR") or "."


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _print_summary(ens) -> None:
    cfg = ens.config
    h, psi0, dist, m = cfg.hamiltonian, cfg.state, cfg.dist, cfg.m
    print("summary")
    if cfg.mode == "fixed_m":
        try:
            stats = survival_stats_for(dist, h, psi0, m)
            print(f"  ln P*   = {_fmt(stats.log_p_star)}")
            print(f"  ln <P>  = {_fmt(stats.log_p_mean)}")
        except QuadratureNoConvergenceError as err:
            print(f"  ln P*   = n/a (power-law tail too heavy for the quadrature: {err})")
    try:
        tz = zeno_time(h, psi0)
        print(f"  tau_Z   = {_fmt(tz)} s")
    except ZeroVarianceError:
        tz = None
        print("  tau_Z   = infinite (eigenstate)")
    if tz is not None:
        try:
            cond = qze_condition(dist, h, psi0, m)
            print(f"  <delta> = {_fmt(cond.delta_mean)}")
        except InfiniteSecondMomentError:
            print("  <delta> = n/a (infinite second moment)")
    summ = ensemble_summary(ens)
    print(f"  sample ln<P>       = {_fmt(summ.log_mean_survival)}")
    print(f"  sample ESS         = {_fmt(summ.effective_sample_size)}")
    print(f"  sample ln geo-mean = {_fmt(summ.log_geometric_mean)}")
    print(f"  sample mean T      = {_fmt(summ.mean_total_time)} s")


def _check_preset(name: str) -> None:
    """Reject an unknown preset name, suggesting close matches."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}{did_you_mean(name, PRESETS)}")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out)
    if cfg.preset is not None:
        _check_preset(cfg.preset)
        written = run_preset(
            cfg.preset,
            seed=cfg.seed,
            out_dir=out,
            system=(cfg.hamiltonian, cfg.state),
            csv_path=os.path.join(out, cfg.csv_path) if cfg.csv_path else None,
            svg_path=os.path.join(out, cfg.svg_path) if cfg.svg_path else None,
        )
        print(f"preset {cfg.preset}: wrote {written['csv']} (seed {written['seed']})")
        return 0

    if cfg.ensemble is None:
        raise ConfigError("run needs run.preset, or a [distribution] section and run.mode")
    ens = run_ensemble(cfg.ensemble)
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, cfg.csv_path or "ensemble.csv")
    write_csv(
        csv_path,
        ("realization_index", "m", "total_time_s", "log_survival"),
        (range(ens.n), ens.ms, ens.total_times, ens.log_survivals),
        meta={"command": "run", "preset": "none", "seed": cfg.seed,
              "mode": ens.config.mode},
    )
    print(f"wrote {csv_path} ({ens.n} realizations)")
    if cfg.svg_path:
        svg_path = os.path.join(out, cfg.svg_path)
        write_svg(
            svg_path,
            [Series("ln P", list(range(ens.n)), ens.log_survivals.tolist(), marker=True)],
            title="ensemble log-survival",
            xlabel="realization",
            ylabel="ln P",
        )
        print(f"wrote {svg_path}")
    _print_summary(ens)
    return 0


def _cmd_rate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out)
    run = cfg.ensemble
    if run is None or not isinstance(run.dist, DiscreteIntervals):
        raise ConfigError("rate curves need a discrete waiting-time distribution")
    if run.mode != "fixed_m":
        raise ConfigError("rate curves need mode = fixed_m")
    prob = LdProblem.for_system(cfg.hamiltonian, cfg.state, run.dist, run.m)

    ens = run_ensemble(run)
    est = empirical_rate(ens, bins=cfg.bins)
    os.makedirs(out, exist_ok=True)

    rows = []
    tilting = rate_curve(prob, points=200, method="tilting")
    # the paper's split on the grid points where it stays on the simplex:
    # all of them for d <= 2, one run of them or none for d > 2
    xs = tilting.xs[explicit_domain(prob, tilting.xs)]
    explicit = RateCurve(xs=xs, rates=rate_function_I(prob, xs))
    for name, curve in (("explicit", explicit), ("tilting", tilting)):
        for x, rate in zip(curve.xs, curve.rates):
            rows.append((name, float(x), float(rate), ""))
    for x, rate, count in zip(est.centers, est.rates, est.counts):
        rows.append(("empirical", float(x), float(rate), int(count)))
    csv_path = os.path.join(out, cfg.csv_path or "rate.csv")
    write_csv(
        csv_path,
        ("series", "x", "rate", "count"),
        list(zip(*rows, strict=True)),
        meta={"command": "rate", "preset": "none", "seed": cfg.seed,
              "m": run.m, "realizations": run.realizations},
    )
    print(f"wrote {csv_path}")
    if cfg.svg_path:
        svg_path = os.path.join(out, cfg.svg_path)
        analytic = explicit if xs.size == tilting.xs.size else tilting
        write_svg(
            svg_path,
            [
                Series("analytic", list(analytic.xs), list(analytic.rates)),
                Series("empirical", list(est.centers), list(est.rates), marker=True),
            ],
            title="rate function",
            xlabel="ln P / m",
            ylabel="I",
        )
        print(f"wrote {svg_path}")
    return 0


def _cmd_preset(args) -> int:
    _check_preset(args.name)
    written = run_preset(args.name, seed=args.seed, out_dir=_out_dir(args.out))
    print(f"preset {args.name}: wrote {written['csv']} (seed {written['seed']})")
    return 0


def _cmd_presets(args) -> int:
    print(list_presets(dump=args.dump))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Survival statistics under randomly timed projective measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--seed", type=int, default=None)
    p_preset.add_argument("--out", default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_list = sub.add_parser("presets", help="list available presets")
    p_list.add_argument("--dump", action="store_true", help="echo full parameters")
    p_list.set_defaults(func=_cmd_presets)

    p_rate = sub.add_parser("rate", help="emit analytic and empirical rate curves")
    p_rate.add_argument("config")
    p_rate.add_argument("--out", default=None)
    p_rate.set_defaults(func=_cmd_rate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, KeyError, InsufficientSamplesError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
