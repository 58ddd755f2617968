"""The four workloads: the zenosim commands each runs and the checks on
their outputs.

Every command goes through ``zenosim.cli.main``, the entry point of the
``zenosim`` console script, with INI configs written here. Every check
compares an output against ``oracle`` (computed without zenosim) or
against a property the output must have; none compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import chdtrc

import oracle

NS = 1e-9
US = 1e-6
#: relative tolerance of outputs recomputed exactly (replays, closed forms)
REL_TOL = 1e-9
#: relative tolerance of fig4's E[ln q] against the independent quadrature:
#: ten times the 1e-7 the preset asks its quadrature for
FIG4_REL_TOL = 1e-6
#: typical (median of 25 runs) must lie within this many single-run sigmas
#: of the most probable value
TYPICAL_SIGMAS = 5.0

TWO_ATOM = ((1 * NS, 3 * NS), (0.3, 0.7))
PRESET_ATOMS = {
    "fig1-d2": TWO_ATOM,
    "fig1-d3": ((1 * NS, 3 * NS, 2 * NS), (0.3, 0.2, 0.5)),
    "fig1-d4": ((1 * NS, 3 * NS, 2 * NS, 0.5 * NS), (0.3, 0.2, 0.05, 0.45)),
}
M_SWEEP = (50, 100, 200, 400, 800, 1600, 3200, 6400)
TYPICAL_N = 25
FIG4_ALPHAS = (2.5, 3.0, 4.0)
PRESET_NAMES = ("fig1-d2", "fig1-d3", "fig1-d4", "fig2", "fig3", "fig4", "fig5", "fig6")

SYSTEM_INI = """[system]
omegas = 30 kHz, 20 kHz, 10 kHz
coupling = 100 kHz
initial_state = entangled_default
"""

#: problem sizes; "tiny" is for the benchmark's own smoke tests
SIZES = {
    "full": {"short_n": 20_000, "fixed_t_n": 1000, "long_m": 10_000_000,
             "long_n": 2, "rate_m": 2000, "rate_n": 2000},
    "tiny": {"short_n": 2000, "fixed_t_n": 40, "long_m": 20_000,
             "long_n": 2, "rate_m": 2000, "rate_n": 400},
}


class CheckFailed(AssertionError):
    """An output disagrees with its independent reference."""


class KnownFault(CheckFailed):
    """An output misses its reference because of a documented fault in
    zenosim; the command counts as failed, not as a wrong benchmark."""


@dataclass
class Command:
    """One zenosim invocation: ``argv`` without ``--out``, and the check
    of the files it writes into its output directory.

    ``short`` commands (under a second here, shorter than the host's
    bursts of contention) are timed against the calibration blocks right
    around them, the others against the run's mean; see ``speed``.
    """

    name: str
    argv: list[str]
    check: Callable[[str, str], None]  # (output dir, captured stdout)
    short: bool = True


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got, want, what: str, rel: float = REL_TOL) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want) > rel * np.abs(want)
    if np.any(err):
        k = int(np.argmax(err))
        raise CheckFailed(f"{what}: {got.flat[k]!r} != {want.flat[k]!r} (rel {rel:g})")


def read_csv(path: str, seed: int | None = None):
    """Header comment, column names and string rows of a zenosim CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    _expect(text.endswith("\r\n"), f"{path}: lines must end in CRLF")
    lines = text[:-2].split("\r\n")
    _expect(lines[0].startswith("# zenosim "), f"{path}: missing header comment")
    if seed is not None:
        _expect(f"seed={seed}" in lines[0], f"{path}: header lacks seed={seed}")
    return lines[0], lines[1].split(","), [line.split(",") for line in lines[2:]]


def _columns(path: str, names, seed: int) -> np.ndarray:
    _, header, rows = read_csv(path, seed)
    _expect(header == list(names), f"{path}: columns {header} != {list(names)}")
    return np.array(rows, dtype=float).reshape(len(rows), len(names))


class References:
    """Oracle values shared by the checks of one run."""

    def __init__(self):
        self.system = oracle.System()
        self._atoms: dict[float, float] = {}
        self._fig4: dict[float, float] = {}

    def log_q_atoms(self, values) -> list[float]:
        for mu in values:
            if mu not in self._atoms:
                self._atoms[mu] = self.system.log_q_exact(mu)
        return [self._atoms[mu] for mu in values]

    def powerlaw_log_q(self, alpha: float) -> float:
        if alpha not in self._fig4:
            self._fig4[alpha] = oracle.powerlaw_expect_log_q(self.system, 1 * NS, alpha)
        return self._fig4[alpha]


# --- checks of `zenosim run` ------------------------------------------------

def _printed(stdout: str, label: str) -> float:
    match = re.search(rf"^\s*{re.escape(label)}\s*=\s*(\S+)", stdout, re.M)
    _expect(match is not None, f"summary lacks {label!r}")
    return float(match.group(1))


def check_fixed_m_two_atom(ref: References, path: str, stdout: str, seed: int,
                           m: int, n: int, binomial: str) -> None:
    """Rows of a fixed-m two-atom run: n1 recovered from the total time,
    L = n1 ln q1 + (m - n1) ln q2, and n1 ~ Binomial(m, p1)."""
    (mu1, mu2), (p1, p2) = TWO_ATOM
    lq1, lq2 = ref.log_q_atoms((mu1, mu2))
    data = _columns(path, ("realization_index", "m", "total_time_s", "log_survival"), seed)
    _expect(data.shape[0] == n, f"{path}: {data.shape[0]} rows, expected {n}")
    _expect(np.array_equal(data[:, 0], np.arange(n)), "realization indices")
    _expect(np.all(data[:, 1] == m), "every row must have m measurements")
    n1_real = (m * mu2 - data[:, 2]) / (mu2 - mu1)
    n1 = np.rint(n1_real)
    _expect(np.all(np.abs(n1_real - n1) < 1e-3) and np.all((n1 >= 0) & (n1 <= m)),
            "total times are not n1*mu1 + (m-n1)*mu2 for an integer n1")
    _close(data[:, 2], n1 * mu1 + (m - n1) * mu2, "total time", rel=1e-12)
    _close(data[:, 3], n1 * lq1 + (m - n1) * lq2, "log survival")
    if binomial == "chi2":
        _binomial_chi2(n1.astype(np.int64), m, p1)
    else:
        z = (n1 - m * p1) / math.sqrt(m * p1 * p2)
        _expect(np.all(np.abs(z) < 6.0), f"n1 is {np.max(np.abs(z)):.1f} sigma off m*p1")
    _close(_printed(stdout, "ln P*"), m * (p1 * lq1 + p2 * lq2), "printed ln P*", rel=1e-11)


def _binomial_chi2(n1: np.ndarray, m: int, p: float) -> None:
    k = np.arange(m + 1)
    logpmf = np.array([math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
                       for j in k]) + k * math.log(p) + (m - k) * math.log1p(-p)
    expected = n1.size * np.exp(logpmf)
    observed = np.bincount(n1, minlength=m + 1).astype(float)
    keep = expected >= 5.0  # the rest is pooled into one cell
    obs = np.append(observed[keep], observed[~keep].sum()) if not keep.all() else observed
    exp = np.append(expected[keep], expected[~keep].sum()) if not keep.all() else expected
    stat = float(np.sum((obs - exp) ** 2 / exp))
    p_value = float(chdtrc(obs.size - 1, stat))
    _expect(p_value > 1e-9, f"n1 counts do not fit Binomial({m}, {p}): p = {p_value:g}")


def check_fixed_t_powerlaw(ref: References, path: str, stdout: str, seed: int,
                           n: int, t_total: float, mu0: float, alpha: float) -> None:
    """Every realization replayed from its Philox stream: m, T and L."""
    data = _columns(path, ("realization_index", "m", "total_time_s", "log_survival"), seed)
    _expect(data.shape[0] == n, f"{path}: {data.shape[0]} rows, expected {n}")
    _expect(np.array_equal(data[:, 0], np.arange(n)), "realization indices")
    want = np.array([oracle.replay_fixed_t_powerlaw(ref.system, seed, i, t_total, mu0, alpha)
                     for i in range(n)])
    _expect(np.array_equal(data[:, 1], want[:, 0]), "measurement counts differ from replay")
    _close(data[:, 2], want[:, 1], "total time", rel=1e-12)
    _close(data[:, 3], want[:, 2], "log survival")


# --- checks of `zenosim preset` ---------------------------------------------

def _typical_discrete(ref, values, probs, seed, m) -> float:
    lq = ref.log_q_atoms(values)
    logs = [oracle.replay_fixed_m_discrete(lq, probs, seed, i, m)[1]
            for i in range(TYPICAL_N)]
    return sorted(logs)[(TYPICAL_N - 1) // 2]


def _sigma_discrete(ref, values, probs, m) -> float:
    lq = np.array(ref.log_q_atoms(values))
    p = np.array(probs)
    return math.sqrt(m * float(np.dot(p, (lq - np.dot(p, lq)) ** 2)))


def _near_star(typical, star, sigma, what) -> None:
    dev = np.abs(np.asarray(typical) - np.asarray(star)) / np.asarray(sigma)
    _expect(np.all(dev <= TYPICAL_SIGMAS),
            f"{what}: typical is {np.max(dev):.1f} sigma from the most probable value")


def check_survival_vs_m(ref, path, stdout, seed, preset) -> None:
    values, probs = PRESET_ATOMS[preset]
    data = _columns(path, ("m", "log_P_typical", "log_P_star"), seed)
    _expect(np.array_equal(data[:, 0], M_SWEEP), "m sweep")
    lq = ref.log_q_atoms(values)
    star = [m * math.fsum(p * q for p, q in zip(probs, lq)) for m in M_SWEEP]
    _close(data[:, 2], star, f"{preset} log_P_star")
    typical = [_typical_discrete(ref, values, probs, seed, m) for m in M_SWEEP]
    _close(data[:, 1], typical, f"{preset} log_P_typical")
    _near_star(typical, star, [_sigma_discrete(ref, values, probs, m) for m in M_SWEEP], preset)


def check_concentration(ref, path, stdout, seed) -> None:
    values, probs = TWO_ATOM
    m = 2000
    data = _columns(path, ("realization_index", "log_P", "log_P_star"), seed)
    _expect(np.array_equal(data[:, 0], np.arange(100)), "realization indices")
    lq = ref.log_q_atoms(values)
    logs = [oracle.replay_fixed_m_discrete(lq, probs, seed, i, m)[1]
            for i in range(100)]
    _close(data[:, 1], logs, "fig2 log_P")
    _close(data[:, 2], np.full(100, m * (probs[0] * lq[0] + probs[1] * lq[1])), "fig2 log_P_star")


def check_probability_sweep(ref, path, stdout, seed) -> None:
    values, _ = TWO_ATOM
    m = 6400
    data = _columns(path, ("p1", "log_P_typical", "log_P_star"), seed)
    p1s = np.linspace(0.02, 0.98, 49)
    _close(data[:, 0], p1s, "fig3 p1", rel=1e-15)
    lq1, lq2 = ref.log_q_atoms(values)
    star = m * (p1s * lq1 + (1.0 - p1s) * lq2)
    _close(data[:, 2], star, "fig3 log_P_star")
    typical = [_typical_discrete(ref, values, (p, 1.0 - p), seed, m) for p in p1s]
    _close(data[:, 1], typical, "fig3 log_P_typical")
    sigma = [_sigma_discrete(ref, values, (p, 1.0 - p), m) for p in p1s]
    _near_star(typical, star, sigma, "fig3")


def check_powerlaw(ref, path, stdout, seed) -> None:
    data = _columns(path, ("alpha", "m", "log_P_typical", "log_P_star"), seed)
    _expect(np.array_equal(data[:, 0], np.repeat(FIG4_ALPHAS, len(M_SWEEP))), "alphas")
    _expect(np.array_equal(data[:, 1], np.tile(M_SWEEP, len(FIG4_ALPHAS))), "m sweep")
    per_m = (data[:, 3] / data[:, 1]).reshape(len(FIG4_ALPHAS), len(M_SWEEP))
    _close(per_m, np.repeat(per_m[:, :1], len(M_SWEEP), axis=1),
           "fig4 log_P_star/m must not depend on m", rel=1e-14)
    typical, sigma = [], []
    for alpha in FIG4_ALPHAS:
        # sd of ln q over a fixed sample of the law; it only scales the band
        u = oracle.stream(0, 0).random(200_000)
        sd = float(np.std(ref.system.log_q(oracle.powerlaw_times(u, 1 * NS, alpha))))
        for m in M_SWEEP:
            logs = [oracle.replay_fixed_m_powerlaw(ref.system, seed, i, m, 1 * NS, alpha)
                    for i in range(TYPICAL_N)]
            typical.append(sorted(logs)[(TYPICAL_N - 1) // 2])
            sigma.append(math.sqrt(m) * sd)
    _close(data[:, 2], typical, "fig4 log_P_typical")
    _near_star(typical, data[:, 3], sigma, "fig4")
    expected = [ref.powerlaw_log_q(alpha) for alpha in FIG4_ALPHAS]
    err = np.abs(per_m[:, 0] / expected - 1.0)
    if np.any(err > FIG4_REL_TOL):
        raise KnownFault(
            "fig4 E[ln q] off the independent quadrature by "
            + ", ".join(f"{e:.2g}" for e in err) + f" relative (alpha = {FIG4_ALPHAS})"
        )


def check_disorder(ref, path, stdout, seed, preset) -> None:
    if preset == "fig5":
        data = _columns(path, ("p1", "log_P_star", "log_P_equal", "ratio"), seed)
        p1 = np.linspace(0.005, 0.995, 199)
        _close(data[:, 0], p1, "fig5 p1", rel=1e-15)
        mu1 = np.full(p1.size, 10 * US)
        mu_bar = 2.4 * mu1
    else:
        data = _columns(path, ("mu1_s", "log_P_star", "log_P_equal", "ratio"), seed)
        mu1 = np.linspace(1.0, 250.0, 250) * NS
        _close(data[:, 0], mu1, "fig6 mu1", rel=1e-15)
        p1 = np.full(mu1.size, 0.99)
        mu_bar = 2.4 * mu1
    m = 100
    mu2 = (mu_bar - p1 * mu1) / (1.0 - p1)
    log_q = ref.system.log_q
    _close(data[:, 1], m * (p1 * log_q(mu1) + (1.0 - p1) * log_q(mu2)), f"{preset} log_P_star")
    _close(data[:, 2], m * log_q(mu_bar), f"{preset} log_P_equal")
    _close(data[:, 3], np.exp(data[:, 1] - data[:, 2]), f"{preset} ratio", rel=1e-12)


def check_rate(ref, path, stdout, seed, m, n, bins) -> None:
    """Explicit and tilting rates against the closed-form d = 2 rate, and the
    empirical histogram against a replay of every realization."""
    _, header, rows = read_csv(path, seed)
    _expect(header == ["series", "x", "rate", "count"], f"{path}: columns {header}")
    series = {}
    for name, x, rate, count in rows:
        series.setdefault(name, []).append((float(x), float(rate), count))
    values, (p1, p2) = TWO_ATOM
    lq1, lq2 = ref.log_q_atoms(values)
    lo, hi = min(lq1, lq2), max(lq1, lq2)
    eps = 1e-9 * (hi - lo)
    xs = np.linspace(lo + eps, hi - eps, 200)
    f1 = (lq2 - xs) / (lq2 - lq1)
    closed = f1 * np.log(f1 / p1) + (1.0 - f1) * np.log((1.0 - f1) / p2)
    for name in ("explicit", "tilting"):
        got = np.array([(x, r) for x, r, _ in series.get(name, [])])
        _expect(got.shape == (200, 2), f"{name} series has {got.shape[0]} points")
        _close(got[:, 0], xs, f"{name} x grid")
        _expect(np.all(np.abs(got[:, 1] - closed) <= REL_TOL * np.maximum(closed, 1e-3)),
                f"{name} rates differ from the closed form")
    tilt = np.array([r for _, r, _ in series["tilting"]])
    expl = np.array([r for _, r, _ in series["explicit"]])
    _expect(np.all(np.abs(tilt - expl) <= 1e-12 + REL_TOL * expl),
            "explicit and tilting rates disagree")

    counts = np.array([oracle.replay_fixed_m_discrete([lq1, lq2], (p1, p2),
                                                      seed, i, m)[0][0] for i in range(n)])
    x = (counts * lq1 + (m - counts) * lq2) / m
    x_lo, x_hi = float(x.min()), float(x.max())
    edges = np.linspace(x_lo, x_hi, bins + 1)
    width = edges[1] - edges[0]
    pos = (x - x_lo) / width
    strict = np.clip(np.floor(pos).astype(int), 0, bins - 1)
    # a value within round-off of an interior edge may fall on either side
    ambiguous = (np.abs(pos - np.rint(pos)) < 1e-6) & (np.rint(pos) > 0) & (np.rint(pos) < bins)
    emp = series.get("empirical", [])
    got_centers = np.array([c for c, _, _ in emp])
    got_counts = np.array([int(k) for _, _, k in emp])
    _expect(int(got_counts.sum()) == n, f"empirical counts sum to {got_counts.sum()}, not {n}")
    centers = 0.5 * (edges[:-1] + edges[1:])
    occupied = []
    for c in got_centers:
        k = int(np.argmin(np.abs(centers - c)))
        _close(c, centers[k], "empirical bin center", rel=1e-9)
        occupied.append(k)
    for k, count in zip(occupied, got_counts.tolist()):
        sure = int(np.sum((strict == k) & ~ambiguous))
        maybe = int(np.sum(ambiguous & ((np.rint(pos) == k) | (np.rint(pos) == k + 1))))
        _expect(sure <= count <= sure + maybe, f"empirical bin {k}: count {count}, "
                f"replay gives {sure}..{sure + maybe}")
    density = got_counts / (n * width)
    rates = -np.log(density) / m
    _close([r for _, r, _ in emp], rates - rates.min(), "empirical rates")


# --- workloads ---------------------------------------------------------------

def _ini(path: str, dist: str, run: str, csv_name: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{SYSTEM_INI}\n[distribution]\n{dist}\n[run]\n{run}\n"
                 f"[outputs]\ncsv = {csv_name}\n")
    return path


def _two_atom_ini() -> str:
    (mu1, mu2), (p1, p2) = TWO_ATOM
    return f"kind = discrete\nvalues = {mu1 / NS:g} ns, {mu2 / NS:g} ns\nprobs = {p1}, {p2}"


def command_seeds(seed: int, count: int) -> list[int]:
    """The zenosim master seeds a benchmark seed stands for."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint32)]


def build(name: str, seed: int, config_dir: str, ref: References,
          size: str = "full") -> list[Command]:
    """The commands of workload ``name`` for benchmark seed ``seed``."""
    sz = SIZES[size]
    os.makedirs(config_dir, exist_ok=True)
    seeds = command_seeds(seed, 10)
    commands = []
    if name == "ensemble_short":
        n, m, s = sz["short_n"], 20, seeds[0]
        ini = _ini(os.path.join(config_dir, "short.ini"), _two_atom_ini(),
                   f"mode = fixed_m\nm = {m}\nrealizations = {n}\nseed = {s}", "short.csv")
        commands.append(Command("run", ["run", ini], lambda out, so: check_fixed_m_two_atom(
            ref, os.path.join(out, "short.csv"), so, s, m, n, "chi2")))
    elif name == "ensemble_fixed_T":
        n, t_total, mu0, alpha, s = sz["fixed_t_n"], 2 * US, 1 * NS, 3.0, seeds[0]
        ini = _ini(os.path.join(config_dir, "fixed_t.ini"),
                   f"kind = powerlaw\nmu0 = 1 ns\nalpha = {alpha}",
                   f"mode = fixed_T\nt_total = 2 us\nrealizations = {n}\nseed = {s}", "fixed_t.csv")
        commands.append(Command("run", ["run", ini], lambda out, so: check_fixed_t_powerlaw(
            ref, os.path.join(out, "fixed_t.csv"), so, s, n, t_total, mu0, alpha)))
    elif name == "long_sequence":
        n, m, s = sz["long_n"], sz["long_m"], seeds[0]
        ini = _ini(os.path.join(config_dir, "long.ini"), _two_atom_ini(),
                   f"mode = fixed_m\nm = {m}\nrealizations = {n}\nseed = {s}", "long.csv")
        commands.append(Command("run", ["run", ini], lambda out, so: check_fixed_m_two_atom(
            ref, os.path.join(out, "long.csv"), so, s, m, n, "z"), short=False))
    elif name == "presets":
        checks = {
            "fig1-d2": lambda p, so, s: check_survival_vs_m(ref, p, so, s, "fig1-d2"),
            "fig1-d3": lambda p, so, s: check_survival_vs_m(ref, p, so, s, "fig1-d3"),
            "fig1-d4": lambda p, so, s: check_survival_vs_m(ref, p, so, s, "fig1-d4"),
            "fig2": lambda p, so, s: check_concentration(ref, p, so, s),
            "fig3": lambda p, so, s: check_probability_sweep(ref, p, so, s),
            "fig4": lambda p, so, s: check_powerlaw(ref, p, so, s),
            "fig5": lambda p, so, s: check_disorder(ref, p, so, s, "fig5"),
            "fig6": lambda p, so, s: check_disorder(ref, p, so, s, "fig6"),
        }
        for preset, s in zip(PRESET_NAMES, seeds):
            commands.append(Command(
                preset, ["preset", preset, "--seed", str(s)],
                lambda out, so, preset=preset, check=checks[preset], s=s:
                    check(os.path.join(out, f"{preset}.csv"), so, s),
                short=preset not in ("fig3", "fig4")))
        m, n, bins, s = sz["rate_m"], sz["rate_n"], 25, seeds[8]
        ini = _ini(os.path.join(config_dir, "rate.ini"), _two_atom_ini(),
                   f"mode = fixed_m\nm = {m}\nrealizations = {n}\nseed = {s}\nbins = {bins}",
                   "rate.csv")
        commands.append(Command("rate", ["rate", ini], lambda out, so: check_rate(
            ref, os.path.join(out, "rate.csv"), so, s, m, n, bins)))
    else:
        raise KeyError(f"unknown workload {name!r}")
    return commands


WORKLOADS = ("ensemble_short", "ensemble_fixed_T", "long_sequence", "presets")
