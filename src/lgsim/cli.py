"""Command-line front end: orchestration and result serialization.

Subcommands
    sweep              K over a uniform theta grid, with the closed-form
                       prediction and the per-point absolute error
    correlations       the three two-time correlators over the same grid
    noninvasive-check  ``max_disturbance`` of I/2, of |0><0| and of the
                       --populations mixture over 5 times spanning the
                       theta range
    tomography         the 16 Pauli coefficients of the input state and the
                       deviation-matrix fidelity against the ideal
    noise-check        K at theta = pi/3 with and without T2 dephasing

Each subcommand only chooses the parameters of library measurements.
Values flow defaults -> config file (--config, a flat JSON object mirroring
flag names) -> LGSIM_SEED (for the seed only) -> command-line flags, later
sources winning.  Every value goes through the same conversion, so a config
value must have its flag's type: integers for steps and seed (an integral
number such as 11.0 passes, 2.7 and true do not), numbers for the other
numeric options, JSON true/false for degrees, and strings for output and
format; a JSON string is read as the same text given to the flag.  Output is
CSV (default), JSON or SVG, written to --output or stdout; identical
configuration and seed produce byte-identical files.  CSV and JSON print
each number rounded to 9 decimals, with no negative zero (CSV in fixed
notation, JSON as the same rounded numbers); a NaN or infinite value, or an
SVG coordinate that overflows, exits 1 and writes nothing.

Exit codes: 0 success, 1 internal invariant failure, 2 usage error (an
--epsilon too small to normalize by, or below the 5e-7 floor under which
round-off spoils tomography, is one, and so are a --steps past a million and
a --noise-sigma whose noise overflows a tomography coefficient), 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .leggett_garg import (Evolution, ReferenceVanished, SweepResult, _first_bad,
                           analytic_k, find_violations, max_disturbance,
                           observable_from_state, sweep)
from .nmr import (PAULI_LABELS, DeviationVanished, NoiseOverflow, ReadoutNoise, T2Config,
                  _tomography, k_attenuation_check)
from .states import KET0, classical_mixture, maximally_mixed, pure_density

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3

TWO_PI = 2.0 * math.pi

COMMANDS = ("sweep", "correlations", "noninvasive-check", "tomography", "noise-check")
FORMATS = ("csv", "json", "svg")
# A sweep holds about 0.9 kB per step at its peak, so a million steps (about
# 0.9 GB) is the largest grid a run may ask for.
_MAX_STEPS = 1_000_000


class UsageError(Exception):
    """Bad flag or config value; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """A validated run; each field after ``command`` is one option, named as
    its flag and set to its default.  Out-of-range values raise UsageError."""

    command: str
    theta_min: float = 0.0
    theta_max: float = TWO_PI
    steps: int = 721
    epsilon: float = 1.0
    populations: tuple[float, float] = (0.5, 0.5)
    t2_probe: float = 3.0
    t2_system: float = 0.8
    duration: float = 0.01
    noise_sigma: float = 0.0
    seed: int = 42
    output: str | None = None
    format: str = "csv"
    degrees: bool = False

    def __post_init__(self):
        if self.steps < 2:
            raise UsageError(f"--steps: must be >= 2, got {self.steps}")
        if self.steps > _MAX_STEPS:
            raise UsageError(f"--steps: must be <= {_MAX_STEPS}, got {self.steps}")
        if not 0.0 < self.epsilon <= 1.0:
            raise UsageError(f"--epsilon: must be in (0, 1], got {self.epsilon}")
        if self.theta_min < 0.0:
            raise UsageError(f"--theta-min: must be >= 0, got {self.theta_min}")
        gap = Evolution(omega=1.0).energy_gap
        with np.errstate(over="ignore", invalid="ignore"):  # near the float limit
            # the grid as a sweep reports it, gap * (theta / gap): subnormal
            # spacings can round to 0 there
            gaps = np.diff(np.linspace(self.theta_min, self.theta_max, self.steps)
                           / gap * gap)
        if not (gaps > 0.0).all():
            raise UsageError("--theta-min/--theta-max: need min < max, with --steps "
                             "distinct points between them, got "
                             f"({self.theta_min}, {self.theta_max})")
        if self.t2_probe <= 0.0:
            raise UsageError(f"--t2-probe: must be > 0, got {self.t2_probe}")
        if self.t2_system <= 0.0:
            raise UsageError(f"--t2-system: must be > 0, got {self.t2_system}")
        if self.duration < 0.0:
            raise UsageError(f"--duration: must be >= 0, got {self.duration}")
        if self.noise_sigma < 0.0:
            raise UsageError(f"--noise-sigma: must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise UsageError(f"--seed: must be >= 0, got {self.seed}")
        if self.format not in FORMATS:
            raise UsageError(f"--format: must be csv, json or svg, got {self.format!r}")
        if self.format == "svg" and self.output is None:
            raise UsageError("--output: required when --format svg")
        if self.format == "svg" and self.command not in ("sweep", "correlations"):
            raise UsageError(f"--format: svg is not defined for {self.command!r}")


_OPTIONS = fields(RunConfig)[1:]


def _build_parser() -> argparse.ArgumentParser:
    """Split the command line into strings; ``_convert`` types them."""
    parser = argparse.ArgumentParser(
        prog="lgsim",
        description=(
            "Simulate the probe-qubit scattering circuit, evaluate the "
            "Leggett-Garg quantity K = C12 + C23 - C13, and serialize the "
            "results."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="PATH",
                        help="flat JSON file mirroring the flag names")
    parser.add_argument("--theta-min", dest="theta_min")
    parser.add_argument("--theta-max", dest="theta_max")
    parser.add_argument("--steps")
    parser.add_argument("--epsilon", help="probe pseudo-pure polarization, in (0, 1]")
    parser.add_argument("--populations", metavar="P0,P1",
                        help="system diagonal mixture, e.g. 0.5,0.5")
    parser.add_argument("--t2-probe", dest="t2_probe", metavar="SECONDS")
    parser.add_argument("--t2-system", dest="t2_system", metavar="SECONDS")
    parser.add_argument("--duration", metavar="SECONDS")
    parser.add_argument("--noise-sigma", dest="noise_sigma")
    parser.add_argument("--seed", help="readout-noise seed; LGSIM_SEED is the fallback")
    parser.add_argument("--output", "-o", metavar="PATH")
    parser.add_argument("--format", metavar="{" + ",".join(FORMATS) + "}")
    parser.add_argument("--degrees", action="store_true", default=None,
                        help="interpret supplied theta bounds as degrees")
    return parser


def _number(flag: str, raw, kind=float):
    """``raw`` converted by ``kind``.  Text is parsed as ``kind`` parses it;
    a JSON number must already be one (a float passes as an integer only if
    it is integral).  Booleans, NaN and the infinities (Python's ``json``
    accepts ``NaN`` and ``Infinity``) and anything else are usage errors
    naming ``flag``."""
    try:
        if isinstance(raw, bool) or (
            kind is int and isinstance(raw, float) and not raw.is_integer()
        ):
            raise TypeError
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"{flag}: expected {what}, got {raw!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{flag}: must be finite, got {value!r}")
    return value


def _parse_populations(flag: str, raw) -> tuple[float, float]:
    """``"P0,P1"`` text, or a list of two numbers (not text)."""
    if isinstance(raw, str):
        parts = raw.split(",")
    elif isinstance(raw, (list, tuple)):
        parts = list(raw)
        for part in parts:
            if isinstance(part, str):
                raise UsageError(f"{flag}: expected a number, got {part!r}")
    else:
        raise UsageError(f"{flag}: expected two comma-separated numbers")
    if len(parts) != 2:
        raise UsageError(f"{flag}: expected exactly two populations")
    p0, p1 = (_number(flag, part) for part in parts)
    try:
        classical_mixture(p0, p1)
    except ValueError:
        raise UsageError(f"{flag}: populations must be >= 0 and sum to 1") from None
    return p0, p1


def _convert(flag: str, kind: str, raw):
    """``raw`` (flag text, a ``--config`` JSON value, ``LGSIM_SEED`` or the
    default) as a value of the RunConfig field type ``kind``, the annotation
    as written (annotations are deferred here, so it is a string); a value of
    any other type is a usage error naming ``flag``."""
    if kind == "bool":
        if isinstance(raw, bool):
            return raw
        raise UsageError(f"{flag}: expected true or false, got {raw!r}")
    if kind.startswith("str"):
        if isinstance(raw, str) or (raw is None and kind == "str | None"):
            return raw
        raise UsageError(f"{flag}: expected a string, got {raw!r}")
    if kind.startswith("tuple"):
        return _parse_populations(flag, raw)
    return _number(flag, raw, int if kind == "int" else float)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config: {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"--config: {path} must hold a flat JSON object")
    names = {option.name for option in _OPTIONS}
    normalized = {}
    for key, value in data.items():
        dest = str(key).replace("-", "_")
        if dest not in names:
            raise UsageError(f"--config: unknown key {key!r}")
        normalized[dest] = value
    return normalized


def parse_config(argv: list[str], environ=None) -> RunConfig:
    """Resolve defaults, config file, environment and flags into a RunConfig.

    Later sources win; the winning raw value goes through ``_convert``
    whatever its source.
    """
    environ = os.environ if environ is None else environ
    ns = _build_parser().parse_args(argv)
    # Python 3.11's argparse drops the text of "--flag=--" and stores [];
    # put the "--" back so that it converts like the same config value.
    given = {name: "--" if value == [] else value for name, value in vars(ns).items()}
    flags = {name: value for name, value in given.items() if value is not None}
    env = {"seed": environ["LGSIM_SEED"]} if "LGSIM_SEED" in environ else {}
    file_values = _load_config_file(given["config"]) if given["config"] else {}

    values = {}
    for option in _OPTIONS:
        flag = "--" + option.name.replace("_", "-")
        label, raw = flag, option.default
        for where, source in ((flag, file_values), ("LGSIM_SEED", env), (flag, flags)):
            if option.name in source:
                label, raw = where, source[option.name]
        values[option.name] = _convert(label, option.type, raw)

    # --degrees converts user-supplied angles only; the defaults are radians.
    if values["degrees"]:
        for name in ("theta_min", "theta_max"):
            if name in flags or name in file_values:
                values[name] = math.radians(values[name])
    return RunConfig(command=ns.command, **values)


# --------------------------------------------------------------------------
# command implementations


def _compute(cfg: RunConfig):
    """Return (header, columns, sweep_results_or_None) for the command: one
    column per header name, a sequence of numbers or of str labels."""
    if cfg.command in ("sweep", "correlations"):
        results = sweep(Evolution(omega=1.0), classical_mixture(*cfg.populations),
                        cfg.epsilon, cfg.theta_min, cfg.theta_max, cfg.steps)
        header = ["theta", "c12", "c23", "c13"]
        columns = [results.theta, results.c12, results.c23, results.c13]
        if cfg.command == "sweep":
            # NaN past theta ~ 9e307, where 2 theta overflows; _printed reports it
            with np.errstate(over="ignore", invalid="ignore"):
                exact = analytic_k(results.theta)
            header += ["k", "k_analytic", "abs_error"]
            columns += [results.k, exact, np.abs(results.k - exact)]
        return header, columns, results

    if cfg.command == "noninvasive-check":
        evo, obs = Evolution(omega=1.0), observable_from_state(KET0)
        times = np.linspace(cfg.theta_min, cfg.theta_max, 5) / evo.energy_gap
        states = {"mixed": maximally_mixed(), "pure_zero": pure_density(KET0),
                  "configured": classical_mixture(*cfg.populations)}
        distances = [max_disturbance(rho, obs, evo, times, cfg.epsilon)
                     for rho in states.values()]
        return ["state", "max_trace_distance"], [list(states), distances], None

    if cfg.command == "tomography":
        record, fidelity = _tomography(
            cfg.epsilon, ReadoutNoise(sigma=cfg.noise_sigma, seed=cfg.seed))
        names = [f"c_{a}{b}" for a in PAULI_LABELS for b in PAULI_LABELS]
        values = np.append(record.coefficients.ravel(), fidelity)
        return ["name", "value"], [names + ["fidelity"], values], None

    if cfg.command == "noise-check":
        t2 = T2Config(t2_probe=cfg.t2_probe, t2_system=cfg.t2_system,
                      duration=cfg.duration)
        k_ideal, k_noisy = k_attenuation_check(t2, math.pi / 3.0, cfg.epsilon)
        header = ["theta", "k_ideal", "k_noisy", "ratio"]
        row = [math.pi / 3.0, k_ideal, k_noisy, k_noisy / k_ideal]
        return header, [[value] for value in row], None

    raise UsageError(f"unknown command {cfg.command!r}")


# --------------------------------------------------------------------------
# serialization


def _printed(header: list[str], columns) -> list[list]:
    """Each column as the values the CSV and JSON outputs print.

    Labels stay as they are.  Numbers are rounded to the 9 printed decimals
    first and the sign of zero is then dropped, so that round-off noise such
    as -1e-17 cannot print as a negative zero.  A NaN or an infinity raises
    ValueError naming its column.
    """
    printed = []
    for name, column in zip(header, columns):
        values = np.asarray(column)
        if values.dtype.kind == "U":
            printed.append(values.tolist())
            continue
        _first_bad(f"column {name!r} is not finite:", values, np.isfinite(values))
        printed.append([round(v, 9) + 0.0 for v in values.tolist()])
    return printed


def emit_csv(header: list[str], columns) -> str:
    printed = _printed(header, columns)
    row = ",".join("%s" if isinstance(c[0], str) else "%.9f" for c in printed)
    lines = [",".join(header)]
    lines.extend(row % values for values in zip(*printed))
    return "\n".join(lines) + "\n"


def emit_json(cfg: RunConfig, header: list[str], columns) -> str:
    payload = {
        "config": asdict(cfg),
        "rows": [dict(zip(header, values))
                 for values in zip(*_printed(header, columns))],
    }
    return json.dumps(payload, indent=2) + "\n"


# SVG geometry: fixed canvas, margins around the plot area.
_SVG_W, _SVG_H = 900, 520
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 70, 24, 28, 52

_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _svg_scales(theta_lo, theta_hi, y_lo, y_hi):
    pad = 0.08 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = _SVG_W - _SVG_ML - _SVG_MR
    plot_h = _SVG_H - _SVG_MT - _SVG_MB

    def sx(theta):
        with np.errstate(over="ignore"):
            return _SVG_ML + plot_w * (theta - theta_lo) / (theta_hi - theta_lo)

    def sy(value):
        return _SVG_MT + plot_h * (y_hi - value) / (y_hi - y_lo)

    return sx, sy, y_lo, y_hi


def emit_svg(cfg: RunConfig, results: SweepResult) -> str:
    """Self-contained SVG of the swept curves.

    For ``sweep``: the K(theta) polyline, the dashed classical bound K = 1,
    and one shaded band per violation interval.  For ``correlations``: the
    three correlator polylines.  No external references of any kind.  An x
    coordinate of a curve point or band edge that is not finite (theta near
    the float limit) raises ValueError.
    """
    thetas = results.theta
    if cfg.command == "sweep":
        series = [("K", results.k)]
        bands = find_violations(results)
    else:
        series = [("C12", results.c12), ("C23", results.c23), ("C13", results.c13)]
        bands = []
    y_lo = min(1.0, *(ys.min() for _, ys in series))
    y_hi = max(1.0, *(ys.max() for _, ys in series))
    sx, sy, y_lo, y_hi = _svg_scales(thetas[0], thetas[-1], y_lo, y_hi)
    xs = sx(thetas)
    band_xs = [(sx(lo), sx(hi)) for lo, hi in bands]
    every_x = np.append(xs, band_xs)
    _first_bad("SVG x coordinate is not finite:", every_x, np.isfinite(every_x))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
    ]
    for x0, x1 in band_xs:
        parts.append(
            f'<rect class="violation" x="{x0:.2f}" y="{_SVG_MT}" '
            f'width="{max(x1 - x0, 0.0):.2f}" '
            f'height="{_SVG_H - _SVG_MT - _SVG_MB}" '
            f'fill="#f4a7a3" fill-opacity="0.45"/>'
        )
    # axes
    x_axis_y = sy(0.0) if y_lo <= 0.0 <= y_hi else _SVG_H - _SVG_MB
    parts.append(
        f'<line x1="{_SVG_ML}" y1="{x_axis_y:.2f}" x2="{_SVG_W - _SVG_MR}" '
        f'y2="{x_axis_y:.2f}" stroke="#444444" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_SVG_ML}" y1="{_SVG_MT}" x2="{_SVG_ML}" '
        f'y2="{_SVG_H - _SVG_MB}" stroke="#444444" stroke-width="1"/>'
    )
    # classical bound K = 1
    parts.append(
        f'<line class="bound" x1="{_SVG_ML}" y1="{sy(1.0):.2f}" '
        f'x2="{_SVG_W - _SVG_MR}" y2="{sy(1.0):.2f}" stroke="#888888" '
        f'stroke-width="1" stroke-dasharray="6,4"/>'
    )
    xs = xs.tolist()
    for (label, values), color in zip(series, _CURVE_COLORS):
        points = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in zip(xs, sy(values).tolist())
        )
        parts.append(
            f'<polyline class="curve" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_SVG_W - _SVG_MR - 40}" '
            f'y="{sy(values[-1]) - 6:.2f}" font-size="13" '
            f'fill="{color}" font-family="sans-serif">{label}</text>'
        )
    # tick labels at the theta endpoints and the y extremes
    for theta in (thetas[0], thetas[-1]):
        parts.append(
            f'<text x="{sx(theta):.2f}" y="{_SVG_H - _SVG_MB + 18}" '
            f'font-size="12" text-anchor="middle" fill="#444444" '
            f'font-family="sans-serif">{theta:.3f}</text>'
        )
    for value in (y_lo, 1.0, y_hi):
        parts.append(
            f'<text x="{_SVG_ML - 8}" y="{sy(value) + 4:.2f}" font-size="12" '
            f'text-anchor="end" fill="#444444" '
            f'font-family="sans-serif">{value:.2f}</text>'
        )
    parts.append(
        f'<text x="{(_SVG_ML + _SVG_W - _SVG_MR) // 2}" '
        f'y="{_SVG_H - 14}" font-size="13" text-anchor="middle" '
        f'fill="#222222" font-family="sans-serif">theta = energy gap x '
        f'measurement spacing (rad)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_output(path: str | None, payload: str) -> None:
    data = payload.encode("utf-8")
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    with open(path, "wb") as fh:
        fh.write(data)


def run_command(cfg: RunConfig) -> int:
    try:
        header, columns, results = _compute(cfg)
        if cfg.format == "csv":
            payload = emit_csv(header, columns)
        elif cfg.format == "json":
            payload = emit_json(cfg, header, columns)
        else:
            payload = emit_svg(cfg, results)
    except (ReferenceVanished, DeviationVanished, NoiseOverflow) as exc:
        flag = "--noise-sigma" if isinstance(exc, NoiseOverflow) else "--epsilon"
        print(f"error: {flag}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    try:
        _write_output(cfg.output, payload)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help or malformed flags
        return int(exc.code or 0)
    return run_command(cfg)


if __name__ == "__main__":
    sys.exit(main())
