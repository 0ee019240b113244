"""Command-line front end.

Three subcommands: ``region`` prints the fair allocation interval and the
capacities at its endpoints for one channel pair, ``figure`` sweeps a grid
and writes one CSV per canonical figure (closed forms next to Monte Carlo
estimates) together with a JSON manifest that reproduces the run, and
``multiuser`` prints the K-user minimum and full power vectors with their
fairness slacks. A figure is defined in one place, the ``_FIGURES`` table:
its defaults, its sweep, its closed forms, its columns and its plot style.

Decibels exist only at this boundary: every flag named ``--xi-db`` is
converted to linear SNR on entry and echoed in both forms. CSV cells carry
17 significant digits so doubles round-trip. Exit codes: 0 ok, 1 domain
error or numerical failure (a closed form that cannot meet its error
target), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (DomainError, QuadratureError, _is_integer, _is_real,
                     _require_int, _require_positive, _require_real)
from .ergodic import ergodic_curve_point, high_snr_ergodic_approx
from .mcsim import (STREAM_VERSION, SimConfig, _ordered_gains, _require_grid,
                    _substream, simulate)
from .multiuser import (
    ChannelSet,
    full_alloc_a,
    min_alloc_b,
    noma_capacity_k,
    oma_capacity_k,
)
from .outage import outage_point
from .pairing import expected_gain_asup
from .twouser import (
    ChannelPair,
    SystemParams,
    fair_region,
    noma_capacity_strong,
    noma_capacity_weak,
    oma_capacity,
)

OUT_DIR_ENV = "FAIRNOMA_OUT_DIR"

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _txt(x: float) -> str:
    return format(float(x), ".12g")


def _db_to_linear(db: float) -> float:
    """The linear SNR of ``db`` decibels, or DomainError naming the dB value
    unless it is finite and its linear SNR a positive double."""
    if not math.isfinite(db):
        raise DomainError(f"SNR in dB must be finite, got {db!r}")
    try:
        xi = 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"SNR of {db!r} dB overflows a double") from None
    if xi == 0.0:
        raise DomainError(f"SNR of {db!r} dB underflows to 0")
    return xi


def _linear_to_db(xi: float) -> float:
    return 10.0 * math.log10(xi)


def _list_of(kind: type) -> Callable[[str], tuple]:
    """An argparse type: a comma list of ``kind`` values, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _simd_class() -> str:
    """The class of loops numpy dispatches in this process, which with
    numpy's version fixes the last bits of a figure: on x86-64, its AVX-512
    (``X86_V4``) loops or its baseline ones (turning off ``X86_V3`` as well
    moved no bit of figure 1); on any other architecture, the machine's
    name."""
    machine = platform.machine()
    if machine not in ("x86_64", "AMD64"):
        return machine
    from numpy._core._multiarray_umath import __cpu_features__
    return ("x86_64-avx512_skx" if __cpu_features__.get("X86_V4")
            else "x86_64-baseline")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_text(header: str, rows: list) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c)
                              for c in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# region


def cmd_region(args: argparse.Namespace) -> int:
    xi = _db_to_linear(args.xi_db) if args.xi is None else args.xi
    g1, g2 = _require_positive("g1", args.g1), _require_positive("g2", args.g2)
    if g1 > g2:
        print("warning: g1 > g2, swapping so g1 is the weaker user",
              file=sys.stderr)
        g1, g2 = g2, g1
    region = fair_region(SystemParams(xi=xi), ChannelPair(g1=g1, g2=g2))

    lines = [
        f"xi = {_txt(xi)} ({_txt(_linear_to_db(xi))} dB)",
        f"g1 = {_txt(g1)}",
        f"g2 = {_txt(g2)}",
        f"a_inf = {_txt(region.a_inf)}",
        f"a_sup = {_txt(region.a_sup)}",
        f"width = {_txt(region.width)}",
    ]
    if g1 == g2:
        lines.append("note: degenerate region (g1 = g2), a_inf = a_sup")
    lines.append("capacities (b/s/Hz):")
    lines.append("share    c1_weak            c2_strong")
    rows = [
        ("oma", oma_capacity(xi, g1), oma_capacity(xi, g2)),
        ("a_inf", noma_capacity_weak(xi, g1, region.a_inf),
         noma_capacity_strong(xi, g2, region.a_inf)),
        ("a_sup", noma_capacity_weak(xi, g1, region.a_sup),
         noma_capacity_strong(xi, g2, region.a_sup)),
    ]
    for name, c1, c2 in rows:
        lines.append(f"{name:<8} {_txt(c1):<18} {_txt(c2)}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# figure


# xi_db is a sweep except for the K-sweep figures 3 and 5, which pin a
# single SNR
_XI_SWEEP = tuple(float(d) for d in range(0, 61, 2))
_K_SWEEP = tuple(range(2, 31))
_COMMON_DEFAULTS = {"trials": 1_000_000, "seed": 12345, "beta": 1.0}


def _system_params(pt, p: dict) -> SystemParams:
    # r0 only for the figure that takes it; the others keep the default
    return SystemParams(xi=pt.xi, **{key: p[key] for key in ("beta", "r0")
                                     if key in p})


def _ergodic(pt, p: dict) -> dict:
    params = _system_params(pt, p)
    cf = vars(ergodic_curve_point(params))
    ap1, ap2 = high_snr_ergodic_approx(params)
    return {**cf, "approx_c1": ap1, "approx_c2": ap2}


class _Figure(NamedTuple):
    """One figure: its parameters beyond ``_COMMON_DEFAULTS``, the scenario
    of its sweep, the closed forms of a grid point
    (``closed_form(point, params)``, a dict) if it has any, and its CSV
    columns after the x column as (name, source) pairs. A column named
    ``*_mc`` is the Monte Carlo mean of the measure ``source``, any other
    the closed form ``source``. The x column is ``k`` if the figure sweeps
    ``k_grid``, else ``xi_db``."""

    defaults: dict
    scenario: str
    closed_form: Callable | None
    columns: tuple
    plot: tuple = ("plot", "b/s/Hz")   # pyplot function, y-axis label


_FIGURES = {
    1: _Figure({"xi_db": _XI_SWEEP}, "pair_iid", _ergodic, (
        ("e_c1_oma", "e_c1_oma"), ("e_c2_oma", "e_c2_oma"),
        ("e_c1_noma_ainf_cf", "e_c1_noma_ainf"),
        ("e_c2_noma_asup_cf", "e_c2_noma_asup"),
        ("e_c1_noma_ainf_mc", "c1_noma_ainf"),
        ("e_c2_noma_asup_mc", "c2_noma_asup"),
        ("approx_c1", "approx_c1"), ("approx_c2", "approx_c2"))),
    2: _Figure({"xi_db": _XI_SWEEP, "r0": 2.0}, "pair_iid",
               lambda pt, p: vars(outage_point(_system_params(pt, p))), (
        ("p_oma_weak_cf", "p_oma_weak"), ("p_oma_strong_cf", "p_oma_strong"),
        ("p_noma_weak_ainf_cf", "p_noma_weak_ainf"),
        ("p_noma_strong_asup_cf", "p_noma_strong_asup"),
        ("p_oma_weak_mc", "p_oma_weak"), ("p_oma_strong_mc", "p_oma_strong"),
        ("p_noma_weak_ainf_mc", "p_noma_weak_ainf"),
        ("p_noma_strong_asup_mc", "p_noma_strong_asup"),
        ("p_noma_weak_mid_mc", "p_noma_weak_mid"),
        ("p_noma_strong_mid_mc", "p_noma_strong_mid")),
        plot=("semilogy", "outage probability")),
    3: _Figure({"xi_db": (50.0,), "k_grid": _K_SWEEP}, "pair_minmax", None, (
        ("c_min_oma_mc", "c1_oma"), ("c_max_oma_mc", "c2_oma"),
        ("c_min_ainf_mc", "c1_noma_ainf"), ("c_max_ainf_mc", "c2_noma_ainf"),
        ("c_min_asup_mc", "c1_noma_asup"), ("c_max_asup_mc", "c2_noma_asup"))),
    4: _Figure({"xi_db": _XI_SWEEP, "k": 10, "fixed_share": 0.2},
               "pair_minmax", None, (
        ("s_oma_mc", "s_oma"), ("s_ainf_mc", "s_noma_ainf"),
        ("s_asup_mc", "s_noma_asup"), ("s_fixed_mc", "s_noma_fixed"))),
    5: _Figure({"xi_db": (50.0,), "k_grid": _K_SWEEP, "fixed_share": 0.2},
               "pair_minmax",
               lambda pt, p: {"gain_asup": expected_gain_asup(pt.k)}, (
        ("ds_ainf_mc", "ds_ainf"), ("ds_asup_mc", "ds_asup"),
        ("ds_fixed_mc", "ds_fixed"), ("gain_asup_cf", "gain_asup"))),
    6: _Figure({"xi_db": _XI_SWEEP, "k": 5}, "multiuser", None,
               (("e_sum_b_mc", "sum_b"),),
               plot=("plot", "mean total power fraction")),
}


def _is_list_of(check):
    return lambda value: (isinstance(value, (list, tuple))
                          and all(map(check, value)))


# the type each figure parameter must have, checked before any conversion so
# a config value is never coerced (2.5 to 2, true to 1)
_PARAM_TYPES = {
    "trials": ("an integer", _is_integer),
    "seed": ("an integer", _is_integer),
    "k": ("an integer", _is_integer),
    "k_grid": ("a list of integers", _is_list_of(_is_integer)),
    "xi_db": ("a number or a list of numbers",
              lambda v: _is_real(v) or _is_list_of(_is_real)(v)),
    "beta": ("a number", _is_real),
    "r0": ("a number", _is_real),
    "fixed_share": ("a number", _is_real),
}


def _resolve_figure_params(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags; strict on keys (a
    flag or key the figure does not take is an error) and on value
    types."""
    cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:   # bad JSON, or bytes that are not UTF-8
                raise _Usage(f"config file {args.config} is not valid JSON:"
                             f" {exc}")
        if isinstance(data, dict) and "command" in data:
            # a manifest re-runs on its own stream only; one written before
            # stream 2 records no version
            found = data.get("stream_version", "1 (none recorded)")
            if found != STREAM_VERSION:
                raise _Usage(f"manifest {args.config} was drawn from random "
                             f"stream version {found}, but this build draws "
                             f"stream version {STREAM_VERSION}")
            # its bytes also depend on these two, but only in the last bits
            running = (np.__version__, _simd_class())
            recorded = (data.get("numpy", running[0]),
                        data.get("simd_class", running[1]))
            if recorded != running:
                print(f"warning: manifest {args.config} was written with numpy"
                      f" {recorded[0]} and SIMD class {recorded[1]}; this is"
                      f" numpy {running[0]} and SIMD class {running[1]}, so"
                      f" the last bits may differ", file=sys.stderr)
            data = data.get("config", {})
        if not isinstance(data, dict):
            raise _Usage(f"config file {args.config} must hold a JSON object,"
                         f" got {type(data).__name__}")
        cfg = data

    figure = args.figure
    if figure is None:
        figure = cfg.get("figure")
    if not _is_integer(figure) or figure not in _FIGURES:
        raise _Usage(f"figure must be one of {list(_FIGURES)}, "
                     f"got {figure!r}")

    resolved = dict(_COMMON_DEFAULTS)
    resolved["figure"] = figure
    resolved.update(_FIGURES[figure].defaults)
    # a null config value is a value, and fails its type check below; an
    # unset flag is None
    given = dict(cfg)
    given.update((key, getattr(args, key)) for key in _PARAM_TYPES
                 if getattr(args, key) is not None)
    given.pop("figure", None)
    unknown = sorted(set(given) - set(resolved))
    if unknown:
        raise _Usage(f"unknown parameter(s) {unknown} for figure {figure}; "
                     f"expected some of {sorted(resolved)}")
    resolved.update(given)
    for key, (kind, check) in _PARAM_TYPES.items():
        if key in resolved and not check(resolved[key]):
            raise _Usage(f"{key} must be {kind}, got {resolved[key]!r}")

    xi_db = resolved["xi_db"]
    xi_db = (xi_db,) if _is_real(xi_db) else xi_db
    resolved["xi_db"] = tuple(_require_real("xi_db", d) for d in xi_db)
    if "k_grid" in resolved:
        resolved["k_grid"] = tuple(resolved["k_grid"])
        if len(resolved["xi_db"]) != 1:
            raise _Usage(f"figure {figure} sweeps K at a single --xi-db")
    if resolved["trials"] < 1:
        raise _Usage(f"trials must be a positive integer, "
                     f"got {resolved['trials']!r}")
    return resolved


def _figure_rows(fig: _Figure, p: dict, workers) -> tuple:
    """The CSV header and rows of ``fig`` for the figure parameters ``p``."""
    # xi_db becomes the linear xi_grid and the single K of figures 4 and 6
    # a one-point k_grid; every other parameter but the figure id is a
    # SimConfig field of the same name
    fields = {key: value for key, value in p.items()
              if key not in ("figure", "xi_db", "k")}
    if "k" in p:
        # checked here, so the error names the parameter the user set
        _require_int("k", p["k"], 2 if fig.scenario == "pair_minmax" else 1)
        fields["k_grid"] = (p["k"],)
    # looked up as a module global on every call, so a wrapper put in its
    # place sees the figure's sweep
    # the grid is checked here too, so its errors name xi_db and its values
    xi_grid = _require_grid("xi_db", p["xi_db"],
                            lambda _, db: _db_to_linear(db))
    points = simulate(
        SimConfig(xi_grid=xi_grid, scenario=fig.scenario, **fields), workers,
        measures={src for name, src in fig.columns if name.endswith("_mc")})
    x = "k" if "k_grid" in fig.defaults else "xi_db"
    rows = []
    for x_value, pt in zip([pt.k for pt in points] if x == "k"
                           else p["xi_db"], points):
        cf = fig.closed_form(pt, p) if fig.closed_form else {}
        rows.append([x_value] + [pt.measures[src].mean if name.endswith("_mc")
                                 else cf[src] for name, src in fig.columns])
    return ",".join([x] + [name for name, _ in fig.columns]), rows


def _plot_script(figure: int, csv_name: str, header: str) -> str:
    cols = header.split(",")
    plot_fn, ylabel = _FIGURES[figure].plot
    return f'''"""Plot {csv_name}."""

import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(Path(__file__).with_name("{csv_name}").open()))
x = [float(r["{cols[0]}"]) for r in rows]
fig, ax = plt.subplots()
for col in {cols[1:]!r}:
    ax.{plot_fn}(x, [float(r[col]) for r in rows], label=col)
ax.set_xlabel("{cols[0]}")
ax.set_ylabel("{ylabel}")
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig(Path(__file__).with_name("figure{figure}.png"), dpi=150)
'''


def cmd_figure(args: argparse.Namespace) -> int:
    p = _resolve_figure_params(args)
    if args.workers is not None and args.workers < 1:
        raise _Usage(f"--workers must be at least 1, got {args.workers}")
    figure = p["figure"]
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)

    header, rows = _figure_rows(_FIGURES[figure], p, args.workers)

    csv_name = f"figure{figure}.csv"
    csv_path = os.path.join(out_dir, csv_name)
    _write_text(csv_path, _csv_text(header, rows))
    outputs = [csv_name]

    if args.plot:
        plot_name = f"figure{figure}_plot.py"
        _write_text(os.path.join(out_dir, plot_name),
                    _plot_script(figure, csv_name, header))
        outputs.append(plot_name)

    manifest = {
        "command": "figure",
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in sorted(p.items())},
        "tool_version": __version__,
        "stream_version": STREAM_VERSION,
        "numpy": np.__version__,
        "simd_class": _simd_class(),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "output_paths": outputs,
    }
    manifest_path = os.path.join(out_dir, f"figure{figure}_manifest.json")
    _write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")

    print(f"wrote {csv_path} ({len(rows)} rows) and {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# multiuser


def cmd_multiuser(args: argparse.Namespace) -> int:
    xi = _db_to_linear(args.xi_db) if args.xi is None else args.xi
    k = args.k
    _require_positive("xi", xi)
    head = f"k = {k}, xi = {_txt(xi)} ({_txt(_linear_to_db(xi))} dB)"
    if args.gains is not None:
        if args.seed is not None or args.beta is not None:
            raise _Usage("--seed and --beta shape the --random draw only,"
                         " not given --gains")
        if len(args.gains) != k:
            raise _Usage(f"--gains lists {len(args.gains)} values but --k is {k}")
        gains = tuple(sorted(args.gains))
    else:
        seed = _COMMON_DEFAULTS["seed"] if args.seed is None else args.seed
        beta = _COMMON_DEFAULTS["beta"] if args.beta is None else args.beta
        # checked here, as numpy's own ValueError would escape main
        _require_int("seed", seed, 0, 2 ** 64)
        _require_positive("beta", beta)
        if k < 1:
            raise DomainError(f"need at least one user, got --k {k}")
        # the one trial of chunk 0 of figure 6's substream; xi scales the
        # gains only after the draw
        rng = _substream(seed, "multiuser", 0)
        gains = tuple(_ordered_gains(rng, beta, np.empty((k, 1))).ravel())
        head += f", beta = {_txt(beta)}"
    channels = ChannelSet(gains=gains)

    b = min_alloc_b(xi, channels)
    a = full_alloc_a(xi, channels)
    sum_a = math.fsum(a.coeffs)
    lines = [
        head,
        "gains (ascending) = " + ",".join(_txt(g) for g in gains),
        "b = " + ",".join(_txt(c) for c in b.coeffs),
        f"sum_b = {_txt(math.fsum(b.coeffs))}  residual_b = {_txt(b.residual)}",
        "a = " + ",".join(_txt(c) for c in a.coeffs),
        f"sum_a = {_txt(sum_a)}  residual_a = {_txt(a.residual)}",
        f"sum_a <= 1: {'OK' if sum_a <= 1.0 + 1e-12 else 'VIOLATED'}",
    ]
    if k == 2:
        region = fair_region(SystemParams(xi=xi),
                             ChannelPair(g1=gains[0], g2=gains[1]))
        lines.append(f"pair check: 1 - a_1 = {_txt(1.0 - a.coeffs[0])} "
                     f"(two-user a_sup = {_txt(region.a_sup)})")
    lines.append("user  c_oma              c_noma_b           slack_b"
                 "            c_noma_a           slack_a")
    rates = zip(oma_capacity_k(xi, channels), noma_capacity_k(xi, channels, b),
                noma_capacity_k(xi, channels, a))
    for i, (co, cb, ca) in enumerate(rates, 1):
        lines.append(f"{i:<5} {_txt(co):<18} {_txt(cb):<18} "
                     f"{_txt(cb - co):<18} {_txt(ca):<18} {_txt(ca - co)}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


class _Usage(Exception):
    """Invalid flag combination detected after argparse."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairnoma",
        description="Fair power allocation for downlink NOMA: allocation "
                    "regions, capacity and outage curves, pairing gains, "
                    "K-user power vectors.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser(
        "region", help="fair allocation interval for one channel pair")
    snr = region.add_mutually_exclusive_group(required=True)
    snr.add_argument("--xi-db", type=float, help="transmit SNR in dB")
    snr.add_argument("--xi", type=float, help="transmit SNR, linear")
    region.add_argument("--g1", type=float, required=True,
                        help="weaker channel SNR gain")
    region.add_argument("--g2", type=float, required=True,
                        help="stronger channel SNR gain")
    region.set_defaults(func=cmd_region)

    figure = sub.add_parser(
        "figure", help="write one canonical figure as CSV plus manifest")
    figure.add_argument("figure", type=int, choices=_FIGURES, nargs="?",
                        help="figure id (may come from --config instead)")
    figure.add_argument("--trials", type=int)
    figure.add_argument("--seed", type=int)
    figure.add_argument("--beta", type=float)
    figure.add_argument("--r0", type=float, help="target rate, figure 2")
    figure.add_argument("--k", type=int, help="user count, figures 4 and 6")
    figure.add_argument("--k-grid", type=_list_of(int), dest="k_grid",
                        help="comma list of K values, figures 3 and 5")
    figure.add_argument("--xi-db", type=_list_of(float), dest="xi_db",
                        help="comma list of SNR points in dB")
    figure.add_argument("--fixed-share", type=float, dest="fixed_share",
                        help="benchmark strong-user share, figures 4 and 5")
    figure.add_argument("--config", help="JSON config or manifest to re-run")
    figure.add_argument("--out-dir", dest="out_dir",
                        help=f"output directory (default ${OUT_DIR_ENV} or .)")
    figure.add_argument("--workers", type=int,
                        help="simulation threads, at most the CPU count "
                             "and the chunks of the sweep")
    figure.add_argument("--plot", action="store_true",
                        help="also write a matplotlib script")
    figure.set_defaults(func=cmd_figure)

    multi = sub.add_parser(
        "multiuser", help="K-user minimum and full power vectors")
    multi.add_argument("--k", type=int, required=True)
    snr = multi.add_mutually_exclusive_group(required=True)
    snr.add_argument("--xi-db", type=float)
    snr.add_argument("--xi", type=float)
    gains = multi.add_mutually_exclusive_group(required=True)
    gains.add_argument("--gains", type=_list_of(float),
                       help="comma list of K channel gains")
    gains.add_argument("--random", action="store_true",
                       help="draw K exponential gains")
    for flag, kind in (("seed", int), ("beta", float)):
        multi.add_argument(f"--{flag}", type=kind, help="--random only;"
                           f" default {_COMMON_DEFAULTS[flag]}")
    multi.set_defaults(func=cmd_multiuser)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, QuadratureError) as exc:
        # keep the error to one line whatever the message holds
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
