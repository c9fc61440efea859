"""Command-line front end emitting plot-ready delimited tables.

Three subcommands share one shape: build a parameter grid, evaluate it
into a :class:`Table` whose columns broadcast over the grid, and emit
one flat table as CSV or JSON.

* ``remote-prep``: conditional-state parameters of the heralded arm,
  from the closed forms at each grid point;
* ``teleport``: added noise, fidelity and efficiency threshold; the
  closed forms are evaluated once per axis value and broadcast over the
  grid, so the work grows with the axis lengths, not their product;
* ``oracle-check``: Gaussian engine vs number-basis brute force, with
  per-row discrepancies and a pass verdict (process exit 1 on any fail).

Floats are printed with 17 significant digits so the tables round-trip
exactly; each distinct cell of a column is formatted once.  Identical
parameters give byte-identical tables, equal to the scalar library
functions formatted row by row: every transcendental is taken with
``math``, and only exact arithmetic is broadcast.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .fock import condition_fock, gauss_hermite_grid, moments_fock, twb_fock
from .gaussian import photon_number, squeezing_from_photon_number, twb
from .measurement import HomodyneSetting, condition_homodyne
from .protocols import TeleportConfig, eta_threshold, fidelity_coherent, remote_prep

REMOTE_PREP_COLUMNS = (
    "r",
    "N",
    "eta",
    "x",
    "a_x_eta",
    "sigma1_sq",
    "sigma2_sq",
    "n_th",
    "r_squeeze",
    "is_squeezed",
    "density",
)
TELEPORT_COLUMNS = (
    "r",
    "gamma_t",
    "M",
    "eta",
    "kappa_sq",
    "fidelity",
    "eta_threshold",
    "beats_classical",
)
ORACLE_COLUMNS = (
    "lam",
    "eta",
    "x",
    "max_moment_err",
    "purity_err",
    "density_err",
    "pass",
)

# Comparison thresholds for oracle-check rows.
MOMENT_TOL = 1e-5
PURITY_TOL = 1e-4
DENSITY_TOL = 1e-6

DEFAULT_LEAKAGE_BOUND = 1e-6

_ORACLE_DEFAULTS = {
    "lam": (0.3, 1.0 / math.sqrt(3.0), 0.8),
    "eta": (0.6, 0.8, 1.0),
    "x": (-1.0, 0.0, 0.7),
    "cutoff": 40,
    "nodes": 40,
}


class ConfigurationError(ValueError):
    """Unusable parameter combination (usage error, process exit 2)."""


@dataclass(frozen=True)
class SweepSpec:
    """Resolved parameter grid for the closed-form sweeps.

    Exactly one of ``r`` or ``n`` must be given; the other is derived
    per value.  All fields are value tuples so a spec is hashable and
    the iteration order (r outermost, then gamma_t, thermal_photons,
    eta, x) is reproducible.
    """

    r: tuple[float, ...] | None = None
    n: tuple[float, ...] | None = None
    eta: tuple[float, ...] = (1.0,)
    x: tuple[float, ...] = (0.0,)
    gamma_t: tuple[float, ...] = (0.0,)
    thermal_photons: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if (self.r is None) == (self.n is None):
            raise ConfigurationError("exactly one of r or N must be given")

    def squeezing(self) -> list[float]:
        """r values, derived from N when N was given."""
        if self.r is not None:
            return [float(r) for r in self.r]
        return [squeezing_from_photon_number(float(n)) for n in self.n]

    def squeezing_column(self) -> list[tuple[float, float]]:
        """(r, N) pairs, deriving whichever of the two was not given."""
        if self.r is not None:
            return [(r, photon_number(r)) for r in self.squeezing()]
        return list(zip(self.squeezing(), (float(n) for n in self.n)))


@dataclass(frozen=True)
class Table:
    """Rows of a parameter grid, stored by column.

    Row i is grid point i in C order.  Each column is an array that
    broadcasts to ``shape``, so a column that varies along some axes
    only holds one value per point of those axes.  Cells are floats,
    bools, or, in an object array, floats mixed with a literal such as
    ``impossible``.
    """

    shape: tuple[int, ...]
    columns: dict[str, np.ndarray]

    def rows(self) -> list[dict]:
        """One dict of Python values per row, keyed in column order."""
        values = [np.broadcast_to(v, self.shape).ravel().tolist() for v in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*values)]


def _axes(*values) -> list[np.ndarray]:
    """Each value sequence as a float array along its own axis of the
    grid they span, in the order given."""
    return [
        np.asarray(v, dtype=float).reshape((-1,) + (1,) * (len(values) - 1 - k))
        for k, v in enumerate(values)
    ]


def _stack(points: list[dict], names, shape: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Per-point values, in C order over ``shape``, as one array per name."""
    return {name: np.reshape([p[name] for p in points], shape) for name in names}


def run_remote_prep_sweep(spec: SweepSpec) -> Table:
    """One row per (r, eta, x) grid point of heralded-state parameters."""
    pairs = spec.squeezing_column()
    r, eta, x = _axes([r for r, _ in pairs], spec.eta, spec.x)
    columns = {"r": r, "N": np.reshape([n for _, n in pairs], r.shape), "eta": eta, "x": x}
    points = []
    for r_value, _ in pairs:
        for eta_value in spec.eta:
            for x_value in spec.x:
                res = remote_prep(r_value, float(eta_value), float(x_value))
                points.append(
                    {
                        "a_x_eta": res.a_x_eta,
                        "sigma1_sq": res.sigma1_sq,
                        "sigma2_sq": res.sigma2_sq,
                        "n_th": res.n_th,
                        "r_squeeze": res.r_squeeze,
                        "is_squeezed": res.is_squeezed,
                        "density": res.outcome_density,
                    }
                )
    shape = (len(pairs), len(spec.eta), len(spec.x))
    return Table(shape, {**columns, **_stack(points, REMOTE_PREP_COLUMNS[4:], shape)})


def run_teleport_sweep(spec: SweepSpec) -> Table:
    """One row per (r, gamma_t, M, eta) grid point of teleport figures.

    One config holds the four axes as arrays, which validates each axis
    once; the closed forms broadcast over the grid.  r is derived from N
    when N was given; N itself is not needed.
    """
    axes = (spec.squeezing(), spec.gamma_t, spec.thermal_photons, spec.eta)
    r, gamma_t, m, eta = _axes(*axes)
    config = TeleportConfig(r, gamma_t, m, eta)
    fidelity = fidelity_coherent(config)
    columns = {
        "r": r,
        "gamma_t": gamma_t,
        "M": m,
        "eta": eta,
        "kappa_sq": config.kappa_sq,
        "fidelity": fidelity,
        "eta_threshold": eta_threshold(r, gamma_t, m),
        "beats_classical": fidelity > 0.5,
    }
    return Table(tuple(len(v) for v in axes), columns)


def run_oracle_check(
    lam_values,
    eta_values,
    x_values,
    cutoff: int = 40,
    nodes: int = 40,
    leakage_bound: float = DEFAULT_LEAKAGE_BOUND,
) -> Table:
    """Cross-validate Gaussian conditioning against the number basis.

    Every (lam, eta, x) grid point compares conditional quadrature
    moments, purity against the closed-form thermal occupation, and the
    record density.  Raises ConfigurationError when the truncation
    leaks more than ``leakage_bound`` for some requested lam.
    """
    lam_values = [float(v) for v in lam_values]
    eta_values = [float(v) for v in eta_values]
    x_values = [float(v) for v in x_values]
    if not (lam_values and eta_values and x_values):
        raise ConfigurationError("lam, eta and x grids must be nonempty")
    for lam in lam_values:
        if not 0.0 <= lam < 1.0:
            raise ConfigurationError(f"lam={lam} must lie in [0, 1)")
        leak = lam ** (2 * (cutoff + 1))
        if leak >= leakage_bound:
            raise ConfigurationError(
                f"cutoff {cutoff} leaks {leak:.3g} of lam={lam}; "
                f"bound is {leakage_bound:.3g}"
            )
    grid = gauss_hermite_grid(nodes)
    points = []
    for lam in lam_values:
        r = math.atanh(lam)
        beam = twb(r)
        fock_beam = twb_fock(lam, cutoff)
        for eta in eta_values:
            setting = HomodyneSetting(mode=0, phase=0.0, efficiency=eta)
            for x in x_values:
                outcome = condition_homodyne(beam, setting, x)
                gm = outcome.state.mean
                gc = outcome.state.cov
                density, rho = condition_fock(fock_beam, x, eta, grid)
                fm = moments_fock(rho)
                moment_err = float(
                    max(
                        abs(fm.mean_x - gm[0]),
                        abs(fm.mean_y - gm[1]),
                        abs(fm.var_x - gc[0, 0]),
                        abs(fm.var_y - gc[1, 1]),
                        abs(fm.cov_xy - gc[0, 1]),
                    )
                )
                n_th = remote_prep(r, eta, x).n_th
                purity_err = abs(fm.purity - 1.0 / (2.0 * n_th + 1.0))
                density_err = abs(density - outcome.probability_density)
                points.append(
                    {
                        "max_moment_err": moment_err,
                        "purity_err": purity_err,
                        "density_err": density_err,
                        "pass": bool(
                            moment_err <= MOMENT_TOL
                            and purity_err <= PURITY_TOL
                            and density_err <= DENSITY_TOL
                        ),
                    }
                )
    lam, eta, x = _axes(lam_values, eta_values, x_values)
    shape = (len(lam_values), len(eta_values), len(x_values))
    columns = {"lam": lam, "eta": eta, "x": x}
    return Table(shape, {**columns, **_stack(points, ORACLE_COLUMNS[3:], shape)})


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _format_cells(values: np.ndarray) -> np.ndarray:
    """:func:`_format_cell` of every element; a float array skips the
    type dispatch."""
    flat = values.ravel().tolist()
    text = map("%.17g".__mod__ if values.dtype == float else _format_cell, flat)
    return np.array(list(text), dtype=object).reshape(values.shape)


def rows_to_csv(table: Table, columns) -> str:
    """CSV text of ``columns``: each distinct cell is formatted once, at
    its column's own shape, and the text broadcast over the rows."""
    cells = [
        np.broadcast_to(_format_cells(table.columns[name]), table.shape).ravel().tolist()
        for name in columns
    ]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def rows_to_json(table: Table) -> str:
    return json.dumps(table.rows(), indent=2) + "\n"


def _parse_range(text: str, flag: str) -> tuple[float, ...]:
    """Accept 'a:b:n' (inclusive linspace), 'v1,v2,...' or a single value."""
    text = str(text).strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError
            return tuple(float(v) for v in np.linspace(start, stop, count))
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"{flag} expects a value, a comma list, or start:stop:count; got {text!r}"
        ) from None


def _values_from_spec(value, flag: str) -> tuple[float, ...]:
    """Range syntax for JSON spec files: scalar, list, range string or
    a {start, stop, count} object."""
    if isinstance(value, str):
        return _parse_range(value, flag)
    if isinstance(value, dict):
        missing = {"start", "stop", "count"} - set(value)
        if missing:
            raise ConfigurationError(f"{flag} range object lacks {sorted(missing)}")
        count = int(value["count"])
        if count < 1:
            raise ConfigurationError(f"{flag} count must be at least 1")
        return tuple(
            float(v) for v in np.linspace(float(value["start"]), float(value["stop"]), count)
        )
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return (float(value),)


def _load_spec_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError("spec file must hold a JSON object")
    return payload


def _merge(args: argparse.Namespace, spec: dict, key: str, default=None):
    """Flag value if given, else spec-file value, else default."""
    flag_value = getattr(args, key.replace("-", "_"), None)
    if flag_value is not None:
        return flag_value
    if key in spec:
        return spec[key]
    return default


def _grid_param(args, spec, key: str, default=None) -> tuple[float, ...] | None:
    value = _merge(args, spec, key)
    if value is None:
        return default
    if isinstance(value, str):
        return _parse_range(value, f"--{key}")
    return _values_from_spec(value, f"--{key}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="Twin-beam remote state preparation and teleportation tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grid_help = "values as start:stop:count, v1,v2,..., or a single number"

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path, or stdout")
        p.add_argument("--spec", default=None, help="JSON file of parameters")

    p_rp = sub.add_parser("remote-prep", help="heralded-state parameter sweep")
    p_rp.add_argument("--r", default=None, help=f"squeezing; {grid_help}")
    p_rp.add_argument("--N", default=None, help="total photon number, alternative to --r")
    p_rp.add_argument("--eta", default=None, help="homodyne efficiency in (0, 1]")
    p_rp.add_argument("--x", default=None, help="homodyne record values")
    add_common(p_rp)

    p_tp = sub.add_parser("teleport", help="teleportation figures of merit")
    p_tp.add_argument("--r", default=None, help=f"squeezing; {grid_help}")
    p_tp.add_argument("--N", default=None, help="total photon number, alternative to --r")
    p_tp.add_argument("--eta", default=None, help="detection efficiency in (0, 1]")
    p_tp.add_argument("--gamma-t", default=None, help="dimensionless damping time")
    p_tp.add_argument("--M", default=None, help="bath thermal occupation")
    add_common(p_tp)

    p_oc = sub.add_parser("oracle-check", help="Gaussian engine vs number basis")
    p_oc.add_argument("--lam", default=None, help="tanh(r) of the twin beam, in [0, 1)")
    p_oc.add_argument("--eta", default=None, help="homodyne efficiency in (0, 1]")
    p_oc.add_argument("--x", default=None, help="homodyne record values")
    p_oc.add_argument("--cutoff", type=int, default=None, help="number-basis cutoff per mode")
    p_oc.add_argument("--nodes", type=int, default=None, help="quadrature nodes for noisy records")
    add_common(p_oc)
    return parser


def _dispatch(args: argparse.Namespace, spec: dict):
    if args.command == "remote-prep":
        sweep = SweepSpec(
            r=_grid_param(args, spec, "r"),
            n=_grid_param(args, spec, "N"),
            eta=_grid_param(args, spec, "eta", (1.0,)),
            x=_grid_param(args, spec, "x", (0.0,)),
        )
        return run_remote_prep_sweep(sweep), REMOTE_PREP_COLUMNS
    if args.command == "teleport":
        sweep = SweepSpec(
            r=_grid_param(args, spec, "r"),
            n=_grid_param(args, spec, "N"),
            eta=_grid_param(args, spec, "eta", (1.0,)),
            gamma_t=_grid_param(args, spec, "gamma_t", (0.0,)),
            thermal_photons=_grid_param(args, spec, "M", (0.0,)),
        )
        return run_teleport_sweep(sweep), TELEPORT_COLUMNS
    table = run_oracle_check(
        _grid_param(args, spec, "lam", _ORACLE_DEFAULTS["lam"]),
        _grid_param(args, spec, "eta", _ORACLE_DEFAULTS["eta"]),
        _grid_param(args, spec, "x", _ORACLE_DEFAULTS["x"]),
        cutoff=int(_merge(args, spec, "cutoff", _ORACLE_DEFAULTS["cutoff"])),
        nodes=int(_merge(args, spec, "nodes", _ORACLE_DEFAULTS["nodes"])),
    )
    return table, ORACLE_COLUMNS


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value such as "-2:2:50" as an option; attach values
    # that start with a minus sign to their flag as --flag=value
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"-[\d.]", argv[i]) and argv[i - 1].startswith("--") and "=" not in argv[i - 1]:
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        spec = _load_spec_file(args.spec) if args.spec else {}
        table, columns = _dispatch(args, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = _merge(args, spec, "format", "csv")
    if fmt not in ("csv", "json"):
        print(f"error: unknown format {fmt!r}", file=sys.stderr)
        return 2
    text = rows_to_csv(table, columns) if fmt == "csv" else rows_to_json(table)
    out = _merge(args, spec, "out", "stdout")
    if out in ("stdout", "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.command == "oracle-check" and not table.columns["pass"].all():
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
