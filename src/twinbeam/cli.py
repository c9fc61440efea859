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

Parameters take one path.  A spec file's entries, overridden by the
flags given, merge into one dict; each value passes its kind's converter
(grid, integer, format or path) once, whether flag text or JSON; unset
ones take the defaults of :class:`SweepSpec` or :func:`run_oracle_check`.
``_PARAMS`` names each parameter once, for the parser and the spec keys.

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
    lam=(0.3, 1.0 / math.sqrt(3.0), 0.8),
    eta=(0.6, 0.8, 1.0),
    x=(-1.0, 0.0, 0.7),
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
    lam_values = [float(v) for v in lam]
    eta_values = [float(v) for v in eta]
    x_values = [float(v) for v in x]
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


def _linspace(start: float, stop: float, count: int) -> tuple[float, ...]:
    """``count`` evenly spaced values from ``start`` to ``stop`` inclusive."""
    if count < 1:
        raise ConfigurationError("a range needs a count of at least 1")
    return tuple(np.linspace(start, stop, count).tolist())


def _parse_range(text: str, flag: str) -> tuple[float, ...]:
    """Accept 'a:b:n' (inclusive linspace), 'v1,v2,...' or a single value."""
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            return _linspace(float(start), float(stop), _integer(count, flag))
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"{flag} expects a value, a comma list, or start:stop:count; got {text!r}"
        ) from None


def _number(value, flag: str) -> float:
    if type(value) in (int, float):  # a bool is not a number here
        return float(value)
    raise ConfigurationError(f"{flag} expects numbers; got {value!r}")


def _integer(value, flag: str) -> int:
    """An integer, or its decimal text; a float or a bool is not one."""
    try:
        if isinstance(value, str) or type(value) is int:
            return int(value)
    except ValueError:
        pass
    raise ConfigurationError(f"{flag} expects an integer; got {value!r}")


def _grid(value, flag: str) -> tuple[float, ...]:
    """Grid values from range text, a list of numbers, a {start, stop,
    count} object or one number."""
    if isinstance(value, str):
        return _parse_range(value, flag)
    if isinstance(value, dict):
        missing = {"start", "stop", "count"} - set(value)
        if missing:
            raise ConfigurationError(f"{flag} range object lacks {sorted(missing)}")
        bounds = (_number(value["start"], flag), _number(value["stop"], flag))
        return _linspace(*bounds, _integer(value["count"], f"{flag} count"))
    if isinstance(value, list):
        return tuple(_number(v, flag) for v in value)
    return (_number(value, flag),)


def _format(value, flag: str) -> str:
    if value in ("csv", "json"):
        return value
    raise ConfigurationError(f"{flag} expects csv or json; got {value!r}")


def _path(value, flag: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigurationError(f"{flag} expects a path; got {value!r}")


# Every parameter: name -> (keyword of the function that runs it,
# converter, help).  The name is a spec file's key and, with '-' for '_', the flag.
_PARAMS = {
    "r": ("r", _grid, "squeezing; values as start:stop:count, v1,v2,..., or a single number"),
    "N": ("n", _grid, "total photon number, alternative to --r"),
    "eta": ("eta", _grid, "detection efficiency in (0, 1]"),
    "x": ("x", _grid, "homodyne record values"),
    "gamma_t": ("gamma_t", _grid, "dimensionless damping time"),
    "M": ("thermal_photons", _grid, "bath thermal occupation"),
    "lam": ("lam", _grid, "tanh(r) of the twin beam, in [0, 1)"),
    "cutoff": ("cutoff", _integer, "number-basis cutoff per mode"),
    "nodes": ("nodes", _integer, "quadrature nodes for noisy records"),
    "format": ("format", _format, "csv (default) or json"),
    "out": ("out", _path, "output path, or stdout (default)"),
}

# subcommand -> (help, the parameters besides format and out)
_COMMANDS = {
    "remote-prep": ("heralded-state parameter sweep", ("r", "N", "eta", "x")),
    "teleport": ("teleportation figures of merit", ("r", "N", "eta", "gamma_t", "M")),
    "oracle-check": ("Gaussian engine vs number basis", ("lam", "eta", "x", "cutoff", "nodes")),
}


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
    unknown = sorted(set(payload) - set(_PARAMS))
    if unknown:
        raise ConfigurationError(f"spec file keys {unknown} name no flag; keys are {list(_PARAMS)}")
    return payload


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="Twin-beam remote state preparation and teleportation tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        # flags not given stay out of the namespace, so they override nothing
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for name in (*names, "format", "out"):
            p.add_argument(_flag(name), help=_PARAMS[name][2])
        p.add_argument("--spec", help="JSON file of parameters; flags override it")
    return parser


def _run(command: str, values: dict) -> tuple[Table, tuple[str, ...]]:
    if command == "oracle-check":
        return run_oracle_check(**values), ORACLE_COLUMNS
    if command == "teleport":
        return run_teleport_sweep(SweepSpec(**values)), TELEPORT_COLUMNS
    return run_remote_prep_sweep(SweepSpec(**values)), REMOTE_PREP_COLUMNS


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value such as "-2:2:50" as an option; attach values
    # that start with a minus sign to their flag as --flag=value
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"-[\d.]", argv[i]) and argv[i - 1].startswith("--") and "=" not in argv[i - 1]:
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        flags = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    command = flags.pop("command")
    names = (*_COMMANDS[command][1], "format", "out")
    try:
        spec = _load_spec_file(flags.pop("spec")) if "spec" in flags else {}
        # a sibling subcommand's keys are ignored, so one file serves several
        given = {name: v for name, v in spec.items() if name in names} | flags
        values = {_PARAMS[name][0]: _PARAMS[name][1](v, _flag(name)) for name, v in given.items()}
        fmt, out = values.pop("format", "csv"), values.pop("out", "stdout")
        table, columns = _run(command, values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = rows_to_csv(table, columns) if fmt == "csv" else rows_to_json(table)
    if out in ("stdout", "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 2
    if command == "oracle-check" and not table.columns["pass"].all():
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
