"""Command-line front end emitting plot-ready delimited tables.

Three subcommands share one shape: build a parameter grid, evaluate it
into a :class:`Table` whose columns broadcast over the grid, and emit
one flat table as CSV or JSON.

* ``remote-prep``: conditional-state parameters of the heralded arm;
* ``teleport``: added noise, fidelity and efficiency threshold;
* ``oracle-check``: Gaussian engine vs number-basis brute force, with
  per-row discrepancies and a pass verdict (process exit 1 on any fail).

Parameters take one path.  A spec file's entries, overridden by the
flags given, merge into one dict; each value passes its kind's converter
(grid, integer, format or path) once, whether flag text or JSON; unset
ones take the defaults of :class:`SweepSpec` or :func:`run_oracle_check`.
``_PARAMS`` names each parameter once, for the parser and the spec keys.

Both closed-form tables are one library call on the grid's axes, which
validates each axis once and takes each figure once per point of the
axes it depends on; a column keeps that shape.

Floats are printed with 17 significant digits so the tables round-trip
exactly; a column is formatted at its own shape, not once per row.
Identical parameters give byte-identical tables, equal to the scalar
library functions formatted row by row: every transcendental is taken
with ``math``, and only exact arithmetic is broadcast.

A table is computed in full (a usage error exits 2 before any output), then
written as one stream of pieces, each made when called: the head with the first
block of about ``TABLE_BLOCK`` rows, each further block, the end.  A closed pipe
exits 141 quietly, any other write error exits 2.  A table of more than one block,
written to a file descriptor where ``os.fork`` exists, is written by two processes
in turn: once the first piece is out the parent forks, and the two take alternate
pieces of the same stream, each making its next before it waits for its turn.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from contextlib import nullcontext, suppress
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

# Largest truncation leakage lam^(2 (cutoff + 1)) that oracle-check accepts.
LEAKAGE_BOUND = 1e-6

# Records per number-basis conditioning call: bounds the amplitude rows held for any x grid.
ORACLE_BLOCK = 32

# Rows formatted and written at a time: bounds the cell text held at once for any grid.
TABLE_BLOCK = 4096

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


def run_remote_prep_sweep(spec: SweepSpec) -> Table:
    """One row per (r, eta, x) grid point of heralded-state parameters;
    N is derived from r when r was given."""
    axes = (spec.squeezing(), spec.eta, spec.x)
    r, eta, x = _axes(*axes)
    n = photon_number(r) if spec.n is None else np.reshape(np.array(spec.n, float), r.shape)
    # the result's fields, in order, are the columns after x
    columns = (r, n, eta, x, *vars(remote_prep(r, eta, x)).values())
    return Table(tuple(len(v) for v in axes), dict(zip(REMOTE_PREP_COLUMNS, columns)))


def run_teleport_sweep(spec: SweepSpec) -> Table:
    """One row per (r, gamma_t, M, eta) grid point of teleport figures;
    r is derived from N when N was given, and N itself is not needed."""
    axes = (spec.squeezing(), spec.gamma_t, spec.thermal_photons, spec.eta)
    r, gamma_t, m, eta = _axes(*axes)
    config = TeleportConfig(r, gamma_t, m, eta)
    fidelity = fidelity_coherent(config)
    threshold = eta_threshold(r, gamma_t, m)
    columns = (r, gamma_t, m, eta, config.kappa_sq, fidelity, threshold, fidelity > 0.5)
    return Table(tuple(len(v) for v in axes), dict(zip(TELEPORT_COLUMNS, columns)))


def run_oracle_check(
    lam=(0.3, 1.0 / math.sqrt(3.0), 0.8),
    eta=(0.6, 0.8, 1.0),
    x=(-1.0, 0.0, 0.7),
    cutoff: int = 40,
    nodes: int = 40,
) -> Table:
    """Cross-validate Gaussian conditioning against the number basis.

    Every (lam, eta, x) grid point compares conditional quadrature
    moments, purity against the closed-form thermal occupation, and the
    record density.  Raises ConfigurationError when the truncation
    leaks more than ``LEAKAGE_BOUND`` for some requested lam.
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
        if leak >= LEAKAGE_BOUND:
            raise ConfigurationError(
                f"cutoff {cutoff} leaks {leak:.3g} of lam={lam}; "
                f"bound is {LEAKAGE_BOUND:.3g}"
            )
    grid = gauss_hermite_grid(nodes)
    errors = []  # (moment, purity, density) errors over x, per (lam, eta) in C order
    for lam in lam_values:
        r = math.atanh(lam)
        beam = twb(r)
        fock_beam = twb_fock(lam, cutoff)
        for eta in eta_values:
            setting = HomodyneSetting(mode=0, phase=0.0, efficiency=eta)
            outcome = condition_homodyne(beam, setting, x_values)
            fock = []  # per block: density, mean_x, mean_y, var_x, var_y, cov_xy, purity
            for start in range(0, len(x_values), ORACLE_BLOCK):
                records = x_values[start : start + ORACLE_BLOCK]
                density, rows = condition_fock(fock_beam, records, eta, grid)
                fock.append((density, *moments_fock(rows)))
            fock = np.hstack(fock).T  # one row per record
            var = outcome.state.cov[[0, 1, 0], [0, 1, 1]]
            moment_err = np.abs(np.hstack((fock[:, 1:3] - outcome.state.mean, fock[:, 3:6] - var)))
            n_th = remote_prep(r, eta, np.array(x_values)).n_th
            purity_err = np.abs(fock[:, 6] - 1.0 / (2.0 * n_th + 1.0))
            density_err = np.abs(fock[:, 0] - outcome.probability_density)
            errors.append((moment_err.max(axis=1), purity_err, density_err))
    lam, eta, x = _axes(lam_values, eta_values, x_values)
    shape = (len(lam_values), len(eta_values), len(x_values))
    moment_err, purity_err, density_err = np.reshape(np.swapaxes(errors, 0, 1), (3,) + shape)
    passed = (moment_err <= MOMENT_TOL) & (purity_err <= PURITY_TOL) & (density_err <= DENSITY_TOL)
    columns = (lam, eta, x, moment_err, purity_err, density_err, passed)
    return Table(shape, dict(zip(ORACLE_COLUMNS, columns)))


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _format_cells(values: np.ndarray, as_json: bool = False) -> np.ndarray:
    """Each element as CSV text or as its JSON value; bool and finite
    float arrays skip the type dispatch."""
    if values.dtype == bool:  # two shared strings; `...` keeps a 0-d result an array
        return np.array(["false", "true"], dtype=object)[values.astype(np.intp), ...]
    flat = values.ravel().tolist()
    if values.dtype == float and np.isfinite(values).all():
        text = map(float.__repr__ if as_json else "%.17g".__mod__, flat)
    else:  # floats mixed with a literal, or NaN and infinities
        text = map(json.dumps if as_json else _format_cell, flat)
    return np.array(list(text), dtype=object).reshape(values.shape)


def _pieces(table: Table, columns, as_json: bool = False):
    """CSV or JSON text of ``columns`` as zero-argument calls, each making its
    piece when called: the head with the first block of about ``TABLE_BLOCK``
    rows, each further block in row order, then the end.  A block slices the
    leading axes down to the first whose inner rows fit, so a short leading axis
    still splits; it formats each column's own cells in it and broadcasts them."""
    if as_json:
        keys = (json.dumps(name).replace("%", "%%") for name in columns)
        row = ("  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }").__mod__
        head, sep, tail, last = "[\n", ",\n", "\n]\n", "[]\n"
    else:
        head = ",".join(columns) + "\n"
        row, sep, tail, last = ",".join, "\n", "\n", head  # last: an empty table's text
    shape = table.shape or (1,)  # a 0-d table is one row
    if columns and math.prod(shape):
        cut = next(k for k in range(len(shape)) if math.prod(shape[k + 1 :]) <= TABLE_BLOCK)
        step = TABLE_BLOCK // math.prod(shape[cut + 1 :])
        values = [v[(None,) * (len(shape) - v.ndim)] for v in map(table.columns.__getitem__, columns)]
        for lead, start in itertools.product(np.ndindex(*shape[:cut]), range(0, shape[cut], step)):
            index = (*(slice(i, i + 1) for i in lead), slice(start, start + step))
            rows = (1,) * cut + (min(step, shape[cut] - start),) + shape[cut + 1 :]
            parts = [v[tuple(s if n > 1 else slice(None) for s, n in zip(index, v.shape))] for v in values]
            def block(head=head, parts=parts, rows=rows):  # parts: each column's own cells, as views
                cells = (np.broadcast_to(_format_cells(p, as_json), rows).ravel().tolist() for p in parts)
                return head + sep.join(map(row, zip(*cells)))
            yield block
            head, last = sep, tail
    yield lambda: last


def rows_to_csv(table: Table, columns) -> str:
    """CSV text of ``columns``: the pieces ``main`` writes, joined."""
    return "".join(piece() for piece in _pieces(table, columns))


def rows_to_json(table: Table) -> str:
    """``json.dumps(table.rows(), indent=2)`` and a newline, with the cells
    put into one row template: the pieces ``main`` writes, joined."""
    return "".join(piece() for piece in _pieces(table, table.columns, as_json=True))


def _linspace(start: float, stop: float, count: int) -> tuple[float, ...]:
    """``count`` evenly spaced values from ``start`` to ``stop`` inclusive."""
    if count < 1:
        raise ConfigurationError("a range needs a count of at least 1")
    if not math.isfinite(stop - start):  # also a non-finite start or stop
        raise ConfigurationError(f"a range needs a finite span; got {start!r} to {stop!r}")
    return tuple(np.linspace(start, stop, count).tolist())


def _parse_range(text: str, flag: str) -> tuple[float, ...]:
    """Accept 'a:b:n' (inclusive linspace), 'v1,v2,...' or a single value."""
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            return _linspace(float(start), float(stop), _integer(count, flag))
        return tuple(float(v) for v in text.split(","))
    except ConfigurationError:  # already names what is wrong with the range
        raise
    except ValueError:
        raise ConfigurationError(
            f"{flag} expects a value, a comma list, or start:stop:count; got {text!r}"
        ) from None


def _number(value, flag: str) -> float:
    if type(value) in (int, float):  # a bool is not a number here
        try:
            return float(value)
        except OverflowError:  # a JSON integer has no bound
            raise ConfigurationError(f"{flag} expects numbers within float range") from None
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


def _write_all(fd: int, text: str) -> None:
    """``text`` to ``fd`` in UTF-8; a short write goes on where it stopped."""
    data = memoryview(text.encode())
    while data:
        data = data[os.write(fd, data) :]


def _write(table: Table, columns, as_json: bool, out: str) -> int:
    """Write the table to ``out`` by one process or two (see above); the
    exit code: 141 for a closed pipe, 2 for any other error."""
    name = "stdout" if out in ("stdout", "-") else out
    code, pid, turn = 1, None, None  # pid is 0 in the child only
    try:
        with nullcontext(sys.stdout) if name == "stdout" else open(out, "wb") as fh:
            fh.flush()  # text an in-process caller printed goes first
            fd = None
            with suppress(ValueError):  # io.UnsupportedOperation: an in-memory stdout has none
                fd = fh.fileno()
            write = fh.write if fd is None else lambda text: _write_all(fd, text)
            pieces = _pieces(table, columns, as_json)
            write(next(pieces)())  # the first block goes out before any fork
            if fd is not None and math.prod(table.shape) > TABLE_BLOCK and hasattr(os, "fork"):
                (child_r, parent_w), (parent_r, child_w) = os.pipe(), os.pipe()
                os.write(parent_w, b"t")  # the child writes next
                pid = os.fork()
                os.close(child_w if pid else parent_w)  # the other writer's exit ends our reads
                turn = (parent_r, parent_w) if pid else (child_r, child_w)
                pieces = itertools.islice(pieces, 1 if pid else 0, None, 2)  # the child's are 1, 3, ...
            for piece in pieces:
                text = piece()  # made before the turn, so the two writers make text at once
                if turn and not os.read(turn[0], 1):
                    break  # the other writer stopped, and says why
                write(text)
                if turn:  # cannot fail: each process holds both read ends
                    os.write(turn[1], b"t")
            code = 0
    except BrokenPipeError:  # the reader has gone
        code = 141
    except (Exception if pid == 0 else OSError) as exc:  # os._exit drops a child's traceback
        print(f"error: cannot write {name}: {exc}", file=sys.stderr, flush=True)
        code = 2
    finally:
        if pid == 0:
            os._exit(code)
        if pid:  # a child waiting for its turn reads the end of parent_w and exits
            for end in (parent_w, parent_r, child_r):
                os.close(end)
            child = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])  # reaped in every case
            code = code or child
    return code


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
    failed = command == "oracle-check" and not table.columns["pass"].all()
    return _write(table, columns, fmt == "json", out) or int(failed)


if __name__ == "__main__":
    sys.exit(main())
