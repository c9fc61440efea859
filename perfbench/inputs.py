"""Workload inputs, made from the workload seed alone.

The seed moves parameter values, never the amount of work: every grid has
a fixed size, so runs on different seeds measure the same number of
operations.  The strong-squeezing ladder does not depend on the seed at
all, because some of its rungs fail on every run (see README.md).
"""

from __future__ import annotations

import math
import random

# 50 x 20 x 10 x 20 = 200,000 teleport rows, the size of ROADMAP's CLI sweep.
TELEPORT_SIZES = {"r": 50, "gamma_t": 20, "M": 10, "eta": 20}
TELEPORT_RANGES = {"r": (0.0, 2.5), "gamma_t": (0.0, 1.5), "M": (0.0, 1.0), "eta": (0.3, 1.0)}

# 6 x 4 x 13 = 312 oracle rows at cutoff 100: the Fock oracle dominates.
ORACLE_CUTOFF = 100
ORACLE_NODES = 48

# Square record grid per teleportation resource: 33^2 records out to 8 sigma.
RECORD_GRID = 33
RECORD_REACH = 8.0

LADDER_R = tuple(0.5 * k for k in range(19))  # r = 0, 0.5, ..., 9
LADDER_ETA = 0.8
LADDER_SIGMAS = tuple(-3.0 + 0.5 * k for k in range(13))  # x in record sd units
LADDER_WIGNER_INDEX = 9  # record x = +1.5 sd heralds the Wigner-grid state
WIGNER_GRID = 21

MC_SAMPLES = 1_000_000
MC_SEEDS_PER_ROUND = 2


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi], in order.

    The grid's shape, and with it the share of rows of each kind (such as
    ``eta_threshold = impossible``), then stays about the same on every seed.
    """
    step = (hi - lo) / count
    return [lo + step * (k + rng.random()) for k in range(count)]


def _resources(rng: random.Random) -> list[dict]:
    """One resource per degrading effect: none, loss, thermal bath, inefficiency."""

    def draw(kind: str) -> dict:
        return {
            "kind": kind,
            "r": rng.uniform(0.6, 1.2),
            "gamma_t": rng.uniform(0.1, 0.5) if kind in ("lossy", "thermal") else 0.0,
            "M": rng.uniform(0.05, 0.5) if kind == "thermal" else 0.0,
            "eta": rng.uniform(0.6, 0.95) if kind == "inefficient" else 1.0,
            "z": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
        }

    return [draw(kind) for kind in ("ideal", "lossy", "thermal", "inefficient")]


def _cli_inputs(command: str, grid: dict, flags: dict, extra: list[str]) -> dict:
    """The CLI's arguments for the whole grid, and for its first point alone.

    Grids are passed as ``--flag=values``: a value list that starts with a
    minus sign is not accepted after a separate ``--flag``.  The one-point
    call times the CLI's set-up.
    """

    def argv(points: dict) -> list[str]:
        values = [f"--{flag}={','.join(repr(v) for v in points[key])}" for flag, key in flags.items()]
        return [command] + values + extra

    return {"grid": grid, "argv": argv(grid), "setup_argv": argv({key: grid[key][:1] for key in grid})}


def make(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "teleport_csv":
        grid = {k: _stratified(rng, n, *TELEPORT_RANGES[k]) for k, n in TELEPORT_SIZES.items()}
        flags = {"r": "r", "gamma-t": "gamma_t", "M": "M", "eta": "eta"}
        return _cli_inputs("teleport", grid, flags, [])
    if workload == "oracle_check":
        grid = {
            "lam": _stratified(rng, 6, 0.2, 0.9),
            "eta": _stratified(rng, 3, 0.55, 0.95) + [1.0],
            "x": _stratified(rng, 13, -1.5, 1.5),
        }
        flags = {key: key for key in ("lam", "eta", "x")}
        extra = [f"--cutoff={ORACLE_CUTOFF}", f"--nodes={ORACLE_NODES}"]
        return _cli_inputs("oracle-check", grid, flags, extra)
    if workload == "phase_space":
        return {"resources": _resources(rng)}
    if workload == "monte_carlo":
        return {"resources": _resources(rng), "seed_base": rng.getrandbits(32)}
    raise ValueError(f"unknown workload {workload!r}")


def ladder_records(r: float) -> list[float]:
    """Record values on the ladder line, spaced in record standard deviations."""
    # Imported here: reference loads NumPy, and run.py, which imports this
    # module, must stay small because its children inherit its peak RSS.
    from reference import homodyne_record_variance

    sd = math.sqrt(homodyne_record_variance(r, LADDER_ETA))
    return [k * sd for k in LADDER_SIGMAS]
