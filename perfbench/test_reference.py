"""Tests of the benchmark's own checks: correct values pass, perturbed ones fail.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402

# --- tables built the way the CLI prints them ----------------------------------


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    return f"{v:.17g}"


def _table(header: str, rows) -> str:
    return "\n".join([header] + [",".join(_cell(v) for v in row) for row in rows]) + "\n"


TELEPORT_GRID = {"r": [0.0, 0.4, 1.3], "gamma_t": [0.0, 0.7], "M": [0.0, 0.9], "eta": [0.45, 0.8, 1.0]}


def _teleport_rows(grid):
    rows = []
    for r in grid["r"]:
        for g in grid["gamma_t"]:
            for m in grid["M"]:
                for e in grid["eta"]:
                    k2 = float(reference.kappa_sq(r, g, m, e))
                    a = float(reference.channel_noise(r, g, m))
                    thr = "impossible" if a > 1.0 else min(1.0, 1.0 / (2.0 - a))
                    fid = 1.0 / (1.0 + k2)
                    rows.append([r, g, m, e, k2, fid, thr, fid > 0.5])
    return rows


def _teleport_csv(rows) -> str:
    return _table(reference.TELEPORT_HEADER, rows)


def _first(rows, predicate):
    return next(i for i, row in enumerate(rows) if predicate(row))


def test_teleport_table_passes():
    count, errors = reference.check_teleport_csv(_teleport_csv(_teleport_rows(TELEPORT_GRID)), TELEPORT_GRID)
    assert errors == []
    assert count == 36


def _numeric_threshold(rows):
    return _first(rows, lambda w: w[6] != "impossible" and w[6] < 0.99)


def _shift_threshold(rows):
    rows[_numeric_threshold(rows)][6] += 1e-9


def _threshold_to_impossible(rows):
    rows[_numeric_threshold(rows)][6] = "impossible"


def _impossible_to_threshold(rows):
    rows[_first(rows, lambda w: w[6] == "impossible")][6] = 1.0


@pytest.mark.parametrize(
    "perturb",
    [
        lambda rows: rows[5].__setitem__(4, rows[5][4] * (1 + 1e-9)),  # kappa_sq
        lambda rows: rows[7].__setitem__(5, rows[7][5] * (1 - 1e-9)),  # fidelity
        lambda rows: rows[0].__setitem__(0, 0.1),  # an input column
        lambda rows: rows.pop(),  # a missing row
        lambda rows: rows.__setitem__(slice(0, 2), rows[1::-1]),  # grid order
        _shift_threshold,
        _threshold_to_impossible,
        _impossible_to_threshold,
        lambda rows: rows[3].__setitem__(7, not rows[3][7]),  # beats_classical
    ],
)
def test_teleport_table_perturbed_fails(perturb):
    rows = _teleport_rows(TELEPORT_GRID)
    perturb(rows)
    _, errors = reference.check_teleport_csv(_teleport_csv(rows), TELEPORT_GRID)
    assert errors


def test_teleport_table_short_floats_fail():
    text = _teleport_csv(_teleport_rows(TELEPORT_GRID))
    lines = text.split("\n")
    fields = lines[15].split(",")  # r = 0.4: a fidelity with all 17 digits
    short = f"{float(fields[5]):.15g}"
    assert short != fields[5]
    fields[5] = short
    lines[15] = ",".join(fields)
    _, errors = reference.check_teleport_csv("\n".join(lines), TELEPORT_GRID)
    assert errors


ORACLE_GRID = {"lam": [0.3, 0.8], "eta": [0.7, 1.0], "x": [-1.0, 0.25]}


def _oracle_rows():
    return [
        [lam, eta, x, 3e-9, 1e-12, 2e-11, True]
        for lam in ORACLE_GRID["lam"]
        for eta in ORACLE_GRID["eta"]
        for x in ORACLE_GRID["x"]
    ]


def test_oracle_table_passes():
    count, errors = reference.check_oracle_csv(_table(reference.ORACLE_HEADER, _oracle_rows()), ORACLE_GRID)
    assert errors == []
    assert count == 8


@pytest.mark.parametrize(
    "column, value",
    [(3, 2e-5), (4, 2e-4), (5, 2e-6), (5, -1e-9), (6, False), (2, 0.3)],
)
def test_oracle_table_perturbed_fails(column, value):
    rows = _oracle_rows()
    rows[4][column] = value
    _, errors = reference.check_oracle_csv(_table(reference.ORACLE_HEADER, rows), ORACLE_GRID)
    assert errors


def test_oracle_table_missing_row_fails():
    _, errors = reference.check_oracle_csv(_table(reference.ORACLE_HEADER, _oracle_rows()[:-1]), ORACLE_GRID)
    assert errors


# --- phase-space records --------------------------------------------------------

SPEC = {"r": 0.9, "gamma_t": 0.3, "M": 0.2, "eta": 0.85, "z": [0.4, -0.3]}


def _records(reach=inputs.RECORD_REACH):
    z = complex(*SPEC["z"])
    s, w, q = reference.teleport_record_model(SPEC["r"], SPEC["gamma_t"], SPEC["M"], SPEC["eta"])
    axis = np.linspace(-reach, reach, inputs.RECORD_GRID) * math.sqrt(s)
    alphas = (-z + axis[:, None] + 1j * axis[None, :]).ravel()
    dens = reference.record_density(alphas, z, s)
    fid = reference.record_fidelity(alphas, z, w, q)
    return alphas, dens, fid, float(axis[1] - axis[0])


def test_teleport_records_pass():
    assert reference.check_teleport_records(SPEC, *_records()) == []


@pytest.mark.parametrize("which", [1, 2])
def test_teleport_record_perturbed_fails(which):
    alphas, dens, fid, h = _records()
    arrays = [alphas, dens, fid]
    arrays[which][100] *= 1 + 1e-7
    assert reference.check_teleport_records(SPEC, alphas, dens, fid, h)


def test_teleport_records_short_grid_fails_the_integrals():
    errors = reference.check_teleport_records(SPEC, *_records(reach=3.0))
    assert errors and all("integrates" in e or "average" in e for e in errors)


def test_teleport_records_wrong_average_fidelity_fails():
    alphas, dens, fid, h = _records()
    spec = dict(SPEC, eta=0.8)  # the same records judged for another resource
    assert reference.check_teleport_records(spec, alphas, dens, fid, h)


def test_average_fidelity_is_the_closed_form():
    mean, var = reference.fidelity_moments(SPEC["r"], SPEC["gamma_t"], SPEC["M"], SPEC["eta"])
    kappa2 = reference.kappa_sq(SPEC["r"], SPEC["gamma_t"], SPEC["M"], SPEC["eta"])
    assert mean == pytest.approx(1.0 / (1.0 + kappa2), rel=1e-14)
    assert var > 0.0


def _ladder_values(r, eta, xs):
    a, s1, s2, dens = reference.remote_prep_moments(r, eta, xs)
    k = len(xs)
    n_th = max(0.0, 2.0 * math.sqrt(s1 * s2) - 0.5)
    squeeze = 0.25 * math.log(s2 / s1)
    return {
        "mean": np.stack([a, np.zeros(k)], axis=1),
        "cov": np.array([[[s1, 0.0], [0.0, s2]]] * k),
        "density": dens,
        "displacement": a + 0j,
        "squeeze_r": np.full(k, squeeze),
        "phase": np.full(k, math.pi - 1e-12),
        "n_th": np.full(k, n_th),
        "rp_a": a,
        "rp_sigma1": np.full(k, s1),
        "rp_sigma2": np.full(k, s2),
        "rp_n_th": np.full(k, n_th),
        "rp_r": np.full(k, squeeze),
        "rp_density": dens,
    }


LADDER_FIELDS = list(_ladder_values(1.0, 0.8, np.array([0.5])))


def test_ladder_passes():
    xs = np.array(inputs.ladder_records(9.0))
    assert reference.check_ladder(9.0, 0.8, xs, _ladder_values(9.0, 0.8, xs)) == []


@pytest.mark.parametrize("field", LADDER_FIELDS)
def test_ladder_perturbed_fails(field):
    r, eta = 2.0, 0.8
    xs = np.array(inputs.ladder_records(r))
    got = _ladder_values(r, eta, xs)
    value = np.array(got[field], dtype=complex if field == "displacement" else float)
    flat = value.reshape(len(xs), -1)  # record 3, first component
    flat[3, 0] += 0.1 if field == "phase" else 1e-5 * max(1.0, abs(flat[3, 0]))
    got[field] = value
    assert reference.check_ladder(r, eta, xs, got)


def test_wigner_grid_sum():
    s1, s2 = 0.07, 3.0
    n, reach = inputs.WIGNER_GRID, inputs.RECORD_REACH
    xs = np.linspace(-reach, reach, n) * math.sqrt(s1)
    ys = np.linspace(-reach, reach, n) * math.sqrt(s2)
    grid = np.exp(-0.5 * (xs[:, None] ** 2 / s1 + ys[None, :] ** 2 / s2)) / (2 * math.pi * math.sqrt(s1 * s2))
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    assert reference.check_grid_sum("W", grid, cell) == []
    assert reference.check_grid_sum("W", grid * (1 + 1e-8), cell)


# --- Monte Carlo -----------------------------------------------------------------

N = inputs.MC_SAMPLES


def _exact_se():
    mean, var = reference.fidelity_moments(SPEC["r"], SPEC["gamma_t"], SPEC["M"], SPEC["eta"])
    return mean, math.sqrt(var / N)


def test_mc_estimate():
    mean, se = _exact_se()
    assert reference.check_mc_estimate(SPEC, mean + 2 * se, N) == []
    assert reference.check_mc_estimate(SPEC, mean + 7 * se, N)


def test_mc_spread():
    mean, se = _exact_se()
    est = mean + se * np.random.default_rng(4).standard_normal(12)
    assert reference.check_mc_spread(SPEC, est, N) == []
    assert reference.check_mc_spread(SPEC, est + 3 * se, N)  # biased by 3 SE, 12 seeds
    assert reference.check_mc_spread(SPEC, np.repeat(est[:6], 2), N)  # seeds reused
    assert reference.check_mc_spread(SPEC, mean + 10 * (est - mean), N)  # too wide
    assert reference.check_mc_spread(SPEC, est[:1], N)


def test_sample_moments():
    draws = 0.3 + 2.0 * np.random.default_rng(5).standard_normal(N)
    assert reference.check_sample_moments("x", draws, 0.3, 4.0) == []
    assert reference.check_sample_moments("x", draws + 0.02, 0.3, 4.0)
    assert reference.check_sample_moments("x", draws * 1.01, 0.3, 4.0)


# --- the benchmark as a whole --------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    import run
    import work

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in work.LAYERS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_table_reader_finds_the_first_row_and_keeps_only_the_first_table(tmp_path):
    import run

    copy = tmp_path / "table.csv"
    reader = run.TableReader(copy)
    for t, data in enumerate([b"r,eta", b"\n", b"0.5,1\n0.7", b",1\n"]):
        reader(float(t), data)
    reader.close()
    assert (reader.first_row, reader.last) == (2.0, 3.0)
    assert copy.read_bytes() == b"r,eta\n0.5,1\n0.7,1\n"
    again = run.TableReader(None)
    again(0.0, b"r,eta\n0.5,1\n0.7,1\n")
    assert again.first_row == 0.0
    assert again.digest.digest() == reader.digest.digest()


def test_slow_quarter_and_spread_probes():
    import runstats

    assert runstats.slow_quarter([3.0, 1.0, 5.0, 2.0, 4.0]) == 4.5  # the slowest 2 of 5
    assert runstats.slow_quarter([2.0]) == 2.0
    calls = []
    probes = runstats.SpreadProbes(lambda: calls.append(None) or len(calls))
    probes.due(0.0)
    probes.due(0.5)
    assert probes.results == [2, 3, 4, 5, 6]  # the first call is discarded
    probes.due(1.0)
    assert len(probes.results) == runstats.SETUP_PROBES


def test_run_does_not_load_numpy():
    """run.py spawns the measured processes, which start from its peak RSS."""
    code = "import sys; sys.path.insert(0, 'perfbench'); import run; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_phase_space_round_on_the_program():
    """One round on the package: every check passes; the strong-squeezing rungs fail."""
    import work

    wl = work.PhaseSpace(inputs.make("phase_space", 0), work.Tracer(False))
    wl.round()
    assert wl.errors == []
    assert wl.failed == 5 * len(inputs.LADDER_SIGMAS)  # r = 5.5, 6.5, 7, 8, 8.5


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, the command exits non-zero silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "phase_space", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        spec["command"] + args, cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
