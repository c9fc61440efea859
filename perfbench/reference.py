"""Reference values for the benchmark, written out from the paper's closed forms.

Nothing here imports twinbeam: every value a workload is checked against
comes from the formulas below.  Each ``check_*`` function returns a list of
error strings; an empty list means the output passed.

Conventions are the package's: x = (a + a^dag)/2 so the vacuum variance is
1/4, a twin beam of squeezing r carries N = 2 sinh^2 r photons, and a loss
channel of damping gamma_t into a bath of M photons multiplies every
covariance entry by e^{-gamma_t} and adds (2M + 1)(1 - e^{-gamma_t})/4 to
each variance.
"""

from __future__ import annotations

import math

import numpy as np

VAC = 0.25

TELEPORT_HEADER = "r,gamma_t,M,eta,kappa_sq,fidelity,eta_threshold,beats_classical"
ORACLE_HEADER = "lam,eta,x,max_moment_err,purity_err,density_err,pass"
# Oracle tolerances documented in the package README: moments, purity, density.
ORACLE_TOLS = (1e-5, 1e-4, 1e-6)

# Closed forms against closed forms: only round-off separates them.
CLOSED_FORM_RTOL = 1e-12
# Engine against closed forms, per record; the record grids reach 8 sigma.
RECORD_RTOL = 1e-9
# Riemann sums of Gaussians on grids of step <= 0.8 sigma out to 8 sigma.
GRID_SUM_TOL = 1e-10
# Strong-squeezing ladder: covariances of order e^{2r}/4 at r = 9 lose digits.
LADDER_RTOL = 1e-7
# Statistical checks: a correct program fails one with probability ~2e-9.
Z_LIMIT = 6.0


# --- closed forms -----------------------------------------------------------


def kappa_sq(r, gamma_t, m, eta):
    """Teleportation added noise e^{-gamma_t - 2r} + (2M+1)(1 - e^{-gamma_t}) + (1-eta)/eta."""
    return channel_noise(r, gamma_t, m) + (1.0 - eta) / eta


def channel_noise(r, gamma_t, m):
    t = np.exp(-np.asarray(gamma_t, dtype=float))
    return t * np.exp(-2.0 * np.asarray(r, dtype=float)) + (2.0 * np.asarray(m) + 1.0) * (1.0 - t)


def arm_variance(r, gamma_t, m):
    """Quadrature variance of either arm of a twin beam after both arms are damped."""
    t = math.exp(-gamma_t)
    return t * math.cosh(2.0 * r) / 4.0 + (2.0 * m + 1.0) * (1.0 - t) / 4.0


def teleport_record_model(r, gamma_t, m, eta):
    """(s, w, q) of double-homodyne teleportation through a damped twin beam.

    Both arms are damped.  A record alpha taken against the coherent input z
    is normal about -z with variance s per quadrature.  After the corrective
    displacement by -alpha the output is a Gaussian of variance w per
    quadrature whose mean misses z by (g - 1)(alpha + z), with q = (1 - g)^2.
    """
    v = arm_variance(r, gamma_t, m)
    c = math.exp(-gamma_t) * math.sinh(2.0 * r) / 4.0
    s = v + VAC + (1.0 - eta) / (2.0 * eta)
    g = c / s
    w = v - c * c / s
    return s, w, (1.0 - g) ** 2


def record_density(alpha, z, s):
    d2 = np.abs(np.asarray(alpha) + z) ** 2
    return np.exp(-0.5 * d2 / s) / (2.0 * math.pi * s)


def record_fidelity(alpha, z, w, q):
    """Overlap of the corrected output with the coherent input |z>."""
    t = w + VAC
    d2 = q * np.abs(np.asarray(alpha) + z) ** 2
    return np.exp(-0.5 * d2 / t) / (2.0 * t)


def fidelity_moments(r, gamma_t, m, eta):
    """Mean and variance of the per-record fidelity over the records."""
    s, w, q = teleport_record_model(r, gamma_t, m, eta)
    t = w + VAC
    mean = 1.0 / (2.0 * (t + q * s))
    second = 1.0 / (4.0 * t * (t + 2.0 * q * s))
    return mean, second - mean * mean


def remote_prep_moments(r, eta, x):
    """Paper's heralded state after homodyning one twin-beam arm.

    Returns (a, sigma1_sq, sigma2_sq, record_density) for record x.
    """
    n = 2.0 * math.sinh(r) ** 2
    a = eta * math.sqrt(n * (n + 2.0)) * np.asarray(x) / (1.0 + eta * n)
    s1 = VAC * (1.0 + n * (1.0 - eta)) / (1.0 + eta * n)
    s2 = VAC * (1.0 + n)
    var = VAC * (1.0 + n) + (1.0 - eta) / (4.0 * eta)
    dens = np.exp(-0.5 * np.asarray(x) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return a, s1, s2, dens


def homodyne_record_variance(r, eta):
    return VAC * math.cosh(2.0 * r) + (1.0 - eta) / (4.0 * eta)


# --- checks -----------------------------------------------------------------


def _worst_rel(got, ref, floor=0.0):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    err = np.abs(got - ref) / np.maximum(np.abs(ref), floor)
    return float(np.max(err)) if err.size else 0.0


def _rel_error(label, got, ref, rtol, floor=0.0):
    worst = _worst_rel(got, ref, floor)
    if not worst <= rtol:
        return [f"{label}: relative error {worst:.3g} > {rtol:.0e}"]
    return []


def _split_csv(text: str, header: str, expected_rows: int):
    """Columns of a CSV table as tuples of strings, or an error list."""
    lines = text.split("\n")
    if lines[0] != header:
        return None, [f"header {lines[0][:80]!r} != {header!r}"]
    if lines[-1] != "":
        return None, ["table does not end with a newline"]
    body = lines[1:-1]
    if len(body) != expected_rows:
        return None, [f"{len(body)} rows, expected the grid product {expected_rows}"]
    width = header.count(",") + 1
    cells = [line.split(",") for line in body]
    if any(len(c) != width for c in cells):
        return None, [f"a row does not have {width} fields"]
    return list(zip(*cells)), []


def _not_17_digits(column) -> int:
    """Count distinct cells that are not the 17-significant-digit form of their value."""
    return sum(1 for s in set(column) if f"{float(s):.17g}" != s)


def _grid_columns(*axes):
    """Grid points in row order, first axis outermost."""
    mesh = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes], indexing="ij")
    return [m.ravel() for m in mesh]


def check_teleport_csv(text: str, grid: dict) -> tuple[int, list[str]]:
    """Check a ``twinbeam teleport`` CSV table against the closed forms.

    ``grid`` holds the value lists ``r``, ``gamma_t``, ``M`` and ``eta``
    passed to the command.  Returns (rows received, errors).
    """
    axes = [grid["r"], grid["gamma_t"], grid["M"], grid["eta"]]
    expected = math.prod(len(a) for a in axes)
    cols, errors = _split_csv(text, TELEPORT_HEADER, expected)
    if errors:
        return 0, errors
    r, gt, m, eta = _grid_columns(*axes)
    for name, col, ref in zip(("r", "gamma_t", "M", "eta"), cols[:4], (r, gt, m, eta)):
        if not np.array_equal(np.array(col, dtype=float), ref):
            errors.append(f"column {name} does not reproduce the requested grid")
    threshold = cols[6]
    numeric = np.array([s != "impossible" for s in threshold])
    float_cols = list(cols[:6]) + [[s for s in threshold if s != "impossible"]]
    bad = sum(_not_17_digits(c) for c in float_cols)
    if bad:
        errors.append(f"{bad} floats are not printed with 17 significant digits")
    if errors:
        return expected, errors

    k2 = kappa_sq(r, gt, m, eta)
    fid = 1.0 / (1.0 + k2)
    errors += _rel_error("kappa_sq", np.array(cols[4], dtype=float), k2, CLOSED_FORM_RTOL)
    errors += _rel_error("fidelity", np.array(cols[5], dtype=float), fid, CLOSED_FORM_RTOL)

    a = channel_noise(r, gt, m)
    band = 1e-9  # either answer is right this close to a = 1
    if np.any(numeric & (a > 1.0 + band)):
        errors.append("eta_threshold is a number where no efficiency beats 1/2")
    if np.any(~numeric & (a < 1.0 - band)):
        errors.append("eta_threshold is 'impossible' where a threshold exists")
    sure = numeric & (a < 1.0 - band)
    got = np.array([float(s) for s, ok in zip(threshold, sure) if ok])
    errors += _rel_error("eta_threshold", got, 1.0 / (2.0 - a[sure]), CLOSED_FORM_RTOL)

    beats = np.array([s == "true" for s in cols[7]])
    if not set(cols[7]) <= {"true", "false"}:
        errors.append("beats_classical holds a value other than true/false")
    clear = np.abs(fid - 0.5) > 1e-12
    if np.any(beats[clear] != (fid[clear] > 0.5)):
        errors.append("beats_classical disagrees with fidelity > 1/2")
    return expected, errors


def check_oracle_csv(text: str, grid: dict) -> tuple[int, list[str]]:
    """Check a ``twinbeam oracle-check`` CSV table: grid, tolerances, verdicts."""
    axes = [grid["lam"], grid["eta"], grid["x"]]
    expected = math.prod(len(a) for a in axes)
    cols, errors = _split_csv(text, ORACLE_HEADER, expected)
    if errors:
        return 0, errors
    for name, col, ref in zip(("lam", "eta", "x"), cols[:3], _grid_columns(*axes)):
        if not np.array_equal(np.array(col, dtype=float), ref):
            errors.append(f"column {name} does not reproduce the requested grid")
    bad = sum(_not_17_digits(c) for c in cols[:6])
    if bad:
        errors.append(f"{bad} floats are not printed with 17 significant digits")
    for name, col, tol in zip(ORACLE_HEADER.split(",")[3:6], cols[3:6], ORACLE_TOLS):
        vals = np.array(col, dtype=float)
        if not (np.all(vals >= 0.0) and np.all(vals <= tol)):
            errors.append(f"{name} reaches {np.max(np.abs(vals)):.3g}, tolerance {tol:.0e}")
    if set(cols[6]) != {"true"}:
        errors.append("a row is not marked pass")
    return expected, errors


class RepeatedTable:
    """Checks the first table in full; the CLI promises byte-identical output
    for identical arguments, so every later table must equal the first."""

    def __init__(self, check, grid: dict):
        self.check = check
        self.grid = grid
        self.first = None
        self.rows = 0

    def __call__(self, text: str) -> tuple[int, list[str]]:
        if self.first is None:
            self.first = text
            self.rows, errors = self.check(text, self.grid)
            return self.rows, errors
        if text != self.first:
            return self.rows, ["a repeated call printed a different table"]
        return self.rows, []


def check_teleport_records(spec: dict, alphas, dens, fid, h: float) -> list[str]:
    """Per-record density and fidelity, and their grid integrals.

    ``alphas`` is a square grid of records of step ``h`` reaching 8 record
    standard deviations; the density must integrate to 1 and the
    density-weighted fidelity to 1/(1 + kappa^2).
    """
    r, gt, m, eta = spec["r"], spec["gamma_t"], spec["M"], spec["eta"]
    z = complex(*spec["z"])
    s, w, q = teleport_record_model(r, gt, m, eta)
    dens = np.asarray(dens, dtype=float)
    fid = np.asarray(fid, dtype=float)
    errors = _rel_error("record density", dens, record_density(alphas, z, s), RECORD_RTOL)
    errors += _rel_error("record fidelity", fid, record_fidelity(alphas, z, w, q), RECORD_RTOL)
    total = float(np.sum(dens)) * h * h
    if not abs(total - 1.0) <= GRID_SUM_TOL:
        errors.append(f"record density integrates to {total!r}, not 1")
    average = float(np.sum(dens * fid)) * h * h
    target = 1.0 / (1.0 + float(kappa_sq(r, gt, m, eta)))
    if not abs(average / target - 1.0) <= GRID_SUM_TOL:
        errors.append(f"average fidelity {average!r} != 1/(1+kappa^2) = {target!r}")
    return errors


def check_ladder(r: float, eta: float, xs, got: dict) -> list[str]:
    """Heralded states of one ladder rung against the paper's closed forms.

    ``got`` holds arrays over the records ``xs``: ``mean`` (k, 2), ``cov``
    (k, 2, 2), ``density``, the decomposition ``squeeze_r``, ``phase``,
    ``n_th``, ``displacement`` (complex) and the ``remote_prep`` fields
    ``rp_a``, ``rp_sigma1``, ``rp_sigma2``, ``rp_n_th``, ``rp_r``,
    ``rp_density``.
    """
    a, s1, s2, dens = remote_prep_moments(r, eta, xs)
    k = len(xs)
    nu = math.sqrt(s1 * s2)
    n_th = max(0.0, 2.0 * nu - 0.5)
    squeeze = 0.25 * math.log(s2 / s1)
    mean, cov = np.asarray(got["mean"]), np.asarray(got["cov"])
    # a passes through 0 on the record line; measure it on the scale of sigma2
    scale = math.sqrt(s2)
    tag = f"r={r:g}"
    errors = []
    errors += _rel_error(f"{tag} mean x", mean[:, 0], a, LADDER_RTOL, scale)
    errors += _rel_error(f"{tag} mean y", mean[:, 1], np.zeros(k), LADDER_RTOL, scale)
    errors += _rel_error(f"{tag} sigma1^2", cov[:, 0, 0], np.full(k, s1), LADDER_RTOL)
    errors += _rel_error(f"{tag} sigma2^2", cov[:, 1, 1], np.full(k, s2), LADDER_RTOL)
    errors += _rel_error(f"{tag} cov xy", cov[:, 0, 1], np.zeros(k), LADDER_RTOL, scale * math.sqrt(s1))
    errors += _rel_error(f"{tag} density", got["density"], dens, LADDER_RTOL)
    disp = np.asarray(got["displacement"])
    errors += _rel_error(f"{tag} displacement", disp.real, a, LADDER_RTOL, scale)
    errors += _rel_error(f"{tag} squeeze_r", got["squeeze_r"], np.full(k, squeeze), LADDER_RTOL, 1.0)
    errors += _rel_error(f"{tag} n_th", got["n_th"], np.full(k, n_th), LADDER_RTOL, 1.0)
    if squeeze > 1e-6:
        phase = np.asarray(got["phase"]) % math.pi
        off = np.minimum(phase, math.pi - phase)
        if not np.max(off) <= 1e-9:
            errors.append(f"{tag} squeezed axis is not x")
    for field, ref, floor in (
        ("rp_a", a, scale),
        ("rp_sigma1", np.full(k, s1), 0.0),
        ("rp_sigma2", np.full(k, s2), 0.0),
        ("rp_n_th", np.full(k, n_th), 1.0),
        ("rp_r", np.full(k, squeeze), 1.0),
        ("rp_density", dens, 0.0),
    ):
        errors += _rel_error(f"{tag} remote_prep {field[3:]}", got[field], ref, LADDER_RTOL, floor)
    return errors


def check_grid_sum(label: str, values, cell: float) -> list[str]:
    """A Wigner function sampled on a grid of cell area ``cell`` integrates to 1."""
    total = float(np.sum(values)) * cell
    if not abs(total - 1.0) <= GRID_SUM_TOL:
        return [f"{label} integrates to {total!r}, not 1"]
    return []


def check_mc_estimate(spec: dict, estimate: float, n: int) -> list[str]:
    """One Monte Carlo estimate within Z_LIMIT exact standard errors."""
    mean, var = fidelity_moments(spec["r"], spec["gamma_t"], spec["M"], spec["eta"])
    se = math.sqrt(var / n)
    if not abs(estimate - mean) <= Z_LIMIT * se:
        return [f"estimate {estimate!r} is {abs(estimate - mean) / se:.1f} SE from {mean!r}"]
    return []


def check_mc_spread(spec: dict, estimates, n: int) -> list[str]:
    """Estimates from distinct seeds: their mean within Z_LIMIT standard errors.

    The standard error is taken from the spread over seeds, floored by the
    exact one so that few seeds cannot make the test arbitrarily tight.  Two
    bit-identical estimates mean a seed was ignored or reused.
    """
    est = np.asarray(estimates, dtype=float)
    k = est.size
    if k < 2:
        return ["fewer than two Monte Carlo seeds"]
    mean, var = fidelity_moments(spec["r"], spec["gamma_t"], spec["M"], spec["eta"])
    sigma = math.sqrt(var / n)
    if np.unique(est).size < k:
        return ["estimates from distinct seeds repeat"]
    spread = float(np.std(est, ddof=1))
    if spread > 5.0 * sigma:
        return [f"spread over seeds {spread:.3g} exceeds 5 exact SE {sigma:.3g}"]
    se = max(spread, sigma) / math.sqrt(k)
    if not abs(float(np.mean(est)) - mean) <= Z_LIMIT * se:
        return [f"mean estimate {np.mean(est)!r} is more than {Z_LIMIT} SE from {mean!r}"]
    return []


def check_sample_moments(label: str, draws, mean: float, var: float) -> list[str]:
    """Sample mean and variance of normal draws within Z_LIMIT standard errors."""
    draws = np.asarray(draws, dtype=float)
    n = draws.size
    errors = []
    if not abs(float(np.mean(draws)) - mean) <= Z_LIMIT * math.sqrt(var / n):
        errors.append(f"{label} sample mean {np.mean(draws)!r}, expected {mean!r}")
    if not abs(float(np.var(draws, ddof=1)) - var) <= Z_LIMIT * var * math.sqrt(2.0 / (n - 1)):
        errors.append(f"{label} sample variance {np.var(draws, ddof=1)!r}, expected {var!r}")
    return errors
