"""Truncated number-basis brute force used to validate the Gaussian engine.

It shares with the phase-space modules only ``gaussian``'s count and
efficiency checks and its UnphysicalStateError, no state, map or
measurement: states are amplitude arrays over number states, quadrature
projections use the oscillator wavefunctions, and inefficiency is
Gauss-Hermite smearing of the ideal record, so a conditional state is
amplitude rows f_k, one per node: rho = sum_k |f_k><f_k|.  Agreement with
the Gaussian closed forms is the package's strongest correctness evidence.

The same quadrature convention applies: x = (a + a^dag)/2, so the
ground-state wavefunction is (2/pi)^{1/4} e^{-x^2} with variance 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian import UnphysicalStateError, require_count, require_detector_efficiency

# Hilbert-space dimension cap: cutoff + 1 <= 128.
MAX_CUTOFF = 127


class DegenerateOutcomeError(ValueError):
    """Raised when a record value has vanishing probability density."""


def _require_cutoff(cutoff) -> int:
    cutoff = require_count(cutoff, "cutoff")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in [0, {MAX_CUTOFF}]")
    return cutoff


@dataclass(frozen=True)
class FockVector:
    """Pure state as amplitudes over number states.

    ``amps`` is 1-D (single mode, index p) or 2-D (two modes, indices
    p, q) with each axis running 0..cutoff.  They are stored as floats
    unless given complex, so real states project with real arithmetic.
    """

    cutoff: int
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cutoff", _require_cutoff(self.cutoff))
        amps = np.array(self.amps, dtype=complex if np.iscomplexobj(self.amps) else float)
        if amps.ndim not in (1, 2) or any(s != self.cutoff + 1 for s in amps.shape):
            raise ValueError("amps must be 1-D or 2-D with axes of length cutoff + 1")
        if not np.isfinite(amps).all():
            raise ValueError("amps must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def n_modes(self) -> int:
        return self.amps.ndim

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    @property
    def leakage(self) -> float:
        """Probability weight lost to truncation, 1 - norm_sq."""
        return max(0.0, 1.0 - self.norm_sq)


class FockMoments(NamedTuple):
    """Quadrature moments and purity of a conditional state."""

    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    cov_xy: float
    purity: float


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Hermite nodes in the unit variable with weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if points.shape != weights.shape or points.ndim != 1 or points.size == 0:
            raise ValueError("points and weights must be matching 1-D arrays")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)


def gauss_hermite_grid(n_nodes: int = 40) -> QuadratureGrid:
    """Grid integrating f against a unit Gaussian: sum w_k f(mu + sqrt(2) s u_k)."""
    nodes, weights = np.polynomial.hermite.hermgauss(require_count(n_nodes, "n_nodes", minimum=1))
    return QuadratureGrid(points=nodes, weights=weights / math.sqrt(math.pi))


def twb_fock(lam: float, cutoff: int) -> FockVector:
    """Truncated twin beam: amplitudes sqrt(1 - lam^2) lam^p on |p, p>.

    ``lam = tanh r`` ties this to the phase-space twin beam; the exact
    truncation leakage is lam^{2 (cutoff + 1)}.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lam must lie in [0, 1)")
    cutoff = _require_cutoff(cutoff)
    amps = np.diag(math.sqrt(1.0 - lam * lam) * lam ** np.arange(cutoff + 1))
    return FockVector(cutoff=cutoff, amps=amps)


def quadrature_wavefunction(x, cutoff: int) -> np.ndarray:
    """Oscillator wavefunctions psi_p(x) for p = 0..cutoff.

    One stable three-term recurrence for x, a finite scalar or an array of
    finite records; the p axis is appended last.
    """
    cutoff = _require_cutoff(cutoff)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"record x={x[~np.isfinite(x)].flat[0]} must be finite")
    out = np.empty((cutoff + 1,) + x.shape)  # p first: each step writes one block
    with np.errstate(over="ignore"):  # far out, x * x overflows and psi_0 underflows to 0
        out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    # where psi_0 is 0 every psi_p is; a zero x there keeps 2x finite
    two_x = 2.0 * np.where(out[0] == 0.0, 0.0, x)
    if cutoff >= 1:
        out[1] = two_x * out[0]
    for p in range(1, cutoff):
        out[p + 1] = (two_x * out[p] - math.sqrt(p) * out[p - 1]) / math.sqrt(p + 1.0)
    return np.moveaxis(out, 0, -1)


def condition_fock(
    state: FockVector, x, eta: float = 1.0, grid: QuadratureGrid | None = None
):
    """Project one arm of a two-mode state on quadrature records.

    Measures the first index at record value ``x`` with one efficiency
    ``eta``; an imperfect record is the ideal one smeared by Gaussian
    noise of variance (1 - eta)/(4 eta), integrated on the grid.  An
    array of records shares one wavefunction recurrence.

    Returns:
        (density, rows): the record's density and rows f_k = sqrt(w_k)
        psi(node_k) amps / sqrt(density) with rho = sum_k |f_k><f_k|; for
        an array ``x``, of shape x.shape and x.shape + (nodes, d).
    """
    if state.n_modes != 2:
        raise ValueError("conditioning requires a two-mode state")
    eta = require_detector_efficiency(eta, "eta")
    if eta == 1.0:  # an ideal record needs no smearing: one node
        grid = QuadratureGrid(points=[0.0], weights=[1.0])
    elif grid is None:
        grid = gauss_hermite_grid()
    x = np.asarray(x, dtype=float)
    sigma = math.sqrt((1.0 - eta) / (4.0 * eta))
    nodes = x[..., None] + math.sqrt(2.0) * sigma * grid.points
    rows = quadrature_wavefunction(nodes, state.cutoff) @ state.amps
    rows *= np.sqrt(grid.weights)[:, None]
    density = np.einsum("...kp,...kp->...", rows, rows.conj()).real
    if (density < 1e-300).any():
        first = x[density < 1e-300].flat[0]  # in C order
        raise DegenerateOutcomeError(f"record x={first} has vanishing density")
    rows /= np.sqrt(density)[..., None, None]
    return (float(density), rows) if x.ndim == 0 else (density, rows)


def moments_fock(rows: np.ndarray) -> FockMoments:
    """Quadrature means, (co)variances and purity of rho = sum_k |f_k><f_k|.

    ``rows`` holds the f_k, (..., K, d), as :func:`condition_fock` gives
    them; leading axes broadcast, and a 2-D input gives floats.  With
    rho[p+j, p] = sum_k f_k[p+j] conj(f_k[p]): mean_x + i mean_y = <a> =
    sum_p sqrt(p+1) rho[p+1, p]; with <a^2> = sum_p sqrt((p+1)(p+2))
    rho[p+2, p], var_x and var_y are (<{a, a^dag}> +- 2 Re<a^2>)/4 less the
    squared means and cov_xy is Im<a^2>/2 - mean_x mean_y; the purity is
    tr rho^2 = ||F F^dag||^2.  {a, a^dag} is that of the truncated ladder
    operators: diag(2p + 1), except p at the top level p = cutoff, where
    the truncated a a^dag is 0.  Rows must be finite, with unit trace to
    1e-8; real rows stay real.
    """
    rows = np.asarray(rows, dtype=complex if np.iscomplexobj(rows) else float)
    if rows.ndim < 2 or not np.isfinite(rows).all():
        raise UnphysicalStateError("rows must be finite, of shape (..., K, d)")
    conj, dim = rows.conj(), rows.shape[-1]
    diag, lower, lower_2 = (  # rho[p + j, p] over p, for j = 0, 1, 2
        np.einsum("...kp,...kp->...p", rows[..., j:], conj[..., : dim - j]) for j in range(3)
    )
    if (abs(diag.real.sum(axis=-1) - 1.0) > 1e-8).any():
        raise UnphysicalStateError("rho must have unit trace")
    levels = np.arange(dim)
    root = np.sqrt(levels[1:])  # sqrt(p + 1)
    a = (lower * root).sum(axis=-1)  # not @: a stack then equals its records bit for bit
    a_sq = (lower_2 * (root[:-1] * root[1:])).sum(axis=-1)
    anti = (diag.real * (levels + np.append(levels[1:], 0))).sum(axis=-1)
    purity = np.sum(np.abs(rows @ np.swapaxes(conj, -1, -2)) ** 2, axis=(-2, -1))
    mean_x, mean_y = a.real, a.imag
    var_x = 0.25 * (anti + 2.0 * a_sq.real) - mean_x**2
    var_y = 0.25 * (anti - 2.0 * a_sq.real) - mean_y**2
    cov_xy = 0.5 * a_sq.imag - mean_x * mean_y
    moments = (mean_x, mean_y, var_x, var_y, cov_xy, purity)
    return FockMoments(*(map(float, moments) if rows.ndim == 2 else moments))
