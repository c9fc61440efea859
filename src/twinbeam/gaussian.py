"""Multimode Gaussian operators in quadrature phase space.

Conventions used throughout the package:

* quadratures are x = (a + a^dag)/2 and y = i(a^dag - a)/2, so the vacuum
  has variance 1/4 per quadrature and a pure coherent state's Wigner
  function peaks at 2/pi;
* phase-space coordinates are ordered (x1, y1, x2, y2, ...);
* every Gaussian object carries an explicit scalar ``weight`` so that
  unnormalized operators (measurement elements, unconditioned outcomes)
  live in the same representation as density operators, whose Wigner
  function is ``weight`` times a normalized multivariate normal;
* a ``mean`` of shape (..., 2n) is a family of states sharing one
  covariance and weight.  ``displace``, ``overlap`` and ``wigner_eval``
  broadcast over its leading axes and over arrays of amplitudes or points;
  a 1-D mean (empty leading shape) gives plain floats.  Single-state
  operations such as ``decompose_single_mode`` reject a family;
* a family's points are added pairwise as complex numbers x + iy (see
  :func:`add_points`), so a million states stream as one flat array
  rather than a million loops over a trailing axis of length 2;
* every covariance change is one Gaussian map (X, Y), cov -> X cov X^T + Y
  (:func:`gaussian_map`): a symplectic X for ``squeeze`` and ``rotate``,
  diag(1, -1, ...) for ``transpose_wigner``, multiples of I for loss and noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

VACUUM_VARIANCE = 0.25

# Slack allowed on the uncertainty bound when certifying physicality.
PHYSICALITY_TOL = 1e-9

_COV_SYMMETRY_RTOL = 1e-12

# Below this many floats a plain broadcast add beats the complex views.
_PAIRS_MIN_SIZE = 64


class UnphysicalStateError(ValueError):
    """Raised when an operation requires a bona fide quantum state."""


def as_finite_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``name`` unless all are finite."""
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class GaussianOperator:
    """Gaussian-Wigner operator: weight times a normal density.

    Attributes:
        mean: quadrature means of shape (..., 2n), ordered (x1, y1, ...,
            xn, yn); leading axes index a family of states.
        cov: 2n x 2n symmetric positive-definite covariance matrix,
            shared by every member of the family.
        weight: positive scalar prefactor; 1 for a normalized state.
    """

    mean: np.ndarray
    cov: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        mean = as_finite_array(self.mean, "mean")
        cov = as_finite_array(self.cov, "cov")
        if mean.ndim == 0 or mean.shape[-1] == 0 or mean.shape[-1] % 2 != 0:
            raise ValueError("mean must have a last axis of even length")
        if cov.shape != mean.shape[-1:] * 2:
            raise ValueError("cov must be square and match the mean length")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > _COV_SYMMETRY_RTOL * scale:
            raise ValueError("cov must be symmetric")
        cov = 0.5 * (cov + cov.T)
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("cov must be positive definite") from None
        weight = float(self.weight)
        if not math.isfinite(weight) or weight <= 0.0:
            raise ValueError("weight must be a positive finite scalar")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "weight", weight)

    @property
    def n_modes(self) -> int:
        return self.mean.shape[-1] // 2

    def with_mean(self, mean: np.ndarray) -> GaussianOperator:
        """This operator's covariance and weight about ``mean``, a point or a
        family of shape (..., 2n) freshly computed from it.

        The covariance was validated when this operator was built, so only
        the mean's shape and finiteness are checked.  ``mean`` is taken
        over, not copied: it becomes read-only.
        """
        mean = np.asarray(mean, dtype=float)
        if mean.shape[-1:] != self.mean.shape[-1:]:
            raise ValueError("mean must match the operator's phase-space dimension")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        mean.setflags(write=False)
        op = object.__new__(GaussianOperator)
        op.__dict__.update(self.__dict__, mean=mean)  # with any cached spectrum
        return op

    @cached_property
    def min_symplectic_eigenvalue(self) -> float:
        """Least symplectic eigenvalue of ``cov``, computed once per operator."""
        return float(symplectic_eigenvalues(self.cov)[0])


@dataclass(frozen=True)
class SqueezedThermalDecomposition:
    """Canonical single-mode parameters: D(alpha) S(r, phase) rho_th(n_th)."""

    displacement: complex
    squeeze_r: float
    squeeze_phase: float
    n_th: float

    def to_operator(self) -> GaussianOperator:
        """Rebuild the Gaussian state described by these parameters."""
        squeezed = squeeze(thermal(self.n_th), 0, self.squeeze_r, self.squeeze_phase)
        return displace(squeezed, 0, self.displacement)


def _rotation_matrix(phi: float, name: str) -> np.ndarray:
    require_all(math.isfinite(phi), f"{name} must be finite; got {name}={phi}")
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _mode_block(mode: int, n_modes: int) -> slice:
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")
    return slice(2 * mode, 2 * mode + 2)


def _embed_single_mode(matrix: np.ndarray, mode: int, n_modes: int) -> np.ndarray:
    full = np.eye(2 * n_modes)
    block = _mode_block(mode, n_modes)
    full[block, block] = matrix
    return full


def gaussian_map(op: GaussianOperator, x: np.ndarray, y=0.0) -> GaussianOperator:
    """The Gaussian map (X, Y): mean -> X mean, cov -> X cov X^T + Y, weight
    kept; a family's means map together.  The constructor validates the result."""
    return GaussianOperator(mean=op.mean @ x.T, cov=x @ op.cov @ x.T + y, weight=op.weight)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    A covariance matrix describes a physical state iff every symplectic
    eigenvalue is at least the vacuum variance 1/4.
    """
    cov = np.asarray(cov, dtype=float)
    # the symplectic form of the (x1, y1, ...) ordering: [[0, 1], [-1, 0]] on each mode
    upper = np.diag(np.tile([1.0, 0.0], len(cov) // 2)[:-1], 1)
    eigs = np.linalg.eigvals(1j * (upper - upper.T) @ cov)
    # eigenvalues of i*Omega*cov come in +/- pairs; keep one of each
    return np.sort(np.abs(eigs))[::2]


def is_physical(op: GaussianOperator) -> bool:
    """True when the covariance satisfies the uncertainty bound."""
    return op.min_symplectic_eigenvalue >= VACUUM_VARIANCE - PHYSICALITY_TOL


def require_physical(op: GaussianOperator, what: str = "state") -> None:
    nu_min = op.min_symplectic_eigenvalue
    if nu_min < VACUUM_VARIANCE - PHYSICALITY_TOL:
        raise UnphysicalStateError(
            f"{what} violates the uncertainty bound: min symplectic eigenvalue "
            f"{float(nu_min)!r} is {VACUUM_VARIANCE - nu_min:.3g} below {VACUUM_VARIANCE}, "
            f"beyond the tolerance {PHYSICALITY_TOL:g}"
        )


def require_single(op: GaussianOperator, what: str = "operation") -> None:
    """Reject a family of states where one state is needed."""
    if op.mean.ndim != 1:
        raise ValueError(f"{what} needs a single state, not a family of shape {op.mean.shape[:-1]}")


def require_all(condition, message: str) -> None:
    """Raise ValueError(message) unless ``condition``, a bool or a bool
    array, holds everywhere."""
    if not (condition.all() if isinstance(condition, np.ndarray) else condition):
        raise ValueError(message)


def require_count(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int; ValueError unless it is an integer (not a bool)
    of at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return int(value)


def require_finite_nonnegative(name: str, value) -> None:
    """Reject a number, or an array with an element, that is negative or not finite."""
    require_all((0.0 <= value) & (value < math.inf), f"{name} must be finite and nonnegative")


def require_efficiency(value, name: str) -> None:
    """Reject an efficiency, or an array with an element, outside (0, 1] or NaN."""
    require_all((0.0 < value) & (value <= 1.0), f"{name} must lie in (0, 1]")


def add_points(a, b, op=np.add) -> np.ndarray:
    """Phase-space points ``op(a, b)`` of shape (..., 2n), broadcast over
    their leading axes; ``op`` is ``np.add`` or ``np.subtract``.

    Large operands are combined as (x, y) pairs of complex numbers: one
    flat pass, with the same sums as the plain operation.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.size + b.size < _PAIRS_MIN_SIZE or not a.strides[-1] == b.strides[-1] == a.itemsize:
        return op(a, b)
    return op(a.view(complex), b.view(complex)).view(float)


@np.errstate(over="ignore", invalid="ignore")
def normal_density(delta, cov: np.ndarray):
    """Normal density N(delta; 0, cov) over the leading axes of ``delta``.

    ``delta`` has shape (..., d) for a d x d ``cov``; a 1-D ``delta``
    gives a float.  A quadratic form that overflows gives 0.0, unwarned.
    """
    w = delta @ np.linalg.inv(cov)
    w *= delta
    norm = math.sqrt((2.0 * math.pi) ** len(cov) * np.linalg.det(cov))
    if w.ndim == 1:
        dens = float(np.exp(-0.5 * w.sum()) / norm)
        return dens if dens == dens else 0.0
    # a family's quadratic forms: the columns summed in the order of one
    # point's sum, one flat pass each rather than a reduction over a short
    # trailing axis; then exp in place
    dens = reduce(np.add, np.moveaxis(w, -1, 0))
    dens *= -0.5
    np.exp(dens, out=dens)
    dens /= norm
    return np.fmax(dens, 0.0, out=dens)  # NaN -> 0.0


def vacuum(n_modes: int = 1) -> GaussianOperator:
    """Vacuum state on ``n_modes`` modes."""
    n_modes = require_count(n_modes, "n_modes", minimum=1)
    return GaussianOperator(
        mean=np.zeros(2 * n_modes),
        cov=VACUUM_VARIANCE * np.eye(2 * n_modes),
    )


def coherent(alpha: complex) -> GaussianOperator:
    """Single-mode coherent state with quadrature mean (Re alpha, Im alpha)."""
    return displace(vacuum(1), 0, alpha)


def thermal(n_th: float) -> GaussianOperator:
    """Single-mode thermal state with mean photon number ``n_th``."""
    require_finite_nonnegative("n_th", n_th)
    width = (2.0 * n_th + 1.0) * VACUUM_VARIANCE
    require_all(width < math.inf, f"thermal covariance overflows at n_th={n_th}")
    return GaussianOperator(mean=np.zeros(2), cov=width * np.eye(2))


def twb(r: float) -> GaussianOperator:
    """Twin-beam (two-mode squeezed vacuum) state with squeezing ``r >= 0``.

    The sum quadrature (x1 + x2)/sqrt(2) and difference (y1 - y2)/sqrt(2)
    have variance e^{2r}/4; the conjugate combinations have e^{-2r}/4.
    """
    require_finite_nonnegative("r", r)
    try:
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise ValueError(f"twin-beam covariance overflows at r={r}") from None
    cov = VACUUM_VARIANCE * np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    return GaussianOperator(mean=np.zeros(4), cov=cov)


def photon_number(r: float) -> float:
    """Mean photon number per arm of a twin beam: N = 2 sinh^2 r."""
    require_finite_nonnegative("r", r)
    try:
        return 2.0 * math.sinh(r) ** 2
    except OverflowError:
        raise ValueError(f"photon number overflows at r={r}") from None


def squeezing_from_photon_number(n: float) -> float:
    """Inverse of :func:`photon_number`: r = arcsinh(sqrt(N / 2))."""
    if not 0.0 <= n < math.inf:
        raise ValueError("photon number must be finite and nonnegative")
    return math.asinh(math.sqrt(0.5 * n))


def displace(op: GaussianOperator, mode: int, alpha) -> GaussianOperator:
    """Displace one mode by ``alpha``; an array of amplitudes gives a family."""
    _mode_block(mode, op.n_modes)
    # each amplitude, as a complex pair, is the shift of its mode's (x, y)
    shift = np.asarray(alpha, dtype=complex)[..., None]
    if op.n_modes > 1:
        shift = np.where(np.arange(op.n_modes) == mode, shift, 0.0)
    with np.errstate(over="ignore"):  # an infinite mean is reported below
        mean = add_points(op.mean, shift.view(float))
    try:
        return op.with_mean(mean)
    except ValueError:
        raise ValueError("alpha must be finite and keep the displaced mean finite") from None


def squeeze(op: GaussianOperator, mode: int, r: float, phase: float = 0.0) -> GaussianOperator:
    """Squeeze one mode: variance e^{-2r}/4 along the ``phase`` direction.

    ``phase`` is the orientation of the squeezed axis in the (x, y) plane;
    phase 0 squeezes x and antisqueezes y.
    """
    require_all(math.isfinite(r), f"squeezing r must be finite; got r={r}")
    rot = _rotation_matrix(phase, "phase")
    try:
        core = np.diag([math.exp(-r), math.exp(r)])
        s = _embed_single_mode(rot @ core @ rot.T, mode, op.n_modes)
        with np.errstate(over="raise"):
            return gaussian_map(op, s)
    except (OverflowError, FloatingPointError):
        raise ValueError(f"squeezing overflows at r={r}") from None


def rotate(op: GaussianOperator, mode: int, phi: float) -> GaussianOperator:
    """Rotate one mode's quadratures by angle ``phi``."""
    s = _embed_single_mode(_rotation_matrix(phi, "phi"), mode, op.n_modes)
    return gaussian_map(op, s)


def wigner_eval(op: GaussianOperator, point):
    """Wigner function at one point (a float) or at points of shape (..., 2n)."""
    point = as_finite_array(point, "point")
    if point.shape[-1:] != op.mean.shape[-1:]:
        raise ValueError("point must match the operator's phase-space dimension")
    return op.weight * normal_density(add_points(point, op.mean, np.subtract), op.cov)


def overlap(a: GaussianOperator, b: GaussianOperator):
    """Hilbert-Schmidt overlap Tr[A B] = pi^n * integral of W_A W_B.

    For normalized states this is the purity (a == b) or the fidelity
    when at least one of the two is pure.  Families broadcast against
    each other and give an array of overlaps.
    """
    if a.n_modes != b.n_modes:
        raise ValueError("operators must act on the same number of modes")
    delta = add_points(a.mean, b.mean, np.subtract)
    return a.weight * b.weight * math.pi**a.n_modes * normal_density(delta, a.cov + b.cov)


def transpose_wigner(op: GaussianOperator) -> GaussianOperator:
    """Operator transpose, i.e. time reversal y -> -y on every mode."""
    return gaussian_map(op, np.diag(np.tile([1.0, -1.0], op.n_modes)))


def decompose_single_mode(op: GaussianOperator) -> SqueezedThermalDecomposition:
    """Factor a single-mode state as displaced squeezed thermal.

    Returns the unique parameters with squeeze_r >= 0 and squeeze_phase
    in [0, pi); a rotationally symmetric state reports phase 0.
    """
    if op.n_modes != 1:
        raise ValueError("decomposition requires a single-mode operator")
    require_single(op, "decomposition")
    require_physical(op)
    eigvals, eigvecs = np.linalg.eigh(op.cov)
    lam_min, lam_max = float(eigvals[0]), float(eigvals[1])
    nu = math.sqrt(lam_min * lam_max)
    n_th = max(0.0, 2.0 * nu - 0.5)
    r = 0.25 * math.log(lam_max / lam_min)
    if r < 1e-15:
        phase = 0.0
    else:
        v = eigvecs[:, 0]
        phase = math.atan2(v[1], v[0]) % math.pi
    return SqueezedThermalDecomposition(
        displacement=complex(op.mean[0], op.mean[1]),
        squeeze_r=r,
        squeeze_phase=phase,
        n_th=n_th,
    )
