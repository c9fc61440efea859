"""Multimode Gaussian operators in quadrature phase space.

Conventions used throughout the package:

* quadratures are x = (a + a^dag)/2 and y = i(a^dag - a)/2, so the vacuum
  has variance 1/4 per quadrature and a pure coherent state's Wigner
  function peaks at 2/pi;
* phase-space coordinates are ordered (x1, y1, x2, y2, ...);
* a state is its mean and the lower-triangular Cholesky factor L of its
  covariance, cov = L L^T (the square-root filter form: Kaminski, Bryson
  and Schmidt, IEEE TAC 16, 727 (1971)); ``cov`` is a read-only view.
  Entries ~e^{r} hold variances e^{-2r}/4 that a covariance of entries
  ~e^{2r} would round away;
* a ``mean`` of shape (..., 2n) is a family of states sharing one
  factor.  ``displace``, ``overlap`` and ``wigner_eval``
  broadcast over its leading axes and over arrays of amplitudes or points;
  a 1-D mean (empty leading shape) gives plain floats.  Single-state
  operations such as ``decompose_single_mode`` reject a family;
* a family's points are added pairwise as complex numbers x + iy (see
  :func:`add_points`), so a million states stream as one flat array
  rather than a million loops over a trailing axis of length 2;
* every covariance change is one Gaussian map (X, Y), cov -> X cov X^T + Y
  (:func:`gaussian_map`), L -> [X L, sqrt(Y)] re-triangularized: a
  symplectic X for ``squeeze`` and ``rotate``, diag(1, -1, ...) for
  ``transpose_wigner``, multiples of I for loss and noise;
* the uncertainty bound V + (i/4) Omega >= 0 is checked once, where a
  covariance enters, ``GaussianOperator(mean, cov)``: every map and
  measurement keeps a state physical, so none checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

VACUUM_VARIANCE = 0.25

# Slack allowed on the uncertainty bound when certifying physicality:
# PHYSICALITY_TOL, plus PHYSICALITY_ROUNDING * eps * ||L||_F^2 for the
# rounding of a factor L (||L||_F^2 = tr cov; cosh(2r) for a twin beam).
PHYSICALITY_TOL = 1e-9
PHYSICALITY_ROUNDING = 8.0

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


@dataclass(frozen=True, eq=False, init=False)
class GaussianOperator:
    """Gaussian-Wigner operator: a normal density in phase space.

    ``GaussianOperator(mean, cov)`` checks a user's covariance once, the
    uncertainty bound included, and keeps its Cholesky factor; operations
    keep states physical and build their results with :func:`from_factor`.

    Attributes:
        mean: quadrature means of shape (..., 2n), ordered (x1, y1, ...,
            xn, yn); leading axes index a family of states.
        factor: the 2n x 2n lower-triangular L with a positive diagonal and
            cov = L L^T, shared by every member of the family.
    """

    mean: np.ndarray
    factor: np.ndarray

    def __init__(self, mean, cov):
        mean = as_finite_array(mean, "mean")
        cov = as_finite_array(cov, "cov")
        if mean.ndim == 0 or mean.shape[-1] == 0 or mean.shape[-1] % 2 != 0:
            raise ValueError("mean must have a last axis of even length")
        if cov.shape != mean.shape[-1:] * 2:
            raise ValueError("cov must be square and match the mean length")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > _COV_SYMMETRY_RTOL * scale:
            raise ValueError("cov must be symmetric")
        try:
            factor = np.linalg.cholesky(0.5 * (cov + cov.T))
        except np.linalg.LinAlgError:
            raise ValueError("cov must be positive definite") from None
        self.__dict__.update(from_factor(mean, factor).__dict__)
        require_physical(self)

    @property
    def n_modes(self) -> int:
        return self.mean.shape[-1] // 2

    @cached_property
    def cov(self) -> np.ndarray:
        """The covariance L L^T, a read-only view computed on first use."""
        cov = self.factor @ self.factor.T
        cov.setflags(write=False)
        return cov

    def with_mean(self, mean: np.ndarray) -> GaussianOperator:
        """This operator's factor about ``mean``, a point or a family of
        shape (..., 2n) freshly computed, taken over."""
        if np.shape(mean)[-1:] != self.mean.shape[-1:]:
            raise ValueError("mean must match the operator's phase-space dimension")
        return from_factor(mean, self.factor)


def from_factor(mean, factor: np.ndarray) -> GaussianOperator:
    """The operator about ``mean`` with the lower-triangular ``factor`` of
    a physical state, such as a physical map's image of one: unchecked but
    for the mean's finiteness.  Both arrays are taken over, read-only."""
    mean = np.asarray(mean, dtype=float)
    if not np.isfinite(mean).all():
        raise ValueError("mean must be finite")
    mean.setflags(write=False)
    factor.setflags(write=False)
    op = object.__new__(GaussianOperator)
    op.__dict__.update(mean=mean, factor=factor)
    return op


@dataclass(frozen=True)
class SqueezedThermalDecomposition:
    """Canonical single-mode parameters: D(alpha) S(r, phase) rho_th(n_th)."""

    displacement: complex
    squeeze_r: float
    squeeze_phase: float
    n_th: float


def _rotation_matrix(phi: float, name: str) -> np.ndarray:
    require_all(math.isfinite(phi), f"{name} must be finite; got {name}={phi}")
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def mode_block(mode: int, n_modes: int) -> slice:
    """Mode ``mode``'s (x, y) slice; ValueError unless 0 <= mode < n_modes."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")
    return slice(2 * mode, 2 * mode + 2)


def _embed_single_mode(matrix: np.ndarray, mode: int, n_modes: int) -> np.ndarray:
    full = np.eye(2 * n_modes)
    block = mode_block(mode, n_modes)
    full[block, block] = matrix
    return full


def lower_factor(pre_array: np.ndarray) -> np.ndarray:
    """The lower-triangular L with a nonnegative diagonal and L L^T = A A^T
    for a d x k pre-array A, k >= d: R^T of A^T = QR, signs made positive."""
    d = len(pre_array)
    # 'raw' returns R's transpose in the lower triangle of h, with no triu pass
    h = np.linalg.qr(pre_array.T, mode="raw")[0][:, :d]
    return h * np.copysign(np.tri(d), h.diagonal())


def gaussian_map(op: GaussianOperator, x: np.ndarray, noise=None) -> GaussianOperator:
    """The Gaussian map (X, Y): mean -> X mean, cov -> X cov X^T + Y, for
    Y = N N^T given by a factor N of 2n rows (None for Y = 0); a family's
    means map together.  The factor L goes to [X L, N], re-triangularized.
    Unchecked: the caller passes a map that keeps states physical, such as a
    channel, Y + (i/4)(Omega - X Omega X^T) >= 0, or the transpose."""
    pre_array = x @ op.factor if noise is None else np.hstack([x @ op.factor, noise])
    return from_factor(op.mean @ x.T, lower_factor(pre_array))


def symplectic_eigenvalues(op: GaussianOperator) -> np.ndarray:
    """Symplectic spectrum of ``op``'s covariance, sorted ascending.

    A covariance matrix describes a physical state iff every symplectic
    eigenvalue is at least the vacuum variance 1/4.  The Hermitian
    i L^T Omega L = i (F - F^T), F = L_x^T L_y for the x and y rows of L
    (Omega is [[0, 1], [-1, 0]] on each mode), has the spectrum with both signs.
    """
    if not isinstance(op, GaussianOperator):
        raise TypeError("symplectic_eigenvalues takes the state, not its covariance")
    form = op.factor[0::2].T @ op.factor[1::2]
    return np.linalg.eigvalsh(1j * (form - form.T))[op.n_modes :]


def physicality_tolerance(op: GaussianOperator) -> float:
    """Slack allowed below the vacuum bound for ``op``: PHYSICALITY_TOL
    plus the rounding of its factor, PHYSICALITY_ROUNDING * eps * ||L||_F^2."""
    rounding = PHYSICALITY_ROUNDING * np.finfo(float).eps * np.vdot(op.factor, op.factor)
    return PHYSICALITY_TOL + float(rounding)


def is_physical(op: GaussianOperator) -> bool:
    """True when the covariance satisfies the uncertainty bound."""
    return float(symplectic_eigenvalues(op)[0]) >= VACUUM_VARIANCE - physicality_tolerance(op)


def require_physical(op: GaussianOperator) -> None:
    """Raise UnphysicalStateError unless ``op`` satisfies the uncertainty bound."""
    nu_min = float(symplectic_eigenvalues(op)[0])
    tol = physicality_tolerance(op)
    if nu_min < VACUUM_VARIANCE - tol:
        raise UnphysicalStateError(
            "state violates the uncertainty bound: min symplectic eigenvalue "
            f"{nu_min!r} is {VACUUM_VARIANCE - nu_min:.3g} below {VACUUM_VARIANCE}, "
            f"beyond the tolerance {tol!r}"
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


def require_finite_nonnegative(value, name: str) -> None:
    """Reject a number, or an array with an element, that is negative or not finite."""
    require_all((0.0 <= value) & (value < math.inf), f"{name} must be finite and nonnegative")


def require_efficiency(value, name: str) -> None:
    """Reject an efficiency, or an array element, that is NaN, outside (0, 1] or at most 2^-1024."""
    require_all((0.0 < value) & (value <= 1.0), f"{name} must lie in (0, 1]")
    tiny = value <= 2.0**-1024  # exactly where (1 - eta) / eta, rounded as 1 / eta, overflows
    if tiny.any() if isinstance(tiny, np.ndarray) else tiny:
        eta = np.asarray(value)[tiny].flat[0].item()
        raise ValueError(f"{name} {eta!r} is too small: its record noise overflows")


def require_detector_efficiency(value, name: str) -> float:
    """``value`` as one detector's float efficiency, one number ``require_efficiency`` passes."""
    require_all(np.ndim(value) == 0, f"{name} must be one number, not an array")
    require_efficiency(value, name)
    return float(value)


def elementwise(f, x):
    """``f`` of a number, or of each element of an array, as a float array:
    array results equal the scalar calls bit for bit, as ``np.exp`` or an
    array's ``** 2`` (x * x, not C ``pow``) need not."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return f(x)


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
def normal_density(delta, factor: np.ndarray):
    """Normal density N(delta; 0, L L^T) over the leading axes of ``delta``
    for a lower-triangular d x d ``factor`` L with a positive diagonal.

    A 1-D ``delta`` gives a float.  A quadratic form that overflows gives
    0.0, unwarned.  L^-1 delta comes by forward substitution: one point's
    coordinates as floats, a family's as flat columns updated in place, by
    the same IEEE operations in the same order, so a family's densities are
    its members' bit for bit.
    """
    rows = factor.tolist()
    point = delta.ndim == 1
    w = delta.tolist() if point else [delta[..., i].copy() for i in range(len(rows))]
    for i, row in enumerate(rows):
        for j in range(i):
            w[i] -= row[j] * w[j]
        w[i] /= row[i]
    for i in range(len(w)):
        w[i] *= w[i]
    form = w[0]
    for square in w[1:]:
        form += square
    form *= -0.5
    # sqrt((2 pi)^d det(L L^T)), the determinant the product of diag(L)^2
    norm = math.sqrt(2.0 * math.pi) ** len(rows) * math.prod(factor.diagonal().tolist())
    if point:
        dens = float(np.exp(form)) / norm
        return dens if dens == dens else 0.0
    np.exp(form, out=form)
    form /= norm
    return np.fmax(form, 0.0, out=form)  # NaN -> 0.0


def vacuum(n_modes: int = 1) -> GaussianOperator:
    """Vacuum state on ``n_modes`` modes."""
    n_modes = require_count(n_modes, "n_modes", minimum=1)
    return from_factor(np.zeros(2 * n_modes), math.sqrt(VACUUM_VARIANCE) * np.eye(2 * n_modes))


def coherent(alpha: complex) -> GaussianOperator:
    """Single-mode coherent state with quadrature mean (Re alpha, Im alpha)."""
    return displace(vacuum(1), 0, alpha)


def thermal(n_th: float) -> GaussianOperator:
    """Single-mode thermal state with mean photon number ``n_th``."""
    require_finite_nonnegative(n_th, "n_th")
    width = (2.0 * n_th + 1.0) * VACUUM_VARIANCE
    require_all(width < math.inf, f"thermal covariance overflows at n_th={n_th}")
    return from_factor(np.zeros(2), math.sqrt(width) * np.eye(2))


def twb(r: float) -> GaussianOperator:
    """Twin-beam (two-mode squeezed vacuum) state with squeezing ``r >= 0``.

    The sum quadrature (x1 + x2)/sqrt(2) and difference (y1 - y2)/sqrt(2)
    have variance e^{2r}/4; the conjugate combinations have e^{-2r}/4.  The
    Cholesky factor's closed form has no cancellation, so these survive at any r.
    """
    require_finite_nonnegative(r, "r")
    try:
        c = math.sqrt(math.cosh(2.0 * r))
    except OverflowError:
        raise ValueError(f"twin-beam covariance overflows at r={r}") from None
    factor = np.diag([0.5 * c, 0.5 * c, 0.5 / c, 0.5 / c])
    cross = 0.5 * math.tanh(2.0 * r) * c
    factor[2, 0], factor[3, 1] = cross, -cross
    return from_factor(np.zeros(4), factor)


def photon_number(r: float) -> float:
    """Mean photon number per arm of a twin beam: N = 2 sinh^2 r; an array
    of r gives one per element.  ValueError names the first r that overflows."""
    require_finite_nonnegative(r, "r")
    return elementwise(_photon_number, r)


def _photon_number(r: float) -> float:
    try:  # ldexp doubles exactly and, unlike 2.0 * ..., raises where that overflows
        return math.ldexp(math.sinh(r) ** 2, 1)
    except OverflowError:
        raise ValueError(f"photon number overflows at r={r}") from None


def squeezing_from_photon_number(n: float) -> float:
    """Inverse of :func:`photon_number`: r = arcsinh(sqrt(N / 2))."""
    require_finite_nonnegative(n, "photon number")
    return math.asinh(math.sqrt(0.5 * n))


def displace(op: GaussianOperator, mode: int, alpha) -> GaussianOperator:
    """Displace one mode by ``alpha``; an array of amplitudes gives a family."""
    mode_block(mode, op.n_modes)
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
        math.exp(2.0 * abs(r))  # the squeezed variance's scale must be finite
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
    return normal_density(add_points(point, op.mean, np.subtract), op.factor)


def overlap(a: GaussianOperator, b: GaussianOperator):
    """Hilbert-Schmidt overlap Tr[A B] = pi^n * integral of W_A W_B.

    For normalized states this is the purity (a == b) or the fidelity
    when at least one of the two is pure.  Families broadcast against
    each other and give an array of overlaps.
    """
    if a.n_modes != b.n_modes:
        raise ValueError("operators must act on the same number of modes")
    delta = add_points(a.mean, b.mean, np.subtract)
    factor = lower_factor(np.hstack([a.factor, b.factor]))  # of a.cov + b.cov
    return math.pi**a.n_modes * normal_density(delta, factor)


def transpose_wigner(op: GaussianOperator) -> GaussianOperator:
    """Operator transpose, i.e. time reversal y -> -y on every mode."""
    return gaussian_map(op, np.diag(np.tile([1.0, -1.0], op.n_modes)))


def decompose_single_mode(op: GaussianOperator) -> SqueezedThermalDecomposition:
    """Factor a single-mode state as displaced squeezed thermal.

    Returns the unique parameters with squeeze_r >= 0 and squeeze_phase
    in [0, pi); a rotationally symmetric state reports phase 0.
    ``n_th = 2 s_min s_max - 1/2`` cancels near a pure state: it holds to ~eps
    absolute, not relative.  Heralded from ``twb(r)`` at eta 0.8 and x 0.7 it
    reads 2.0006e-13 at r = 1e-6 (``remote_prep``: 1.9995e-13) and 1.1e-16 at
    r = 1e-8 (0.0); compare such states by covariance and mean, not ``n_th``.
    """
    if op.n_modes != 1:
        raise ValueError("decomposition requires a single-mode operator")
    require_single(op, "decomposition")
    # cov = L L^T has eigenvalues s^2 and eigenvectors u for L = u diag(s) v^T
    u, s, _ = np.linalg.svd(op.factor)
    s_max, s_min = float(s[0]), float(s[1])
    n_th = max(0.0, 2.0 * s_min * s_max - 0.5)
    r = 0.5 * math.log(s_max / s_min)
    phase = 0.0 if r < 1e-15 else math.atan2(u[1, 1], u[0, 1]) % math.pi  # u's column for s_min
    return SqueezedThermalDecomposition(
        displacement=complex(op.mean[0], op.mean[1]),
        squeeze_r=r,
        squeeze_phase=phase,
        n_th=n_th,
    )
