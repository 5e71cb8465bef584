"""Density profiles over the line parameter t, and revolution volumes.

A profile is a continuous probability density in the parameter t of a
line's map g(t) = x + (y - x) * t.  Six families are supported:

    uniform(a, b)        1/(b-a) on [a, b]
    normal(mu, var)      Gaussian with mean mu and *variance* var
    ellipsoidal(a, b)    half-ellipse (2/(pi*a)) * sqrt(1 - (t/a)^2) on [-a, a]
    gamma(shape, rate)   rate^k t^(k-1) e^(-rate t) / Gamma(k) on [0, inf)
    beta(a1, a2)         t^(a1-1) (1-t)^(a2-1) / B(a1, a2) on [0, 1]
    exponential(rate)    rate * e^(-rate t) on [0, inf)

Gamma and beta shapes below 1 are rejected: they make the density unbounded
at a support endpoint, and every consumer here assumes a continuous bounded
density.  At large shapes the gamma and beta normalisers overflow where
their power terms underflow, so gamma densities, and beta densities past
BETA_LOG_NORM_MAX, are exp of the summed logs.  The ellipsoidal `b`
parameter is validated but cancels under normalization (the height is fixed
at 2/(pi*a) so the density integrates to 1); it is accepted for symmetry
with the two-parameter families.

Revolution volumes: rotating a density f around its carrier segment sweeps,
in R^n, a region whose cross-section at parameter t is an (n-1)-ball of
radius f(t), so

    V = c_{n-1} * |y - x| * integral of f(t)^(n-1) dt

with c_m the unit m-ball volume.  This integral runs over effective_window,
and every line or segment with the density reads it cut to that window (its
reach, in neighborhood): a bounded family's support, or else the support
cut where a tail of mass 1e-6 starts, both tails of the normal
(statistics.NormalDist) and the upper tail of the [0, inf) families,
-log1p(-q) / rate (exponential) or scipy.special.gammaincinv (gamma,
imported only then).
The integral is in closed form for every family (_power_integral): f^m is
a constant times a density of the same family, or a beta function, so it
costs a few lgamma, exp or cdf calls (DLMF 5.12 and 8.2; scipy.special's
gammainc for gamma only).  adaptive_quadrature stays as the tests'
numerical reference.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError
from .geometry import SegmentLike

FAMILIES = ("uniform", "normal", "ellipsoidal", "gamma", "beta", "exponential")

#: quantile used to truncate unbounded supports (volumes and search)
WINDOW_EPS = 1e-6
#: adaptive quadrature (the tests' reference) stops at this relative error
#: estimate or interval count
QUAD_REL_TOL = 1e-8
QUAD_MAX_INTERVALS = 1 << 16
#: beta densities whose log normaliser exceeds this are evaluated in log space.
#: Below it the plain product keeps its bits (beta(2, 1) is 2t exactly), and
#: its power terms only underflow where the density is below e^-400.
BETA_LOG_NORM_MAX = 300.0


@dataclass(frozen=True)
class Profile:
    """An immutable density profile: a family name plus its parameters."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown profile family {self.family!r}")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        p = self.params
        if not all(math.isfinite(v) for v in p):
            raise ConfigurationError(f"{self.family} parameters must be finite, got {p}")
        checks = {
            "uniform": (len(p) == 2 and p[0] < p[1], "uniform needs a < b"),
            "normal": (len(p) == 2 and p[1] > 0, "normal needs variance > 0"),
            "ellipsoidal": (len(p) == 2 and p[0] > 0 and p[1] > 0,
                            "ellipsoidal needs a > 0 and b > 0"),
            "gamma": (len(p) == 2 and p[0] >= 1 and p[1] > 0,
                      "gamma needs shape >= 1 (bounded density) and rate > 0"),
            "beta": (len(p) == 2 and p[0] >= 1 and p[1] >= 1,
                     "beta needs both shapes >= 1 (bounded density)"),
            "exponential": (len(p) == 1 and p[0] > 0, "exponential needs rate > 0"),
        }
        ok, msg = checks[self.family]
        if not ok:
            raise ConfigurationError(f"{msg}, got {p}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, a: float, b: float) -> "Profile":
        return cls("uniform", (a, b))

    @classmethod
    def normal(cls, mean: float, variance: float) -> "Profile":
        return cls("normal", (mean, variance))

    @classmethod
    def ellipsoidal(cls, a: float, b: float) -> "Profile":
        return cls("ellipsoidal", (a, b))

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "Profile":
        return cls("gamma", (shape, rate))

    @classmethod
    def beta(cls, a1: float, a2: float) -> "Profile":
        return cls("beta", (a1, a2))

    @classmethod
    def exponential(cls, rate: float) -> "Profile":
        return cls("exponential", (rate,))

    # -- density -----------------------------------------------------------

    def pdf(self, t):
        """Density at parameter t (scalar or array), zero outside the support."""
        t = np.asarray(t, dtype=np.float64)
        fam, p = self.family, self.params
        if fam == "uniform":
            a, b = p
            return np.where((t >= a) & (t <= b), 1.0 / (b - a), 0.0)
        if fam == "normal":
            mu, var = p
            return np.exp(-0.5 * (t - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
        if fam == "ellipsoidal":
            a = p[0]
            u = np.clip(t / a, -1.0, 1.0)
            inside = np.abs(t) <= a
            return np.where(inside, (2.0 / (math.pi * a)) * np.sqrt(1.0 - u * u), 0.0)
        if fam == "gamma":
            k, lam = p
            # in log space: at large shapes rate^k / Gamma(k) and the power
            # terms overflow or underflow where their product does not; t is
            # replaced outside [0, inf), where (k - 1) log t - lam t is inf - inf
            inside = (t >= 0) & (t < math.inf)
            tc = np.where(inside, t, 0.0)
            log_f = k * math.log(lam) - math.lgamma(k) + _xlog(k - 1.0, tc) - lam * tc
            return np.where(inside, np.exp(log_f), 0.0)
        if fam == "beta":
            a1, a2 = p
            inside = (t >= 0) & (t <= 1)
            tc = np.clip(t, 0.0, 1.0)
            log_norm = math.lgamma(a1 + a2) - math.lgamma(a1) - math.lgamma(a2)
            if log_norm > BETA_LOG_NORM_MAX:
                val = np.exp(log_norm + _xlog(a1 - 1.0, tc) + _xlog(a2 - 1.0, 1.0 - tc))
            else:
                val = math.exp(log_norm) * np.power(tc, a1 - 1.0) * np.power(1.0 - tc, a2 - 1.0)
            return np.where(inside, val, 0.0)
        lam = p[0]  # exponential
        return np.where(t >= 0, lam * np.exp(-lam * np.maximum(t, 0.0)), 0.0)

    def support(self) -> tuple[float, float]:
        """Closure of {t : pdf(t) > 0}."""
        fam, p = self.family, self.params
        if fam == "uniform":
            return (p[0], p[1])
        if fam == "normal":
            return (-math.inf, math.inf)
        if fam == "ellipsoidal":
            return (-p[0], p[0])
        if fam == "beta":
            return (0.0, 1.0)
        return (0.0, math.inf)  # gamma, exponential

    def mode(self) -> float:
        """Parameter of the density maximum (every family is unimodal)."""
        fam, p = self.family, self.params
        if fam == "uniform":
            return 0.5 * (p[0] + p[1])
        if fam == "normal":
            return p[0]
        if fam == "ellipsoidal":
            return 0.0
        if fam == "gamma":
            k, lam = p
            return (k - 1.0) / lam
        if fam == "beta":
            a1, a2 = p
            if a1 + a2 == 2.0:  # beta(1,1): constant density
                return 0.5
            return (a1 - 1.0) / (a1 + a2 - 2.0)
        return 0.0  # exponential


def _xlog(c: float, x):
    """c * log(x) for an array x >= 0, with 0 * log(0) = 0 (so 0^0 = 1)."""
    if c == 0.0:
        return 0.0
    with np.errstate(divide="ignore"):  # log(0) = -inf, and e^-inf = 0
        return c * np.log(x)


def density(p: Profile, t: float) -> float:
    """Scalar density value at t."""
    return float(p.pdf(t))


def effective_window(p: Profile, eps: float = WINDOW_EPS) -> tuple[float, float]:
    """The window a density's neighbourhood and volume are read over.

    A bounded support is returned whole.  An unbounded one loses only its
    infinite tails: the normal's window is [Q(eps), Q(1-eps)], and the
    [0, inf) families' (gamma, exponential) is [0, Q(1-eps)], so it keeps
    their end at 0, where an exponential, and a gamma of shape 1, has its
    mode.  This window is the reach of every line with the density
    (neighborhood._witness_domain).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    fam, params = p.family, p.params
    if fam == "normal":
        quantile = NormalDist(params[0], math.sqrt(params[1])).inv_cdf
    elif fam == "gamma":
        # scipy.special costs about 0.25 s and 25 MB to import; only gamma needs it
        from scipy.special import gammaincinv
        quantile = lambda q: float(gammaincinv(params[0], q)) / params[1]
    elif fam == "exponential":
        quantile = lambda q: -math.log1p(-q) / params[0]
    else:
        return p.support()
    return (quantile(eps) if fam == "normal" else 0.0, quantile(1.0 - eps))


def peak_density(p: Profile, lo: float, hi: float) -> float:
    """Supremum of the density on [lo, hi].

    Every family is unimodal, so the supremum on an interval is the density
    at the mode clamped into the interval; the endpoints are taken as a
    safety max.
    """
    if hi < lo:
        return 0.0
    m = min(max(p.mode(), lo), hi)
    return max(density(p, m), density(p, lo), density(p, hi))


# -- profile text form -----------------------------------------------------

def parse_profile(text: str) -> Profile:
    """Parse the textual form `family:p1,p2`, e.g. `uniform:-4,4`.

    Family names are case-insensitive; exponential takes a single parameter.
    """
    head, sep, tail = text.strip().partition(":")
    fam = head.strip().lower()
    if fam not in FAMILIES:
        raise ConfigurationError(f"unknown profile family in {text!r}")
    if not sep or not tail.strip():
        raise ConfigurationError(f"profile {text!r} is missing parameters")
    try:
        params = tuple(float(v) for v in tail.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad profile parameters in {text!r}: {exc}") from None
    return Profile(fam, params)


def format_profile(p: Profile) -> str:
    return p.family + ":" + ",".join(f"{v:.17g}" for v in p.params)


# -- unit balls and adaptive quadrature -------------------------------------

def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m: pi^(m/2) / Gamma(m/2 + 1)."""
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


# Gauss-Kronrod 7-15 pair on [-1, 1]; the 7-point Gauss rule is embedded in
# the 15-point Kronrod extension, giving the error estimate for free.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])
_KRONROD_W = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
_GAUSS_W = np.zeros(15)
for _i, _w in zip((1, 3, 5), _WG[:3]):
    _GAUSS_W[_i] = _GAUSS_W[14 - _i] = _w
_GAUSS_W[7] = _WG[3]


def _gk15(fn, lo: float, hi: float) -> tuple[float, float]:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = np.asarray(fn(mid + half * _NODES), dtype=np.float64)
    kron = half * float(_KRONROD_W @ vals)
    gauss = half * float(_GAUSS_W @ vals)
    return kron, abs(kron - gauss)


# Hand-rolled on purpose: scipy.integrate costs a further 0.24-0.32 s and 26 MB
# to import, and its quad gave the same integrals to 4e-15 on the six families
# in 2, 3 and 7 dimensions (5e-10 on 2-d ellipsoidal, where this rule is less exact).
def adaptive_quadrature(fn, lo: float, hi: float) -> float:
    """Globally adaptive Gauss-Kronrod integration of a vectorized fn.

    The worst interval (largest error estimate) is bisected until the summed
    error drops below QUAD_REL_TOL of the integral, or QUAD_MAX_INTERVALS
    intervals exist.
    Subdivision naturally concentrates at support endpoints where profile
    families lose smoothness.

    Nothing in the package calls it since the volumes took closed forms; it
    is the numerical reference those forms and the profile normalizations
    are tested against.  It stays in this module, not in oracle, because
    benchmark/tracing.py counts its calls by patching
    profiles.adaptive_quadrature.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("quadrature needs finite integration bounds")
    if hi <= lo:
        return 0.0
    val, err = _gk15(fn, lo, hi)
    total, total_err = val, err
    heap = [(-err, 0, lo, hi, val)]
    tick = 1
    count = 1
    while total_err > QUAD_REL_TOL * max(abs(total), 1e-300) and count < QUAD_MAX_INTERVALS:
        neg_err, _, a, b, old = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _gk15(fn, a, m)
        v2, e2 = _gk15(fn, m, b)
        total += (v1 + v2) - old
        total_err += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, tick, a, m, v1))
        heapq.heappush(heap, (-e2, tick + 1, m, b, v2))
        tick += 2
        count += 1
    return total


# -- revolution volumes and scaling factors ---------------------------------

def _log_beta(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def _power_integral(p: Profile, m: int, lo: float, hi: float) -> float:
    """Integral of f(t)^m over [lo, hi], p's effective window, in closed form.

    A bounded family's window is its whole support.  The gamma and beta
    normalisers are taken in log space (DLMF 5.12); the gamma window's mass
    is a regularized incomplete gamma difference (DLMF 8.2).
    """
    fam, q = p.family, p.params
    if fam == "uniform":
        return (q[1] - q[0]) ** (1 - m)
    if fam == "normal":
        mu, var = q
        # f^m is a normal density with variance var / m, times a constant
        narrow = NormalDist(mu, math.sqrt(var / m))
        return ((2.0 * math.pi * var) ** (0.5 * (1 - m)) / math.sqrt(m)
                * (narrow.cdf(hi) - narrow.cdf(lo)))
    if fam == "exponential":
        lam = q[0]
        return lam ** (m - 1) / m * (math.exp(-m * lam * lo) - math.exp(-m * lam * hi))
    if fam == "gamma":
        from scipy.special import gammainc  # as in effective_window: only gamma needs scipy
        k, lam = q
        a, rate = m * (k - 1.0) + 1.0, m * lam  # f^m is a gamma(a, rate) density, times a constant
        log_norm = m * (k * math.log(lam) - math.lgamma(k)) + math.lgamma(a) - a * math.log(rate)
        return math.exp(log_norm) * float(gammainc(a, rate * hi) - gammainc(a, rate * lo))
    if fam == "beta":
        a1, a2 = q
        return math.exp(_log_beta(m * (a1 - 1.0) + 1.0, m * (a2 - 1.0) + 1.0)
                        - m * _log_beta(a1, a2))
    a = q[0]  # ellipsoidal: t = a u turns f^m into (2/(pi a))^m (1 - u^2)^(m/2)
    return (2.0 / (math.pi * a)) ** m * a * math.exp(_log_beta(0.5, 0.5 * m + 1.0))


def neighbourhood_volume(p: Profile, l: SegmentLike, n: int,
                         scale: float = 1.0) -> float:
    """Volume swept by rotating the scaled density around the carrier.

    V = c_{n-1} * |y - x| * scale^(n-1) * integral of f(t)^(n-1) over the
    effective window, the integral in closed form (_power_integral).  With
    scale = 1 this is the base density-neighbourhood volume that the
    scaling factor normalizes against.
    """
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    if l.is_degenerate:
        raise ValueError("degenerate segment: zero-length axis of revolution")
    lo, hi = effective_window(p)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("profile window is not finite; volume does not exist")
    arc = math.sqrt(l.sq_length)  # parametrization speed |y - x|
    m = n - 1
    try:
        vol = unit_ball_volume(m) * arc * (scale ** m * _power_integral(p, m, lo, hi))
    except OverflowError:  # a float power or exp out of range
        vol = math.inf
    if not math.isfinite(vol) or vol <= 0.0:
        raise ValueError(f"neighbourhood volume is not finite/positive: {vol}")
    return vol


def scaling_factor(V: float, p: Profile, l: SegmentLike, n: int) -> float:
    """Ratio of the target volume to the base neighbourhood volume."""
    if V <= 0.0:
        raise ValueError(f"volume parameter must be positive, got {V}")
    return V / neighbourhood_volume(p, l, n, 1.0)


def exact_volume_scaling_factor(V: float, p: Profile, l: SegmentLike, n: int) -> float:
    """Scale that makes the swept volume (neighbourhood_volume) equal V.

    The swept volume grows like scale^(n-1), so this is the (n-1)-th root of
    the plain ratio; for n = 2 the two coincide.  It is the body of
    revolution over f's effective window only: the set a segment's relation
    tests is the body over [0, 1] cut to that window plus its end caps, of
    volume 3.488 +- 0.002 (Monte Carlo) for V = 3, uniform(0, 1), in 3-d.
    """
    return scaling_factor(V, p, l, n) ** (1.0 / (n - 1))
