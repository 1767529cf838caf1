"""Innovation distributions and their integer discretizations.

A count variable is produced by scaling a non-negative continuous innovation
``Y`` and taking the integer part, ``X = floor(sigma * Y)``.  The resulting
family of count laws is nearly scale invariant: mean and standard deviation
of ``X`` grow at the same rate in ``sigma``.  This module provides

* the four built-in innovation families (exponential, half-normal,
  half-Cauchy, chi-square) with density, CDF and quantile function,
* the discretized law of ``floor(sigma * Y)`` with pmf/CDF/quantile,
* the crossing index of two scalings, where the difference of their pmfs
  changes sign; the coupling uses it, and so does the total variation
  distance (a dense head, then doubling blocks in closed form, the block
  holding the index split there), and
* the density-derived constants that control contraction and mixing of the
  feedback process built on these laws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar, Union

import numpy as np
from scipy import integrate, special

from .errors import ConfigError, NumericError

# Truncation tail for pmf tables and series summation.
TAIL = 1e-12
# Grid size for the monotone-envelope fallback in constant computation.
ENVELOPE_GRID = 10_000
# Most indices the dense TV head sums before the tail goes on in blocks.
DENSE_MAX = 4_000_000
# Most indices per leaf of the dense TV head's summation tree; a leaf's
# temporaries fit in L2, and only one leaf is held at a time.
HEAD_BLOCK = 2**14
# Below this relative scale gap the crossing test integrates the density.
NEAR_GAP = 1e-2


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _masked(keep, val, fill):
    """``np.where(keep, val, fill)`` for a freshly computed ``val``: filled in
    place with ``np.copyto``, which saves a second array and the select, and
    through ``np.where`` for 0-d input, whose ufunc results are numpy scalars."""
    if np.ndim(val) == 0:
        return np.where(keep, val, fill)
    np.copyto(val, fill, where=~keep)
    return val


def _log_ratio_factor(s_lo, s_hi):
    """``ln(r) / (r - 1)`` for ``r = s_hi / s_lo >= 1``, and 1 at r = 1.

    Written as ``log1p(x) / x`` with ``x = (s_hi - s_lo) / s_lo`` so that it
    stays accurate as r goes to 1.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = (_as_float_array(s_hi) - s_lo) / s_lo
        return np.where(x > 0, np.log1p(x) / x, 1.0)


# ---------------------------------------------------------------------------
# Innovation families
# ---------------------------------------------------------------------------

class _Family:
    """Shape shared by the families: ``mode`` is 0 for a non-increasing density.

    Each family also has ``crossing(s_lo, s_hi)``: the point ``y*`` where the
    scaled densities ``p(y/s_lo)/s_lo`` and ``p(y/s_hi)/s_hi`` cross, for
    ``0 < s_lo <= s_hi`` (arrays allowed).  It is the only crossing: below it
    the low scale has the larger density, above it the high scale.  For equal
    scales it returns the limit as the ratio goes to 1.
    """

    mode = 0.0

    @property
    def monotone_density(self) -> bool:
        return self.mode == 0.0


@dataclass(frozen=True)
class Exponential(_Family):
    """Exponential innovation, density ``rate * exp(-rate*y)`` on [0, inf)."""

    rate: float = 1.0
    family: ClassVar[str] = "exponential"

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ConfigError(f"exponential rate must be positive, got {self.rate}")

    def density(self, y):
        y = _as_float_array(y)
        return _masked(y >= 0, self.rate * np.exp(-self.rate * np.maximum(y, 0.0)), 0.0)

    def cdf(self, y):
        y = _as_float_array(y)
        return _masked(y > 0, -np.expm1(-self.rate * np.maximum(y, 0.0)), 0.0)

    def sf(self, y):
        y = _as_float_array(y)
        return _masked(y > 0, np.exp(-self.rate * np.maximum(y, 0.0)), 1.0)

    def quantile(self, u):
        u = _as_float_array(u)
        with np.errstate(divide="ignore"):  # u = 1 gives inf
            return -np.log1p(-u) / self.rate

    def crossing(self, s_lo, s_hi):
        # rate y (1/s_lo - 1/s_hi) = ln(s_hi/s_lo)
        return s_hi * _log_ratio_factor(s_lo, s_hi) / self.rate


@dataclass(frozen=True)
class HalfNormal(_Family):
    """Absolute value of a centered normal with standard deviation ``scale``."""

    scale: float = 1.0
    family: ClassVar[str] = "half_normal"

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ConfigError(f"half-normal scale must be positive, got {self.scale}")

    def density(self, y):
        y = _as_float_array(y)
        nu = self.scale
        val = math.sqrt(2.0 / math.pi) / nu * np.exp(-np.square(np.maximum(y, 0.0)) / (2 * nu * nu))
        return _masked(y >= 0, val, 0.0)

    def cdf(self, y):
        y = _as_float_array(y)
        return _masked(y > 0, special.erf(np.maximum(y, 0.0) / (self.scale * math.sqrt(2.0))), 0.0)

    def sf(self, y):
        y = _as_float_array(y)
        return _masked(y > 0, special.erfc(np.maximum(y, 0.0) / (self.scale * math.sqrt(2.0))), 1.0)

    def quantile(self, u):
        u = _as_float_array(u)
        return self.scale * math.sqrt(2.0) * special.erfinv(u)

    def crossing(self, s_lo, s_hi):
        # y^2 (1/s_lo^2 - 1/s_hi^2) / (2 scale^2) = ln(s_hi/s_lo)
        return self.scale * s_hi * np.sqrt(2.0 * _log_ratio_factor(s_lo, s_hi) * s_lo / (s_lo + s_hi))


def _mirror_sum(term, y, m):
    """``term(y - m) + term(y + m)`` for ``y >= 0``, bit for bit.

    At ``m = 0`` both terms are the same double (``y - 0.0 == y + 0.0``) and
    ``a + a == 2a`` exactly, so one evaluation, doubled, gives the same bits.
    """
    return 2.0 * term(y) if m == 0.0 else term(y - m) + term(y + m)


@dataclass(frozen=True)
class HalfCauchy(_Family):
    """Absolute value of a Cauchy variable with the given location and scale.

    Density ``(s/pi) * [1/((y-m)^2+s^2) + 1/((y+m)^2+s^2)]`` on [0, inf) with
    ``m = |location|``, ``s = scale`` and ``c = m^2 + s^2``.  Closed forms:
    the cdf is ``theta/pi`` with ``tan(theta) = 2ys/(c - y^2)``, so the
    quantile at u is the positive root of ``y^2 + 2ys cot(pi u) - c = 0``;
    ``p'(y)`` has the sign of ``-(Q^2 - 4m^2 Q + 4m^2 y^2)`` with
    ``Q = y^2 + c``, so ``mode = sqrt(max(2m sqrt(c) - c, 0))`` and the
    density is non-increasing iff ``m <= s/sqrt(3)``.  ``y p(y)`` is unchanged
    by ``y -> c/y``, so ``ln Y`` is symmetric about ``ln sqrt(c)``.  No
    moments of order one or higher exist, but all logarithmic moments used
    here are finite.  The density, cdf and sf each sum a term at ``y - m``
    and at ``y + m``; at ``m = 0`` ``_mirror_sum`` takes one term, doubled.
    """

    location: float = 0.0
    scale: float = 1.0
    family: ClassVar[str] = "half_cauchy"

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ConfigError(f"half-Cauchy scale must be positive, got {self.scale}")
        if not math.isfinite(self.location):
            raise ConfigError("half-Cauchy location must be finite")

    @property
    def mode(self) -> float:
        m, s = abs(self.location), self.scale
        c = m * m + s * s
        return math.sqrt(max(2.0 * m * math.sqrt(c) - c, 0.0))

    def density(self, y):
        y = _as_float_array(y)
        m, s = abs(self.location), self.scale
        yy = np.maximum(y, 0.0)
        val = (s / math.pi) * _mirror_sum(lambda z: 1.0 / (z ** 2 + s * s), yy, m)
        return _masked(y >= 0, val, 0.0)

    def cdf(self, y):
        y = _as_float_array(y)
        m, s = abs(self.location), self.scale
        yy = np.maximum(y, 0.0)
        val = _mirror_sum(lambda z: np.arctan(z / s), yy, m) / math.pi
        return _masked(y > 0, val, 0.0)

    def sf(self, y):
        # arctan(z) + arctan(1/z) = pi/2 for z > 0 gives a cancellation-free
        # tail: sf(y) = (arctan(s/(y-m)) + arctan(s/(y+m))) / pi for y > m
        y = _as_float_array(y)
        m, s = abs(self.location), self.scale
        yy = np.maximum(y, m + s)
        tail = y > m + s
        out = _masked(tail, _mirror_sum(lambda z: np.arctan(s / z), yy, m) / math.pi, 1.0)
        if not tail.all():  # y <= m + s and NaN take the cdf
            out[~tail] = 1.0 - self.cdf(y[~tail])
        return out

    def quantile(self, u):
        u = _as_float_array(u)
        m, s = abs(self.location), self.scale
        if m == 0.0:
            return np.where(u < 1.0, s * np.tan(math.pi * u / 2.0), np.inf)
        # cot(pi u) from the nearer end of (0, 1) and the root without
        # cancellation; u = 0 gives cot = inf (y = 0), u = 1 gives -inf (y = inf).
        # Each branch fills its entries of one array in place; -(1/t) and
        # -1/t round alike, so the bits are those of the two-branch select
        c = m * m + s * s
        upper = u > 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            s_cot = np.subtract(1.0, u, out=u.copy(), where=upper)
            s_cot *= math.pi
            np.divide(1.0, np.tan(s_cot, out=s_cot), out=s_cot)
            np.negative(s_cot, out=s_cot, where=upper)
            s_cot *= s
            r = np.hypot(s_cot, math.sqrt(c), out=np.empty_like(s_cot))  # an array at 0-d too
            pos = s_cot > 0
            np.subtract(r, s_cot, out=r, where=~pos)
            np.add(s_cot, r, out=r, where=pos)
            return np.divide(c, r, out=r, where=pos)

    def crossing(self, s_lo, s_hi):
        # With z = y^2, L = s_lo^2, H = s_hi^2, the scaled densities are equal
        # where s_lo (z+cL)((z+cH)^2 - 4m^2 Hz) = s_hi (z+cH)((z+cL)^2 - 4m^2 Lz).
        # Dividing out (s_hi - s_lo) leaves a cubic that factors as
        # (z - c s_lo s_hi)(z^2 + (c(L+H) + 4m^2 s_lo s_hi) z + c^2 LH); the
        # quadratic has positive coefficients, so y* = sqrt(c s_lo s_hi) is
        # the one positive crossing, for every location
        return math.hypot(self.location, self.scale) * np.sqrt(s_lo) * np.sqrt(s_hi)


@dataclass(frozen=True)
class ChiSquare(_Family):
    """Chi-square innovation with ``df`` degrees of freedom (df >= 2).

    Below two degrees of freedom the density is unbounded at the origin,
    which breaks the bounded-density constants used throughout; such
    configurations are rejected.
    """

    df: float = 3.0
    family: ClassVar[str] = "chi_square"

    def __post_init__(self):
        if not (self.df >= 2 and math.isfinite(self.df)):
            raise ConfigError(
                f"chi-square df must be >= 2 (bounded density required), got {self.df}"
            )

    @property
    def mode(self) -> float:
        return max(self.df - 2.0, 0.0)

    def density(self, y):
        y = _as_float_array(y)
        half = self.df / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (half - 1.0) * np.log(np.maximum(y, 0.0)) - np.maximum(y, 0.0) / 2.0
            logpdf -= half * math.log(2.0) + special.gammaln(half)
            val = np.exp(logpdf)
        if self.df == 2:
            val = _masked(y != 0, val, 0.5)
        else:
            val = _masked(y != 0, val, 0.0)
        return _masked(y >= 0, val, 0.0)

    def cdf(self, y):
        y = _as_float_array(y)
        return _masked(y > 0, special.gammainc(self.df / 2.0, np.maximum(y, 0.0) / 2.0), 0.0)

    def sf(self, y):
        y = _as_float_array(y)
        return _masked(y > 0, special.gammaincc(self.df / 2.0, np.maximum(y, 0.0) / 2.0), 1.0)

    def quantile(self, u):
        u = _as_float_array(u)
        return 2.0 * special.gammaincinv(self.df / 2.0, u)

    def crossing(self, s_lo, s_hi):
        # y (1/s_lo - 1/s_hi) / 2 = (df/2) ln(s_hi/s_lo)
        return self.df * s_hi * _log_ratio_factor(s_lo, s_hi)


InnovationSpec = Union[Exponential, HalfNormal, HalfCauchy, ChiSquare]

_FAMILIES = {
    "exponential": Exponential,
    "half_normal": HalfNormal,
    "half_cauchy": HalfCauchy,
    "chi_square": ChiSquare,
}


def innovation_from_json(obj: dict) -> InnovationSpec:
    """Build an innovation spec from ``{"family": ..., <params>}``."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError("innovation must be an object with a 'family' key")
    kwargs = {k: v for k, v in obj.items() if k != "family"}
    family = obj["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"unknown innovation family {family!r}; expected one of {sorted(_FAMILIES)}")
    cls = _FAMILIES[family]
    names = {f.name for f in fields(cls)}
    for key, value in kwargs.items():
        # float(True) is 1.0, but a JSON boolean is no parameter value either
        if key in names and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"bad parameters for innovation family {family!r}: "
                              f"{key!r} must be a number, got {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, OverflowError) as exc:  # an unknown key, or an int no double holds
        raise ConfigError(f"bad parameters for innovation family {family!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Density-derived constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionConstants:
    """Constants of an innovation density used by contraction and mixing bounds.

    gamma      integral of the running supremum ``sup{p(y): y >= x}``; always
               >= 1, and exactly 1 for non-increasing densities.  It is the
               amplification factor that converts a log-scale gap into an
               expected gap of the log counts.
    big_gamma  converts a log-scale gap into total variation distance of the
               discretized laws: 1 for non-increasing densities, else
               ``(1 + int x|p'(x)| dx) / 2``.
    p_sup      supremum of the density.
    e_ln_plus  ``E max(ln Y, 0)``.
    var_ln_y   variance of ``ln Y``.

    The first three come from one look at the mode (``compute_constants``).
    """

    gamma: float
    big_gamma: float
    p_sup: float
    e_ln_plus: float
    var_ln_y: float


def _quad(fn, lo, hi) -> float:
    val, err = integrate.quad(fn, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    if not math.isfinite(val) or err > 1e-6:
        raise NumericError(
            f"quadrature failed on [{lo}, {hi}]: value={val!r}, abserr={err!r}"
        )
    return val


def _sup_envelope_integral(spec: InnovationSpec, cdf_mode: float) -> float:
    """``gamma`` for a non-monotone density: grid envelope up to the mode plus
    the tail mass ``1 - F(mode)`` beyond it (``cdf_mode`` is ``F(mode)``)."""
    xs = np.linspace(0.0, spec.mode, ENVELOPE_GRID)
    dens = spec.density(xs)
    envelope = np.maximum.accumulate(dens[::-1])[::-1]
    head = float(np.trapezoid(envelope, xs))
    # beyond the mode the density decreases, so the running supremum
    # equals the density itself and integrates to the tail mass
    return head + (1.0 - cdf_mode)


@lru_cache(maxsize=None)
def compute_constants(spec: InnovationSpec) -> DistributionConstants:
    """Compute all density-derived constants of an innovation spec.

    gamma, big_gamma and p_sup come from one ``density`` and one ``cdf`` call
    at the mode m.  p is monotone on either side of m, and there
    ``int x p'(x) dx = [x p(x)] - deltaF``, so ``int x |p'(x)| dx`` is
    ``|m p(m) - F(m)| + (m p(m) + 1 - F(m))``; the second term is also the
    chi-square gamma.  The half-Cauchy gamma keeps the grid envelope, whose
    value the committed outputs carry: its closed form is one ulp off it.
    """
    m = spec.mode
    p_sup = float(spec.density(m))
    if spec.monotone_density:
        gamma = big_gamma = 1.0
    else:
        f_m = float(spec.cdf(m))
        tail = m * p_sup + (1.0 - f_m)
        gamma = tail if isinstance(spec, ChiSquare) else _sup_envelope_integral(spec, f_m)
        big_gamma = 0.5 * (1.0 + (abs(m * p_sup - f_m) + tail))

    e_ln_plus = _quad(lambda y: math.log(y) * float(spec.density(y)), 1.0, math.inf)
    m1 = _quad(lambda y: math.log(y) * float(spec.density(y)), 0.0, 1.0) + e_ln_plus
    m2 = _quad(lambda y: math.log(y) ** 2 * float(spec.density(y)), 0.0, 1.0) + \
        _quad(lambda y: math.log(y) ** 2 * float(spec.density(y)), 1.0, math.inf)
    var_ln_y = m2 - m1 * m1
    if var_ln_y <= 0 or not math.isfinite(var_ln_y):
        raise NumericError(f"variance of ln(Y) came out as {var_ln_y!r}")
    return DistributionConstants(
        gamma=gamma,
        big_gamma=big_gamma,
        p_sup=p_sup,
        e_ln_plus=e_ln_plus,
        var_ln_y=var_ln_y,
    )


# ---------------------------------------------------------------------------
# Discretized law of floor(sigma * Y)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscretizedLaw:
    """Law of ``X = floor(sigma * Y)`` on the non-negative integers.

    At a tiny sigma, ``k / sigma`` overflows to inf, the intended quotient
    (``cdf`` 1, ``sf`` 0 there), so ``pmf``, ``cdf`` and ``sf`` do not warn.
    """

    base: InnovationSpec
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ConfigError(f"discretization scale must be positive, got {self.sigma}")

    def pmf(self, k):
        k = _as_float_array(k)
        with np.errstate(over="ignore"):
            y_lo = np.maximum(k, 0.0) / self.sigma
            y_hi = (np.maximum(k, 0.0) + 1.0) / self.sigma
        return _masked(k >= 0, self.base.cdf(y_hi) - self.base.cdf(y_lo), 0.0)

    def cdf(self, k):
        k = _as_float_array(k)
        with np.errstate(over="ignore"):
            y = (np.floor(np.maximum(k, 0.0)) + 1.0) / self.sigma
        return _masked(k >= 0, self.base.cdf(y), 0.0)

    def sf(self, k):
        k = _as_float_array(k)
        with np.errstate(over="ignore"):
            y = (np.floor(np.maximum(k, 0.0)) + 1.0) / self.sigma
        return _masked(k >= 0, self.base.sf(y), 1.0)

    def quantile(self, u):
        """Smallest k with CDF(k) >= u."""
        return _discrete_quantile(self.base, self.sigma, u)


def _discrete_quantile(base: InnovationSpec, sigma, u):
    """Smallest k with ``base.cdf((k+1)/sigma) >= u``; ``sigma`` may be an array."""
    return np.maximum(np.ceil(sigma * base.quantile(u) - 1.0), 0.0)


@lru_cache(maxsize=1)
def _gauss_legendre():
    """8-point Gauss-Legendre rule on [-1, 1].

    Built on first use, by the first close-scale crossing index: building it
    loads LAPACK, 0.75 MB of peak RSS that other commands do not need.
    """
    return np.polynomial.legendre.leggauss(8)


def _gap_mass(base, s_lo, s_hi, y):
    """``P(y/s_hi < Y <= y/s_lo)`` for ``s_hi/s_lo - 1 <= NEAR_GAP``, to relative precision.

    Gauss-Legendre on the short interval, its half-width formed from
    ``s_hi - s_lo`` without cancellation.  Against mpmath it is within 5e-16
    for the exponential, half-normal, chi-square(6) and half-Cauchy with a
    location of up to 20 scales; it needs a density smooth on that interval.
    Each entry sums its nodes by one fixed pairwise tree, not by a BLAS
    gemv, whose bits for an entry depend on its place in the batch.
    """
    nodes, weights = _gauss_legendre()
    half = 0.5 * y * ((s_hi - s_lo) / s_lo) / s_hi
    mid = 0.5 * (y / s_hi + y / s_lo)
    terms = base.density(mid + half * nodes[:, None]) * weights[:, None]
    while len(terms) > 1:  # 8 node rows: 4, 2, then 1
        terms = terms[0::2] + terms[1::2]
    return half * terms[0]


def _crossing_index(base, s_lo: np.ndarray, s_hi: np.ndarray) -> np.ndarray:
    """Smallest k with pmf_hi(k) >= pmf_lo(k), for s_lo <= s_hi.

    The scaled densities cross once, at ``y* = base.crossing(s_lo, s_hi)``,
    so the index is k0 = floor(y*) if the high-scale mass wins on the cell
    [k0, k0+1], else k0 + 1; a y* rounded across an integer leaves that cell
    on one side of the true crossing, and the answer still holds.  The pmf
    difference at k0 is ``G(k0) - G(k0+1)`` with ``G(y) = P(y/s_hi < Y <=
    y/s_lo)``.  It shrinks like ``(s_hi/s_lo - 1) / y*^2``, below the
    rounding of ``sf`` already at ratio - 1 ~ 1e-5 for y* ~ 2e5, so close
    scales take ``G`` from ``_gap_mass``.  Equal scales give k0, and the
    coupling then merges every draw.
    """
    k0 = np.floor(base.crossing(s_lo, s_hi))
    near = s_hi - s_lo <= NEAR_GAP * s_lo
    ge = np.empty(k0.shape, dtype=bool)
    lo, hi, k = s_lo[~near], s_hi[~near], k0[~near]
    # survival differences keep full relative precision deep in the tail; (k + 1)/lo may be inf
    with np.errstate(over="ignore"):
        ge[~near] = base.sf(k / hi) - base.sf((k + 1.0) / hi) >= base.sf(k / lo) - base.sf((k + 1.0) / lo)
    if near.any():
        lo, hi, k = s_lo[near], s_hi[near], k0[near]
        ge[near] = _gap_mass(base, lo, hi, k) >= _gap_mass(base, lo, hi, k + 1.0)
    return np.where(ge, k0, k0 + 1.0)


# ---------------------------------------------------------------------------
# Total variation distance
# ---------------------------------------------------------------------------

def _dense_head(base: InnovationSpec, s_hi: float) -> tuple[int, bool]:
    """Last index ``k`` of the dense TV head for the larger scale ``s_hi``.

    The head runs to the 1 - 1e-12 quantile of the ``s_hi`` law.  Where that
    would pass ``DENSE_MAX`` entries (heavy tails), it stops at the 1 - 1e-4
    quantile or at ``DENSE_MAX`` and ``heavy`` is True: the sum goes on over
    doubling blocks.  The head depends on ``s_hi`` alone, so every partner
    scale shares it.
    """
    k_top = s_hi * float(base.quantile(1.0 - TAIL))
    if not math.isfinite(k_top):
        raise NumericError(f"the support of scale {s_hi!r} overflows a float")
    k = int(math.ceil(k_top))
    heavy = k > DENSE_MAX
    if heavy:
        k = min(int(math.ceil(s_hi * float(base.quantile(1.0 - 1e-4)))), DENSE_MAX)
    return k, heavy


def _head_sums(base: InnovationSpec, s_hi: float, s_los, k: int) -> np.ndarray:
    """``sum_{j <= k} |p_hi(j) - p_lo(j)|`` for each ``s_lo`` in ``s_los``.

    Each sum has the bits of one ``sum`` over a buffer of all its entries.
    numpy sums a float64 array pairwise: a range of more than 128 entries
    splits at half its length, rounded down to a multiple of 8.  The head
    ``[0, k]`` splits the same way until a range holds at most
    ``HEAD_BLOCK`` entries; each such leaf is filled and summed by numpy,
    and the leaf sums are added back in the tree's order.  ``pmf(j) =
    cdf((j+1)/s) - cdf(j/s)``, so one ``cdf`` call per law on a leaf's edges
    gives the same doubles as two calls per law on the whole head.  A leaf
    computes the ``s_hi`` law's pmf once and every partner subtracts its own
    from it; ``|a - b| == |b - a|``, so the order of the two laws does not
    change a bit.
    """
    def tree(lo, hi):
        if hi - lo > HEAD_BLOCK:
            mid = lo + (hi - lo) // 2 // 8 * 8
            return tree(lo, mid) + tree(mid, hi)
        e = np.arange(lo, hi + 1, dtype=float)
        p_hi = np.diff(base.cdf(e / s_hi))
        sums = np.empty(len(s_los))
        for i, s_lo in enumerate(s_los):
            d = np.diff(base.cdf(e / s_lo))
            d -= p_hi
            sums[i] = np.abs(d, out=d).sum()
        return sums

    with np.errstate(over="ignore"):  # e / s_lo at a tiny s_lo, as in DiscretizedLaw
        return tree(0, k + 1)


def _tv_sums(base: InnovationSpec, s_hi: float, s_los, head: tuple[int, bool]) -> list[float]:
    """Total variation distance of the ``s_hi`` law to each law in ``s_los``.

    ``head`` is ``_dense_head(base, s_hi)``, and every ``s_lo`` differs from
    ``s_hi``.  The dense head is summed by ``_head_sums``, one walk for all
    partners.  On a heavy head the sum goes on over doubling blocks ``(k,
    2k]``: the pmf difference changes sign once, at ``_crossing_index``, so
    each block is a difference of ``sf`` values, taken once per block edge
    and carried into the next block, and the one block that holds that
    index is split there.  Either way the mass above the last index closes
    the sum.
    """
    k0, heavy = head
    accs = _head_sums(base, s_hi, s_los, k0)
    law_hi = DiscretizedLaw(base, s_hi)
    sf_hi = lru_cache(maxsize=None)(lambda j: float(law_hi.sf(j)))  # shared block edges
    if heavy:
        # p_hi - p_lo < 0 below the crossing index and >= 0 from it on, so the
        # block that holds the index splits there into two one-signed runs
        splits = _crossing_index(base, np.array(s_los), np.full(len(s_los), s_hi)) - 1.0
    tvs = []
    for i, s_lo in enumerate(s_los):
        law_lo = DiscretizedLaw(base, s_lo)

        def sfs(j):
            return sf_hi(j), float(law_lo.sf(j))

        k, acc = k0, float(accs[i])
        edge = sfs(k)  # both sf values at k, carried from block to block
        if heavy:
            split = float(splits[i])
            while max(edge) >= TAIL and k <= 1e17:
                vals = [edge, sfs(split), sfs(2 * k)] if k < split < 2 * k else [edge, sfs(2 * k)]
                for (a1, a2), (b1, b2) in zip(vals[:-1], vals[1:]):
                    acc += abs((a1 - b1) - (a2 - b2))
                k, edge = 2 * k, vals[-1]
        tvs.append(0.5 * (acc + abs(edge[0] - edge[1])))
    return tvs


@dataclass(frozen=True)
class TVBoundRow:
    sigma: float
    sigma_prime: float
    tv: float
    bound: float
    slack: float


@dataclass(frozen=True)
class TVBoundReport:
    big_gamma: float
    rows: tuple[TVBoundRow, ...]

    @property
    def min_slack(self) -> float:
        return min(r.slack for r in self.rows)


def tv_bound_check(spec: InnovationSpec, sigma_grid) -> TVBoundReport:
    """Check ``tv(P_s, P_s') <= big_gamma * |ln s - ln s'|`` over a grid.

    ``sigma_grid`` is a flat list of scales; every pair ``(grid[i], grid[j])``
    with ``i <= j`` is checked, in row order.  The distinct unequal pairs
    are grouped by their larger scale ``s_hi``, and one ``_tv_sums`` call
    per group walks the dense head of the ``s_hi`` law once for all its
    partners; each tv has the bits of a two-scale grid of its pair.  Scales
    are checked, and head lengths taken, in row order first, so an invalid
    scale (ConfigError) or an overflowing support (NumericError) is reported
    for the first row that has one.  A violation beyond 1e-9 raises
    NumericError.
    """
    grid = [float(s) for s in sigma_grid]
    pairs = [(a, b) for i, a in enumerate(grid) for b in grid[i:]]
    if not pairs:
        raise ConfigError("tv_bound_check needs at least one scale")
    big_gamma = compute_constants(spec).big_gamma
    heads, partners = {}, {}  # by s_hi: its dense head and its s_lo, first seen first
    for s, sp in pairs:
        DiscretizedLaw(spec, s), DiscretizedLaw(spec, sp)  # ConfigError on a bad scale
        if s != sp:
            s_lo, s_hi = sorted((s, sp))
            if s_hi not in heads:
                heads[s_hi] = _dense_head(spec, s_hi)
            partners.setdefault(s_hi, {})[s_lo] = None
    tvs = {s_hi: dict(zip(s_los, _tv_sums(spec, s_hi, list(s_los), heads[s_hi])))
           for s_hi, s_los in partners.items()}
    rows = []
    for s, sp in pairs:
        tv = tvs[max(s, sp)][min(s, sp)] if s != sp else 0.0
        bound = big_gamma * abs(math.log(s) - math.log(sp))
        rows.append(TVBoundRow(sigma=s, sigma_prime=sp, tv=tv, bound=bound, slack=bound - tv))
    report = TVBoundReport(big_gamma=big_gamma, rows=tuple(rows))
    if report.min_slack < -1e-9:
        worst = min(rows, key=lambda r: r.slack)
        raise NumericError(
            "total variation bound violated: "
            f"tv={worst.tv!r} > bound={worst.bound!r} at sigma=({worst.sigma}, {worst.sigma_prime})"
        )
    return report
