"""Concentration evaluators and occupancy-sum experiments.

Throw n balls into m bins with probabilities p and score Y = sum of
(bin count)^zeta_exp for an exponent in (0,1). The evaluators here price
the tail P[Y >= 2 n^zeta * sum_j p_j^zeta] four ways: a plain bounded-
difference bound, and three sharper variants that exploit how late-arriving
balls can barely move a bin's fractional power (split by the exponent
against 1/2). Also: an exact binomial difference sum with its closed-form
ceiling, a restated Bernstein lower-tail bound, and a stretched-exponential
fit for failure frequencies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroFailures, ZeroMass
from .seeding import make_rng


def bernstein_restated_tail(n, ey, var_y, delta):
    """exp(-(n EY^2 d^2 / 2) / (Var + EY^2 d / 2)): lower-tail bound for
    means of iid nonnegative variables."""
    if ey <= 0.0 or var_y < 0.0 or delta < 0.0 or n < 0:
        raise ValueError("need EY > 0, Var >= 0, delta >= 0, n >= 0")
    num = n * ey ** 2 * delta ** 2 / 2.0
    den = var_y + ey ** 2 * delta / 2.0
    if den == 0.0:
        return 1.0 if num == 0.0 else 0.0
    return math.exp(-num / den)


def _pow_zeta(k, zeta_exp):
    return 0.0 if k == 0 else math.exp(zeta_exp * math.log(k))


def exact_binom_zeta_diff(n, p, zeta_exp):
    """E[(W+1)^z] - E[W^z] for W ~ Binomial(n, p), summed exactly.

    Log-space binomial weights keep the sum stable through n = 2000.
    """
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 0 and p in [0, 1]")
    if not 0.0 < zeta_exp < 1.0:
        raise ValueError("exponent must lie in (0, 1)")
    if n == 0 or p == 0.0:
        return 1.0
    if p == 1.0:
        return _pow_zeta(n + 1, zeta_exp) - _pow_zeta(n, zeta_exp)
    log_p, log_q = math.log(p), math.log(1.0 - p)
    log_n_fact = math.lgamma(n + 1)
    total = 0.0
    pow_k = _pow_zeta(0, zeta_exp)
    for k in range(n + 1):
        log_w = (log_n_fact - math.lgamma(k + 1)
                 - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        pow_next = _pow_zeta(k + 1, zeta_exp)
        total += math.exp(log_w) * (pow_next - pow_k)
        pow_k = pow_next
    return total


def diff_bound(n, p, zeta_exp):
    """Closed-form ceiling exp(-3np/28) + 2z (np)^(z-1) for the difference."""
    if not 0.0 < zeta_exp < 1.0:
        raise ValueError("exponent must lie in (0, 1)")
    np_ = n * p
    if np_ <= 0.0:
        raise ZeroMass("bound undefined at zero expected occupancy")
    return math.exp(-3.0 * np_ / 28.0) + 2.0 * zeta_exp * np_ ** (
        zeta_exp - 1.0)


def martingale_diffs(p1, n, zeta_exp):
    """Per-step bounds c_1..c_n on the occupancy-sum Doob martingale."""
    if not 0.0 < p1 <= 1.0:
        raise ValueError("p1 must lie in (0, 1]")
    if not 0.0 < zeta_exp < 1.0:
        raise ValueError("exponent must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    out = []
    for i in range(1, n + 1):
        remaining = (n - i) * p1
        if remaining <= 0.0:
            out.append(1.0)
            continue
        val = math.exp(-3.0 * remaining / 28.0) + \
            2.0 * zeta_exp * remaining ** (zeta_exp - 1.0)
        out.append(min(val, 1.0))
    return out


def sum_p_zeta(p, zeta_exp):
    """Sum of p_j^z; lands in [1, m^(1-z)] for any probability vector."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("p must be a probability vector")
    if not 0.0 < zeta_exp < 1.0:
        raise ValueError("exponent must lie in (0, 1)")
    total = float(np.sum(np.where(p > 0.0, p, np.nan) ** zeta_exp,
                         where=p > 0.0))
    m = len(p)
    assert 1.0 - 1e-9 <= total <= m ** (1.0 - zeta_exp) + 1e-9
    return total


def azuma_tail(t, diffs):
    """exp(-t^2 / (2 sum c_i^2)) for a martingale with per-step bounds c_i."""
    if t < 0.0:
        raise ValueError("threshold must be nonnegative")
    denom = 2.0 * float(sum(c * c for c in diffs))
    if denom == 0.0:
        return 0.0 if t > 0.0 else 1.0
    return math.exp(-t * t / denom)


def redux_threshold(p1, zeta_exp):
    """Smallest n where the sharpened occupancy tail bounds apply."""
    return (280.0 / 3.0) * math.log(1.0 / zeta_exp) / p1


@dataclass(frozen=True)
class BinExperiment:
    p: tuple
    n: int
    zeta_exp: float
    trials: int
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if np.any(arr < 0.0) or abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError("p must be a probability vector")
        if not 0.0 < self.zeta_exp < 1.0:
            raise ValueError("zeta_exp must lie in (0, 1)")
        if self.trials < 1000:
            raise ValueError("at least 1000 trials required")
        if self.trials > 100_000:
            raise ValueError("trials capped at 100000")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def m(self):
        return len(self.p)

    @property
    def p1(self):
        nonzero = [v for v in self.p if v > 0.0]
        return min(nonzero)


@dataclass(frozen=True)
class TailReport:
    regime: str
    m: int
    n: int
    zeta_exp: float
    trials: int
    empirical_prob: float
    theoretical_bound: float
    threshold: float
    mean_y: float
    std_y: float

    @property
    def empirical_ceiling(self):
        """Zero observed exceedances certify at most 3/trials (rule of
        three); otherwise the observed frequency itself."""
        if self.empirical_prob == 0.0:
            return 3.0 / self.trials
        return self.empirical_prob


def _select_regime(zeta_exp, n, p1):
    if zeta_exp >= 2.0 / 3.0 or n < redux_threshold(p1, zeta_exp):
        return "azuma_simple"
    if abs(zeta_exp - 0.5) < 1e-12:
        return "redux_half"
    if zeta_exp > 0.5:
        return "redux_gt_half"
    return "redux_lt_half"


def _regime_bound(regime, n, p1, s, zeta_exp):
    if regime == "azuma_simple":
        return math.exp(-0.5 * n ** (2.0 * zeta_exp - 1.0) * s * s)
    if regime == "redux_half":
        return math.exp(-(2.0 / 9.0) * p1 * n * s * s
                        / (127.0 - math.log(1.0 / p1) + math.log(n)))
    if regime == "redux_gt_half":
        den = 13.0 + (8.0 / (2.0 * zeta_exp - 1.0)) * n ** (
            2.0 * zeta_exp - 1.0)
        return math.exp(-p1 * n ** (2.0 * zeta_exp) * s * s / den)
    z_log = math.log(1.0 / zeta_exp)
    den = (560.0 / 3.0) * z_log + 4.0 + 18.0 * zeta_exp ** 2 \
        * (1.0 / (1.0 - 2.0 * zeta_exp)) \
        * ((280.0 / 3.0) * z_log) ** (2.0 * zeta_exp - 1.0)
    return math.exp(-p1 * n ** (2.0 * zeta_exp) * s * s / den)


def balls_bins_experiment(exp):
    """Empirical exceedance of {Y >= 2 n^z sum p^z} against the regime bound.

    Trials draw from independent substreams of the experiment seed, so the
    frequency is identical however trials are scheduled.
    """
    s = sum_p_zeta(exp.p, exp.zeta_exp)
    threshold = 2.0 * exp.n ** exp.zeta_exp * s
    p = np.asarray(exp.p, dtype=float)
    exceed = 0
    ys = np.empty(exp.trials)
    for t in range(exp.trials):
        rng = make_rng(exp.seed, t)
        counts = rng.multinomial(exp.n, p)
        y = float(np.sum(counts[counts > 0] ** exp.zeta_exp))
        ys[t] = y
        if y >= threshold:
            exceed += 1
    regime = _select_regime(exp.zeta_exp, exp.n, exp.p1)
    bound = min(_regime_bound(regime, exp.n, exp.p1, s, exp.zeta_exp), 1.0)
    return TailReport(regime=regime, m=exp.m, n=exp.n,
                      zeta_exp=exp.zeta_exp, trials=exp.trials,
                      empirical_prob=exceed / exp.trials,
                      theoretical_bound=bound, threshold=threshold,
                      mean_y=float(ys.mean()), std_y=float(ys.std()))


@dataclass(frozen=True)
class WvhpFit:
    c1: float
    c2: float
    c3: float
    r2: float

    @property
    def is_wvhp(self):
        return self.c3 > 0.05


def wvhp_fit(failure_probs):
    """Fit failure frequencies to the shape c1 * exp(-c2 * n^c3).

    Least squares of log(-log p) against log n; c1 is pinned at 1 (the
    stretch exponent c3 and the rate c2 carry the story). Zero frequencies
    are below the measurement floor and are dropped; if nothing remains,
    that itself is the report.
    """
    pts = [(int(n), float(q)) for n, q in failure_probs]
    nonzero = [(n, q) for n, q in pts if q > 0.0]
    if not nonzero:
        raise AllZeroFailures("all failure frequencies are zero: "
                              "below measurement floor")
    if len(nonzero) < 4:
        raise ValueError("need at least 4 nonzero points to fit")
    if any(not 0.0 < q < 1.0 for _, q in nonzero):
        raise ValueError("failure probabilities must lie in (0, 1)")
    x = np.log([n for n, _ in nonzero])
    y = np.log([-math.log(q) for _, q in nonzero])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return WvhpFit(c1=1.0, c2=float(math.exp(intercept)), c3=float(slope),
                   r2=r2)
