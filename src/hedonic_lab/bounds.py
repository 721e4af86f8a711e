"""Closed-form probability expressions and statistically testable inequalities.

Combinatorial bounds are evaluated in exact rational arithmetic before the
final conversion to float, so Stirling-number growth never overflows or loses
the leading digits.  Counts (``n``, ``k``, ``t_terms``) are read by the
agent-id rule: a bool or a float raises ``TypeError``.  The dominance checks
are one-sided Monte Carlo tests, not proofs: an estimate is flagged only when
it falls below -3 standard errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .games import _integer
from .oracle import stirling2
from .sampling import SeedSpec, UNIFORM_SYMMETRIC, derive_trial_seed

__all__ = [
    "BoundValue",
    "FORMULAS",
    "evaluate_formula",
    "grand_cns_exit_denied_prob",
    "grand_ns_lower_bound",
    "nash_partition_bound",
    "nash_k_composite_bound",
    "singleton_partition_ns_probability",
    "lagrange_product_log_max",
    "verify_lagrange_product_max",
    "verify_lagrange_product_bound",
    "hoeffding_tail",
    "DominanceEstimate",
    "DominanceReport",
    "check_dominance_lemmas",
]


@dataclass(frozen=True)
class BoundValue:
    """An evaluated closed-form expression, tagged with what it bounds."""

    value: float
    description: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError("bound values must be finite and nonnegative")


def grand_cns_exit_denied_prob(n: int, epsilon: float) -> float:
    """Exact probability that the grand coalition is exit-denied.

    ``epsilon`` is P(X > 0) for a single utility draw; every agent needs some
    other agent with positive utility for it, independently across agents:
    (1 - (1 - eps)^(n-1))^n.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return (1.0 - (1.0 - epsilon) ** (n - 1)) ** n


def grand_ns_lower_bound(n: int, lo: float, hi: float) -> float:
    """Hoeffding lower bound on P(grand coalition Nash-stable) for U(lo, hi) utilities.

    Valid only for a strictly positive mean; clamped into [0, 1].
    """
    n = _integer(n, "n")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if (lo + hi) / 2.0 <= 0.0:
        raise ValueError("bound requires a strictly positive mean (lo + hi > 0)")
    raw = 1.0 - n * math.exp(-(n - 1) * (lo + hi) ** 2 / (2.0 * (hi - lo)))
    return min(1.0, max(0.0, raw))


def nash_partition_bound(n: int, k: int, allow_singletons: bool) -> float:
    """Upper bound on P(a fixed k-coalition partition is Nash-stable).

    (1/k)^n in general; ((1 - 2^-k)/k)^n when no coalition is a singleton.
    The no-singleton formula is returned as-is even for shapes where such a
    partition cannot exist (k > n/2); it is then vacuous but still a number.

    Proven only when all k coalitions have the same size.  The derivation
    bounds P(NS) by prod p_i^{s_i} with sum(p_i) <= z (z = 1, or 1 - 2^-k
    without singletons) and then applies the symmetric step
    prod p_i^{s_i} <= (z/k)^n, which fails for unequal sizes; the sound
    shape-aware value is exp(lagrange_product_log_max(sizes, z)).  The
    failure is measured: an independent Monte Carlo run (U(-1, 1), 10^7
    trials) put shape (2, 6) at 4.76e-4 against this bound's 3.91e-4
    (z = +12.3 standard errors).
    """
    n, k = _integer(n, "n"), _integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    if allow_singletons:
        return (1.0 / k) ** n
    return ((1.0 - 0.5 ** k) / k) ** n


def nash_k_composite_bound(n: int, k: int) -> float:
    """Upper bound on P(some partition into exactly k coalitions is Nash-stable).

    Splits on the number of singleton coalitions l: choose the singletons,
    charge each a (1/2)^(k-1) no-deviation factor, and bound the nonsingleton
    rest by the no-singleton fixed-partition bound times a Stirling count.
    Evaluated exactly in rationals, then converted to float.

    Proven only for partitions whose nonsingleton coalitions all have the
    same size: each Stirling-counted partition is charged the equal-size
    value of ``nash_partition_bound``, which unequal shapes such as (2, 6)
    measurably exceed.  Agreement with the exhaustive oracle (n <= 9) is
    empirical.
    """
    n, k = _integer(n, "n"), _integer(k, "k")
    if not 2 <= k <= n - 1:
        raise ValueError(f"k={k} outside 2..{n - 1}; the all-singleton and grand shapes "
                         "have their own exact expressions")
    total = Fraction(0)
    for ell in range(k):
        kk = k - ell
        term = (Fraction(math.comb(n, ell))
                * Fraction(1, 2) ** (ell * (k - 1))
                * stirling2(n - ell, kk)
                * ((1 - Fraction(1, 2) ** kk) / kk) ** (n - ell))
        total += term
    return float(total)


def singleton_partition_ns_probability(n: int) -> float:
    """Exact P(the all-singleton partition is Nash-stable) under a symmetric atomless distribution.

    Any positive ordered utility enables a join deviation, so stability means
    all n(n-1) ordered utilities are nonpositive: (1/2)^(n(n-1)).
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    return 0.5 ** (n * (n - 1))


def _validated_sizes(s) -> list[int]:
    s = list(s)
    if len(s) < 1:
        raise ValueError("need at least one term")
    if any(int(si) != si or si < 1 for si in s):
        raise ValueError("s entries must be positive integers")
    return [int(si) for si in s]


def _log_weighted_product(s, q) -> tuple[float, list[int], float]:
    """Validate one (s, q) instance; return (log prod q_i^{s_i}, s, sum(q)).

    The log product is -inf when some q_i is 0, so the product is exactly 0.
    """
    s = _validated_sizes(s)
    q = list(q)
    if len(s) != len(q):
        raise ValueError("s and q must have equal length")
    if any(qi < 0 for qi in q):
        raise ValueError("q entries must be nonnegative")
    z = math.fsum(q)
    if any(qi == 0.0 for qi in q):
        return -math.inf, s, z
    return math.fsum(si * math.log(qi) for si, qi in zip(s, q)), s, z


def lagrange_product_log_max(s, z: float) -> float:
    """log of max prod q_i^{s_i} over q >= 0 with sum(q) = z, for block sizes s.

    The maximum is prod (s_i z / n)^{s_i} with n = sum(s) (weighted AM-GM),
    attained at q_i = s_i z / n.  It equals the symmetric value (z/k)^n only
    when all s_i are equal; for unequal sizes it is strictly larger.  Returns
    -inf for z = 0, where the only admissible q is 0.
    """
    s = _validated_sizes(s)
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0.0:
        return -math.inf
    # Expanded so that a tiny z cannot underflow s_i z / n to 0.
    n = sum(s)
    return math.fsum([si * math.log(si) for si in s] + [n * math.log(z), -n * math.log(n)])


def verify_lagrange_product_max(s, q) -> bool:
    """Check prod q_i^{s_i} <= prod (s_i z/n)^{s_i} with z = sum(q), n = sum(s).

    This is the true maximum (see ``lagrange_product_log_max``), so the check
    holds for all nonnegative q and positive integer s; a False is a defect in
    this module.  Log-space comparison with the same 1e-9 slack as
    ``verify_lagrange_product_bound``.
    """
    log_lhs, s, z = _log_weighted_product(s, q)
    if log_lhs == -math.inf:
        return True  # product is exactly 0
    return log_lhs <= lagrange_product_log_max(s, z) + 1e-9


def verify_lagrange_product_bound(s, q) -> bool:
    """Check the symmetric form prod q_i^{s_i} <= (z/k)^n with z = sum(q), n = sum(s).

    The symmetric form holds when all s_i are equal (it is then AM-GM) and is
    false in general: s = (1, 2), q = (1/3, 2/3) gives 4/27 > 1/8.  This
    verifier hunts for such counterexamples; the true maximum over q is
    ``lagrange_product_log_max``, checked by ``verify_lagrange_product_max``.
    Comparison happens in log space with a tiny slack for float rounding at
    the equality boundary.
    """
    log_lhs, s, z = _log_weighted_product(s, q)
    if log_lhs == -math.inf:
        return True  # product is exactly 0
    return log_lhs <= sum(s) * math.log(z / len(s)) + 1e-9


def hoeffding_tail(t_terms: int, threshold: float) -> float:
    """Hoeffding bound exp(-2 thr^2 / (4 t)) on P(sum of t U(-1,1) draws <= -thr)."""
    t_terms = _integer(t_terms, "t_terms")
    if t_terms < 1:
        raise ValueError("t_terms must be positive")
    return math.exp(-2.0 * threshold * threshold / (4.0 * t_terms))


# CLI-facing registry: formula name -> (callable, ordered parameter names).
FORMULAS = {
    "grand-cns-exit-denied": (grand_cns_exit_denied_prob, ("n", "epsilon")),
    "grand-ns-lower": (grand_ns_lower_bound, ("n", "lo", "hi")),
    "nash-partition": (nash_partition_bound, ("n", "k", "allow_singletons")),
    "nash-k-composite": (nash_k_composite_bound, ("n", "k")),
    "singleton-ns": (singleton_partition_ns_probability, ("n",)),
    "hoeffding-tail": (hoeffding_tail, ("t_terms", "threshold")),
}


def evaluate_formula(name: str, **params) -> BoundValue:
    if name not in FORMULAS:
        raise ValueError(f"unknown formula {name!r}; choose from {sorted(FORMULAS)}")
    fn, expected = FORMULAS[name]
    missing = [p for p in expected if p not in params]
    extra = [p for p in params if p not in expected]
    if missing or extra:
        raise ValueError(f"formula {name} takes {expected}; "
                         f"missing {missing}, unexpected {extra}")
    pieces = ", ".join(f"{p}={params[p]}" for p in expected)
    return BoundValue(float(fn(**params)), f"{name}({pieces})")


@dataclass(frozen=True)
class DominanceEstimate:
    """One paired Monte Carlo difference with its standard error."""

    name: str
    x: float | None
    estimate: float
    std_error: float

    @property
    def z_score(self) -> float:
        if self.std_error == 0.0:
            return 0.0
        return self.estimate / self.std_error

    @property
    def violated(self) -> bool:
        return self.estimate < -3.0 * self.std_error


@dataclass(frozen=True)
class DominanceReport:
    m: int
    k: int
    trials: int
    estimates: tuple[DominanceEstimate, ...] = field(default_factory=tuple)

    @property
    def violations(self) -> tuple[DominanceEstimate, ...]:
        return tuple(e for e in self.estimates if e.violated)

    @property
    def ok(self) -> bool:
        return not self.violations


_X_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)
_CHUNK = 100_000


def _paired(diff_sum: float, diff_sq_sum: float, trials: int) -> tuple[float, float]:
    mean = diff_sum / trials
    var = max(0.0, diff_sq_sum / trials - mean * mean)
    return mean, math.sqrt(var / trials)


def check_dominance_lemmas(m: int, k: int, trials: int,
                           seed: SeedSpec | int = 0,
                           x_grid: tuple[float, ...] = _X_GRID) -> DominanceReport:
    """Monte Carlo dominance estimates for the sum/max comparison inequalities.

    (a) adding one U(-1,1) term to a sum never hurts against the max of k
        independent m-term sums,
    (b) one draw beats the constant 0 against the max of k-1 such sums,
    (c) the upper tail of an (m+1)-term sum dominates the m-term tail at x >= 0,
    (d) the max of k such sums puts at least as much mass on [0, x] as on [-x, 0].

    All four are paired-sample estimates; each should be nonnegative up to
    noise, so anything below -3 standard errors counts as a violation.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    if trials < 1:
        raise ValueError("trials must be positive")
    master = seed if isinstance(seed, SeedSpec) else SeedSpec(seed)
    dist = UNIFORM_SYMMETRIC

    acc: dict[str, list[float]] = {}

    def add(name: str, diffs: np.ndarray) -> None:
        slot = acc.setdefault(name, [0.0, 0.0])
        slot[0] += float(diffs.sum())
        slot[1] += float((diffs * diffs).sum())

    done = 0
    chunk_idx = 0
    while done < trials:
        b = min(_CHUNK, trials - done)
        rng = derive_trial_seed(master, chunk_idx).rng()
        chunk_idx += 1
        done += b

        z1 = dist.sample(rng, (b, m)).sum(axis=1)
        x = dist.sample(rng, b)
        y_sums = dist.sample(rng, (b, k, m)).sum(axis=2)
        y_max = y_sums.max(axis=1)
        add("a", (z1 + x >= y_max).astype(float) - (z1 >= y_max).astype(float))

        if k >= 2:
            zmax = dist.sample(rng, (b, k - 1, m)).sum(axis=2).max(axis=1)
        else:
            zmax = np.full(b, -np.inf)
        xb = dist.sample(rng, b)
        add("b", (xb >= zmax).astype(float) - (0.0 >= zmax).astype(float))

        sm = dist.sample(rng, (b, m + 1))
        s_m = sm[:, :m].sum(axis=1)
        s_m1 = s_m + sm[:, m]
        for xv in x_grid:
            add(f"c:x={xv:g}", (s_m1 >= xv).astype(float) - (s_m >= xv).astype(float))

        ymax2 = dist.sample(rng, (b, k, m)).sum(axis=2).max(axis=1)
        for xv in x_grid:
            pos = (ymax2 >= 0.0) & (ymax2 <= xv)
            neg = (ymax2 >= -xv) & (ymax2 < 0.0)
            add(f"d:x={xv:g}", pos.astype(float) - neg.astype(float))

    estimates = []
    for name, (dsum, dsq) in acc.items():
        mean, se = _paired(dsum, dsq, trials)
        xval = float(name.split("=")[1]) if "=" in name else None
        estimates.append(DominanceEstimate(name, xval, mean, se))
    return DominanceReport(m=m, k=k, trials=trials, estimates=tuple(estimates))
