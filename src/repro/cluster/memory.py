"""Paging model: competition-biased residency and fault rates.

The paper generates page faults from an "experiment-based model
presented in [3]" which is not available; DESIGN.md §4 documents the
substitution implemented here.

On a node with user memory ``U`` and running jobs with current demands
``d_i``:

* if ``sum(d_i) <= U`` nobody faults (cold misses are ignored, as in
  the paper's dedicated-environment profiling);
* otherwise resident sets are allocated proportionally to
  ``d_i ** alpha`` with ``alpha < 1`` and capped at ``d_i``.  Smaller
  jobs therefore keep a *larger fraction* of their working set
  resident, reproducing the paper's §2.2 observation that jobs with
  large memory demands are less competitive under global page
  replacement in Unix/Linux;
* job *i* faults at ``lambda_i = K * (1 - resident_i / d_i)`` faults
  per CPU-second, each fault stalling for the configured service time
  (10 ms disk, or ~1 ms with the optional network-RAM extension).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class PagingAssessment:
    """Paging state of one node at one instant."""

    resident_mb: List[float]
    fault_rates_per_cpu_s: List[float]   # lambda_i
    stall_per_work_s: List[float]        # lambda_i * fault_service_s
    total_demand_mb: float
    user_memory_mb: float

    @property
    def oversubscribed(self) -> bool:
        return self.total_demand_mb > self.user_memory_mb + 1e-9


class PagingModel:
    """Computes residency and fault rates for a set of job demands."""

    def __init__(self, alpha: float = 0.5,
                 max_fault_rate_per_cpu_s: float = 400.0,
                 fault_service_s: float = 0.010,
                 curve_exponent: float = 1.0):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if max_fault_rate_per_cpu_s < 0:
            raise ValueError("max_fault_rate_per_cpu_s must be >= 0")
        if fault_service_s <= 0:
            raise ValueError("fault_service_s must be positive")
        if curve_exponent < 1:
            raise ValueError("curve_exponent must be >= 1")
        self.alpha = alpha
        self.max_fault_rate = max_fault_rate_per_cpu_s
        self.fault_service_s = fault_service_s
        #: Exact memoization of :meth:`assess` keyed on the demand
        #: vector and memory size: the assessment is a pure function of
        #: its arguments and the (immutable-by-convention) model
        #: parameters, so repeated node states skip the residency
        #: water-filling entirely.  Bounded LRU; see ``assess``.
        self._assess_cache: "OrderedDict[Tuple[Tuple[float, ...], float], PagingAssessment]" = OrderedDict()
        self._assess_cache_max = 4096
        #: Idle-node fast path: every recompute of an empty node asks
        #: for the (no demands, U) assessment, so those skip the LRU
        #: bookkeeping entirely — one dict probe keyed on memory size.
        self._empty_assessments: Dict[float, PagingAssessment] = {}
        self.assess_hits = 0
        self.assess_misses = 0
        #: Thrashing-cliff exponent: the fault rate goes as
        #: ``missing_fraction ** curve_exponent``.  Working-set theory
        #: (Denning) says losing a few percent of the resident set
        #: costs little while deep residency loss is catastrophic —
        #: an exponent above 1 reproduces that knee.
        self.curve_exponent = curve_exponent

    # ------------------------------------------------------------------
    def residency(self, demands: Sequence[float],
                  user_memory_mb: float) -> List[float]:
        """Resident set sizes under biased proportional allocation.

        Shares go as ``demand ** alpha``; a job never holds more than
        its demand, and freed share from capped jobs is redistributed
        to the others (iteratively, like water-filling).
        """
        n = len(demands)
        if n == 0:
            return []
        for d in demands:
            if d < 0:
                raise ValueError("demands must be non-negative")
        total = sum(demands)
        if total <= user_memory_mb:
            return list(demands)
        resident = [0.0] * n
        budget = user_memory_mb
        active = [i for i in range(n) if demands[i] > 0]
        while active and budget > 1e-12:
            weights = [demands[i] ** self.alpha for i in active]
            weight_sum = sum(weights)
            shares = {i: budget * w / weight_sum
                      for i, w in zip(active, weights)}
            capped = [i for i in active
                      if demands[i] - resident[i] <= shares[i]]
            if not capped:
                for i in active:
                    resident[i] += shares[i]
                budget = 0.0
                break
            for i in capped:
                budget -= demands[i] - resident[i]
                resident[i] = demands[i]
            capped_set = set(capped)
            active = [i for i in active if i not in capped_set]
        return resident

    def assess(self, demands: Sequence[float],
               user_memory_mb: float) -> PagingAssessment:
        """Full paging assessment for one node.

        An under-subscribed node (``sum(demands) <= user_memory_mb``)
        gets the all-resident, zero-fault assessment directly, as the
        model's first rule says; it neither reads nor fills the cache.
        Other results are memoized on ``(tuple(demands),
        user_memory_mb)`` with a bounded LRU, so a cache hit returns the
        *same* :class:`PagingAssessment` object: callers must treat the
        assessment (including its lists) as immutable.
        """
        if not demands:
            cached = self._empty_assessments.get(user_memory_mb)
            if cached is not None:
                self.assess_hits += 1
                return cached
            self.assess_misses += 1
            assessment = self._assess_uncached((), user_memory_mb)
            self._empty_assessments[user_memory_mb] = assessment
            return assessment
        total = sum(demands)
        if total <= user_memory_mb and min(demands) >= 0:
            # What _assess_uncached computes here: residency returns
            # the demands and every missing fraction is 0.0.
            zeros = [0.0] * len(demands)
            return PagingAssessment(
                resident_mb=list(demands),
                fault_rates_per_cpu_s=zeros,
                stall_per_work_s=list(zeros),
                total_demand_mb=float(total),
                user_memory_mb=float(user_memory_mb),
            )
        key = (tuple(demands), user_memory_mb)
        cache = self._assess_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            self.assess_hits += 1
            return cached
        self.assess_misses += 1
        assessment = self._assess_uncached(key[0], user_memory_mb)
        cache[key] = assessment
        if len(cache) > self._assess_cache_max:
            cache.popitem(last=False)
        return assessment

    def _assess_uncached(self, demands: Sequence[float],
                         user_memory_mb: float) -> PagingAssessment:
        resident = self.residency(demands, user_memory_mb)
        rates: List[float] = []
        stalls: List[float] = []
        for demand, res in zip(demands, resident):
            if demand <= 0:
                rates.append(0.0)
                stalls.append(0.0)
                continue
            missing_fraction = max(0.0, 1.0 - res / demand)
            rate = (self.max_fault_rate
                    * missing_fraction ** self.curve_exponent)
            rates.append(rate)
            stalls.append(rate * self.fault_service_s)
        return PagingAssessment(
            resident_mb=resident,
            fault_rates_per_cpu_s=rates,
            stall_per_work_s=stalls,
            total_demand_mb=float(sum(demands)),
            user_memory_mb=float(user_memory_mb),
        )
