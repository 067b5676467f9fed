"""Open-system traffic: streaming arrivals, live backlog, sojourn latency.

The closed layers (:mod:`repro.channel`, :mod:`repro.analysis`) measure
rounds-to-success of one k-player contention instance; this package
layers the deployment view on top - continuous request streams served by
the same protocols, epoch after epoch, reporting per-request latency
percentiles and throughput as a function of offered load.

* :mod:`repro.opensys.arrivals` - streaming arrival processes (Poisson,
  Zipf hotspot batches, thinned adapters over the closed bursty/trace
  workloads).
* :mod:`repro.opensys.driver` - the open-loop engines: vectorized
  schedule/history drivers plus the scalar session-driven oracle, all
  consuming identical per-trial seed streams.
* :mod:`repro.opensys.latency` - the exact, mergeable sojourn-time
  histogram behind p50/p90/p99/throughput reporting.
* :mod:`repro.opensys.policies` - request-lifecycle policies: retry
  (give-up / immediate / capped backoff with jitter and budgets) and
  admission (hard capacity / token bucket / occupancy shedding).

Scenario/CLI integration lives in :mod:`repro.scenarios.open`.
"""

from .arrivals import (
    ARRIVAL_FAMILIES,
    ArrivalProcess,
    ClampedArrivalSizeSource,
    PoissonArrivals,
    ThinnedArrivals,
    ZipfHotspotArrivals,
    arrival_process_from_dict,
)
from .driver import (
    ENGINE_OPEN_HISTORY,
    ENGINE_OPEN_SCALAR,
    ENGINE_OPEN_SCHEDULE,
    OpenRunResult,
    run_open,
)
from .latency import LatencyStore, LatencySummary
from .policies import (
    ADMISSION_POLICIES,
    RETRY_POLICIES,
    AdmissionPolicy,
    ExponentialBackoffPolicy,
    GiveUpPolicy,
    HardCapacityPolicy,
    ImmediateRetryPolicy,
    OccupancySheddingPolicy,
    RetryPolicy,
    TokenBucketPolicy,
    admission_policy_from_dict,
    retry_policy_from_dict,
)

__all__ = [
    "ARRIVAL_FAMILIES",
    "ArrivalProcess",
    "ClampedArrivalSizeSource",
    "PoissonArrivals",
    "ThinnedArrivals",
    "ZipfHotspotArrivals",
    "arrival_process_from_dict",
    "ENGINE_OPEN_HISTORY",
    "ENGINE_OPEN_SCALAR",
    "ENGINE_OPEN_SCHEDULE",
    "OpenRunResult",
    "run_open",
    "LatencyStore",
    "LatencySummary",
    "ADMISSION_POLICIES",
    "RETRY_POLICIES",
    "AdmissionPolicy",
    "ExponentialBackoffPolicy",
    "GiveUpPolicy",
    "HardCapacityPolicy",
    "ImmediateRetryPolicy",
    "OccupancySheddingPolicy",
    "RetryPolicy",
    "TokenBucketPolicy",
    "admission_policy_from_dict",
    "retry_policy_from_dict",
]
