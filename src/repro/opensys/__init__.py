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

from .. import _lazy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    # arrival processes
    "ARRIVAL_FAMILIES": ".arrivals",
    "ArrivalProcess": ".arrivals",
    "ClampedArrivalSizeSource": ".arrivals",
    "PoissonArrivals": ".arrivals",
    "ThinnedArrivals": ".arrivals",
    "ZipfHotspotArrivals": ".arrivals",
    "arrival_process_from_dict": ".arrivals",
    # open-loop engines
    "ENGINE_OPEN_HISTORY": ".driver",
    "ENGINE_OPEN_SCALAR": ".driver",
    "ENGINE_OPEN_SCHEDULE": ".driver",
    "OpenRunResult": ".driver",
    "run_open": ".driver",
    # latency
    "LatencyStore": ".latency",
    "LatencySummary": ".latency",
    # request-lifecycle policies
    "ADMISSION_POLICIES": ".policies",
    "RETRY_POLICIES": ".policies",
    "AdmissionPolicy": ".policies",
    "ExponentialBackoffPolicy": ".policies",
    "GiveUpPolicy": ".policies",
    "HardCapacityPolicy": ".policies",
    "ImmediateRetryPolicy": ".policies",
    "OccupancySheddingPolicy": ".policies",
    "RetryPolicy": ".policies",
    "TokenBucketPolicy": ".policies",
    "admission_policy_from_dict": ".policies",
    "retry_policy_from_dict": ".policies",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
