"""Learned size predictors and the online observe-predict-resolve loop.

The substrate behind the paper's motivating story: predictions come from
models fit on observed history, and the algorithms' cost degrades with the
model's divergence (Theorems 2.12/2.16) - so as the model converges, the
protocols "improve for free".
"""

from .. import _lazy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "SizePredictor": ".base",
    "HistogramLearner": ".estimators",
    "DecayingHistogramLearner": ".estimators",
    "SlidingWindowLearner": ".estimators",
    "OnlineRecord": ".online",
    "OnlineReport": ".online",
    "run_online": ".online",
    "prediction_protocol_for": ".online",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
