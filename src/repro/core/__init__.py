"""Core abstractions: channel vocabulary, protocol interfaces, predictions
and the perfect-advice model.

This package is the contract layer between the channel simulator
(:mod:`repro.channel`) and the algorithms (:mod:`repro.protocols`): the
simulator drives anything implementing the session interfaces here, and
every algorithm in the paper is expressed against them.
"""

from .. import _lazy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    # feedback
    "Feedback": ".feedback",
    "Observation": ".feedback",
    "feedback_for_count": ".feedback",
    "observe": ".feedback",
    # protocol interfaces
    "UniformProtocol": ".protocol",
    "UniformSession": ".protocol",
    "PlayerProtocol": ".protocol",
    "PlayerSession": ".protocol",
    "ProtocolError": ".protocol",
    "ScheduleExhausted": ".protocol",
    # uniform building blocks
    "ProbabilitySchedule": ".uniform",
    "ScheduleProtocol": ".uniform",
    "ScheduleSession": ".uniform",
    "HistoryPolicy": ".uniform",
    "HistoryPolicyProtocol": ".uniform",
    "HistoryPolicySession": ".uniform",
    "validate_probability": ".uniform",
    # predictions
    "Prediction": ".predictions",
    "BudgetReport": ".predictions",
    # advice
    "AdviceFunction": ".advice",
    "AdviceError": ".advice",
    "NullAdvice": ".advice",
    "MinIdPrefixAdvice": ".advice",
    "RangeBlockAdvice": ".advice",
    "FullIdAdvice": ".advice",
    "BitFlipAdvice": ".faulty_advice",
    "AdversarialAdvice": ".faulty_advice",
    "id_bit_width": ".advice",
    "id_to_bits": ".advice",
    "bits_to_int": ".advice",
    "range_blocks": ".advice",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
