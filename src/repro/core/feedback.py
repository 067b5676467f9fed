"""Channel feedback vocabulary: what happens in a round and who can see it.

The model (paper Section 1.1): time proceeds in synchronous rounds; in each
round every participant either transmits or listens.

* 0 transmitters  -> **silence**;
* 1 transmitter   -> **success** (the message is delivered; contention
  resolution is solved);
* >=2 transmitters -> **collision** (all messages lost).

Whether a player can *distinguish* collision from silence depends on the
channel: with collision detection (CD) every player - including the
transmitters - detects a collision; without CD ("players detect silence")
a collision is indistinguishable from silence.  :class:`Feedback` is the
ground truth the simulator computes; :class:`Observation` is the filtered
view a protocol is allowed to branch on, produced by :func:`observe`.
"""

from __future__ import annotations

import enum

__all__ = [
    "Feedback",
    "Observation",
    "observe",
    "feedback_for_count",
    "FB_SILENCE",
    "FB_SUCCESS",
    "FB_COLLISION",
]

#: Integer feedback codes used by the vectorized engines: the ground-truth
#: trichotomy of a round.  Distinct from the OBS_* observation codes -
#: feedback is what happened, observation is what protocols may see.
FB_SILENCE = 0
FB_SUCCESS = 1
FB_COLLISION = 2


class Feedback(enum.Enum):
    """Ground-truth outcome of one round (what an omniscient observer sees)."""

    SILENCE = "silence"
    SUCCESS = "success"
    COLLISION = "collision"


class Observation(enum.Enum):
    """Protocol-visible outcome of one round.

    ``QUIET`` is the no-CD view of both silence and collision - the two are
    indistinguishable without a collision detector.  ``SILENCE`` and
    ``COLLISION`` only occur with CD.  ``SUCCESS`` is visible in both models
    (a delivered message is heard and ends the execution anyway).
    """

    QUIET = "quiet"
    SILENCE = "silence"
    COLLISION = "collision"
    SUCCESS = "success"

    @property
    def collision_bit(self) -> int:
        """The history bit of the paper's CD model: 1 = collision, 0 = not.

        Section 2.1 encodes a CD execution history as a binary string with
        ``b_i = 1`` iff round ``i`` had a collision.  Only meaningful for CD
        observations.
        """
        return 1 if self is Observation.COLLISION else 0


def feedback_for_count(transmit_count: int) -> Feedback:
    """Map a round's transmitter count to its ground-truth feedback."""
    if transmit_count < 0:
        raise ValueError(f"transmit count must be >= 0, got {transmit_count}")
    if transmit_count == 0:
        return Feedback.SILENCE
    if transmit_count == 1:
        return Feedback.SUCCESS
    return Feedback.COLLISION


def observe(feedback: Feedback, *, collision_detection: bool) -> Observation:
    """Filter ground truth through the channel's observability.

    With CD, feedback passes through unchanged.  Without CD, silence and
    collision both appear as ``QUIET``.
    """
    if feedback is Feedback.SUCCESS:
        return Observation.SUCCESS
    if collision_detection:
        if feedback is Feedback.COLLISION:
            return Observation.COLLISION
        return Observation.SILENCE
    return Observation.QUIET
