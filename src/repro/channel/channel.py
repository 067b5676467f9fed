"""The shared multiple-access channel.

A :class:`Channel` encodes the two channel assumptions the paper studies -
with and without collision detection - and converts per-round transmitter
counts into ground-truth :class:`~repro.core.feedback.Feedback` plus the
protocol-visible :class:`~repro.core.feedback.Observation`.

The faithful channel itself is stateless; all randomness lives in the
protocols and the simulator's RNG.  An optional fault-injecting
:class:`~repro.channel.models.ChannelModel` (jamming, noisy feedback,
player crashes) may ride along in :attr:`Channel.model`: the execution
engines consult :attr:`Channel.active_model` and, when one is present,
perturb the ground-truth feedback *after* it is resolved - the channel's
own resolve/observe mapping never changes.  Factory helpers
:func:`with_collision_detection` and :func:`without_collision_detection`
are provided for readable call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..core.feedback import Feedback, Observation, feedback_for_count, observe

if TYPE_CHECKING:
    from .models import ChannelModel

__all__ = [
    "Channel",
    "with_collision_detection",
    "without_collision_detection",
]


@dataclass(frozen=True)
class Channel:
    """A synchronous multiple-access channel.

    Attributes
    ----------
    collision_detection:
        Whether players can distinguish collisions from silence.  With
        detection, "all players (including the transmitters) detect a
        collision"; without, "players detect silence" (paper Section 1.1).
    model:
        Optional fault-injecting channel model
        (:mod:`repro.channel.models`).  ``None`` is the paper's faithful
        channel; engines read :attr:`active_model`, which also reduces
        null-parameter models (zero budget, zero probabilities) to
        ``None`` so zero-fault runs are bit-identical to faithful ones.
    """

    collision_detection: bool
    model: ChannelModel | None = None

    def resolve(self, transmit_count: int) -> Feedback:
        """Ground-truth feedback for a round with ``transmit_count`` senders."""
        return feedback_for_count(transmit_count)

    def observation(self, feedback: Feedback) -> Observation:
        """What protocols running on this channel can see of ``feedback``."""
        return observe(feedback, collision_detection=self.collision_detection)

    def round_observation(self, transmit_count: int) -> Observation:
        """Convenience: transmitter count straight to visible observation."""
        return self.observation(self.resolve(transmit_count))

    @property
    def kind(self) -> str:
        """Short label used in reports: ``'CD'`` or ``'no-CD'``."""
        return "CD" if self.collision_detection else "no-CD"

    @property
    def active_model(self) -> ChannelModel | None:
        """The fault model the engines must apply, or ``None``.

        Null-parameter models are reduced to ``None`` here, in one
        place, so every engine (scalar, batch, stacked/fused) treats a
        zero-fault model exactly as the faithful channel.
        """
        if self.model is None or self.model.is_null():
            return None
        return self.model

    def with_model(self, model: ChannelModel | None) -> "Channel":
        """This channel with a different (or no) fault model."""
        return replace(self, model=model)

    def model_label(self) -> str:
        """Metadata label: the active model's identity or ``'faithful'``."""
        active = self.active_model
        return active.label() if active is not None else "faithful"


def with_collision_detection(model: ChannelModel | None = None) -> Channel:
    """The CD channel of Sections 2.4/2.6 and the CD rows of Tables 1-2."""
    return Channel(collision_detection=True, model=model)


def without_collision_detection(model: ChannelModel | None = None) -> Channel:
    """The no-CD channel of Sections 2.3/2.5 and the no-CD table rows."""
    return Channel(collision_detection=False, model=model)
