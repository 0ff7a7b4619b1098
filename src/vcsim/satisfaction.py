"""Adaptive-learning customer satisfaction model.

Each (customer, product) pair carries a vote x in [0, 10] that is updated
once per delivered order:

    x' = (1 - a) * x + a * u

where ``a`` is the forgetting factor and ``u`` is the input built from the
delivery's signals (innovation flag, support outcome, price change, delay,
quality, peer votes). With zero input the vote decays geometrically; the
innovation gain is chosen so that a launch pushes the vote to 9 from zero
regardless of the forgetting factor.

The starting vote and the weights, ``SatisfactionParams``, are a scenario
spec: ``scenario`` declares them with their document keys and ranges, like
every other spec, and this module takes them from there.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .jsonl import RECORDS
from .scenario import SatisfactionParams


class InputSignals(NamedTuple):
    """Signals observed at one delivery.

    new_product and support_resolved are boolean flags; price_change_pct is
    the price variation as a percentage of the previous price; delay_pct the
    delivery-time deviation as a percentage of the mean lead time;
    quality_pct the conform-products ratio as a percentage of the mean
    quality level; peer_vote summarizes the other customers' current votes.
    """

    new_product: bool = False
    support_resolved: bool = False
    price_change_pct: float = 0.0
    delay_pct: float = 0.0
    quality_pct: float = 0.0
    peer_vote: float = 0.0


class VoteState(NamedTuple):
    """Vote for one (customer, product): value in [0, 10] and update count."""

    x: float
    k: int = 0


#: One vote update, a line of ``satisfaction.jsonl``: a tuple of the keys
#: that ``jsonl.RECORDS`` declares for a vote (time, customer, product code,
#: update count k and the new vote), in that order.
VoteEntry = namedtuple("VoteEntry", RECORDS["vote"])


VOTE_MIN = 0.0
VOTE_MAX = 10.0


def innovation_gain(vote: float, forgetting_factor: float) -> float:
    """Input gain applied while the new-product flag is set.

    Equals (9 - 1.2*(1-a)*x) / a; combined with the vote update this makes
    the post-launch vote independent of the forgetting factor at x=0.
    """
    a = forgetting_factor
    if not 0.0 < a < 1.0:
        raise ValueError(f"forgetting factor out of range (0, 1): {a}")
    return (9.0 - 1.2 * (1.0 - a) * vote) / a


def customer_input(
    f_value: float, signals: InputSignals, params: SatisfactionParams
) -> float:
    """Weighted input u for one vote update, exactly as the model states it."""
    return (
        f_value * (1.0 if signals.new_product else 0.0)
        + params.support_weight * (1.0 if signals.support_resolved else 0.0)
        + params.price_weight * signals.price_change_pct
        + params.delay_weight * signals.delay_pct
        + params.quality_weight * signals.quality_pct
        + params.peer_weight * signals.peer_vote
    )


def update_vote(state: VoteState, u: float, params: SatisfactionParams) -> VoteState:
    """One vote update: convex mix of old vote and input, clamped to [0, 10]."""
    a = params.forgetting_factor
    x = (1.0 - a) * state.x + a * u
    x = min(VOTE_MAX, max(VOTE_MIN, x))
    return VoteState(x=x, k=state.k + 1)

