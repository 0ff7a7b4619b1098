"""Adaptive-learning customer satisfaction model.

Each (customer, product) pair is a :class:`Voter` whose vote x in [0, 10]
is updated once per delivered order:

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
from dataclasses import dataclass

from .jsonl import RECORDS
from .scenario import SatisfactionParams


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
    f_value: float,
    params: SatisfactionParams,
    new_product: bool = False,
    support_resolved: bool = False,
    price_change_pct: float = 0.0,
    delay_pct: float = 0.0,
    quality_pct: float = 0.0,
    peer_vote: float = 0.0,
) -> float:
    """Weighted input u for one vote update, exactly as the model states it.

    new_product and support_resolved are flags; the percentages are the price
    change against the last price, the delivery time's deviation from the
    mean and the conform ratio against the mean (see ``Voter``); peer_vote is
    the mean of the other customers' current votes.
    """
    return (
        f_value * (1.0 if new_product else 0.0)
        + params.support_weight * (1.0 if support_resolved else 0.0)
        + params.price_weight * price_change_pct
        + params.delay_weight * delay_pct
        + params.quality_weight * quality_pct
        + params.peer_weight * peer_vote
    )


def update_vote(x: float, u: float, params: SatisfactionParams) -> float:
    """One vote update: convex mix of old vote and input, clamped to [0, 10]."""
    a = params.forgetting_factor
    return min(VOTE_MAX, max(VOTE_MIN, (1.0 - a) * x + a * u))


@dataclass(slots=True)
class Voter:
    """One (customer, product) pair: its vote ``x``, the update count ``k``,
    the new-product flag, the last unit price paid and the running sums
    behind the delay and quality signals over the ``k`` deliveries so far.
    What depends on other voters, the support outcome and the peer vote,
    the caller supplies."""

    x: float
    k: int = 0
    new_product: bool = False
    last_price: float = 0.0  # 0: no delivery yet, so no price change
    time_total: float = 0.0
    conform_total: float = 0.0

    def _deliver(
        self,
        params: SatisfactionParams,
        delivery_time: float,
        conform: float,
        unit_price: float,
        support_resolved: bool,
        peer_vote: float,
    ) -> None:
        """One delivery: its delay, quality and price signals against this
        pair's memory, the vote update, then the memory rolled forward."""
        k = self.k
        if k:
            mean_time = self.time_total / k
            delay_pct = 100.0 * (delivery_time - mean_time) / mean_time if mean_time > 0 else 0.0
            mean_conform = self.conform_total / k
            quality_pct = 100.0 * conform / mean_conform if mean_conform > 0 else 100.0 * conform
        else:
            delay_pct, quality_pct = 0.0, 100.0
        last = self.last_price
        price_change_pct = 100.0 * (unit_price - last) / last if last else 0.0

        flagged_new = self.new_product
        gain = innovation_gain(self.x, params.forgetting_factor) if flagged_new else 0.0
        u = customer_input(
            gain, params, flagged_new, support_resolved,
            price_change_pct, delay_pct, quality_pct, peer_vote,
        )
        self.x = update_vote(self.x, u, params)
        self.k = k + 1
        # consume the one-shot flag, then roll the running means forward
        self.new_product = False
        self.last_price = unit_price
        self.time_total += delivery_time
        self.conform_total += conform
