"""Vote model: update rule, input function, innovation gain, decay shapes."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from vcsim.satisfaction import (
    SatisfactionParams,
    Voter,
    customer_input,
    innovation_gain,
    update_vote,
)
from vcsim.scenario import ScenarioError, case_study_scenario

ALPHAS = st.floats(min_value=0.01, max_value=0.99)
VOTES = st.floats(min_value=0.0, max_value=10.0)


def params(**overrides) -> SatisfactionParams:
    return SatisfactionParams(**overrides)


# closed-form oracles of the model


def zero_input_decay(x0: float, forgetting_factor: float, n: int) -> list[float]:
    """Vote sequence [x0, x1, ..., xn] under zero input: x_n = (1-a)^n * x0."""
    if not 0.0 < forgetting_factor < 1.0:
        raise ValueError(
            f"forgetting factor out of range (0, 1): {forgetting_factor}"
        )
    seq = [x0]
    for _ in range(n):
        seq.append((1.0 - forgetting_factor) * seq[-1])
    return seq


def innovation_step(vote: float, forgetting_factor: float) -> float:
    """Closed-form vote after one update with only the new-product flag set.

    x' = 9 - 0.2*(1-a)*x  (the forgetting factor cancels out of the gain
    term, so x'=9 exactly at x=0 for any admissible a).
    """
    a = forgetting_factor
    if not 0.0 < a < 1.0:
        raise ValueError(f"forgetting factor out of range (0, 1): {a}")
    return 9.0 - 0.2 * (1.0 - a) * vote


class TestCustomerInput:
    def test_all_zero_signals_give_zero(self):
        assert customer_input(0.0, params()) == 0.0

    def test_innovation_term_alone(self):
        assert customer_input(18.0, params(), new_product=True) == 18.0

    def test_weighted_sum_by_hand(self):
        # 0.5*1 + 0.1*8 = 1.3
        p = params(support_weight=0.5, peer_weight=0.1, delay_weight=0.0,
                   quality_weight=0.0)
        got = customer_input(0.0, p, support_resolved=True, peer_vote=8.0)
        assert got == pytest.approx(1.3, abs=1e-12)

    def test_flag_off_zeroes_gain_term(self):
        assert customer_input(1e6, params(), new_product=False) == 0.0


class TestInnovationGain:
    def test_zero_vote_half_alpha(self):
        assert innovation_gain(0.0, 0.5) == pytest.approx(18.0, abs=1e-12)

    def test_zero_vote_high_alpha(self):
        assert innovation_gain(0.0, 0.9) == pytest.approx(10.0, rel=1e-12)

    def test_hand_substitution(self):
        # (9 - 1.2*0.4*9) / 0.6 = 4.68 / 0.6 = 7.8
        assert innovation_gain(9.0, 0.6) == pytest.approx(7.8, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_outside_open_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            innovation_gain(5.0, bad)


class TestUpdateVote:
    def test_midpoint(self):
        assert update_vote(8.0, 4.0, params(forgetting_factor=0.5)) == 6.0

    def test_pure_decay_step(self):
        x = update_vote(10.0, 0.0, params(forgetting_factor=0.3))
        assert x == pytest.approx(7.0, abs=1e-12)

    @given(alpha=ALPHAS)
    def test_innovation_from_zero_hits_nine_for_any_alpha(self, alpha):
        p = params(forgetting_factor=alpha)
        u = customer_input(innovation_gain(0.0, alpha), p, new_product=True)
        assert update_vote(0.0, u, p) == pytest.approx(9.0, abs=1e-12)

    @given(alpha=ALPHAS, x=VOTES)
    def test_full_path_matches_closed_form_step(self, alpha, x):
        p = params(forgetting_factor=alpha)
        u = customer_input(innovation_gain(x, alpha), p, new_product=True)
        assert update_vote(x, u, p) == pytest.approx(
            innovation_step(x, alpha), abs=1e-9
        )

    @given(alpha=ALPHAS, x=VOTES, u=st.floats(min_value=-50, max_value=50))
    def test_vote_stays_clamped(self, alpha, x, u):
        assert 0.0 <= update_vote(x, u, params(forgetting_factor=alpha)) <= 10.0

    @given(alpha=ALPHAS, x0=VOTES, u=VOTES)
    def test_constant_input_converges_geometrically(self, alpha, x0, u):
        # |x_k - u| = (1-a)^k |x0 - u|; u in [0,10] keeps the clamp inactive
        p = params(forgetting_factor=alpha)
        x = x0
        gap = abs(x0 - u)
        for _ in range(8):
            x = update_vote(x, u, p)
            gap *= 1.0 - alpha
            assert abs(x - u) == pytest.approx(gap, abs=1e-12)

    @given(alpha=ALPHAS, x0=st.floats(min_value=0.01, max_value=10.0))
    def test_zero_input_votes_strictly_decrease_while_positive(self, alpha, x0):
        p = params(forgetting_factor=alpha)
        x = x0
        for _ in range(6):
            nxt = update_vote(x, 0.0, p)
            if x > 0:
                assert nxt < x
            x = nxt

    @given(alpha=ALPHAS, x0=VOTES)
    def test_two_identical_customers_stay_in_lockstep(self, alpha, x0):
        p = params(forgetting_factor=alpha)
        a = b = x0
        for step in range(6):
            u_a = customer_input(0.0, p, quality_pct=100.0, peer_vote=b)
            u_b = customer_input(0.0, p, quality_pct=100.0, peer_vote=a)
            a, b = update_vote(a, u_a, p), update_vote(b, u_b, p)
            assert a == b


# weights that are powers of two, so every hand-worked vote below is exact
DYADIC = dict(forgetting_factor=0.5, support_weight=1.0, price_weight=0.25,
              delay_weight=-0.125, quality_weight=0.0625, peer_weight=0.5)


class TestVoterDelivery:
    """``Voter._deliver``: the delay, quality and price signals of one delivery."""

    def test_first_delivery_has_no_delay_full_quality_and_no_price_change(self):
        voter = Voter(x=4.0)
        voter._deliver(params(**DYADIC), 30.0, 0.5, 8.0, False, 0.0)
        # delay 0, quality 100 (not 100 * 0.5), price change 0
        assert voter.x == 0.5 * 4.0 + 0.5 * (0.0625 * 100.0) == 5.125
        assert (voter.k, voter.last_price, voter.time_total, voter.conform_total) == (
            1, 8.0, 30.0, 0.5
        )

    def test_later_delivery_against_running_means_and_last_price(self):
        voter = Voter(x=4.0, k=2, last_price=8.0, time_total=20.0, conform_total=1.0)
        voter._deliver(params(**DYADIC), 15.0, 0.75, 10.0, True, 6.0)
        # mean time 10 -> delay 100*(15-10)/10 = 50; mean conform 0.5 ->
        # quality 100*0.75/0.5 = 150; price 100*(10-8)/8 = 25
        u = 1.0 + 0.25 * 25.0 - 0.125 * 50.0 + 0.0625 * 150.0 + 0.5 * 6.0
        assert voter.x == 0.5 * 4.0 + 0.5 * u == 8.6875
        assert (voter.k, voter.last_price, voter.time_total, voter.conform_total) == (
            3, 10.0, 35.0, 1.75
        )

    def test_zero_mean_delivery_time_gives_no_delay(self):
        voter = Voter(x=4.0, k=2, last_price=8.0, time_total=0.0, conform_total=2.0)
        voter._deliver(params(**DYADIC), 5.0, 1.0, 8.0, False, 0.0)
        # delay 0, quality 100*1/1 = 100, price change 0
        assert voter.x == 0.5 * 4.0 + 0.5 * (0.0625 * 100.0) == 5.125

    def test_zero_mean_conform_ratio_gives_quality_of_the_ratio_alone(self):
        voter = Voter(x=4.0, k=2, last_price=8.0, time_total=20.0, conform_total=0.0)
        voter._deliver(params(**DYADIC), 10.0, 0.5, 8.0, False, 0.0)
        # delay 100*(10-10)/10 = 0, quality 100*0.5 = 50, price change 0
        assert voter.x == 0.5 * 4.0 + 0.5 * (0.0625 * 50.0) == 3.5625

    def test_new_product_flag_is_used_exactly_once(self):
        p = params(forgetting_factor=0.5, support_weight=0.0, delay_weight=0.0,
                   quality_weight=0.0, peer_weight=0.0)
        voter = Voter(x=0.0, new_product=True)
        voter._deliver(p, 10.0, 1.0, 8.0, False, 0.0)
        # gain (9 - 1.2*0.5*0) / 0.5 = 18, the only input: 0.5*0 + 0.5*18
        assert voter.x == 0.5 * 0.0 + 0.5 * 18.0 == 9.0
        assert not voter.new_product
        voter._deliver(p, 10.0, 1.0, 8.0, False, 0.0)
        assert voter.x == 0.5 * 9.0 == 4.5  # no gain the second time
        assert voter.k == 2


class TestDecayTrajectory:
    def test_three_terms_by_hand(self):
        assert zero_input_decay(10.0, 0.3, 2) == pytest.approx(
            [10.0, 7.0, 4.9], abs=1e-12
        )

    def test_zero_start_is_fixed_point(self):
        assert zero_input_decay(0.0, 0.42, 5) == [0.0] * 6

    def test_zero_steps_is_identity(self):
        assert zero_input_decay(3.5, 0.3, 0) == [3.5]

    @given(
        x0=VOTES,
        alpha=ALPHAS,
        n=st.integers(min_value=0, max_value=50),
    )
    def test_closed_form(self, x0, alpha, n):
        seq = zero_input_decay(x0, alpha, n)
        assert len(seq) == n + 1
        assert seq[-1] == pytest.approx((1.0 - alpha) ** n * x0, abs=1e-12)


class TestInnovationStep:
    def test_exactly_nine_from_zero(self):
        assert innovation_step(0.0, 0.37) == 9.0

    def test_hand_value(self):
        assert innovation_step(10.0, 0.5) == pytest.approx(8.0, abs=1e-12)

    def test_high_alpha_limit_pins_at_nine(self):
        assert innovation_step(9.0, 1.0 - 1e-9) == pytest.approx(9.0, abs=1e-6)

    @given(x=VOTES, alpha=ALPHAS)
    def test_range_bound(self, x, alpha):
        result = innovation_step(x, alpha)
        assert 9.0 - 2.0 * (1.0 - alpha) - 1e-12 <= result <= 9.0 + 1e-12


def validate_with(p: SatisfactionParams) -> None:
    """Scenario validation, which checks the parameters, of the case study using ``p``."""
    scenario = case_study_scenario()
    replace(scenario, satisfaction=p)


class TestParams:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_forgetting_factor_range(self, alpha):
        with pytest.raises(ScenarioError) as err:
            validate_with(params(forgetting_factor=alpha))
        assert err.value.code == "forgetting-factor-out-of-range"

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_price_weight_must_be_positive(self, beta):
        with pytest.raises(ScenarioError) as err:
            validate_with(params(price_weight=beta))
        assert err.value.code == "price-weight-not-positive"

    def test_defaults_valid(self):
        validate_with(params())
