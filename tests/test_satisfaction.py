"""Vote model: update rule, input function, innovation gain, decay shapes."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from vcsim.satisfaction import (
    InputSignals,
    SatisfactionParams,
    VoteState,
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
        assert customer_input(0.0, InputSignals(), params()) == 0.0

    def test_innovation_term_alone(self):
        signals = InputSignals(new_product=True)
        assert customer_input(18.0, signals, params()) == 18.0

    def test_weighted_sum_by_hand(self):
        # 0.5*1 + 0.1*8 = 1.3
        p = params(support_weight=0.5, peer_weight=0.1, delay_weight=0.0,
                   quality_weight=0.0)
        signals = InputSignals(support_resolved=True, peer_vote=8.0)
        assert customer_input(0.0, signals, p) == pytest.approx(1.3, abs=1e-12)

    def test_flag_off_zeroes_gain_term(self):
        signals = InputSignals(new_product=False)
        assert customer_input(1e6, signals, params()) == 0.0


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
        state = update_vote(VoteState(x=8.0), 4.0, params(forgetting_factor=0.5))
        assert state.x == 6.0
        assert state.k == 1

    def test_pure_decay_step(self):
        state = update_vote(VoteState(x=10.0), 0.0, params(forgetting_factor=0.3))
        assert state.x == pytest.approx(7.0, abs=1e-12)

    @given(alpha=ALPHAS)
    def test_innovation_from_zero_hits_nine_for_any_alpha(self, alpha):
        p = params(forgetting_factor=alpha)
        u = customer_input(innovation_gain(0.0, alpha), InputSignals(new_product=True), p)
        state = update_vote(VoteState(x=0.0), u, p)
        assert state.x == pytest.approx(9.0, abs=1e-12)

    @given(alpha=ALPHAS, x=VOTES)
    def test_full_path_matches_closed_form_step(self, alpha, x):
        p = params(forgetting_factor=alpha)
        u = customer_input(innovation_gain(x, alpha), InputSignals(new_product=True), p)
        assert update_vote(VoteState(x=x), u, p).x == pytest.approx(
            innovation_step(x, alpha), abs=1e-9
        )

    @given(alpha=ALPHAS, x=VOTES, u=st.floats(min_value=-50, max_value=50))
    def test_vote_stays_clamped(self, alpha, x, u):
        state = update_vote(VoteState(x=x), u, params(forgetting_factor=alpha))
        assert 0.0 <= state.x <= 10.0

    @given(alpha=ALPHAS, x0=VOTES, u=VOTES)
    def test_constant_input_converges_geometrically(self, alpha, x0, u):
        # |x_k - u| = (1-a)^k |x0 - u|; u in [0,10] keeps the clamp inactive
        p = params(forgetting_factor=alpha)
        state = VoteState(x=x0)
        gap = abs(x0 - u)
        for _ in range(8):
            state = update_vote(state, u, p)
            gap *= 1.0 - alpha
            assert abs(state.x - u) == pytest.approx(gap, abs=1e-12)

    @given(alpha=ALPHAS, x0=st.floats(min_value=0.01, max_value=10.0))
    def test_zero_input_votes_strictly_decrease_while_positive(self, alpha, x0):
        p = params(forgetting_factor=alpha)
        state = VoteState(x=x0)
        for _ in range(6):
            nxt = update_vote(state, 0.0, p)
            if state.x > 0:
                assert nxt.x < state.x
            state = nxt

    @given(alpha=ALPHAS, x0=VOTES)
    def test_two_identical_customers_stay_in_lockstep(self, alpha, x0):
        p = params(forgetting_factor=alpha)
        a, b = VoteState(x=x0), VoteState(x=x0)
        for step in range(6):
            signals_a = InputSignals(quality_pct=100.0, peer_vote=b.x)
            signals_b = InputSignals(quality_pct=100.0, peer_vote=a.x)
            a = update_vote(a, customer_input(0.0, signals_a, p), p)
            b = update_vote(b, customer_input(0.0, signals_b, p), p)
            assert a.x == b.x


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
