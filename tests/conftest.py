import math

import numpy as np
import pytest
from hypothesis import strategies as st

from pvcg import Economy, LinearCost, PriorSupport, SqrtSumValuation, TrainingConfig
from pvcg.learner import train


@pytest.fixture
def split_cost_economy():
    """Two producers, one cheap and one priced out: optimum accepts only the first."""
    return Economy.sqrt_sum([1.0, 1.0], [0.1, 10.0], [1.0])


@pytest.fixture
def cheap_pair_economy():
    """Two producers both worth accepting in full."""
    return Economy.sqrt_sum([1.0, 1.0], [0.1, 0.2], [1.0])


@pytest.fixture
def paper_support():
    return PriorSupport.uniform_box(10, 2, cap=(0.0, 5.0), gamma=(0.0, 1.0), theta=(0.0, 1.0))


@pytest.fixture
def paper_families():
    return SqrtSumValuation(scale=10.0), LinearCost()


@pytest.fixture(scope="session")
def trained_paper_model():
    """One trained flagship model shared by the acceptance criteria.

    Trains the n=10, m=2 configuration (hidden 3x10, lr 1e-2 with momentum
    0.9) on the uniform priors; the convergence criterion asserts on the
    returned trace.
    """
    support = PriorSupport.uniform_box(10, 2, cap=(0.0, 5.0), gamma=(0.0, 1.0), theta=(0.0, 1.0))
    config = TrainingConfig(
        batch_size=256,
        epochs=500,
        learning_rate=1e-2,
        momentum=0.9,
        hidden=(10, 10, 10),
        seed=20240,
        loss_tol=1e-3,
    )
    model, trace = train(SqrtSumValuation(scale=10.0), LinearCost(), support, config)
    return model, trace, config


def random_sqrt_sum_economy(rng, n_choices=(1, 2, 3), m_choices=(1, 2), cap_high=5.0):
    """Small random economy drawn from the standard uniform ranges."""
    n = int(rng.choice(n_choices))
    m = int(rng.choice(m_choices))
    caps = rng.uniform(0.0, cap_high, n)
    gammas = rng.uniform(0.0, 1.0, n)
    thetas = rng.uniform(0.0, 1.0, m)
    return Economy.sqrt_sum(caps, gammas, thetas)


# cost types and capacities with ties and zeros mixed into the continuous draws
TIED_GAMMAS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
TIED_CAPS = st.sampled_from([0.0, 2.5, 5.0]) | st.floats(0.0, 5.0)


def weighted_valuation(x, theta):
    """A custom valuation: a weighted aggregate under a square root."""
    return theta * math.sqrt(x[:, 0].sum() + 2.0 * x[:, -1].sum())


def convex_cost(x, gamma):
    """A custom cost, convex in the bundle's total."""
    return gamma * (x.sum() + 0.1 * x.sum() ** 2)


class RuleAdjustment:
    """An adjustment from a rule ``rule(i, capacities_others, gammas_others, thetas)`` of one producer at a time.

    ``all_producers`` asks the rule producer by producer, on the others' reports of each profile; ``model(i, ...)``
    asks it once.
    """

    def __init__(self, rule):
        self.rule = rule

    def __call__(self, i, capacities_others, gammas_others, thetas) -> float:
        return float(self.rule(i, capacities_others, gammas_others, thetas))

    def all_producers(self, capacities, gammas, thetas):
        out = np.empty(gammas.shape)
        for k in np.ndindex(gammas.shape[:-1]):
            for i in range(gammas.shape[-1]):
                keep = np.arange(gammas.shape[-1]) != i
                out[k + (i,)] = self(i, capacities[k][keep], gammas[k][keep], thetas[k])
        return out
