import json
import math

import numpy as np
import pytest

from pvcg import (
    Economy,
    LearnedAdjustment,
    LinearCost,
    PriorSupport,
    SqrtSumValuation,
    TrainingConfig,
    composite_loss,
    mlp_forward,
    total_payment,
)
from pvcg.adjustment import sample_from, sample_prior
from pvcg.allocation import waterfill_gains
from pvcg.learner import (
    MLP,
    _backward_batch,
    _batch_surpluses,
    _forward_batch,
    _loss_and_grads,
    load_model,
    mlp_init,
    mlp_zero,
    save_model,
    train,
)

from oracles import fd_loss_grads, fd_output_grads, max_rel_error


def _batch_with_surpluses(support, valuation, count, seed):
    caps, gammas, thetas = sample_prior(support, count, seed=seed)
    surpluses = np.empty(count)
    removed = np.empty((count, support.n))
    for t in range(count):
        surpluses[t], removed[t] = waterfill_gains(
            caps[t, :, 0], gammas[t], float(thetas[t].sum()), valuation.scale
        )
    return caps, gammas, thetas, surpluses, removed


def _zero_model(support):
    width = (support.n - 1) * support.dim + (support.n - 1) + support.m
    return LearnedAdjustment(tuple(mlp_zero([width, 10, 1]) for _ in range(support.n)), support)


def test_forward_basics():
    net = mlp_zero([4, 3, 1])
    assert mlp_forward(net, [1.0, 2.0, 3.0, 4.0]) == 0.0
    linear = MLP([np.array([[1.0], [1.0]])], [np.zeros(1)])
    assert mlp_forward(linear, [2.0, 3.0]) == 5.0
    with pytest.raises(ValueError):
        mlp_forward(net, [1.0, 2.0])


def test_learned_adjustment_index_and_width_errors(paper_support):
    model = _zero_model(paper_support)
    with pytest.raises(IndexError):
        model(10, np.zeros((9, 1)), np.zeros(9), np.zeros(2))
    with pytest.raises(ValueError):
        model(0, np.zeros((8, 1)), np.zeros(9), np.zeros(2))
    assert model(0, np.zeros((9, 1)), np.zeros(9), np.zeros(2)) == 0.0


def test_forward_gradient_matches_finite_differences():
    """Backprop through the network itself, checked per parameter."""
    rng = np.random.default_rng(61)
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        net = mlp_init([4, 6, 5, 1], np.random.default_rng(seed))
        x = rng.uniform(0.1, 1.0, 4)
        # keep away from ReLU kinks so the derivative is classical
        _, acts = _forward_batch(net, x[None, :])
        if min(float(np.abs(a).min(initial=1.0)) for a in acts[1:]) < 1e-3:
            continue
        out, acts = _forward_batch(net, x[None, :])
        analytic = _backward_batch(net, acts, np.ones(1))
        numeric = fd_output_grads(net, x)
        assert max_rel_error(analytic, numeric) < 1e-5
        checked += 1


def test_composite_loss_zero_nets_zero_inclusive_priors(paper_support, paper_families):
    """With zero adjustments both penalty terms are inactive on every draw."""
    valuation, _ = paper_families
    batch = _batch_with_surpluses(paper_support, valuation, 1000, seed=71)
    model = _zero_model(paper_support)
    assert composite_loss(model, *batch) == 0.0


def test_composite_loss_hugely_negative_outputs(paper_support, paper_families):
    valuation, _ = paper_families
    caps, gammas, thetas, surpluses, removed = _batch_with_surpluses(paper_support, valuation, 200, seed=73)
    width = (paper_support.n - 1) + (paper_support.n - 1) + paper_support.m
    nets = []
    for _ in range(paper_support.n):
        net = mlp_zero([width, 4, 1])
        net.biases[-1][0] = -1e6
        nets.append(net)
    model = LearnedAdjustment(tuple(nets), paper_support)
    loss = composite_loss(model, caps, gammas, thetas, surpluses, removed)
    gains = surpluses[:, None] - removed
    expected = float(np.mean((1e6 - gains).sum(axis=1)))  # first term active, second inactive
    assert loss == pytest.approx(expected, rel=1e-9)


def test_composite_loss_single_sample_worked_example():
    """One producer, zero surplus, output 1: the budget term alone contributes 1."""
    support = PriorSupport.uniform_box(1, 1, cap=(0.0, 0.0), gamma=(0.3, 0.3), theta=(0.0, 0.0))
    net = mlp_zero([1, 1])
    net.biases[-1][0] = 1.0  # h_0 = S* + 1 with S* = 0
    model = LearnedAdjustment((net,), support)
    caps = np.zeros((1, 1, 1))
    gammas = np.full((1, 1), 0.3)
    thetas = np.zeros((1, 1))
    loss = composite_loss(model, caps, gammas, thetas, np.zeros(1), np.zeros((1, 1)))
    assert loss == 1.0


def test_composite_loss_requires_surpluses(paper_support, paper_families):
    valuation, _ = paper_families
    caps, gammas, thetas, surpluses, removed = _batch_with_surpluses(paper_support, valuation, 10, seed=5)
    model = _zero_model(paper_support)
    with pytest.raises(ValueError):
        composite_loss(model, caps, gammas, thetas, surpluses[:5], removed)
    with pytest.raises(ValueError):
        composite_loss(model, caps, gammas, thetas, surpluses, removed[:, :4])


def test_loss_zero_iff_instancewise_feasible():
    """LOSS vanishes exactly when every sampled instance satisfies both inequalities."""
    support = PriorSupport.uniform_box(3, 1)
    valuation = SqrtSumValuation(scale=3.0)
    rng = np.random.default_rng(79)
    for trial in range(10):
        caps, gammas, thetas, surpluses, removed = _batch_with_surpluses(
            support, valuation, 50, seed=100 + trial
        )
        model = LearnedAdjustment(
            tuple(mlp_init([2 + 2 + 1, 6, 1], rng) for _ in range(3)), support
        )
        outputs = model.outputs_batch(caps, gammas, thetas)
        gains = surpluses[:, None] - removed
        feasible = bool(
            np.all(gains + outputs >= 0.0)
            and np.all((gains + outputs).sum(axis=1) - surpluses <= 0.0)
        )
        loss = composite_loss(model, caps, gammas, thetas, surpluses, removed)
        assert loss >= 0.0
        assert (loss == 0.0) == feasible


def test_loss_gradient_matches_finite_differences():
    """Joint backprop through all networks and both penalty terms."""
    support = PriorSupport.uniform_box(3, 1, cap=(0.5, 3.0), gamma=(0.1, 0.9), theta=(0.2, 1.0))
    valuation = SqrtSumValuation(scale=3.0)
    checked = 0
    seed = 0
    while checked < 3:
        seed += 1
        caps, gammas, thetas, surpluses, removed = _batch_with_surpluses(support, valuation, 8, seed=seed)
        model = LearnedAdjustment(
            tuple(mlp_init([5, 4, 1], np.random.default_rng(200 + seed + i)) for i in range(3)),
            support,
        )
        outputs = model.outputs_batch(caps, gammas, thetas)
        gains = surpluses[:, None] - removed
        margins = np.concatenate(
            [(-gains - outputs).ravel(), (gains + outputs).sum(axis=1) - surpluses]
        )
        if float(np.abs(margins).min()) < 1e-3:
            continue  # too close to a penalty kink for clean differences
        inputs = model.inputs_batch(caps, gammas, thetas)
        _, analytic = _loss_and_grads(model, inputs, gains, surpluses)
        numeric = fd_loss_grads(model, (caps, gammas, thetas, surpluses, removed))
        for a, n in zip(analytic, numeric):
            assert max_rel_error(a, n) < 1e-4
        checked += 1


def test_train_degenerate_prior_reaches_zero_loss_band():
    support = PriorSupport.uniform_box(2, 1, cap=(2.0, 2.0), gamma=(0.3, 0.3), theta=(0.8, 0.8))
    valuation, cost = SqrtSumValuation(scale=2.0), LinearCost()
    config = TrainingConfig(batch_size=32, epochs=400, learning_rate=1e-2, momentum=0.9, hidden=(8, 8), seed=3)
    model, trace = train(valuation, cost, support, config)
    assert trace.final_loss < 1e-3
    assert trace.epochs_run <= 400
    # the learned values must sit inside the feasibility band of the fixed instance
    full, removed = waterfill_gains(np.array([2.0, 2.0]), np.array([0.3, 0.3]), 0.8, 2.0)
    gains = full - removed
    outputs = np.array([model(i, [[2.0]], [0.3], [0.8]) for i in range(2)])
    assert np.all(outputs >= -gains - 1e-3)
    assert (gains + outputs).sum() <= full + 1e-3


def test_zero_capacity_prior_starts_at_zero_loss(paper_families):
    valuation, _ = paper_families
    support = PriorSupport.uniform_box(4, 2, cap=(0.0, 0.0))
    local_valuation = SqrtSumValuation(scale=4.0)
    batch = _batch_with_surpluses(support, local_valuation, 100, seed=83)
    model = _zero_model(support)
    assert composite_loss(model, *batch) == 0.0


def test_training_is_reproducible():
    support = PriorSupport.uniform_box(3, 1)
    valuation, cost = SqrtSumValuation(scale=3.0), LinearCost()
    config = TrainingConfig(batch_size=16, epochs=25, learning_rate=1e-2, hidden=(6,), seed=11)
    model_a, trace_a = train(valuation, cost, support, config)
    model_b, trace_b = train(valuation, cost, support, config)
    assert trace_a.losses == trace_b.losses
    for net_a, net_b in zip(model_a.nets, model_b.nets):
        for wa, wb in zip(net_a.weights, net_b.weights):
            assert np.array_equal(wa, wb)


def test_training_divergence_raises():
    """Overflowing forward passes must abort with a diagnostic, not loop on NaN."""
    support = PriorSupport.uniform_box(2, 1, cap=(1.0, 5.0), gamma=(0.1, 0.9), theta=(0.5, 1.0))
    valuation, cost = SqrtSumValuation(scale=2.0), LinearCost()
    blown = LearnedAdjustment(
        tuple(
            MLP([np.full((3, 2), 1e200), np.full((2, 1), 1e200)], [np.zeros(2), np.zeros(1)])
            for _ in range(2)
        ),
        support,
    )
    config = TrainingConfig(batch_size=16, epochs=10, learning_rate=1e-2, hidden=(2,), seed=1)
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="diverged"):
        train(valuation, cost, support, config, initial_model=blown)


def test_training_warm_start_copies_the_donor():
    support = PriorSupport.uniform_box(2, 1)
    valuation, cost = SqrtSumValuation(scale=2.0), LinearCost()
    config = TrainingConfig(batch_size=16, epochs=5, learning_rate=1e-2, hidden=(4,), seed=2, loss_tol=0.0)
    model, _ = train(valuation, cost, support, config)
    snapshot = [[w.copy() for w in net.weights] for net in model.nets]
    resumed, _ = train(valuation, cost, support, config, initial_model=model)
    for net, saved in zip(model.nets, snapshot):
        for w, w_saved in zip(net.weights, saved):
            assert np.array_equal(w, w_saved)
    assert resumed.nets[0].weights[0] is not model.nets[0].weights[0]


def test_checkpoint_roundtrip(tmp_path):
    support = PriorSupport.uniform_box(3, 2)
    rng = np.random.default_rng(91)
    model = LearnedAdjustment(tuple(mlp_init([2 + 2 + 2, 5, 1], rng) for _ in range(3)), support, seed=91)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.seed == 91
    probe = rng.uniform(0, 1, (4, 2, 1)), rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (4, 2))
    caps_others, gammas_others, thetas = probe
    for i in range(3):
        for k in range(4):
            assert model(i, caps_others[k], gammas_others[k], thetas[k]) == loaded(
                i, caps_others[k], gammas_others[k], thetas[k]
            )
    doc = json.loads(path.read_text())
    doc["kind"] = "something-else"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(bad)


def test_adjustment_unchanged_when_own_report_changes():
    from pvcg import BidProfile

    economy = Economy.sqrt_sum([2.0, 3.0], [0.3, 0.1], [0.8])
    support = PriorSupport.uniform_box(2, 1)
    rng = np.random.default_rng(97)
    model = LearnedAdjustment(tuple(mlp_init([3, 6, 1], rng) for _ in range(2)), support)
    truthful = total_payment(economy, adjustment=model)
    shaded = total_payment(
        economy, bids=BidProfile([1.5, 3.0], [0.5, 0.1], [0.8]), adjustment=model
    )
    # only producer 0's report changed: its own adjustment cannot move ...
    assert truthful.adjustment[0] == shaded.adjustment[0]
    # ... while producer 1's adjustment reads producer 0's report and does
    assert truthful.adjustment[1] != shaded.adjustment[1]


def test_train_projected_gradient_single_producer():
    support = PriorSupport.uniform_box(1, 1)
    config = TrainingConfig(batch_size=4, epochs=2, hidden=(4,), seed=3)
    model, trace = train(SqrtSumValuation(scale=1.0), LinearCost(), support, config, method="projected_gradient")
    assert model.n == 1
    assert 1 <= trace.epochs_run <= 2
    assert all(math.isfinite(loss) for loss in trace.losses)


def test_batch_surpluses_slow_path_matches_waterfill():
    rng = np.random.default_rng(5)
    valuation, cost = SqrtSumValuation(scale=3.0), LinearCost()
    for n in (1, 3):
        caps, gammas, thetas = sample_from(PriorSupport.uniform_box(n, 2), 3, rng)
        fast = _batch_surpluses(valuation, cost, caps, gammas, thetas, None)
        slow = _batch_surpluses(valuation, cost, caps, gammas, thetas, "projected_gradient")
        for exact, numeric in zip(fast, slow):
            np.testing.assert_allclose(numeric, exact, rtol=0.0, atol=1e-6)
