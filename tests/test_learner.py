import json
import math
from pathlib import Path

import numpy as np
import pytest

from pvcg import (
    Economy,
    ExperimentConfig,
    LearnedAdjustment,
    LinearCost,
    PriorSupport,
    SqrtSumValuation,
    TrainingConfig,
    total_payment,
)
from pvcg.adjustment import sample_from
from pvcg.allocation import _batch_surpluses, _max_surplus, waterfill_gains
from pvcg.learner import (
    MLP,
    _backward,
    _forward,
    _forward_rows,
    _loss_and_grads,
    _row_stacks,
    _stack,
    load_model,
    mlp_init,
    save_model,
    train,
)

from oracles import (
    fd_loss_grads,
    fd_output_grads,
    max_rel_error,
    per_network,
    reference_inputs,
    reference_learned_adjustment,
    reference_loss_and_grads,
    reference_train,
    zero_mlp,
)


def _batch_with_surpluses(support, valuation, count, seed):
    caps, gammas, thetas = sample_from(support, count, np.random.default_rng(seed))
    surpluses = np.empty(count)
    removed = np.empty((count, support.n))
    for t in range(count):
        surpluses[t], removed[t] = waterfill_gains(
            caps[t, :, 0], gammas[t], float(thetas[t].sum()), valuation.scale
        )
    return caps, gammas, thetas, surpluses, removed


def _loss(model, caps, gammas, thetas, surpluses, removed) -> float:
    """Training's loss of the model on a batch with precomputed surpluses, from the kernel ``train`` runs."""
    inputs = model.inputs_batch(caps, gammas, thetas)
    return _loss_and_grads(*_stack(model.nets), inputs, surpluses[:, None] - removed, surpluses)[0]


def _zero_model(support):
    width = (support.n - 1) * support.dim + (support.n - 1) + support.m
    return LearnedAdjustment(tuple(zero_mlp([width, 10, 1]) for _ in range(support.n)), support)


def test_forward_basics():
    net = zero_mlp([4, 3, 1])
    assert _forward_rows(*_row_stacks(*_stack([net])), np.array([[[1.0, 2.0, 3.0, 4.0]]]))[0, 0] == 0.0
    linear = MLP([np.array([[1.0], [1.0]])], [np.zeros(1)])
    assert _forward_rows(*_row_stacks(*_stack([linear])), np.array([[[2.0, 3.0]]]))[0, 0] == 5.0


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
        weights, biases = _stack([net])
        _, acts = _forward(weights, biases, x[None, None, :])
        if min(float(np.abs(a).min(initial=1.0)) for a in acts[1:]) < 1e-3:
            continue
        analytic = per_network(*_backward(weights, acts, np.ones((1, 1))))[0]
        numeric = fd_output_grads(net, x)
        assert max_rel_error(analytic, numeric) < 1e-5
        checked += 1


def test_composite_loss_zero_nets_zero_inclusive_priors(paper_support, paper_families):
    """With zero adjustments both penalty terms are inactive on every draw."""
    valuation, _ = paper_families
    batch = _batch_with_surpluses(paper_support, valuation, 1000, seed=71)
    model = _zero_model(paper_support)
    assert _loss(model, *batch) == 0.0


def test_composite_loss_hugely_negative_outputs(paper_support, paper_families):
    valuation, _ = paper_families
    caps, gammas, thetas, surpluses, removed = _batch_with_surpluses(paper_support, valuation, 200, seed=73)
    width = (paper_support.n - 1) + (paper_support.n - 1) + paper_support.m
    nets = []
    for _ in range(paper_support.n):
        net = zero_mlp([width, 4, 1])
        net.biases[-1][0] = -1e6
        nets.append(net)
    model = LearnedAdjustment(tuple(nets), paper_support)
    loss = _loss(model, caps, gammas, thetas, surpluses, removed)
    gains = surpluses[:, None] - removed
    expected = float(np.mean((1e6 - gains).sum(axis=1)))  # first term active, second inactive
    assert loss == pytest.approx(expected, rel=1e-9)


def test_composite_loss_single_sample_worked_example():
    """One producer, zero surplus, output 1: the budget term alone contributes 1."""
    support = PriorSupport.uniform_box(1, 1, cap=(0.0, 0.0), gamma=(0.3, 0.3), theta=(0.0, 0.0))
    net = zero_mlp([1, 1])
    net.biases[-1][0] = 1.0  # h_0 = S* + 1 with S* = 0
    model = LearnedAdjustment((net,), support)
    caps = np.zeros((1, 1, 1))
    gammas = np.full((1, 1), 0.3)
    thetas = np.zeros((1, 1))
    loss = _loss(model, caps, gammas, thetas, np.zeros(1), np.zeros((1, 1)))
    assert loss == 1.0


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
        loss = _loss(model, caps, gammas, thetas, surpluses, removed)
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
        _, analytic = _loss_and_grads(*_stack(model.nets), inputs, gains, surpluses)
        analytic = per_network(*analytic)
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
    assert _loss(model, *batch) == 0.0


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


def test_model_rejects_networks_of_different_layouts():
    """The model owns its networks as one stack, so they need one layer layout; the per-network checks come first."""
    support = PriorSupport.uniform_box(2, 1)
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="one layer layout"):
        LearnedAdjustment((mlp_init([3, 4, 1], rng), mlp_init([3, 5, 1], rng)), support)
    with pytest.raises(ValueError, match="network 1 output width 2 must be 1"):
        LearnedAdjustment((mlp_init([3, 4, 1], rng), mlp_init([3, 5, 2], rng)), support)
    with pytest.raises(ValueError, match="network 1 input width 4 does not match"):
        LearnedAdjustment((mlp_init([3, 4, 1], rng), mlp_init([4, 4, 1], rng)), support)


def test_trained_model_prices_with_the_parameters_training_moved():
    """The returned model owns the array training steps: every pricing path reads the final weights.

    A model that stacked copies of its networks at construction would price
    with the initial weights while training moved others. The final weights
    come from the per-network training oracle; a warm start from the model
    leaves it as it was.
    """
    config = ExperimentConfig.load(Path(__file__).resolve().parents[1] / "configs" / "train_small.json")
    support, (valuation, cost) = config.support(), config.families()
    training = TrainingConfig.from_dict({**config.training.to_dict(), "epochs": 5})
    model, trace = train(valuation, cost, support, training)
    expected_nets, expected_losses = reference_train(valuation, support, training)
    assert trace.losses == expected_losses
    final = LearnedAdjustment(tuple(expected_nets), support)
    for net in model.nets:
        for k, (w, b) in enumerate(zip(model._weights, model._biases)):
            assert np.shares_memory(net.weights[k], w) and np.shares_memory(net.biases[k], b)
    caps, gammas, thetas = sample_from(support, 7, np.random.default_rng(5))
    batch = model.all_producers(caps, gammas, thetas)
    for t in range(7):
        for i in range(support.n):
            keep = [k for k in range(support.n) if k != i]
            expected = reference_learned_adjustment(final, i, caps[t, keep], gammas[t, keep], thetas[t])
            assert model(i, caps[t, keep], gammas[t, keep], thetas[t]) == expected
            assert batch[t, i] == expected
    outputs, _ = _forward(*_stack(final.nets), final.inputs_batch(caps, gammas, thetas))
    assert model.outputs_batch(caps, gammas, thetas).tobytes() == np.ascontiguousarray(outputs.T).tobytes()
    train(valuation, cost, support, training, initial_model=model)
    assert model.all_producers(caps, gammas, thetas).tobytes() == batch.tobytes()


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


def _two_output_last_layer(doc):
    spec = doc["nets"][1]
    spec["weights"][-1] = [[0.0, 0.0]] * 5
    spec["biases"][-1] = [0.0, 0.0]
    spec["sizes"][-1] = 2


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_two_output_last_layer, r"network 1 output width 2 must be 1", id="output-width"),
        pytest.param(lambda doc: doc["nets"][0].update(sizes=[6, 4, 1]), r"nets\[0\] sizes \[6, 4, 1\]", id="sizes"),
        pytest.param(lambda doc: doc.update(n=4), r"header n=4 does not match the support's 3", id="header-n"),
        pytest.param(lambda doc: doc.update(m=1), r"header m=1 does not match the support's 2", id="header-m"),
        pytest.param(lambda doc: doc.update(dim=2), r"header dim=2 does not match the support's 1", id="header-dim"),
        pytest.param(lambda doc: doc.pop("support"), r"checkpoint has no 'support'", id="no-support"),
        pytest.param(lambda doc: doc.pop("nets"), r"checkpoint has no 'nets'", id="no-nets"),
    ],
)
def test_load_model_rejects_inconsistent_checkpoint(tmp_path, edit, message):
    support = PriorSupport.uniform_box(3, 2)
    rng = np.random.default_rng(92)
    model = LearnedAdjustment(tuple(mlp_init([2 + 2 + 2, 5, 1], rng) for _ in range(3)), support)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_model(path)


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
        # each removed column is one solve with producer i's capacity zeroed, as a per-column loop would give it
        columns = np.stack([
            _max_surplus(np.where(np.arange(n)[:, None] == i, 0.0, caps), gammas, thetas, valuation, cost,
                         "projected_gradient")
            for i in range(n)
        ], axis=1)
        assert (slow[1].dtype, slow[1].shape, slow[1].tobytes()) == (columns.dtype, columns.shape, columns.tobytes())


def test_call_equals_outputs_batch():
    """The per-producer call and the batch path build one input layout and run one forward pass."""
    support = PriorSupport.uniform_box(4, 2, cap=(0.5, 3.0), dim=2)
    rng = np.random.default_rng(7)
    model = LearnedAdjustment(tuple(mlp_init([3 * 2 + 3 + 2, 6, 1], rng) for _ in range(4)), support)
    caps, gammas, thetas = sample_from(support, 16, np.random.default_rng(8))
    batch = model.outputs_batch(caps, gammas, thetas)
    for t in range(16):
        single = model.outputs_batch(caps[t : t + 1], gammas[t : t + 1], thetas[t : t + 1])
        for i in range(4):
            keep = [k for k in range(4) if k != i]
            value = model(i, caps[t, keep], gammas[t, keep], thetas[t])
            # a batch of one is the same computation; a larger batch may block
            # its matrix products differently in the last bits
            assert value == single[0, i]
            assert value == pytest.approx(batch[t, i], rel=0.0, abs=1e-12)


@pytest.mark.parametrize("hidden", [(10, 10, 10), (1,), (4, 1), (1, 3)])
@pytest.mark.parametrize("batch", [(1,), (2,), (3,), (50,), (257,), (2, 5)])
def test_all_producers_is_bit_equal_to_the_per_producer_call(batch, hidden):
    """Pricing's batch of networks and ``model(i, ...)`` give each row the bits of the one-producer reference,
    whatever the batch shape. Width-1 layers take BLAS's vector path, whose sums depend on the strides."""
    support = PriorSupport.uniform_box(10, 2)
    rng = np.random.default_rng(batch[0])
    model = LearnedAdjustment(tuple(mlp_init([20, *hidden, 1], rng) for _ in range(10)), support)
    T = math.prod(batch)
    caps, gammas, thetas = sample_from(support, T, np.random.default_rng(T + 1))
    out = model.all_producers(caps.reshape(*batch, 10, 1), gammas.reshape(*batch, 10), thetas.reshape(*batch, 2))
    assert out.shape == (*batch, 10) and out.flags.c_contiguous
    flat = out.reshape(T, 10)
    for t in range(T):
        for i in range(10):
            keep = [k for k in range(10) if k != i]
            expected = reference_learned_adjustment(model, i, caps[t, keep], gammas[t, keep], thetas[t])
            assert model(i, caps[t, keep], gammas[t, keep], thetas[t]) == expected
            assert flat[t, i] == expected
    assert np.array_equal(model.all_producers(caps[0], gammas[0], thetas[0]), flat[0])


@pytest.mark.parametrize("side", ["capacity", "valuation type"])
def test_a_zero_width_prior_side_gives_the_oracles_bits(side):
    """A side of the prior box pinned to one value scales to 0 whatever is reported on it: ``inputs_batch`` and
    ``all_producers`` give the bits of the per-network oracle. Rows 0 and 1 report off the pinned side (capacities of
    3 on a box pinned at 2, valuation types of 0.75 on one pinned at 0.5), where only the live mask zeroes the
    column."""
    support = PriorSupport.uniform_box(4, 2, **({"cap": (2.0, 2.0)} if side == "capacity" else {"theta": (0.5, 0.5)}))
    rng = np.random.default_rng(11)
    model = LearnedAdjustment(tuple(mlp_init([8, 5, 1], rng) for _ in range(4)), support)
    caps, gammas, thetas = sample_from(support, 6, rng)
    caps[0, :2], thetas[1] = 3.0, 0.75
    inputs = model.inputs_batch(caps, gammas, thetas)
    for i, expected in enumerate(reference_inputs(model, caps, gammas, thetas)):
        assert inputs[i].shape == expected.shape and inputs[i].tobytes() == expected.tobytes(), i
    out = model.all_producers(caps, gammas, thetas)
    for t in range(6):
        for i in range(4):
            keep = [k for k in range(4) if k != i]
            expected = reference_learned_adjustment(model, i, caps[t, keep], gammas[t, keep], thetas[t])
            assert out[t, i].tobytes() == np.float64(expected).tobytes(), (t, i)


def test_all_producers_does_not_depend_on_the_layout_of_its_rows():
    """Tied and zero reports through narrow layers: a strided row would take another BLAS kernel."""
    support = PriorSupport.uniform_box(4, 1)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        model = LearnedAdjustment(tuple(mlp_init([7, 4, 1], rng) for _ in range(4)), support)
        for T in (2, 3, 4):
            caps = rng.choice([0.0, 0.5, 2.5], size=(T, 4, 1))
            gammas = rng.choice([0.0, 0.25, 0.5], size=(T, 4))
            thetas = rng.choice([0.0, 0.5], size=(T, 1))
            batch = model.all_producers(caps, gammas, thetas)
            for t in range(T):
                for i in range(4):
                    assert model(i, np.delete(caps[t], i, 0), np.delete(gammas[t], i), thetas[t]) == batch[t, i]


def test_composite_loss_matches_loss_components_of_the_payment():
    """Training's loss on one instance is the probes' penalty sum on the priced instance."""
    from pvcg.verification import loss_components

    support = PriorSupport.uniform_box(3, 2)
    valuation, cost = SqrtSumValuation(scale=3.0), LinearCost()
    rng = np.random.default_rng(11)
    model = LearnedAdjustment(tuple(mlp_init([2 + 2 + 2, 5, 1], rng) for _ in range(3)), support)
    caps, gammas, thetas = sample_from(support, 20, np.random.default_rng(12))
    active = 0
    for t in range(20):
        payments = total_payment(Economy(caps[t], gammas[t], thetas[t], valuation, cost), adjustment=model)
        loss = _loss(
            model, caps[t : t + 1], gammas[t : t + 1], thetas[t : t + 1],
            np.array([payments.surplus]), payments.counterfactual_surpluses[None, :],
        )
        term1, term2 = loss_components(payments)
        assert loss == term1 + term2
        active += loss > 0
    assert active > 0  # the random networks violate feasibility somewhere


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("hidden", (-3,), id="hidden-negative"),
        pytest.param("hidden", (2.5,), id="hidden-fraction"),
        pytest.param("hidden", (0,), id="hidden-zero"),
        pytest.param("loss_tol", math.nan, id="loss_tol-nan"),
        pytest.param("loss_tol", -1e-3, id="loss_tol-negative"),
        pytest.param("loss_tol", 1e308, id="loss_tol-tenfold-overflows"),
        pytest.param("learning_rate", math.inf, id="learning_rate-inf"),
        pytest.param("seed", -1, id="seed-negative"),
        pytest.param("seed", 1.5, id="seed-fraction"),
        pytest.param("seed", True, id="seed-bool"),
        pytest.param("batch_size", 0, id="batch_size-zero"),
        pytest.param("batch_size", 2.5, id="batch_size-fraction"),
        pytest.param("batch_size", True, id="batch_size-bool"),
        pytest.param("epochs", 1.5, id="epochs-fraction"),
    ],
)
def test_training_config_rejects_bad_field(field, value):
    """A bad field fails when the config is built, with a message that starts with its name."""
    with pytest.raises(ValueError, match=rf"^{field} "):
        TrainingConfig(**{field: value})
    with pytest.raises(ValueError, match=rf"^{field} "):
        TrainingConfig.from_dict({field: list(value) if isinstance(value, tuple) else value})


def _stacked_case(T, hidden, seed):
    support = PriorSupport.uniform_box(10, 2, cap=(0.0, 5.0))
    rng = np.random.default_rng(seed)
    model = LearnedAdjustment(tuple(mlp_init([20, *hidden, 1], rng) for _ in range(10)), support)
    return model, _batch_with_surpluses(support, SqrtSumValuation(scale=10.0), T, seed)


@pytest.mark.parametrize("hidden", [(10, 10, 10), (1,), (4, 1), (1, 3)])
@pytest.mark.parametrize("T", [1, 3, 7, 50, 257])
def test_stacked_loss_and_grads_equal_the_per_network_oracle(T, hidden):
    """One stacked pass gives every network the loss and gradient bits of its own 2-D pass.

    Batch sizes that are not powers of two make ``d_out`` entries whose sums
    depend on the order of addition, as the flagship's T=256 does not.
    """
    for seed in range(3):
        model, (caps, gammas, thetas, surpluses, removed) = _stacked_case(T, hidden, seed)
        gains = surpluses[:, None] - removed
        loss, (d_weights, d_biases) = _loss_and_grads(
            *_stack(model.nets), model.inputs_batch(caps, gammas, thetas), gains, surpluses
        )
        expected_loss, expected = reference_loss_and_grads(model, caps, gammas, thetas, gains, surpluses)
        assert loss == expected_loss
        for (dw, db), (ew, eb) in zip(per_network(d_weights, d_biases), expected):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(dw + db, ew + eb))
        assert model.outputs_batch(caps, gammas, thetas).flags.c_contiguous


@pytest.mark.parametrize(
    "n, m, hidden, batch_size, epochs, momentum, warm",
    [
        pytest.param(3, 1, (4, 1), 50, 25, 0.5, False, id="small"),
        pytest.param(10, 2, (10, 10, 10), 50, 25, 0.5, False, id="flagship-shape"),
        pytest.param(10, 2, (10, 10, 10), 256, 20, 0.9, False, id="flagship"),
        pytest.param(10, 2, (10, 10, 10), 256, 20, 0.9, True, id="flagship-warm-start"),
    ],
)
def test_train_equals_the_per_network_oracle(n, m, hidden, batch_size, epochs, momentum, warm):
    """Stacked training steps every network as it steps alone: same losses, same weights.

    The workspace and the flat parameter, velocity and gradient arrays carry
    state from epoch to epoch, so every loss and every weight bit is compared.
    The warm start resumes from a model trained under another seed, which it
    must leave as it was.
    """
    support = PriorSupport.uniform_box(n, m, cap=(0.0, 5.0))
    valuation = SqrtSumValuation(scale=float(n))
    config = TrainingConfig(
        batch_size=batch_size, epochs=epochs, momentum=momentum, hidden=hidden, seed=4, loss_tol=0.0
    )
    initial = None
    if warm:
        initial, _ = train(valuation, LinearCost(), support, TrainingConfig(batch_size=20, epochs=3, hidden=hidden, seed=9))
        before = [p.copy() for net in initial.nets for p in net.weights + net.biases]
    model, trace = train(valuation, LinearCost(), support, config, initial_model=initial)
    expected_nets, expected_losses = reference_train(valuation, support, config, initial_model=initial)
    assert trace.losses == expected_losses and trace.epochs_run == epochs
    for net, expected in zip(model.nets, expected_nets):
        for a, b in zip(net.weights + net.biases, expected.weights + expected.biases):
            assert a.tobytes() == b.tobytes()
    if warm:
        after = [p for net in initial.nets for p in net.weights + net.biases]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
