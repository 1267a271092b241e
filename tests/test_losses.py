import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoison import CAWeightParams, LossSpec, ca_weights, loss_value, margins

from .oracles import cw_loss, nll_loss

LN2 = 0.6931471805599453
NLL = LossSpec("nll")


def _mask(n, on=None):
    m = np.zeros(n, dtype=bool)
    m[list(range(n)) if on is None else on] = True
    return m


def test_nll_certain_prediction_is_zero():
    logits = np.array([[50.0, 0.0]])
    total, per = loss_value(logits, np.array([0]), _mask(1), NLL)
    assert total == pytest.approx(0.0, abs=1e-15)


def test_nll_uniform_two_class_is_ln2():
    logits = np.zeros((3, 2))
    total, per = loss_value(logits, np.array([0, 1, 0]), _mask(3), NLL)
    assert np.allclose(per, LN2)
    assert total == pytest.approx(3 * LN2)


def test_nll_total_is_masked_sum():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    mask = _mask(6, [1, 3, 4])
    total, per = loss_value(logits, labels, mask, NLL)
    assert total == pytest.approx(per[mask].sum())


def test_nll_empty_mask_raises():
    with pytest.raises(ValueError, match="mask"):
        loss_value(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(2, dtype=bool), NLL)


def test_cw_clamp_cases():
    logits = np.array([[1.0, 0.0], [0.25, 0.75], [0.25, 0.75]])
    labels = np.array([0, 0, 0])
    # margins: +1, -0.5, -0.5
    _, per0 = loss_value(logits, labels, _mask(3), LossSpec("cw", cw_kappa=0.0))
    assert per0[0] == pytest.approx(1.0)
    assert per0[1] == pytest.approx(0.0)  # clamped at zero
    _, per1 = loss_value(logits, labels, _mask(3), LossSpec("cw", cw_kappa=1.0))
    assert per1[2] == pytest.approx(-0.5)  # inside the clamp


def test_ca_weights_hand_values():
    params = CAWeightParams(alpha1=4.5, beta1=1.0, alpha2=1.0, beta2=1.0)
    w = ca_weights(np.array([0.0, 1.0, -1.0]), params)
    assert w[0] == pytest.approx(4.5)  # zero margin uses the positive branch
    assert w[1] == pytest.approx(4.5 * np.exp(-1.0))
    assert w[2] == pytest.approx(np.exp(-1.0))


@settings(max_examples=50, deadline=None)
@given(
    phi=st.floats(0.01, 10.0),
    delta=st.floats(0.01, 5.0),
    alpha=st.floats(0.1, 10.0),
    beta=st.floats(0.01, 2.5),  # keeps exp(-beta*phi^2) clear of float underflow
)
def test_ca_weights_strictly_decreasing_in_abs_margin(phi, delta, alpha, beta):
    params = CAWeightParams(alpha, beta, alpha, beta)
    near, far = ca_weights(np.array([phi, phi + delta]), params)
    assert far < near
    near_n, far_n = ca_weights(np.array([-phi, -(phi + delta)]), params)
    assert far_n < near_n


def test_ca_params_validation():
    with pytest.raises(ValueError):
        CAWeightParams(alpha1=0.0)
    with pytest.raises(ValueError):
        CAWeightParams(beta2=-0.1)
    CAWeightParams(beta1=0.0, beta2=0.0)  # zero betas are allowed


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("huber")
    with pytest.raises(ValueError):
        LossSpec("cw", cw_kappa=-1.0)


def test_the_retired_ca_flag_fails_loudly():
    # LossSpec(base, ca_enabled, ca_params) was the old positional form; a
    # stale caller must not silently run the plain loss
    with pytest.raises(ValueError, match="ca_params"):
        LossSpec("nll", True, CAWeightParams())
    with pytest.raises(TypeError):
        LossSpec("nll", ca_enabled=True)


def test_ca_loss_with_unit_weights_equals_base():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(10, 3))
    labels = rng.integers(0, 3, size=10)
    mask = _mask(10, [0, 2, 5, 9])
    unit = CAWeightParams(1.0, 0.0, 1.0, 0.0)
    for base in ("nll", "cw"):
        t_ca, per_ca = loss_value(logits, labels, mask, LossSpec(base, unit))
        t_b, per_b = (nll_loss if base == "nll" else cw_loss)(logits, labels, mask)
        assert abs(t_ca - t_b) <= 1e-12 * abs(t_b)
        assert np.allclose(per_ca, per_b, rtol=1e-12)


def test_ca_loss_single_node_product():
    # one node, weight alpha at margin 0, base loss ln2
    logits = np.zeros((2, 2))
    labels = np.array([0, 0])
    mask = _mask(2, [0])
    spec = LossSpec("nll", CAWeightParams(alpha1=2.0 / LN2, beta1=1.0))
    total, _ = loss_value(logits, labels, mask, spec)
    assert total == pytest.approx(2.0 / LN2 * LN2)


def test_nll_stable_for_extreme_logits():
    logits = np.array([[1e4, 0.0], [-1e4, 0.0], [0.0, 0.0]])
    total, per = loss_value(logits, np.array([0, 0, 1]), _mask(3), NLL)
    assert np.isfinite(per).all() and np.isfinite(total)
    assert per[0] == pytest.approx(0.0, abs=1e-12)
    assert per[1] == pytest.approx(1e4)


def test_mask_rejects_index_arrays():
    logits = np.zeros((4, 2))
    with pytest.raises(ValueError, match="indices"):
        loss_value(logits, np.zeros(4, dtype=int), np.array([0, 2]), NLL)


def test_ca_loss_linear_in_alpha():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(8, 3))
    labels = rng.integers(0, 3, size=8)
    mask = _mask(8)
    p = CAWeightParams(1.5, 0.7, 2.5, 0.3)
    doubled = CAWeightParams(3.0, 0.7, 5.0, 0.3)
    t1, _ = loss_value(logits, labels, mask, LossSpec("nll", p))
    t2, _ = loss_value(logits, labels, mask, LossSpec("nll", doubled))
    assert t2 == pytest.approx(2.0 * t1)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    k=st.integers(2, 5),
    base=st.sampled_from(["nll", "cw"]),
    ca=st.booleans(),
    kappa=st.sampled_from([0.0, 1.0]),
    frozen=st.booleans(),
)
def test_loss_value_is_the_weighted_oracle_bit_for_bit(seed, n, k, base, ca, kappa, frozen):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=3.0, size=(n, k))
    labels = rng.integers(0, k, size=n)
    mask = rng.random(n) < 0.5
    mask[rng.integers(n)] = True
    spec = LossSpec(base, CAWeightParams(4.5, 1.0, 0.5, 0.3) if ca else None, kappa)
    weights = rng.uniform(0.1, 2.0, size=n) if frozen else None
    total, per = loss_value(logits, labels, mask, spec, weights)

    if weights is None:
        weights = ca_weights(margins(logits, labels), spec.ca_params) if ca else np.ones(n)
    _, oracle = nll_loss(logits, labels, mask) if base == "nll" else cw_loss(logits, labels, mask, kappa)
    expected = weights * oracle
    assert np.array_equal(per, expected)
    assert total == float(expected[mask].sum())
