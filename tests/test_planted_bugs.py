"""Planted-bug register: each case plants a known bug and expects a check to fail.

A check that a later edit (a tolerance, a fixture) leaves unable to see its
bug fails here. Each plant is applied with `monkeypatch`, so it is undone
when its case ends. The checks run unplanted as acceptance criteria 1
(`gradcheck`) and 5 (`ve_masking`), so no case passes because its check
always fails.
"""

import pytest

import test_acceptance
from pixtime import autodiff, federation
from pixtime.harness import ExperimentConfig, gradcheck_experiment


def _usage_blind_aggregate(deltas):
    """A plain weighted mean of every delta, the VE usage masks ignored."""
    total = sum(d.weight for d in deltas)
    return {name: sum(d.weight / total * d.deltas[name] for d in deltas)
            for name in deltas[0].deltas}


def plant_usage_blind_aggregate(monkeypatch):
    monkeypatch.setattr(federation, "aggregate", _usage_blind_aggregate)
    monkeypatch.setattr(test_acceptance, "aggregate", _usage_blind_aggregate)


def plant_softmax_vjp_factor(monkeypatch):
    softmax_vjp = autodiff._softmax_vjp
    monkeypatch.setattr(autodiff, "_softmax_vjp", lambda g, y: 1.01 * softmax_vjp(g, y))


def plant_one_ffn_w2_coordinate(monkeypatch):
    # the tiny model's only (d_ff, D) = (16, 8) weights are its FFNs' w2
    linear_vjp = autodiff._linear_vjp

    def wrong(g, x2, w, x_shape):
        g_x, g_w, g_b = linear_vjp(g, x2, w, x_shape)
        if w.shape == (16, 8):
            g_w[0, 0] *= 1.0001
        return g_x, g_w, g_b

    monkeypatch.setattr(autodiff, "_linear_vjp", wrong)


def gradcheck():
    report = gradcheck_experiment(ExperimentConfig.from_dict({"mode": "gradcheck"}))
    errors = {name: report[name]["max_rel_error"] for name in ("m2u", "m2m", "u2u")}
    return report["pass"], f"worst relative errors {errors}, tolerance {report['tolerance']}"


# (plant, the check that must catch it)
REGISTER = {
    "usage_blind_aggregate": (plant_usage_blind_aggregate, test_acceptance.ve_masking),
    "softmax_vjp_times_1.01": (plant_softmax_vjp_factor, gradcheck),
    "ffn_w2_coordinate_times_1.0001": (plant_one_ffn_w2_coordinate, gradcheck),
}


@pytest.mark.parametrize("case", list(REGISTER))
def test_planted_bug_fails_its_check(monkeypatch, case):
    plant, check = REGISTER[case]
    plant(monkeypatch)
    passed, detail = check()
    assert not passed, f"{case} went unseen: {detail}"

