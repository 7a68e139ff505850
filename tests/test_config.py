import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparse_minimax.config import (
    experiment_config_from_mapping,
    experiment_config_to_mapping,
    lemma_config_from_mapping,
    load_kv,
    parse_kv_text,
)
from sparse_minimax.estimators import LassoConfig, SlopeConfig
from sparse_minimax.risk import ExperimentConfig

BASIC = """
# risk experiment
n = 100
p = 50
k = 5          # sparsity
sigma = 1.0
eps = 0.1
estimator_id = lasso
amplitudes = 1.0, 2.5, 4.0
reps = 10
master_seed = 42
"""


def test_parse_skips_comments_and_blanks():
    out = parse_kv_text(BASIC)
    assert out["n"] == "100"
    assert out["k"] == "5"
    assert out["amplitudes"] == "1.0, 2.5, 4.0"
    assert len(out) == 9


def test_parse_rejects_missing_equals():
    with pytest.raises(ValueError, match="line 2"):
        parse_kv_text("a = 1\nbroken line\n")


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate key 'a'"):
        parse_kv_text("a = 1\na = 2\n")


def test_parse_rejects_empty_key():
    with pytest.raises(ValueError, match="empty key"):
        parse_kv_text("= 3\n")


def test_load_kv(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASIC)
    assert load_kv(path)["estimator_id"] == "lasso"


def test_experiment_mapping_round_trip():
    cfg = experiment_config_from_mapping(parse_kv_text(BASIC))
    assert cfg.n == 100
    assert cfg.amplitudes == (1.0, 2.5, 4.0)
    again = experiment_config_from_mapping(experiment_config_to_mapping(cfg))
    assert again == cfg


def test_experiment_mapping_round_trip_with_noise_scale():
    cfg = ExperimentConfig(
        n=30,
        p=10,
        k=2,
        sigma=0.0,
        eps=0.25,
        estimator_id="oracle",
        amplitudes=(0.5,),
        reps=2,
        master_seed=7,
        noise_scale=1.5,
    )
    again = experiment_config_from_mapping(experiment_config_to_mapping(cfg))
    assert again == cfg


def test_experiment_mapping_names_unknown_keys():
    mapping = parse_kv_text(BASIC)
    mapping["flavor"] = "vanilla"
    with pytest.raises(ValueError, match="unknown config keys: flavor"):
        experiment_config_from_mapping(mapping)


def test_experiment_mapping_names_missing_keys():
    mapping = parse_kv_text(BASIC)
    del mapping["sigma"]
    del mapping["reps"]
    with pytest.raises(ValueError, match="missing config keys: reps, sigma"):
        experiment_config_from_mapping(mapping)


def test_experiment_mapping_reports_bad_numbers():
    mapping = parse_kv_text(BASIC)
    mapping["n"] = "many"
    with pytest.raises(ValueError, match="'n' must be an integer"):
        experiment_config_from_mapping(mapping)
    mapping["n"] = "100"
    mapping["amplitudes"] = " , "
    with pytest.raises(ValueError, match="comma-separated"):
        experiment_config_from_mapping(mapping)


LEMMA = """
n = 200
p = 80
k = 3
sigma = 1.0
eps = 0.1
"""


def test_lemma_defaults():
    out = lemma_config_from_mapping(parse_kv_text(LEMMA))
    assert out["k_star"] == 6
    assert out["delta0"] is None
    assert out["delta1"] == 0.02
    assert out["delta3"] == 0.05
    assert out["u_samples"] == 64
    assert out["q"] == 2.0
    assert out["restarts"] == 16
    assert out["amplitude"] == 4.0


def test_lemma_overrides():
    mapping = parse_kv_text(LEMMA + "k_star = 9\ndelta0 = 0.01\nq = 4\n")
    out = lemma_config_from_mapping(mapping)
    assert out["k_star"] == 9
    assert out["delta0"] == 0.01
    assert out["q"] == 4.0


def test_lemma_validation():
    with pytest.raises(ValueError, match="unknown config keys"):
        lemma_config_from_mapping(parse_kv_text(LEMMA + "reps = 5\n"))
    with pytest.raises(ValueError, match="missing config keys"):
        lemma_config_from_mapping(parse_kv_text("n = 10\np = 5\n"))
    with pytest.raises(ValueError, match="sigma must be positive"):
        lemma_config_from_mapping(parse_kv_text(LEMMA.replace("sigma = 1.0", "sigma = 0")))
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        lemma_config_from_mapping(parse_kv_text(LEMMA.replace("n = 200", "n = 0")))
    with pytest.raises(ValueError, match="eps must be nonnegative, got -0.5"):
        lemma_config_from_mapping(parse_kv_text(LEMMA.replace("eps = 0.1", "eps = -0.5")))
    with pytest.raises(ValueError, match="k_star"):
        lemma_config_from_mapping(parse_kv_text(LEMMA + "k_star = 3\n"))
    with pytest.raises(ValueError, match="k_star"):
        lemma_config_from_mapping(parse_kv_text(LEMMA + "k_star = 80\n"))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(field=st.sampled_from(["sigma", "eps", "slope_q", "noise_scale", "amplitudes"]), bad=NON_FINITE,
       at=st.integers(0, 2))
def test_experiment_config_rejects_non_finite_floats(field, bad, at):
    kwargs = dict(n=100, p=50, k=5, sigma=1.0, eps=0.1, estimator_id="lasso",
                  amplitudes=(1.0, 2.5, 4.0), reps=10, master_seed=42, noise_scale=1.0)
    if field == "amplitudes":
        amps = list(kwargs["amplitudes"])
        amps[at] = bad
        kwargs["amplitudes"] = tuple(amps)
    else:
        kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ExperimentConfig(**kwargs)


def test_experiment_config_refuses_an_eps_whose_square_overflows():
    # predicted_ratio needs (1 + eps)^2; before, an OverflowError traceback
    # once the run had drawn every design
    mapping = dict(parse_kv_text(BASIC), eps="1e300")
    with pytest.raises(ValueError, match=r"^eps is too large: \(1 \+ eps\)\^2 overflows a float, got eps=1e\+300$"):
        experiment_config_from_mapping(mapping)
    assert experiment_config_from_mapping(dict(mapping, eps="1e150")).eps == 1e150


@given(key=st.sampled_from(["sigma", "eps", "amplitude", "delta0", "delta1", "delta2", "delta3", "q"]),
       bad=NON_FINITE)
def test_lemma_config_rejects_non_finite_floats(key, bad):
    mapping = parse_kv_text(LEMMA)
    mapping[key] = repr(bad)  # the text forms nan, inf and -inf all parse
    with pytest.raises(ValueError, match=f"'{key}' must be finite"):
        lemma_config_from_mapping(mapping)


@given(field=st.sampled_from(["lam", "lasso tol", "lambda_seq", "slope tol", "lipschitz"]), bad=NON_FINITE,
       at=st.integers(0, 2))
def test_solver_configs_reject_non_finite_floats(field, bad, at):
    seq = np.array([0.3, 0.2, 0.1])
    if field == "lambda_seq":
        seq[at] = bad
    with pytest.raises(ValueError, match=field.split()[-1]):
        if field == "lam":
            LassoConfig(lam=bad)
        elif field == "lasso tol":
            LassoConfig(lam=0.1, tol=bad)
        elif field == "slope tol":
            SlopeConfig(lambda_seq=seq, tol=bad)
        elif field == "lipschitz":
            SlopeConfig(lambda_seq=seq, lipschitz=bad)
        else:
            SlopeConfig(lambda_seq=seq)
