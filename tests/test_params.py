"""Scenario validation: fail-closed parsing and the outcome-null predicate."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabias.cli import main
from stratabias.params import (ModelParams, ParamError, ScenarioConfig,
                               bundled_scenario_names, dump_scenario,
                               is_outcome_null, load_bundled, load_scenario,
                               validate)

BASE = {
    "mu_x": 0.0, "sigma_x": 1.0,
    "alpha0": [0.0, 0.0, 0.0], "alpha1": [0.5, 0.5, 0.5],
    "alpha2": [0.0, 0.0, 0.0],
    "beta0": 1.0, "beta1": 0.5, "beta2": 0.0, "beta3": [0.4, 0.4, 0.4],
    "sigma_eta": 1.0, "sigma_eps": 1.0,
    "gamma0": 1.0, "gamma1": 0.3, "gamma3": [0.5, 0.5, 0.5],
    "K": 3,
}


def doc(**overrides):
    d = dict(BASE)
    d.update(overrides)
    return d


def test_defaults_applied():
    p = validate(doc())
    assert p.gamma2 == 0.0 and p.p_treat == 0.5 and p.K == 3


def test_unknown_key_fails_closed():
    with pytest.raises(ParamError, match="gamma4"):
        validate(doc(gamma4=1.0))
    # replicate_count was read by no computation and is no longer a key
    with pytest.raises(ParamError, match="unknown key.*replicate_count"):
        load_scenario(doc(n=10, seed=1, replicate_count=1))


@pytest.mark.parametrize("key,value", [
    ("sigma_x", -1.0), ("sigma_x", 0.0), ("sigma_eta", -0.1),
    ("sigma_eps", -2.0), ("p_treat", 0.0), ("p_treat", 1.0),
    ("p_treat", 1.5), ("K", 0), ("K", -1),
])
def test_invalid_values_name_the_key(key, value):
    with pytest.raises(ParamError, match=key):
        validate(doc(**{key: value}))


@pytest.mark.parametrize("key", sorted(k for k in BASE))
def test_missing_key_named(key):
    d = doc()
    del d[key]
    if key in ("K",):  # K has a default tied to the vector lengths
        validate(d)
        return
    with pytest.raises(ParamError, match=key):
        validate(d)


def test_vector_length_must_match_K():
    with pytest.raises(ParamError, match="beta3"):
        validate(doc(beta3=[0.4, 0.4]))
    with pytest.raises(ParamError, match="alpha1"):
        validate(doc(K=2, alpha0=[0, 0], alpha2=[0, 0], beta3=[1, 1],
                     gamma3=[1, 1]))


def test_non_numeric_rejected():
    with pytest.raises(ParamError, match="gamma0"):
        validate(doc(gamma0="one"))
    with pytest.raises(ParamError, match="beta3"):
        validate(doc(beta3=[0.1, "x", 0.3]))


@pytest.mark.parametrize("key,value", [
    ("mu_x", float("inf")), ("sigma_eta", float("nan")),
    ("beta3", [0.4, float("-inf"), 0.4]),
    # JSON integers beyond float range: float() raises OverflowError
    pytest.param("mu_x", 10**400, id="mu_x-int-overflow"),
    pytest.param("beta3", [0.4, -10**400, 0.4], id="beta3-int-overflow"),
])
def test_non_finite_rejected(key, value, tmp_path, capsys):
    with pytest.raises(ParamError, match=key):
        validate(doc(**{key: value}))
    # json writes and reads these as NaN / Infinity / -Infinity
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc(**{key: value}, n=1000, seed=1)))
    assert main(["true-effect", str(path), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("K", 3.0), ("K", True), ("n", 1.5), ("n", True), ("seed", "1"),
    ("label", 5), ("beta3", 0.4), ("gamma0", None),
])
def test_wrong_type_names_the_key(key, value):
    """JSON values of the wrong type, as json.load returns them."""
    with pytest.raises(ParamError, match=f"^{key} "):
        load_scenario(doc(**{"n": 100, "seed": 1, "label": "typed",
                             key: value}))


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenarios_round_trip(name):
    cfg = load_bundled(name)
    assert load_scenario(cfg.to_dict()) == cfg
    assert load_scenario(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_scenario_requires_n_and_seed():
    with pytest.raises(ParamError, match="n"):
        load_scenario(doc(seed=1))
    with pytest.raises(ParamError, match="seed"):
        load_scenario(doc(n=100))
    cfg = load_scenario(doc(n=100, seed=1))
    assert cfg.label == "unnamed"


def test_scenario_bounds():
    with pytest.raises(ParamError, match="n"):
        load_scenario(doc(n=1, seed=1))
    with pytest.raises(ParamError, match="seed"):
        load_scenario(doc(n=10, seed=2**64))


def test_file_round_trip(tmp_path):
    cfg = load_scenario(doc(n=500, seed=42, label="rt"))
    path = tmp_path / "s.json"
    dump_scenario(cfg, path)
    again = load_scenario(path)
    assert again == cfg
    # the file carries exactly the documented keys
    keys = set(json.loads(path.read_text()))
    assert keys == set(BASE) | {"gamma2", "p_treat", "n", "seed", "label"}


def test_scenario_file_must_be_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ParamError, match="object"):
        load_scenario(path)


finite = st.floats(min_value=-5, max_value=5, allow_nan=False,
                   allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=5, allow_nan=False,
                     allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=5),
       data=st.data())
def test_round_trip_property(tmp_path_factory, k, data):
    vec = lambda: data.draw(st.lists(finite, min_size=k, max_size=k))
    d = {
        "mu_x": data.draw(finite), "sigma_x": data.draw(positive),
        "alpha0": vec(), "alpha1": vec(), "alpha2": vec(),
        "beta0": data.draw(finite), "beta1": data.draw(finite),
        "beta2": data.draw(finite), "beta3": vec(),
        "sigma_eta": data.draw(positive), "sigma_eps": data.draw(positive),
        "gamma0": data.draw(finite), "gamma1": data.draw(finite),
        "gamma2": data.draw(finite), "gamma3": vec(),
        "K": k, "p_treat": 0.5,
        "n": data.draw(st.integers(min_value=2, max_value=10**6)),
        "seed": data.draw(st.integers(min_value=0, max_value=2**64 - 1)),
        "label": "prop",
    }
    cfg = load_scenario(d)
    path = tmp_path_factory.mktemp("rt") / "s.json"
    dump_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_null_predicates():
    assert is_outcome_null(validate(doc()))
    assert is_outcome_null(validate(doc(gamma2=2.0)))

    moved = validate(doc(alpha2=[0.1, 0.0, 0.0]))
    assert not is_outcome_null(moved)
    assert not is_outcome_null(validate(doc(beta2=0.3)))


def test_bundled_scenarios_load():
    names = bundled_scenario_names()
    assert "full_null_demo" in names and "partial_null_gamma2" in names
    for name in names:
        cfg = load_bundled(name)
        assert cfg.n >= 2
    full = load_bundled("full_null_demo").params
    assert full.gamma2 == 0.0 and is_outcome_null(full)
    partial = load_bundled("partial_null_gamma2").params
    assert partial.gamma2 == 2.0 and is_outcome_null(partial)
    with pytest.raises(ParamError, match="no_such"):
        load_bundled("no_such")
