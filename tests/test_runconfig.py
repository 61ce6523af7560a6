"""RunConfig: validation, and how the entry points accept it.

The surface accepts exactly one configuration object: ``Harness.build``
and ``run_scenario`` take ``config=RunConfig(...)`` and nothing else.
"""

import warnings

import pytest

from repro.config import COORDINATOR_MODES, RunConfig
from repro.experiments import run_scenario
from repro.experiments.scenarios import scaled_das2, ScenarioSpec
from repro.apps.dctree import SyntheticIterativeApp, balanced_tree
from repro.harness import Harness, build_grid
from repro.obs import Observability
from repro.satin.worker import WorkerConfig


# -- validation -------------------------------------------------------------
def test_defaults_are_streaming():
    cfg = RunConfig()
    assert cfg.coordinator == "streaming"
    assert cfg.jobs == 1
    assert cfg.sinks == ()


def test_event_scheduler_is_not_an_option():
    # the engine has one scheduler (the binary heap); there is nothing
    # to choose
    with pytest.raises(TypeError):
        RunConfig(**{"scheduler": "heap"})


@pytest.mark.parametrize("coordinator", COORDINATOR_MODES)
def test_valid_coordinator_modes(coordinator):
    assert RunConfig(coordinator=coordinator).coordinator == coordinator


def test_bad_coordinator_rejected():
    with pytest.raises(ValueError, match="coordinator"):
        RunConfig(coordinator="incremental")


def test_negative_detection_delay_rejected():
    with pytest.raises(ValueError, match="detection_delay"):
        RunConfig(detection_delay=-1.0)


def test_frozen():
    cfg = RunConfig()
    with pytest.raises(AttributeError):
        cfg.coordinator = "batch"


def test_sinks_normalized_to_tuple():
    cfg = RunConfig(sinks=[])
    assert cfg.sinks == ()


# -- Harness.build ----------------------------------------------------------
def test_build_accepts_runconfig_silently():
    wc = WorkerConfig(monitoring_period=42.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = Harness.build(
            build_grid((2,)),
            config=RunConfig(worker=wc, detection_delay=0.25),
        )
    assert h.runtime.config is wc
    assert h.registry.detection_delay == 0.25


def test_build_rejects_wrong_config_type():
    with pytest.raises(TypeError, match="RunConfig"):
        Harness.build(build_grid((2,)), config=object())
    # a bare WorkerConfig is not a RunConfig either
    with pytest.raises(TypeError, match="RunConfig"):
        Harness.build(build_grid((2,)), config=WorkerConfig())


def test_build_takes_no_loose_keywords():
    with pytest.raises(TypeError):
        Harness.build(build_grid((2,)), **{"detection_delay": 0.25})


def test_build_profile_flag_enables_profiling_obs():
    h = Harness.build(build_grid((2,)), config=RunConfig(profile=True))
    assert h.obs.profiling_enabled


def test_build_obs_wins_over_profile_flag():
    obs = Observability.enabled()
    h = Harness.build(
        build_grid((2,)), config=RunConfig(obs=obs, profile=True)
    )
    assert h.obs is obs


# -- run_scenario -----------------------------------------------------------
def _tiny_spec() -> ScenarioSpec:
    grid = scaled_das2(nodes_per_cluster=2, clusters=2)
    return ScenarioSpec(
        id="cfg",
        paper_ref="test",
        description="runconfig scenario",
        grid=grid,
        initial_layout=(("vu", 2),),
        app_factory=lambda: SyntheticIterativeApp(
            balanced_tree(depth=3, fanout=2, leaf_work=0.3), n_iterations=2
        ),
        events=(),
        monitoring_period=30.0,
        max_sim_time=600.0,
    )


def test_run_scenario_config_threads_through():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run_scenario(
            _tiny_spec(), "adapt", seed=0,
            config=RunConfig(coordinator="batch"),
        )
    assert r.completed
