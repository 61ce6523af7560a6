"""Cache-key properties: total coverage of RunConfig, process stability.

The content-addressed cache is only sound if the key really captures
the content. Two properties are pinned here:

* **every field participates** — mutating any single
  :class:`~repro.config.RunConfig` field produces a different key. The
  test enumerates fields via :func:`dataclasses.fields`, so adding a
  config knob without teaching this test about it fails loudly instead
  of silently aliasing cache entries across configs.
* **stable across processes** — the key contains no ``hash()``, pickle
  memo order, or set iteration order, so fresh interpreters (with
  different ``PYTHONHASHSEED``) derive the identical hex string. This is
  what lets the disk layer survive restarts.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.config import RunConfig, canonical_json
from repro.experiments import SCENARIOS
from repro.experiments.scenarios import ScenarioSpec
from repro.serving import cache_key
from repro.serving.cache import code_fingerprint

SPEC = SCENARIOS["s1"]
BASE = RunConfig()


def _mutations() -> dict:
    """One non-default value per RunConfig field."""
    from repro.obs import Observability
    from repro.satin.malleability import DefaultHandoff
    from repro.satin.stealing import RandomStealing
    from repro.satin.worker import WorkerConfig
    from repro.simgrid.trace import Trace

    return {
        "coordinator": "batch",
        "profile": True,
        "jobs": 3,
        "shards": 4,
        "worker": WorkerConfig(monitoring_period=33.0),
        "steal": RandomStealing(),
        "handoff": DefaultHandoff(),
        "detection_delay": 2.5,
        "trace": Trace(),
        "obs": Observability.enabled(),
        "sinks": (object(),),
    }


def test_every_field_has_a_mutation():
    """Coverage guard: a new RunConfig field must be added to
    ``_mutations`` (and thereby proven to move the key) before it can
    ship — otherwise two configs differing in that field would share
    cache entries."""
    field_names = {f.name for f in dataclasses.fields(RunConfig)}
    assert field_names == set(_mutations())


@pytest.mark.parametrize(
    "field_name", sorted(f.name for f in dataclasses.fields(RunConfig))
)
def test_mutating_any_field_changes_the_key(field_name):
    base_key = cache_key(SPEC, "adapt", 0, BASE)
    mutated = dataclasses.replace(
        BASE, **{field_name: _mutations()[field_name]}
    )
    assert cache_key(SPEC, "adapt", 0, mutated) != base_key


def test_key_depends_on_scenario_variant_seed_and_code():
    base = cache_key(SPEC, "adapt", 0, BASE)
    assert cache_key(SPEC, "none", 0, BASE) != base
    assert cache_key(SPEC, "adapt", 1, BASE) != base
    assert cache_key(SCENARIOS["s3"], "adapt", 0, BASE) != base
    assert cache_key(SPEC, "adapt", 0, BASE, code="different") != base


def test_key_depends_on_scenario_content_not_name():
    """Editing a spec (same id) must invalidate its cache entries."""
    edited = dataclasses.replace(SPEC, monitoring_period=SPEC.monitoring_period + 1)
    assert cache_key(edited, "adapt", 0, BASE) != cache_key(SPEC, "adapt", 0, BASE)


def test_key_sees_through_app_factory_closures():
    """Two lambdas with different closure values are different content."""

    def make(n):
        return ScenarioSpec(
            id="k",
            paper_ref="t",
            description="closure test",
            grid=SPEC.grid,
            initial_layout=SPEC.initial_layout,
            app_factory=lambda: n,
            monitoring_period=10.0,
            max_sim_time=100.0,
        )

    assert cache_key(make(1), "adapt", 0, BASE) != cache_key(
        make(2), "adapt", 0, BASE
    )


def test_default_config_is_the_none_config():
    assert cache_key(SPEC, "adapt", 0, None) == cache_key(SPEC, "adapt", 0, BASE)


def test_canonical_json_orders_dicts_and_sets():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert canonical_json({"x", "y", "z"}) == canonical_json({"z", "x", "y"})


_CHILD = """
import sys
from repro.config import RunConfig
from repro.experiments import SCENARIOS
from repro.serving import cache_key
print(cache_key(SCENARIOS["s1"], "adapt", 0, RunConfig()))
"""


def _child_key(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_key_is_stable_across_processes():
    """Fresh interpreters with different hash seeds agree on the key.

    ``PYTHONHASHSEED`` randomizes ``str.__hash__`` and therefore set /
    dict iteration order — the classic way a pickle- or repr-based key
    silently differs per process. One in-process key and two children
    with adversarial seeds must all match.
    """
    here = cache_key(SCENARIOS["s1"], "adapt", 0, RunConfig())
    assert _child_key("1") == here
    assert _child_key("271828") == here


def test_code_fingerprint_is_memoized_and_hexdigest():
    a = code_fingerprint()
    assert a == code_fingerprint()
    assert len(a) == 64 and int(a, 16) >= 0
