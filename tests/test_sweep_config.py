"""A sweep has one scheduler and one config form, validated in one place.

* Every rule that depends only on a :class:`SweepConfig`'s own fields is
  checked when the config is built, so ``SweepConfig(...)``,
  ``SweepConfig.from_json_dict(...)`` and the service's ``POST /jobs``
  (JSON or wire-codec body) reject a bad config with the same message —
  no entry point can run a sweep the library API would refuse.
* No sweep entry point takes a parameter named after a ``SweepConfig``
  field, nor a ``**kwargs`` catch-all that would swallow one: an old
  caller passing ``scheduler=`` or ``chunk_evaluations=`` gets a
  ``TypeError``, not a silently ignored knob.
* A field ``SweepConfig`` no longer has (the chunk-sizing mode, its
  target seconds, the checkpoint byte budget, and the transport, its
  coordinator address, lease timeout and frame cap) is refused by every
  surface: ``TypeError`` from the constructor, ``ValueError`` from
  ``from_json_dict`` and HTTP 400 for a JSON or codec-frame job.
"""

from __future__ import annotations

import http.client
import inspect
import json
import pickle
from dataclasses import fields

import pytest
from test_service_recovery import SIZING_CONFIG_BLOB, TCP_CONFIG_BLOB

import repro.harness
from repro.bridge.replay import run_replay_sweep
from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness import codec, parallel
from repro.harness.experiment import ExperimentSettings
from repro.harness.parallel import (SweepConfig, campaign_matrix,
                                    iter_campaigns, run_campaigns)
from repro.harness.scenarios import run_scenario_sweep
from repro.harness.service import VerificationService
from repro.sim.config import SystemConfig

BAD_CONFIGS = {
    "zero-chunk": {"chunk_evaluations": 0},
    "negative-chunk": {"chunk_evaluations": -3},
}

SWEEP_FIELDS = {field.name for field in fields(SweepConfig)}

#: The config image a client built against a parent-era ``SweepConfig``
#: sends; its keys outside today's fields are the ones chunk sizing, the
#: checkpoint byte budget and the tcp transport took with them.
PARENT_IMAGE = {**vars(pickle.loads(SIZING_CONFIG_BLOB)),
                **vars(pickle.loads(TCP_CONFIG_BLOB))}
REMOVED_FIELDS = sorted(set(PARENT_IMAGE) - SWEEP_FIELDS)
#: One config per removed field, plus the whole parent-era image.
REMOVED_FIELD_CONFIGS = {
    **{name: {"chunk_evaluations": 3, name: PARENT_IMAGE[name]}
       for name in REMOVED_FIELDS},
    "parent-image": PARENT_IMAGE,
}

#: A one-shard JSON matrix: building its spec simulates nothing.
MATRIX = {"kinds": ["McVerSi-RAND"], "faults": ["none"],
          "seeds_per_cell": 1, "max_evaluations": 1}


@pytest.fixture(scope="module")
def http_service(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep-config") / "store.sqlite"
    service = VerificationService(path)
    try:
        yield service
    finally:
        service.close()


def post_job(service, payload: dict) -> tuple[int, dict]:
    return post_body(service, json.dumps(payload).encode("utf-8"),
                     "application/json")


def post_body(service, body: bytes, content_type: str) -> tuple[int, dict]:
    host, port = service.http_address
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request("POST", "/jobs", body=body,
                           headers={"Content-Type": content_type})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.mark.parametrize("bad", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_rejected_identically_everywhere(bad, http_service):
    with pytest.raises(ValueError) as built:
        SweepConfig(**bad)
    with pytest.raises(ValueError) as decoded:
        SweepConfig.from_json_dict(bad)
    assert str(decoded.value) == str(built.value)
    jobs = http_service.store.jobs()
    status, body = post_job(http_service, {"matrix": MATRIX, "config": bad})
    assert (status, body) == (400, {"error": str(built.value)})
    assert http_service.store.jobs() == jobs


def unvalidated_config(**values) -> SweepConfig:
    """A ``SweepConfig`` whose ``__post_init__`` never ran (a hostile
    client's frame can carry any field values)."""
    config = object.__new__(SweepConfig)
    for field in fields(SweepConfig):
        object.__setattr__(config, field.name,
                           values.get(field.name, field.default))
    return config


def one_spec():
    return campaign_matrix(
        kinds=[GeneratorKind.MCVERSI_RAND], faults=[None],
        generator_config=GeneratorConfig.quick(memory_kib=1),
        system_config=SystemConfig(), max_evaluations=1, seeds_per_cell=1)


@pytest.mark.parametrize("bad", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_frame_rejected_like_the_constructor(bad, http_service):
    with pytest.raises(ValueError) as built:
        SweepConfig(**bad)
    jobs = http_service.store.jobs()
    body = codec.encode((one_spec(), unvalidated_config(**bad)))
    status, reply = post_body(http_service, body,
                              "application/octet-stream")
    assert (status, reply) == (400, {"error": str(built.value)})
    assert http_service.store.jobs() == jobs


@pytest.mark.parametrize("message", [
    ("specs", None), [[], None], (None, None), ([SweepConfig()], None),
    ([], "config"), 42], ids=["str-specs", "list-pair", "none-specs",
                              "config-as-spec", "str-config", "int"])
def test_frame_that_is_not_a_submission_is_400(message, http_service):
    jobs = http_service.store.jobs()
    status, reply = post_body(http_service, codec.encode(message),
                              "application/octet-stream")
    assert status == 400
    assert "job body must be" in reply["error"]
    assert http_service.store.jobs() == jobs


def test_good_config_frame_is_accepted(http_service):
    config = SweepConfig(chunk_evaluations=2)
    status, reply = post_body(http_service,
                              codec.encode((one_spec(), config)),
                              "application/octet-stream")
    assert status == 201
    job_id = reply["job_id"]
    assert http_service.store.job_definition(job_id) == (one_spec(), config)
    http_service.cancel_job(job_id)


def test_good_config_is_accepted_by_the_service(http_service):
    config = SweepConfig(chunk_evaluations=2, verdict_memo=True)
    status, body = post_job(http_service, {"matrix": MATRIX,
                                           "config": config.to_json_dict()})
    assert status == 201
    http_service.cancel_job(body["job_id"])


def removed_names(config: dict) -> list[str]:
    return sorted(set(config) - SWEEP_FIELDS)


@pytest.mark.parametrize("config", REMOVED_FIELD_CONFIGS.values(),
                         ids=REMOVED_FIELD_CONFIGS.keys())
def test_removed_field_rejected_everywhere(config, http_service):
    assert len(REMOVED_FIELDS) == 7
    assert removed_names(config)
    with pytest.raises(TypeError):
        SweepConfig(**config)
    message = f"unknown SweepConfig field(s) {removed_names(config)}"
    with pytest.raises(ValueError) as decoded:
        SweepConfig.from_json_dict(config)
    assert str(decoded.value) == message
    jobs = http_service.store.jobs()
    status, body = post_job(http_service, {"matrix": MATRIX,
                                           "config": config})
    assert (status, body) == (400, {"error": message})
    assert http_service.store.jobs() == jobs


def frame_with_config_fields(values: dict) -> bytes:
    """A ``(specs, SweepConfig)`` job frame whose config object carries
    exactly *values*, hand-built the way a client whose ``SweepConfig``
    had other fields would encode it."""
    def name(text: str) -> bytes:
        return len(text).to_bytes(2, "big") + text.encode()

    config = (b"O" + name("SweepConfig") + len(values).to_bytes(4, "big")
              + b"".join(name(key) + codec.encode(value)
                         for key, value in values.items()))
    return b"t" + (2).to_bytes(4, "big") + codec.encode(one_spec()) + config


@pytest.mark.parametrize("config", REMOVED_FIELD_CONFIGS.values(),
                         ids=REMOVED_FIELD_CONFIGS.keys())
def test_removed_field_frame_is_400(config, http_service):
    current = SweepConfig(chunk_evaluations=3).to_json_dict()
    assert codec.decode(frame_with_config_fields(current)) \
        == (one_spec(), SweepConfig(chunk_evaluations=3))
    jobs = http_service.store.jobs()
    status, reply = post_body(http_service,
                              frame_with_config_fields({**current,
                                                        **config}),
                              "application/octet-stream")
    assert (status, reply) == (400, {
        "error": "malformed job body: SweepConfig frame carries unknown "
                 f"field(s) {removed_names(config)}"})
    assert http_service.store.jobs() == jobs
ENTRY_POINTS = [iter_campaigns, run_campaigns, run_scenario_sweep,
                run_replay_sweep, ExperimentSettings]


@pytest.mark.parametrize("entry_point", ENTRY_POINTS,
                         ids=[entry.__name__ for entry in ENTRY_POINTS])
def test_entry_point_takes_only_config(entry_point):
    parameters = inspect.signature(entry_point).parameters.values()
    names = {parameter.name for parameter in parameters}
    assert names & (SWEEP_FIELDS | {"scheduler"}) == set()
    assert all(parameter.kind is not parameter.VAR_KEYWORD
               for parameter in parameters)


def test_sweep_config_has_no_scheduler_field():
    assert "scheduler" not in SWEEP_FIELDS
    with pytest.raises(TypeError):
        SweepConfig(scheduler="work-stealing")


@pytest.mark.parametrize("module", [repro.harness, parallel],
                         ids=["repro.harness", "repro.harness.parallel"])
def test_no_scheduler_selector_is_exported(module):
    """No constant names a scheduler or holds a scheduler's name."""
    constants = {name: value for name, value in vars(module).items()
                 if name.isupper()}
    assert [name for name in constants if "SCHEDULER" in name] == []
    names = {"static", "work-stealing"}
    assert [name for name, value in constants.items()
            if (isinstance(value, str) and value in names)
            or (isinstance(value, tuple) and names & set(value))] == []


@pytest.mark.parametrize("legacy", [{"scheduler": "work-stealing"},
                                    {"chunk_evaluations": 2},
                                    {"mp_context": "fork"}],
                         ids=["scheduler", "chunk_evaluations", "mp_context"])
def test_legacy_kwargs_raise_type_error(legacy):
    with pytest.raises(TypeError):
        run_campaigns([], **legacy)
    with pytest.raises(TypeError):
        iter_campaigns([], **legacy)
    with pytest.raises(TypeError):
        run_scenario_sweep(faults=[], **legacy)
    with pytest.raises(TypeError):
        run_replay_sweep([], **legacy)
    with pytest.raises(TypeError):
        ExperimentSettings(generator_config=GeneratorConfig.quick(),
                           system_config=SystemConfig(), **legacy)
