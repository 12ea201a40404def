import json
from pathlib import Path

import pytest
from hypothesis import settings
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from editsync.codec import ConcatParams
from editsync.outer_code import OuterCodeSpec
from editsync.sync import SyncParams, SyncSequence

# Tier-1 runs draw the same hypothesis examples on every run.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures" / "desk_profile"
SCHEMA_DIR = REPO_ROOT / "schemas"


def _schema_registry() -> Registry:
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    return Registry().with_resources(resources)


_REGISTRY = _schema_registry()


def validate_against_schema(obj, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    Draft202012Validator(schema, registry=_REGISTRY).validate(obj)


@pytest.fixture(scope="session")
def desk_sync() -> SyncSequence:
    return SyncSequence.from_json(
        json.loads((FIXTURE_DIR / "sync_sequence.json").read_text())
    )


@pytest.fixture(scope="session")
def desk_sync_params() -> SyncParams:
    return SyncParams.from_json(
        json.loads((FIXTURE_DIR / "sync_params.json").read_text())
    )


@pytest.fixture(scope="session")
def desk_params() -> ConcatParams:
    return ConcatParams.from_json(
        json.loads((FIXTURE_DIR / "concat_params.json").read_text())
    )


@pytest.fixture(scope="session")
def desk_outer() -> OuterCodeSpec:
    return OuterCodeSpec.from_json(
        json.loads((FIXTURE_DIR / "outer_spec.json").read_text())
    )
