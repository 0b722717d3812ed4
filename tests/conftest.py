from pathlib import Path

import pytest

from greektag import Model, RuleSet, TagSchema, load_annotated_corpus, train

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def abc_schema() -> TagSchema:
    return TagSchema.from_lines(["category a", "category b", "category c"])


@pytest.fixture(scope="session")
def toy_schema() -> TagSchema:
    return TagSchema.load(FIXTURES / "toy.schema")


@pytest.fixture(scope="session")
def toy_rules(toy_schema) -> RuleSet:
    return RuleSet.load(FIXTURES / "toy.rules", toy_schema)


@pytest.fixture(scope="session")
def toy_corpus(toy_schema):
    return load_annotated_corpus(FIXTURES / "toy.corpus", toy_schema)


@pytest.fixture(scope="session")
def toy_model(toy_corpus, toy_rules, toy_schema) -> Model:
    return train(toy_corpus, toy_rules, toy_schema)
