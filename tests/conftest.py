import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import synthdata
from typedesc.corpus import Entity
from typedesc.stage1 import ModelDims


def pytest_configure(config):
    # Hypothesis caches the constants of the source it collects, whatever the
    # test's database setting; keep that cache out of the checkout
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "typedesc-hypothesis")


@pytest.fixture(scope="session")
def tiny_dims():
    return ModelDims(d_h=6, d_word=6, d_prop=4, d_pos=4)


@pytest.fixture(scope="session")
def rue_cazotte():
    return Entity(
        entity_id="Q3451725",
        label="rue cazotte",
        description="street in paris , france",
        statements=[
            ("p31", "instance of", "street"),
            ("p17", "country", "france"),
            ("p131", "located in the administrative territorial entity", "paris"),
            ("p138", "named after", "jacques cazotte"),
            ("p625", "coordinate location", "48.886 2.344"),
        ],
    )


@pytest.fixture(scope="session")
def small_corpus():
    return synthdata.make_corpus(n=16, seed=3)


@pytest.fixture(scope="session")
def small_vocabs(small_corpus):
    return synthdata.make_vocabs(small_corpus)
