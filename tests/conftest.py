import numpy as np
import pytest

from taxossm.taxonomy import build_taxonomy
from toydata import toy_records


@pytest.fixture
def toy_taxonomy():
    return build_taxonomy(toy_records())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
