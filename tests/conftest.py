import sys

import pytest
from hypothesis import settings

settings.register_profile(
    "suite", deadline=None, derandomize=True, max_examples=60
)
settings.load_profile("suite")


@pytest.fixture
def long_int_strings():
    """Lift the 4300-digit limit on int <-> str conversion for one test, so
    it can read back the group orders a subprocess prints."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)
