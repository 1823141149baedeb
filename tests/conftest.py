import sys

import pytest
from hypothesis import settings

# every property test draws the same examples on every run, so one unlucky
# draw cannot move the suite's time or outcome; each test keeps its own
# max_examples, and `pytest --hypothesis-profile=default` draws afresh
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def digit_limit():
    """``sys.set_int_max_str_digits`` for one test: the limit in force
    before the test comes back after it.  Skips where the interpreter has
    no int-to-str digit limit (before Python 3.10.7)."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int digit limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)
