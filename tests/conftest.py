"""Suite-wide checks that every test runs under."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_exponent_thread_outlives_its_test():
    """``powmod_many`` joins its ``psu-exp-*`` helpers before it returns."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("psu-exp")]
    assert not alive, f"exponent threads still alive after the test: {alive}"
