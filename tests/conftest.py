import contextlib
from unittest import mock

import pytest

from prodfn import ExponentialModel, core

# Exponential trends of the 1899-1922 U.S. labor/capital/production index
# series from the classic Cobb-Douglas study: growth rates per year and log
# initial levels, base year 1899.
CD1928 = ExponentialModel(
    b1=0.02549605,
    b2=0.06472564,
    b3=0.03592651,
    ln_L0=4.66953290,
    ln_K0=4.61213588,
    ln_Y0=4.66415363,
    base_year=1899,
)


@pytest.fixture
def cd1928():
    return CD1928


@contextlib.contextmanager
def thread_blocks(block):
    """Thread blocks of `block` points, and 2 CPUs whatever the host has: grids of two blocks or more are split
    between the caller and one worker thread."""
    with mock.patch.object(core, "_THREAD_BLOCK", block), \
            mock.patch.object(core.os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        yield
