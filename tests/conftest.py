"""Fixtures shared by every test module."""

import pytest

from nipsqw import nip_evolution


@pytest.fixture(autouse=True)
def cold_map_memo():
    """Empty the stage kernel's map memo before each test.

    A test that patches a layer below the kernel then sees that layer run,
    whichever test ran before it.
    """
    nip_evolution._map_block.cache_clear()
