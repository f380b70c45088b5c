"""Shared fixtures.

`clear_caches` empties every `lru_cache` of the loaded `spin7` modules
before and after a test, so counts and cache-safety checks start cold and
leave no state behind.  The caches are found by scanning the module
namespaces for `cache_clear`, so a cache added later is cleared as well.
"""

import sys

import pytest


def clear_spin7_caches() -> None:
    """Clear every `lru_cache` held in a `spin7` module namespace."""
    for name, module in list(sys.modules.items()):
        if name == "spin7" or name.startswith("spin7."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


@pytest.fixture
def clear_caches():
    """Cold caches for the test; the test may call the returned function
    to empty them again midway."""
    clear_spin7_caches()
    yield clear_spin7_caches
    clear_spin7_caches()
