import pytest

from homlattice import basis, treedp


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with an empty expansion cache, hom-count stores,
    elimination-step cache and per-pattern step lists, so no answer comes
    from another test's warm cache and no step keeps a kernel that
    another test wrapped. ``hom_cache_clear`` keeps the host-free
    ``_steps`` and ``_counted`` caches, so they are cleared here."""
    basis.expansion_cache_clear()
    treedp.hom_cache_clear()
    treedp._steps.cache_clear()
    treedp._counted.cache_clear()
