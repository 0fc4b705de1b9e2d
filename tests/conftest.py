import pytest

from homlattice import basis, treedp


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with an empty expansion cache and hom-count memo,
    so no answer comes from another test's warm cache."""
    basis.expansion_cache_clear()
    treedp.hom_cache_clear()
