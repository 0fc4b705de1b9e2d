import pytest

from homlattice import basis, treedp


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with an empty expansion cache, hom-count memo and
    elimination-step cache, so no answer comes from another test's warm
    cache and no step keeps a kernel that another test wrapped."""
    basis.expansion_cache_clear()
    treedp.hom_cache_clear()
    treedp._steps.cache_clear()
