import pytest

from homlattice import basis, treedp


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with an empty expansion cache, hom-count stores
    and elimination-step cache, so no answer comes from another test's
    warm cache and no step keeps a kernel that another test wrapped
    (``hom_cache_clear`` empties the step cache too)."""
    basis.expansion_cache_clear()
    treedp.hom_cache_clear()
