import pytest

from hurwitzlab import hurwitz


@pytest.fixture
def fresh_fit_cache():
    """An empty fit cache during the test, emptied again after it, so that
    no fit of altered data outlives the test that altered it."""
    hurwitz._fit_P.cache_clear()
    yield
    hurwitz._fit_P.cache_clear()
