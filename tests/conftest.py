import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_after_main():
    # cli.main freezes the heap alive when it starts; in the test process
    # that heap holds pytest's pending garbage, which a frozen collector
    # would keep until the run ends
    yield
    gc.unfreeze()
