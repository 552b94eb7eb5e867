import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def _no_live_child_processes():
    """Fail a test that leaves a child process running (an ensemble's
    process pool, say); the children are stopped first, so the tests
    after it start clean."""
    yield
    live = multiprocessing.active_children()
    for child in live:
        child.terminate()
        child.join()
    if live:
        pytest.fail(f"the test left {len(live)} live child process(es): "
                    f"{live}")
