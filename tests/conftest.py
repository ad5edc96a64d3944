"""Marks the four tests that take most of the suite's time as ``slow``, so
``python -m pytest -m "not slow"`` is a quick edit-test loop. The full
suite still runs every test."""

import pytest

SLOW = {
    "test_criterion_05_overfit_sanity",
    "test_criterion_06_architecture_ordering",
    "test_criterion_12_cross_validation_harness",
    "test_paper_length_float32_gradients_match_float64",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.originalname in SLOW:
            item.add_marker(pytest.mark.slow)
