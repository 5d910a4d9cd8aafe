"""Shared fixtures.

Heavy artifacts (suite models, calibration sets, search results) are
session-scoped so the acceptance criteria that reuse them don't pay for
regeneration.  Everything is seeded; nothing here depends on test order.
"""

import numpy as np
import pytest

from treeq.toymodel import QuantContext, gen_calibration, gen_model

from suite import SUITE_SEEDS, suite_spec


def seeded_matrix(rows, cols, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) * scale


def dense(weight):
    """A ``WeightGrid`` as float64: entry (c, j) is scale[c] * (q[c, j] * delta)."""
    return weight.scale[:, None] * (weight.q * weight.delta)


# Verdict lines from tests/test_acceptance.py.  Capture swallows prints from
# passing tests, so the acceptance gate registers its lines here and the
# summary hook replays them where they are always visible.
acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def suite_models():
    return {seed: gen_model(suite_spec(seed)) for seed in SUITE_SEEDS}


@pytest.fixture(scope="session")
def suite_calibs(suite_models):
    return {
        seed: gen_calibration(model, 64, 77)
        for seed, model in suite_models.items()
    }


@pytest.fixture(scope="session")
def ctx():
    return QuantContext()
