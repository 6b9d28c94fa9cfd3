"""The rule by which ``compare`` in bench/fft_period.py calls a difference resolved."""

import importlib.util
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "fft_period.py"
BEFORE = [1.0 + 0.01 * k for k in range(10)]  # quartile spread 0.045


@pytest.fixture(scope="module")
def compare():
    # the script pins the BLAS thread counts in os.environ when imported
    saved = dict(os.environ)
    try:
        spec = importlib.util.spec_from_file_location("fft_period", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return module.compare


def test_one_won_round_is_not_resolved(compare):
    out = compare({"before": [1.0], "after": [0.5]})
    assert out["after_wins"] == 1.0
    assert out["resolved"] is False


def test_ten_won_rounds_past_the_quartile_spread_are_resolved(compare):
    out = compare({"before": BEFORE, "after": [0.5] * 10})
    assert out["after_wins"] == 1.0
    assert out["resolved"] is True


def test_eight_wins_in_ten_rounds_are_not_resolved(compare):
    out = compare({"before": BEFORE, "after": [0.5] * 8 + [2.0] * 2})
    assert out["after_wins"] == 0.8
    assert out["resolved"] is False
