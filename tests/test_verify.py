"""Each check of the ``verify`` battery can fail: fed a wrong input, it
reports FAIL rather than PASS."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from duodenoise import verify
from duodenoise.channel import compute_h, make_bsc
from duodenoise.denoisers import IdentityDenoiser, make_bec_parity_pair


def test_unbiasedness_fails_for_a_scaled_h():
    bsc = make_bsc(0.25)
    x = np.zeros(8, dtype=np.int64)
    x[::3] = 1
    result = verify.check_unbiasedness(bsc, IdentityDenoiser(), x, h=1.01 * compute_h(bsc))
    assert result.passed is False
    # the estimate is linear in h, so the gap is 0.01 E[loss] = 0.01 * 1/4
    assert result.detail.endswith(f"gap {0.0025:.3g}")


def test_parity_counterexample_fails_for_a_same_fill_pair(monkeypatch):
    same_fill = make_bec_parity_pair()[0]
    monkeypatch.setattr(verify, "make_bec_parity_pair", lambda: (same_fill, same_fill))
    result = verify.check_parity_counterexample(6)
    assert result.passed is False
    # both candidates are the same denoiser, so the combined loss is its 1/4
    assert result.detail.endswith(f"combined {0.25:.6f}")


def test_parity_counterexample_rejects_a_block_length_below_two():
    # at n = 1 the one erased word has an even zero count, so d1 never errs;
    # at n = 2 the combined 1/2 - 2^-2 equals each candidate's 1/4
    for n in (2, 1, 0):
        with pytest.raises(ValueError, match=rf"^the parity counterexample needs n >= 3, got {n}"):
            verify.check_parity_counterexample(n)


def test_check_result_is_an_immutable_value():
    result = verify.CheckResult("unbiasedness", True, "gap 0")
    assert result == verify.CheckResult(name="unbiasedness", passed=True, detail="gap 0")
    assert result != verify.CheckResult("unbiasedness", False, "gap 0")
    for field in ("name", "passed", "detail"):
        with pytest.raises(AttributeError):
            setattr(result, field, None)
    twin = pickle.loads(pickle.dumps(result))
    assert twin == result
    assert (twin.name, twin.passed, twin.detail) == ("unbiasedness", True, "gap 0")
