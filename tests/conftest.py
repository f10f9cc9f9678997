from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from taxicab_ca import kernels
from taxicab_ca.datasets import load_dataset
from taxicab_ca.residual import from_counts


@pytest.fixture(scope="session")
def asbestos():
    return load_dataset("asbestos")


@pytest.fixture(scope="session")
def americas():
    return load_dataset("americas")


@pytest.fixture(scope="session")
def asbestos_P(asbestos):
    return from_counts(asbestos.values)


@pytest.fixture(scope="session")
def americas_P(americas):
    return from_counts(americas.values)


def assert_match_up_to_sign(computed, expected, atol):
    """Assert two vectors agree within atol after the best global sign flip."""
    computed = np.asarray(computed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    direct = np.max(np.abs(computed - expected))
    flipped = np.max(np.abs(computed + expected))
    assert min(direct, flipped) <= atol, (
        f"no global sign aligns within {atol}: direct={direct}, flipped={flipped}"
    )


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, naming the first line that differs.

    pytest's own diff of two texts of thousands of lines takes minutes.
    """
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((k for k, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
        pytest.fail(f"texts differ at line {i + 1}: {a[i:i + 1]} != {b[i:i + 1]}")


def align_sign(computed, expected):
    """Return +-1 making computed best match expected."""
    computed = np.asarray(computed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return 1.0 if float(computed @ expected) >= 0.0 else -1.0


@contextmanager
def screen_split(workers: int | None, share_work: int | None = 1):
    """Screen and walk with ``workers`` shares where the work allows, and record every split.

    ``share_work`` replaces the work a share needs (1 splits every prefix
    screen or walk of two items or more; None keeps the module's threshold).
    Yields the list of share counts of the ``_run_shares`` rounds of the
    prefix screens and walks run inside the block; a whole-grid screen runs
    on the calling thread and records no round.
    """
    shares: list[int] = []
    real = kernels._run_shares

    def counted(share, bounds):
        shares.append(len(bounds) - 1)
        return real(share, bounds)

    with ExitStack() as stack:
        if workers is not None:
            stack.enter_context(mock.patch.object(kernels, "_SCREEN_WORKERS", workers))
        if share_work is not None:
            stack.enter_context(mock.patch.object(kernels, "_SHARE_WORK", share_work))
        stack.enter_context(mock.patch.object(kernels, "_run_shares", counted))
        yield shares
