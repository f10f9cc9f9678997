"""README's library example runs as written and prints the values it states."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The python block of README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    names: dict = {}
    exec(compile(_library_block(), str(README), "exec"), names)
    tc, dec = names["tc"], names["dec"]
    axis = dec.axes[0]
    assert axis.delta == pytest.approx(0.5328, abs=5e-5)
    c = 0.1332
    assert axis.block_sums == pytest.approx((c, -c, -c, c), abs=5e-5)
    assert tc.rc_axis(dec, 1).rc_cols[0] == pytest.approx(0.5, abs=1e-12)
    tensor_axis = tc.tensor_norm(names["T"])
    np.testing.assert_allclose(np.abs(tensor_axis.octant_sums), tensor_axis.delta / 8)
