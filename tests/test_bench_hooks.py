"""The benchmark's tracing hooks still find every function they wrap.

``perfbench/spans.py`` wraps the program's public functions by name.  A
renamed or removed function would make ``Tracer.install`` fail in the middle
of a traced benchmark run; this test makes it fail here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np

import taxicab_ca
from taxicab_ca import cli
from taxicab_ca.io import format_tensor
from taxicab_ca.kernels import ENUM_LIMIT

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules() -> dict[str, object]:
    for info in pkgutil.iter_modules(taxicab_ca.__path__):
        importlib.import_module(f"{taxicab_ca.__name__}.{info.name}")
    prefix = taxicab_ca.__name__ + "."
    return {name[len(prefix):]: mod for name, mod in sys.modules.items()
            if name.startswith(prefix) and mod is not None}


def _resolve(modules: dict[str, object], name: str) -> tuple[object, str]:
    module, *path = name.split(".")
    owner = modules[module]
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1]


def _bindings(modules: dict[str, object], wrapped) -> dict[tuple[str, str], object]:
    """Every module attribute, and every wrapped method, by (owner, name)."""
    out = {(mod.__name__, attr): value for mod in modules.values()
           for attr, value in vars(mod).items()}
    for name in wrapped:
        owner, attr = _resolve(modules, name)
        out[(owner.__name__, attr)] = getattr(owner, attr)
    return out


def test_every_wrapped_name_resolves_and_is_restored():
    spans = _load_spans()
    modules = _package_modules()
    originals = {}
    for name in spans.WRAPPED:
        owner, attr = _resolve(modules, name)
        originals[name] = getattr(owner, attr)
        assert callable(originals[name]), name
    before = _bindings(modules, spans.WRAPPED)

    tracer = spans.Tracer()
    try:
        tracer.install()
        for name, original in originals.items():
            owner, attr = _resolve(modules, name)
            current = getattr(owner, attr)
            assert current is not original, name
            assert current.__wrapped__ is original, name
    finally:
        tracer.uninstall()

    after = _bindings(modules, spans.WRAPPED)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_every_solver_records_spans(tmp_path):
    """Each solver layer is reached through the name the tracer wraps."""
    rng = np.random.default_rng(28)
    small, large = tmp_path / "small.txt", tmp_path / "large.txt"
    small.write_text(format_tensor(rng.normal(size=(3, 4, 2))))
    side = ENUM_LIMIT // 2 + 1  # the two smallest modes sum past the limit
    large.write_text(format_tensor(rng.normal(size=(side, side, side))))
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        for argv in (["tca", "--dataset", "americas", "--axes", "2"],
                     ["tca", "--dataset", "americas", "--axes", "2", "--heuristic"],
                     ["tensor", str(small)], ["tensor", str(large)]):
            assert cli.run(argv) == 0, argv
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for solver in ("taxicab.norm_exact", "taxicab.norm_heuristic",
                   "tensor.tensor_norm_exact", "tensor.tensor_norm_heuristic"):
        assert solver in names, solver
