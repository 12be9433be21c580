"""The benchmark's span recorder must still find every entry point it wraps.

``dpibench/spans.py`` wraps public methods and module functions of the
program by name for ``--trace`` runs.  A class-owned entry point is looked up
in the class's own ``__dict__`` (an inherited attribute cannot be wrapped in
place), so a refactor that moves, renames or inherits one of them breaks the
traced benchmark.  This test reads the list without changing anything.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "dpibench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("dpibench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    entry_points = load_spans().entry_points()
    assert entry_points
    for owner, attribute, span, _hook in entry_points:
        if isinstance(owner, type):
            assert attribute in owner.__dict__, (
                f"{span}: {owner.__name__}.{attribute} is not defined in the class itself"
            )
        else:
            assert callable(getattr(owner, attribute, None)), (
                f"{span}: {owner.__name__}.{attribute} does not resolve"
            )
