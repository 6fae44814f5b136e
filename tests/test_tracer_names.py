"""The benchmark's tracer patches names that one vpal module imported from
another; a refactor that drops one would only show up as failed traced
benchmark runs, so the names are checked here."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # building the replacements reads every original name
    replacements = tracing.Tracer()._replacements()
    assert replacements
    for mod, attr, _traced in replacements:
        assert callable(getattr(mod, attr)), f"{mod.__name__}.{attr}"
