"""The benchmark's span tracer must find every boundary it wraps.

``perfbench/spans.py`` rebinds ``qzopt.<module>.<attr>`` functions for the
traced pass and reports a vanished one as missing.  This test reads its
TARGETS table (without installing anything) so that a refactor that drops
or renames a traced function fails here, not only as a -1 in a traced
benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for _name, mod, attr, _info in module.TARGETS]


TARGETS = _targets()


def test_targets_table_is_populated():
    assert len(TARGETS) >= 30
    assert ("oracles", "estimate_grad") in TARGETS
    assert ("algorithms", "qgm_plus") in TARGETS


@pytest.mark.parametrize("mod,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_span_target_exists_and_is_callable(mod, attr):
    module = importlib.import_module("qzopt." + mod)
    assert callable(getattr(module, attr, None)), f"qzopt.{mod}.{attr} is gone"
