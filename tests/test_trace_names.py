"""The names perfbench/layertrace.py wraps by attribute lookup.

The tracer runs outside the tier-1 suite, so a rename here would break
`perfbench/run.py --trace 1` with no failing test; this test catches it.
"""

import pytest

from scottlab import adjunction, catalog, funcspace, stages, strings

TRACED = [
    (adjunction, "opp_element"),
    (adjunction, "build_pair_cpo"),
    (strings, "classify"),
    (catalog.NamedCpo, "to_elem"),
    (catalog.NamedCpo, "to_label"),
    (funcspace, "eval_segment"),
    (stages, "stage"),
    (stages.LabelMap, "__call__"),
]


@pytest.mark.parametrize(("owner", "name"), TRACED,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in TRACED])
def test_traced_name_exists(owner, name):
    assert callable(getattr(owner, name))
