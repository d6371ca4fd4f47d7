import hypothesis.strategies as hs
import pytest
from hypothesis import settings

from scottlab import strings
from scottlab.catalog import NamedCpo
from scottlab.words import OMEGA, OMEGA_STAR, Elem, Ordering, compare, fin, window_elems, word_of

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

atoms = hs.one_of(
    hs.integers(min_value=1, max_value=5).map(fin),
    hs.just(OMEGA),
    hs.just(OMEGA_STAR),
)

words = hs.lists(atoms, min_size=1, max_size=6).map(lambda a: word_of(*a))


def assert_order_bijection(wa, wb, f, depth=30):
    """f maps elements of wa to elements of wb; check it preserves strict order
    pairwise over the finite windows."""
    xs = window_elems(wa, depth)
    for i, x in enumerate(xs):
        for y in xs[i + 1 :]:
            assert compare(wa, x, y) is Ordering.LT
            assert compare(wb, f(x), f(y)) is Ordering.LT, (x, y, f(x), f(y))


def elem_window(w, depth=12) -> list[Elem]:
    return window_elems(w, depth)


@pytest.fixture
def work_count(monkeypatch):
    """count(call): how many NamedCpo.locate and strings.classify calls call() makes.

    One warm-up call goes first, since an order derives some of its
    structure on first use.
    """
    calls = {"locate": 0, "classify": 0}
    for owner, name in ((NamedCpo, "locate"), (strings, "classify")):
        def counted(*args, f=getattr(owner, name), name=name):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(owner, name, counted)

    def count(call) -> dict[str, int]:
        call()
        calls.update(dict.fromkeys(calls, 0))
        call()
        return dict(calls)
    return count
