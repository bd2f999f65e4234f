"""The metrics registry: counters, labels, hook wiring."""

import pytest

import repro.obs as obs
from repro.errors import ModelParameterError
from repro.obs.metrics import (
    Counter,
    HOOKS,
    MetricsRegistry,
    REGISTRY,
    install_hooks,
    uninstall_hooks,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture(autouse=True)
def _clean_global_obs():
    """Tests here touch the process-wide HOOKS/REGISTRY — leave them as found."""
    yield
    obs.disable()
    obs.REGISTRY.reset()
    obs.TRACER.reset()


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ModelParameterError):
            Counter("c").inc(-1.0)



class TestRegistry:
    def test_get_or_create_returns_same_instance(self, registry):
        assert registry.counter("a") is registry.counter("a")

    def test_labels_distinguish_instruments(self, registry):
        a = registry.counter("steps", labels={"technique": "focv"})
        b = registry.counter("steps", labels={"technique": "hill"})
        assert a is not b
        a.inc(3)
        assert b.value == 0.0

    def test_label_order_is_irrelevant(self, registry):
        a = registry.counter("x", labels={"p": "1", "q": "2"})
        b = registry.counter("x", labels={"q": "2", "p": "1"})
        assert a is b

    def test_reset_drops_everything(self, registry):
        registry.counter("a").inc()
        registry.reset()
        assert registry.instruments() == []

    def test_instruments_sorted(self, registry):
        registry.counter("b")
        registry.counter("a")
        assert [i.name for i in registry.instruments()] == ["a", "b"]


class TestHooks:
    def test_slots_none_until_installed(self):
        uninstall_hooks()
        assert all(getattr(HOOKS, s) is None for s in HOOKS.__slots__)

    def test_install_wires_every_slot(self):
        registry = MetricsRegistry()
        install_hooks(registry)
        try:
            assert all(getattr(HOOKS, s) is not None for s in HOOKS.__slots__)
            HOOKS.lambertw_calls.inc(3)
            assert registry.counter("solver.lambertw_calls").value == 3.0
        finally:
            uninstall_hooks()

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.is_enabled()
        assert HOOKS.mpp_solves is not None
        obs.disable()
        assert not obs.is_enabled()
        assert HOOKS.mpp_solves is None

    def test_reset_rewires_hooks_when_enabled(self):
        obs.enable()
        HOOKS.mpp_solves.inc()
        obs.reset()
        # The slot must point at a live instrument in the freshly-reset
        # registry, not the dropped one.
        HOOKS.mpp_solves.inc()
        assert obs.REGISTRY.counter("solver.mpp_solves").value == 1.0
