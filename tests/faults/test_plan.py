"""The declarative fault plan and its seeded injector."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigError
from repro.faults.plan import (
    _RATE_FIELDS,
    DEFAULT_CHAOS_PLAN,
    FaultInjector,
    FaultPlan,
)
from repro.obs.events import EventBus, EventRecorder
from repro.obs.registry import MetricsRegistry


def test_inactive_by_default():
    plan = FaultPlan()
    assert not plan.active
    plan.validate()


def test_any_positive_rate_activates():
    for field in _RATE_FIELDS:
        plan = dataclasses.replace(FaultPlan(), **{field: 0.1})
        assert plan.active, field


def test_validate_rejects_illegal_rates_and_bounds():
    with pytest.raises(ConfigError):
        FaultPlan(net_delay_rate=1.0).validate()      # livelock-capable
    with pytest.raises(ConfigError):
        FaultPlan(res_kill_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        FaultPlan(net_delay_max=0).validate()
    with pytest.raises(ConfigError):
        FaultPlan(cpu_stall_max=0).validate()
    DEFAULT_CHAOS_PLAN.validate()


def test_scaled_multiplies_and_clamps():
    plan = FaultPlan(net_delay_rate=0.4, net_dup_rate=0.1)
    half = plan.scaled(0.5)
    assert half.net_delay_rate == pytest.approx(0.2)
    assert half.net_dup_rate == pytest.approx(0.05)
    zero = plan.scaled(0.0)
    assert not zero.active
    zero.validate()
    # Large intensities can never push a rate to the livelock regime.
    huge = plan.scaled(100.0)
    huge.validate()
    assert huge.net_delay_rate < 1.0


def test_plan_is_picklable_and_hashable():
    plan = dataclasses.replace(DEFAULT_CHAOS_PLAN, seed=7)
    assert pickle.loads(pickle.dumps(plan)) == plan
    assert hash(plan) == hash(dataclasses.replace(plan))


def test_describe_round_trips():
    plan = DEFAULT_CHAOS_PLAN
    assert FaultPlan(**plan.describe()) == plan


def test_injector_streams_are_deterministic():
    def draws(seed):
        inj = FaultInjector(dataclasses.replace(
            DEFAULT_CHAOS_PLAN, seed=seed))
        return ([inj.net_delay(dst) for dst in range(4) for _ in range(50)],
                [inj.home_nak(node) for node in range(4) for _ in range(50)],
                [inj.cpu_stall(pid) for pid in range(4) for _ in range(50)])

    assert draws(1) == draws(1)
    assert draws(1) != draws(2)


def test_injector_streams_are_per_site_independent():
    # Drawing from one site must not perturb another site's stream:
    # the streams are per (site, node), not one shared sequence.
    plan = dataclasses.replace(DEFAULT_CHAOS_PLAN, seed=3)
    solo = FaultInjector(plan)
    solo_delay = [solo.net_delay(0) for _ in range(100)]

    mixed = FaultInjector(plan)
    out = []
    for i in range(100):
        mixed.home_nak(1)          # interleave a different site
        out.append(mixed.net_delay(0))
        mixed.res_kill(2)
    assert out == solo_delay


def test_injector_counts_and_emits():
    registry = MetricsRegistry()
    bus = EventBus()
    recorder = EventRecorder(bus, kinds=("fault.inject",))

    class FakeSim:
        now = 42

    inj = FaultInjector(
        dataclasses.replace(DEFAULT_CHAOS_PLAN, seed=1,
                            net_delay_rate=0.9, net_delay_max=4),
        registry=registry, events=bus, sim=FakeSim(),
    )
    delays = [inj.net_delay(0) for _ in range(50)]
    fired = sum(1 for d in delays if d)
    assert fired > 0
    assert all(1 <= d <= 4 for d in delays if d)
    snap = registry.snapshot()
    assert snap["faults.net.delay"] == fired
    assert snap["faults.net.delay_cycles"] == sum(delays)
    assert len(recorder) == fired
    assert recorder.events[0].ts == 42
    assert recorder.events[0].data["site"] == "net.delay"
