"""Unit + property tests for the hysteresis state machine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.health import (
    STATUS_DEGRADED,
    STATUS_HEALTHY,
    STATUS_UNHEALTHY,
    STATUS_UNKNOWN,
)
from repro.health.model import (
    DOWN_AFTER,
    UP_AFTER,
    ComponentHealth,
    HealthModel,
)


def make():
    return ComponentHealth("server:x")


class TestComponentHealth:
    def test_starts_unknown(self):
        assert make().status == STATUS_UNKNOWN

    def test_first_success_is_healthy(self):
        c = make()
        assert c.record_success(1.0) == STATUS_HEALTHY
        assert c.since == 1.0
        assert c.successes == 1

    def test_single_failure_degrades_but_not_down(self):
        c = make()
        c.record_success(1.0)
        assert c.record_failure(2.0) == STATUS_DEGRADED

    def test_degraded_recovers_on_one_success(self):
        c = make()
        c.record_success(1.0)
        c.record_failure(2.0)
        assert c.record_success(3.0) == STATUS_HEALTHY

    def test_down_after_consecutive_failures(self):
        c = make()
        c.record_success(1.0)
        for t in range(DOWN_AFTER - 1):
            assert c.record_failure(2.0 + t) != STATUS_UNHEALTHY
        assert c.record_failure(5.0) == STATUS_UNHEALTHY
        assert c.since == 5.0

    def test_recovery_needs_up_after_consecutive(self):
        c = make()
        c.record_success(1.0)
        for t in range(DOWN_AFTER):
            c.record_failure(2.0 + t)
        assert c.record_success(6.0) == STATUS_UNHEALTHY
        assert c.record_success(7.0) == STATUS_HEALTHY

    def test_failure_resets_recovery_streak(self):
        c = make()
        for t in range(DOWN_AFTER):
            c.record_failure(1.0 + t)
        c.record_success(5.0)
        c.record_failure(6.0)  # streak broken
        assert c.record_success(7.0) == STATUS_UNHEALTHY
        assert c.record_success(8.0) == STATUS_HEALTHY

    def test_transitions_recorded(self):
        c = make()
        c.record_success(1.0)
        for t in range(DOWN_AFTER):
            c.record_failure(2.0 + t)
        assert [(old, new) for _t, old, new in c.transitions] == [
            (STATUS_UNKNOWN, STATUS_HEALTHY),
            (STATUS_HEALTHY, STATUS_DEGRADED),
            (STATUS_DEGRADED, STATUS_UNHEALTHY),
        ]

    def test_thresholds_validated(self):
        # a single miss only degrades, and recovery takes some success
        assert DOWN_AFTER > 1 and UP_AFTER >= 1


# -- the no-flap property -----------------------------------------------------
#
# Under any interleaving whose failure runs are all shorter than
# ``down_after``, a healthy component never goes unhealthy; dually, success
# runs shorter than ``up_after`` never bring an unhealthy component back.

@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.integers(min_value=1, max_value=DOWN_AFTER - 1),
                     min_size=1, max_size=20))
def test_short_failure_runs_never_reach_unhealthy(runs):
    c = make()
    now = [0.0]

    def step(fn):
        now[0] += 1.0
        return fn(now[0])

    step(c.record_success)  # start healthy
    for run in runs:
        for _ in range(run):
            status = step(c.record_failure)
            assert status != STATUS_UNHEALTHY
        step(c.record_success)  # run ends before the threshold
        assert c.status == STATUS_HEALTHY


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.integers(min_value=1, max_value=UP_AFTER - 1),
                     min_size=1, max_size=20))
def test_short_success_runs_never_leave_unhealthy(runs):
    c = make()
    now = [0.0]

    def step(fn):
        now[0] += 1.0
        return fn(now[0])

    for _ in range(DOWN_AFTER):
        step(c.record_failure)  # start unhealthy
    for run in runs:
        for _ in range(run):
            status = step(c.record_success)
            assert status == STATUS_UNHEALTHY
        step(c.record_failure)  # run ends before the threshold
        assert c.status == STATUS_UNHEALTHY


@settings(max_examples=100, deadline=None)
@given(obs=st.lists(st.booleans(), min_size=1, max_size=60))
def test_unhealthy_iff_streak_reached(obs):
    """Whatever the interleaving, the status is exactly the streak rule."""
    c = make()
    went_down = False
    ok_streak = fail_streak = 0
    for t, good in enumerate(obs):
        if good:
            c.record_success(float(t))
            ok_streak += 1
            fail_streak = 0
            if went_down and ok_streak >= UP_AFTER:
                went_down = False
        else:
            c.record_failure(float(t))
            fail_streak += 1
            ok_streak = 0
            if fail_streak >= DOWN_AFTER:
                went_down = True
        assert (c.status == STATUS_UNHEALTHY) == went_down


class TestHealthModel:
    def test_clock_stamps_transitions(self):
        now = [0.0]
        model = HealthModel(clock=lambda: now[0])
        now[0] = 2.5
        model.record_success("server:a")
        assert model.component("server:a").since == 2.5

    def test_status_of_unknown_component(self):
        model = HealthModel(clock=lambda: 0.0)
        assert model.status_of("server:ghost") == STATUS_UNKNOWN
        assert not model.is_unhealthy("server:ghost")

    def test_counts_and_snapshot(self):
        model = HealthModel(clock=lambda: 1.0)
        model.record_success("server:a")
        for _ in range(DOWN_AFTER):
            model.record_failure("server:b")
        counts = model.status_counts()
        assert counts[STATUS_HEALTHY] == 1
        assert counts[STATUS_UNHEALTHY] == 1
        snap = model.snapshot()
        assert snap["components"]["server:b"]["status"] == STATUS_UNHEALTHY

    def test_detection_latency(self):
        now = [0.0]
        model = HealthModel(clock=lambda: now[0])
        model.record_success("server:b")
        for t in (10.0, 10.5, 11.0):
            now[0] = t
            model.record_failure("server:b")
        assert model.detection_latency("server:b", 10.0) == 1.0
        assert model.detection_latency("server:b", 12.0) is None
        assert model.detection_latency("server:ghost", 0.0) is None
