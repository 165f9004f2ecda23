"""A configurable synthetic application for benchmarks.

No science — just a counter, a payload of adjustable size, and steerable
knobs, so experiments can sweep update sizes and compute cadences without
numerical noise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.steering import (
    Actuator,
    Sensor,
    SteerableApplication,
    SteerableParameter,
)


class SyntheticApp(SteerableApplication):
    """Benchmark workload application.

    ``payload_floats`` controls the size of each periodic update (a list of
    floats), so the wire cost of the MainChannel is a free experimental
    variable.  Each update's ``series`` is ``[float(counter + i) for i in
    range(payload_floats)]``.

    Receivers keep what they are sent, and successive series overlap in
    all but the values the counter moved past, so a new series reuses the
    float objects of the previous one where their values coincide: only
    its list and the new values are allocated.  The previous series is
    kept as a private tuple (``_window``), never the list handed out, so
    a receiver that mutates its list cannot change the next update.
    """

    def __init__(self, host, name, server_host, *, payload_floats: int = 16,
                 **kwargs) -> None:
        self.payload_floats = payload_floats
        self.counter = 0
        self.marks: list = []
        # the last series sent, as ``float(_window_start + i)`` at index i
        self._window: tuple = ()
        self._window_start = 0
        super().__init__(host, name, server_host, **kwargs)

    def setup(self) -> None:
        self.gain = self.control.add_parameter(SteerableParameter(
            "gain", 1.0, minimum=0.0, maximum=100.0,
            description="multiplier applied to the counter"))
        self.control.add_parameter(SteerableParameter(
            "bias", 0, description="integer offset"))
        self.control.add_sensor(Sensor(
            "counter", lambda: self.counter, monitored=True,
            description="steps taken"))
        self.control.add_sensor(Sensor(
            "signal", self._signal, monitored=True,
            description="gain * counter + bias"))
        self.control.add_actuator(Actuator(
            "mark", self._mark, description="record a mark in the app"))

    def _signal(self) -> float:
        return (self.gain.value * self.counter
                + self.control.parameter("bias").value)

    def _mark(self, label: str = "") -> dict:
        self.marks.append((self.step_index, label))
        return {"marks": len(self.marks)}

    def step(self, index: int) -> None:
        self.counter += 1

    def update_payload(self) -> dict:
        payload = super().update_payload()
        payload["series"] = self._series()
        return payload

    def _series(self) -> list:
        start, n = self.counter, self.payload_floats
        window, shift = self._window, start - self._window_start
        if len(window) == n and 0 <= shift < n:
            # the window's tail, then the values it does not reach
            series = list(window[shift:])
            series += map(float, range(self._window_start + n, start + n))
        else:
            # built fresh in one numpy pass: an integer range cast once
            # is exact, where arange(dtype=float64) is not past 2**53
            series = np.arange(start, start + n).astype(np.float64).tolist()
        self._window, self._window_start = tuple(series), start
        return series
