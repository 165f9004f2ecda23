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
    variable.
    """

    def __init__(self, host, name, server_host, *, payload_floats: int = 16,
                 **kwargs) -> None:
        self.payload_floats = payload_floats
        self.counter = 0
        self.marks: list = []
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
        # an integer range cast once: exact, where arange(dtype=float64)
        # is not past 2**53
        payload["series"] = np.arange(
            self.counter, self.counter + self.payload_floats
        ).astype(np.float64).tolist()
        return payload
