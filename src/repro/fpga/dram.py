"""Memory-hierarchy model: effective DRAM bandwidth and phase overlap.

The flat ``FpgaDevice.bandwidth_gbps`` number hides what actually
limits an accelerator's off-chip traffic: every burst pays the DRAM
access latency before any beat moves, so short transfers see a small
fraction of the pin bandwidth while long streaming bursts approach it.
The openposeFPGA design-space explorer models this with an *effective*
bandwidth derived from the port width, the burst length and the memory
clock; :class:`DramModel` reproduces that arithmetic exactly::

    eff_bw = port_width * burst_len / 8
             / ((dram_latency + burst_len) / (fre * 1e6)) / 1e9

(``port_width`` in bits, ``burst_len`` in beats, ``fre`` in MHz,
``eff_bw`` in GB/s.)

On top of the transfer model sits the double-buffering phase picture:
while a PE computes on one buffer pair, the next task's inputs stream
into the shadow buffers and the previous task's outputs drain out, so a
steady-state task costs ``max(load, compute, write)`` cycles -- the
:class:`PhaseLatency` triple.  A layer is *compute-bound* when the
middle term dominates and *load-* or *write-bound* otherwise; which one
wins is precisely what separates bandwidth-rich from bandwidth-starved
devices on depthwise-heavy networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: DRAM access latency in memory-clock cycles (openposeFPGA's constant).
DEFAULT_DRAM_LATENCY_CYCLES = 120


@dataclass(frozen=True)
class DramModel:
    """Burst-level DRAM interface model of one device.

    Attributes:
        port_width_bits: data-port width in bits (one beat moves this
            many bits per memory-clock cycle).
        burst_beats: beats per burst; every burst pays
            ``latency_cycles`` of access latency before its first beat.
        frequency_mhz: memory interface clock.
        latency_cycles: DRAM access latency in memory-clock cycles.
    """

    port_width_bits: int
    burst_beats: int
    frequency_mhz: float
    latency_cycles: int = DEFAULT_DRAM_LATENCY_CYCLES

    def __post_init__(self) -> None:
        if self.port_width_bits <= 0 or self.port_width_bits % 8 != 0:
            raise ValueError(
                f"port_width_bits must be a positive multiple of 8, got "
                f"{self.port_width_bits}"
            )
        if self.burst_beats <= 0:
            raise ValueError(
                f"burst_beats must be positive, got {self.burst_beats}"
            )
        if self.frequency_mhz <= 0:
            raise ValueError(
                f"frequency_mhz must be positive, got {self.frequency_mhz}"
            )
        if self.latency_cycles < 0:
            raise ValueError(
                f"latency_cycles must be >= 0, got {self.latency_cycles}"
            )

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Pin bandwidth with latency amortised away (infinite bursts)."""
        return self.port_width_bits * self.frequency_mhz * 1e6 / 8 / 1e9

    def effective_bandwidth_gbps(self, burst_len: float) -> float:
        """Effective GB/s of a ``burst_len``-beat transfer.

        The openposeFPGA ``effective_dram_est`` formula verbatim: the
        burst's beat time plus the access latency, divided into the
        bytes it moves.
        """
        if burst_len <= 0:
            raise ValueError(f"burst_len must be positive, got {burst_len}")
        return (
            self.port_width_bits * burst_len / 8
            / ((self.latency_cycles + burst_len) / (self.frequency_mhz * 1e6))
            / 1e9
        )

    def effective_port_width_bits(self, burst_len: float) -> float:
        """Effective bits per memory-clock cycle at ``burst_len`` beats."""
        return (
            self.effective_bandwidth_gbps(burst_len) * 1e9 * 8
            / (self.frequency_mhz * 1e6)
        )

    def transfer_mem_cycles(
        self, n_bytes: int | np.ndarray
    ) -> int | np.ndarray:
        """Memory-clock cycles to move ``n_bytes`` through the port.

        The transfer is cut into full bursts; each pays the access
        latency, then streams its beats back to back (zero bytes take
        zero bursts).  An int64 array is converted elementwise.
        """
        if np.any(np.less(n_bytes, 0)):
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        beats = -(-n_bytes * 8 // self.port_width_bits)
        bursts = -(-beats // self.burst_beats)
        return bursts * self.latency_cycles + beats

    def transfer_cycles(
        self, n_bytes: int | np.ndarray, accel_clock_mhz: float
    ) -> int | np.ndarray:
        """Accelerator-clock cycles to move ``n_bytes`` (ceil-rounded).

        The PE's phase timers tick at the accelerator clock, so the
        memory-clock transfer time is rescaled by the clock ratio.  An
        int64 array is converted elementwise, with the same float
        arithmetic as a scalar.
        """
        if accel_clock_mhz <= 0:
            raise ValueError(
                f"accel_clock_mhz must be positive, got {accel_clock_mhz}"
            )
        scaled = (self.transfer_mem_cycles(n_bytes) * accel_clock_mhz
                  / self.frequency_mhz)
        if isinstance(scaled, np.ndarray):
            return np.ceil(scaled).astype(np.int64)
        return math.ceil(scaled)


#: Phase names, in per-task order.
LOAD_PHASE = "load"
COMPUTE_PHASE = "compute"
WRITE_PHASE = "write"


@dataclass(frozen=True)
class PhaseLatency:
    """Per-task load / compute / write cycles under double-buffering.

    With double-buffered IFM/weight and OFM tiles, the three phases of
    consecutive tasks overlap, so the steady-state cost of one task is
    the *slowest* phase, not their sum.
    """

    load_cycles: int
    compute_cycles: int
    write_cycles: int

    def __post_init__(self) -> None:
        for attr in ("load_cycles", "compute_cycles", "write_cycles"):
            if getattr(self, attr) < 0:
                raise ValueError(
                    f"{attr} must be >= 0, got {getattr(self, attr)}"
                )

    @property
    def effective_cycles(self) -> int:
        """Steady-state cycles per task: ``max(load, compute, write)``."""
        return max(self.load_cycles, self.compute_cycles, self.write_cycles)

    @property
    def bound(self) -> str:
        """Which phase dominates (ties resolve in phase order)."""
        if self.load_cycles >= self.compute_cycles and (
            self.load_cycles >= self.write_cycles
        ):
            return LOAD_PHASE
        if self.compute_cycles >= self.write_cycles:
            return COMPUTE_PHASE
        return WRITE_PHASE

    @property
    def compute_bound(self) -> bool:
        """True when compute is at least as slow as both transfers."""
        return self.effective_cycles == self.compute_cycles
