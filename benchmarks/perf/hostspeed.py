"""Host-speed calibration for the benchmark's timings.

On the reference machine (a virtual machine with 2 vCPUs) each vCPU
switches between a fast and a slow state, about 1.4x apart, several
times a second and independently of the other (the speeds of the two
correlate at 0.13), and the share of time spent slow drifts over
minutes.  Thread CPU time moves with wall time, so no clock avoids it:
ten runs of identical inputs spread 0.13-0.26 in throughput.

``run.py`` therefore pins the benchmark and every process it starts to
one CPU, and each run times a small fixed *probe* between its
operations: a breadth-first search in plain dicts over a triangulated
lattice, with no code from ``repro``.  The probe is timed in thread CPU
time, so a probe that the serve pool worker preempts on the shared CPU
still reads the CPU's speed.  Every time the benchmark reports is
divided by the run's *slowdown*, the probe's trimmed mean time over
:data:`REFERENCE_S`.  A change to the library moves the operations and
never the probe.
"""

from __future__ import annotations

import time
from typing import List

import networkx as nx

_ADJ = {
    v: sorted(nbrs)
    for v, nbrs in nx.convert_node_labels_to_integers(nx.triangular_lattice_graph(20, 20)).adjacency()
}
_ROOTS = (0, 115, 230)
#: A typical probe time on the reference machine (160 µs in the fast
#: state, 290 µs in the slow one), so calibrated times read about as raw
#: times do there.
REFERENCE_S = 250e-6
#: Probes are taken between operations, at most this often (the probe
#: itself takes about a quarter of a millisecond).
PROBE_EVERY_S = 0.05
#: Share of the probe times dropped at each end before the mean: a probe
#: that a context switch or garbage collection interrupted says nothing
#: about the vCPU's speed.
TRIM = 0.1


def probe() -> float:
    """CPU seconds the fixed probe takes now."""
    t = time.thread_time()
    for root in _ROOTS:
        seen = {root}
        order = [root]
        for v in order:
            for w in _ADJ[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
    return time.thread_time() - t


class HostSpeed:
    """Probe times gathered over one stretch of a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._due = 0.0

    def sample(self) -> None:
        """Probe, unless the last probe is less than PROBE_EVERY_S old."""
        if time.perf_counter() >= self._due:
            self.samples.append(probe())
            self._due = time.perf_counter() + PROBE_EVERY_S

    def burst(self, seconds: float) -> "HostSpeed":
        """Probe back to back for ``seconds``."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.samples.append(probe())
        return self

    def slowdown(self) -> float:
        """Trimmed mean probe time over :data:`REFERENCE_S`."""
        values = sorted(self.samples)
        cut = int(len(values) * TRIM)
        kept = values[cut:len(values) - cut] or values
        return sum(kept) / len(kept) / REFERENCE_S
