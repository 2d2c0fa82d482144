"""The simulated c-lane model of the edge's trunk workers.

The paper sizes the edge as a multi-core E5-2640 box and
:mod:`repro.runtime.concurrency` models it as an M/M/c queue; this
module supplies the *c*, as a model.  A :class:`WorkerPool` starts no
threads: every batch runs on the caller's thread, in formation order,
and the pool only decides on which simulated lane, and at what
simulated time, each batch would have run on a c-worker box.

* **Earliest-free assignment** — :meth:`assign` puts a batch on the
  lane that frees first (ties go to the lowest index) and starts it
  when both that lane is free and the batch's gate has passed.
* **Busy telemetry** — each assignment reads 1 plus the number of other
  lanes still busy at the batch's start.  ``max_busy`` is that
  reading's lifetime high-water, and the scheduler's
  ``sched.workers_busy`` gauge takes the same readings.  Both are a
  pure function of the schedule, so they read the same on every run.
"""

from __future__ import annotations


class WorkerPool:
    """``num_workers`` simulated trunk lanes with earliest-free assignment."""

    def __init__(self, num_workers: int) -> None:
        num_workers = int(num_workers)
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        #: Simulated time at which each lane next becomes free.
        self.free_ms = [0.0] * num_workers
        #: High-water mark of simultaneously busy lanes (lifetime).
        self.max_busy = 0

    @property
    def clock_ms(self) -> float:
        """Simulated time at which every lane is free (the makespan)."""
        return max(self.free_ms)

    @clock_ms.setter
    def clock_ms(self, value: float) -> None:
        self.free_ms = [float(value)] * self.num_workers

    def assign(self, gate_ms: float, exec_ms: float) -> tuple[int, float, int]:
        """Book one batch; returns ``(lane, start_ms, busy)``.

        The batch goes to the earliest-free lane (lowest index on ties)
        and starts at ``max(lane free, gate_ms)``.  ``busy`` counts this
        lane plus every other lane whose free time is later than that
        start.
        """
        free = self.free_ms
        lane = min(range(len(free)), key=lambda i: (free[i], i))
        start = max(free[lane], gate_ms)
        busy = 1 + sum(1 for i, t in enumerate(free) if i != lane and t > start)
        free[lane] = start + exec_ms
        self.max_busy = max(self.max_busy, busy)
        return lane, start, busy

    def close(self) -> None:
        """Nothing to stop: the pool starts no threads.  Kept so callers
        that release a scheduler's resources need not special-case it."""
