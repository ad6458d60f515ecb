"""Fabric worker: lease points, execute them supervised, commit, repeat.

A worker is one process draining one :class:`~repro.fabric.queue.TaskQueue`.
It leases a point, renews the lease's heartbeat from a background thread
while the point executes through the *supervised* single-node engine (so
in-worker retries, timeouts and quarantines keep their exact single-node
semantics), commits the result to the shared
:class:`~repro.sim.result_cache.ResultCache`, writes the terminal record,
and claims the next point.  Any number of workers -- spawned by the local
driver or started by hand on other hosts against a shared directory --
cooperate through the queue alone.

On SIGTERM/SIGINT the worker *drains*: the current lease is released back
to pending (no lease-loss charged -- this death is graceful), the
accumulated per-worker report is flushed into the queue's ``reports/``
directory, and the process exits 0 so supervisors (systemd, the fabric
driver, CI) treat preemption as a clean stop.  A worker that dies without
draining simply stops renewing its lease; the driver's heartbeat-expiry
reclamation recovers the point.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Optional

from repro.fabric.queue import DEFAULT_HEARTBEAT_S, LeasedTask, TaskQueue
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.sim import faults
from repro.sim.engine import CampaignEngine, CampaignReport, RetryPolicy
from repro.sim.result_cache import ResultCache
from repro.traces.store import TraceStore


class DrainRequested(BaseException):
    """Raised (from a signal handler) to unwind the worker for a graceful
    drain.

    Deliberately a ``BaseException``: the supervised engine's per-point
    ``except Exception`` boundary must *not* classify a drain as a point
    failure -- the point is innocent, the worker is leaving.
    """


class FabricWorker:
    """One queue-draining worker process (see module docstring).

    ``max_points`` bounds how many points this worker settles before
    exiting voluntarily (tests use it to stage partial progress); None
    drains until the queue has nothing left to claim.  ``idle_grace_s`` is
    how long a worker keeps polling for work after the pending directory
    empties -- long enough to pick up a point the driver re-queues from a
    freshly expired lease, short enough that workers don't outlive a
    settled campaign.
    """

    def __init__(
        self,
        queue: TaskQueue,
        cache: Optional[ResultCache],
        trace_store: Optional[TraceStore] = None,
        owner: Optional[str] = None,
        policy: Optional[RetryPolicy] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        max_points: Optional[int] = None,
        idle_grace_s: float = 2.0,
        install_signal_handlers: bool = True,
    ) -> None:
        self.queue = queue
        self.owner = owner or f"worker-{os.getpid()}"
        self.policy = policy if policy is not None else RetryPolicy()
        self.heartbeat_s = heartbeat_s
        self.max_points = max_points
        self.idle_grace_s = idle_grace_s
        self.install_signal_handlers = install_signal_handlers
        self.engine = CampaignEngine(
            result_cache=cache, jobs=1, trace_store=trace_store
        )
        #: Points this worker settled (done or quarantined).
        self.settled = 0
        self.drained = False
        self._draining = False
        self._current: Optional[LeasedTask] = None
        self._lock = threading.Lock()
        self._stop_heartbeat = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        # Renew at a quarter of the TTL: three missed renewals of margin
        # before anyone may presume this worker dead.
        interval = max(0.05, self.heartbeat_s / 4.0)
        while not self._stop_heartbeat.wait(interval):
            with self._lock:
                task = self._current
            if task is not None:
                try:
                    self.queue.renew(task)
                    obs_tracer.event(
                        "lease_renew", key=task.key, owner=self.owner
                    )
                except OSError:
                    pass  # shared directory hiccup; retry next beat

    def _start_heartbeat(self) -> None:
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="fabric-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def _stop_heartbeat_thread(self) -> None:
        self._stop_heartbeat.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Drain signals
    # ------------------------------------------------------------------
    def _on_drain_signal(self, signum, frame) -> None:
        if self._draining:
            return  # second signal while already unwinding: stay graceful
        self._draining = True
        raise DrainRequested(signal.Signals(signum).name)

    def _install_signals(self) -> list:
        previous = []
        if not self.install_signal_handlers:
            return previous
        if threading.current_thread() is not threading.main_thread():
            return previous
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous.append((signum, signal.signal(signum, self._on_drain_signal)))
        return previous

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Drain the queue; return this worker's merged campaign report.

        Exits (returning normally) when the queue offers nothing to claim
        for ``idle_grace_s``, when ``max_points`` is reached, or after a
        graceful drain -- :attr:`drained` distinguishes the last case.
        """
        previous_signals = self._install_signals()
        self._start_heartbeat()
        idle_since: Optional[float] = None
        task: Optional[LeasedTask] = None
        try:
            while True:
                if self.max_points is not None and self.settled >= self.max_points:
                    break
                task = self.queue.claim(self.owner, heartbeat_s=self.heartbeat_s)
                if task is None:
                    if self.queue.all_settled():
                        break
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since > self.idle_grace_s:
                        break
                    time.sleep(0.1)
                    continue
                if idle_since is not None and obs_tracer.enabled():
                    idle_s = time.monotonic() - idle_since
                    obs_tracer.event(
                        "worker_idle", owner=self.owner, idle_s=idle_s
                    )
                    obs_metrics.registry().counter("worker.idle_s", idle_s)
                idle_since = None
                self._execute(task)
                task = None
        except DrainRequested:
            self.drained = True
            with self._lock:
                self._current = None
            if task is not None:
                # Hand the in-flight (or not-yet-started) point back;
                # release() is a no-op for a point that already settled.
                self.queue.release(task)
        finally:
            self._stop_heartbeat_thread()
            for signum, handler in previous_signals:
                signal.signal(signum, handler)
        report = self._flush_report()
        return report

    def _execute(self, task: LeasedTask) -> None:
        """Run one leased point through the supervised engine and settle it."""
        with self._lock:
            self._current = task
        try:
            # The kill_worker fault hook: a rule matching this point (and
            # this 0-based lease attempt) ends the process right here --
            # lease held, nothing executed, no report flushed.
            faults.inject_after_lease(
                task.key, task.point.label, task.attempts - 1
            )
            with obs_tracer.span(
                "lease", key=task.key, point=task.point.label,
                owner=self.owner, attempts=task.attempts,
            ):
                self.engine.run([task.point], jobs=1, policy=self.policy)
            outcome = self.engine.last_report.outcomes[-1]
        finally:
            with self._lock:
                self._current = None
        if outcome.status == "quarantined":
            self.queue.quarantine(task, outcome.to_dict())
        else:
            self.queue.complete(task, outcome.to_dict())
        self.settled += 1
        self._flush_report()

    def _flush_report(self) -> CampaignReport:
        """Merge this worker's per-point reports and persist them."""
        report = CampaignReport.merged(self.engine.reports)
        report.jobs = 1
        payload = report.to_dict()
        payload["owner"] = self.owner
        payload["drained"] = self.drained
        if obs_tracer.enabled():
            payload["metrics"] = obs_metrics.registry().snapshot()
        try:
            self.queue.write_worker_report(self.owner, payload)
        except OSError:
            pass  # a lost report costs counters, never results
        return report
