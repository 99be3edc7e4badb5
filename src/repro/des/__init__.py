"""Event-driven simulator core (DES) — see docs/des.md.

A Nessi-style discrete-event engine over the conditional schedule
tables. :class:`DesSimulator` hands every scenario the table-replay
simulator (:mod:`repro.runtime.simulator`) can express to that
simulator unchanged; the event engine executes the scenario axes
table replay cannot: intermittent fault windows,
corrupted TDMA slot occurrences (with dynamic retransmission), and
per-process release jitter
(:class:`~repro.ftcpg.scenarios.DesFaultPlan`).

* :mod:`repro.des.queue` — the deterministic event queue
  (``(time, priority, seq)`` heap with anchored eps-clustering);
* :mod:`repro.des.events` — the logged event vocabulary and the
  golden-trace rendering;
* :mod:`repro.des.core` — :class:`DesSimulator`, which routes each
  plan to table replay or to the event engine;
* :mod:`repro.des.online` — forward execution of DES-only scenarios.
"""

from repro.des.core import DesRun, DesSimulator, simulate_des
from repro.des.events import DesEvent, DesEventKind, render_trace
from repro.des.online import OnlineEngine
from repro.des.queue import EventQueue

__all__ = [
    "DesEvent",
    "DesEventKind",
    "DesRun",
    "DesSimulator",
    "EventQueue",
    "OnlineEngine",
    "render_trace",
    "simulate_des",
]
