"""Declared counter tables, the helper under ``EngineStats`` and
``ServerStats``: a stats class lists each counter once, as a
:class:`Counter` row, and inherits from :class:`Counters` the storage
(a plain attribute per row), the locked bump (:meth:`~Counters.inc` by
name, :meth:`~Counters.event` by subsystem event) and the walk its
``snapshot()`` is made of.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, NamedTuple, Optional

__all__ = ["Counter", "Counters"]


class Counter(NamedTuple):
    """One declared counter: a row of a :class:`Counters` table."""

    name: str          # attribute and snapshot() key
    group: str = ""    # health() block exporting it ("": snapshot() only)
    event: str = ""    # subsystem event it counts, when not ``name``
    #: not ``None``: a labelled (dict-valued) counter, label -> count;
    #: maps each subsystem event it counts to the label that event bumps
    labels: Optional[Mapping[str, str]] = None


class Counters:
    """The values of one declared table (a subclass's ``ROWS``): the
    locked bump and the walk ``snapshot()`` / ``health()`` are made of."""

    def __init__(self):
        # re-entrant: a subclass's snapshot() walks under its own hold
        self._lock = threading.RLock()
        #: event -> [(counter, label or None), ...]
        self._events: Dict[str, list] = {}
        for r in self.ROWS:
            setattr(self, r.name, {} if r.labels is not None else 0)
            events = (r.labels if r.labels is not None
                      else {r.event or r.name: None})
            for event, label in events.items():
                self._events.setdefault(event, []).append((r.name, label))

    def _add(self, name: str, n, label=None) -> None:
        """Bump one counter (one label of a labelled one); the caller
        holds the lock."""
        values = vars(self)
        if label is None:
            values[name] += n
        else:
            per = values[name]
            per[label] = per.get(label, 0) + n

    def inc(self, **counts) -> None:
        """Bump counters by name under one acquisition, ``inc(failed=3,
        rejected={"closed": 3})``: a labelled counter takes ``{label:
        n}``; a name that is no attribute raises ``KeyError``."""
        with self._lock:
            for name, n in counts.items():
                if isinstance(n, dict):
                    for label, k in n.items():
                        self._add(name, k, label)
                else:
                    self._add(name, n)

    def event(self, event: str, n=1) -> None:
        """Count one subsystem event (the store / journal observers, the
        breaker listener): every row naming it is bumped under one
        acquisition.  An event no row names raises ``KeyError`` instead
        of vanishing."""
        rows = self._events[event]
        with self._lock:
            for name, label in rows:
                self._add(name, n, label)

    def walk(self, group: Optional[str] = None) -> Dict[str, object]:
        """``name -> value`` for every row (of one ``health()`` group)."""
        values = vars(self)
        with self._lock:
            return {r.name: (dict(values[r.name]) if r.labels is not None
                             else values[r.name])
                    for r in self.ROWS if group is None or r.group == group}
