"""Lock-discipline runtime: named traced locks + guarded-field markers.

This module is the runtime half of the lock-discipline story; the static
half lives in :mod:`repro.analysis.locks`.  The convention:

* a class whose mutable state is protected by one internal lock declares
  it with :func:`guarded_by`::

      @guarded_by("_lock", "_queue", "_completed")
      class ChunkScheduler: ...

  The first argument names the lock attribute, the rest name the fields
  it guards.  The static analyzer (rule ``LOCK001``) then flags any
  ``self._queue`` access that is not lexically inside a
  ``with self._lock:`` block or a :func:`requires_lock` method.

* an internal helper that is only ever called with the lock already
  held declares that with :func:`requires_lock`::

      @requires_lock("_lock")
      def _shipment_bytes(self): ...

  The analyzer treats the whole body as locked; at runtime, when
  tracing is armed, entering the method without holding the lock raises
  :class:`LockDisciplineError`.

* the lock itself is a :class:`TracedLock` — a plain mutex when tracing
  is off (one branch of overhead per acquire), and an
  acquisition-order recorder when armed: acquiring lock *B* while
  holding lock *A* records the edge ``A -> B``; if the reversed edge
  was ever recorded (by any thread since arming), the acquire raises
  :class:`LockOrderInversion` naming both sites.  The chaos-test CI leg
  arms tracing (``REPRO_TRACE_LOCKS=1``) so every battery doubles as a
  deadlock-order test.

The sanctioned ordering in this codebase is strictly hierarchical:
service lock -> scheduler lock -> verdict-cache lock, with the store
lock a leaf under the service lock.  The service is the one TCP
coordinator, so its lock is the only top-level one.  Tracing exists to keep
that hierarchy honest as the code grows.
"""

from __future__ import annotations

import functools
import os
import threading

__all__ = [
    "TracedLock",
    "guarded_by",
    "requires_lock",
    "arm_lock_tracing",
    "disarm_lock_tracing",
    "lock_tracing_armed",
    "lock_order_edges",
    "LockOrderInversion",
    "LockDisciplineError",
]


class LockOrderInversion(RuntimeError):
    """Two named locks were acquired in both nesting orders."""


class LockDisciplineError(RuntimeError):
    """A ``@requires_lock`` method ran without its lock held."""


#: Whether acquisition-order tracing is armed (module-global so the
#: unarmed fast path is a single attribute load per acquire).
_ARMED = False

#: Registry of observed nesting edges: ``(outer, inner) -> description``
#: of where the edge was first seen.  Guarded by ``_REGISTRY_LOCK``.
_EDGES: dict[tuple[str, str], str] = {}
_REGISTRY_LOCK = threading.Lock()

#: Per-thread stack of currently held TracedLocks (tracing only).
_HELD = threading.local()


def arm_lock_tracing(reset: bool = True) -> None:
    """Turn acquisition-order recording and inversion detection on.

    ``reset`` clears previously recorded edges so one test cannot
    poison the next; pass ``reset=False`` to accumulate across phases.
    """
    global _ARMED
    if reset:
        with _REGISTRY_LOCK:
            _EDGES.clear()
    _ARMED = True


def disarm_lock_tracing() -> None:
    """Turn tracing off (held-stack bookkeeping stops immediately)."""
    global _ARMED
    _ARMED = False


def lock_tracing_armed() -> bool:
    return _ARMED


def lock_order_edges() -> dict[tuple[str, str], str]:
    """A copy of the recorded ``(outer, inner) -> first seen`` edges."""
    with _REGISTRY_LOCK:
        return dict(_EDGES)


def _held_stack() -> list:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = []
        _HELD.stack = stack
    return stack


def _describe_site(outer: str, inner: str, thread: str) -> str:
    return f"{outer} -> {inner} (first seen on thread {thread!r})"


def _note_acquired(lock: "TracedLock") -> None:
    stack = _held_stack()
    thread = threading.current_thread().name
    for held in stack:
        edge = (held.name, lock.name)
        reverse = (lock.name, held.name)
        with _REGISTRY_LOCK:
            inverted = _EDGES.get(reverse)
            # Only a sanctioned (non-inverted, non-same-name) nesting is
            # recorded: the refused acquire below is rolled back by the
            # caller, so it must leave no trace — otherwise one refusal
            # would poison the registry and fail the sanctioned order
            # on its next use.
            if inverted is None and held.name != lock.name \
                    and edge not in _EDGES:
                _EDGES[edge] = _describe_site(held.name, lock.name, thread)
        if held.name == lock.name:
            raise LockOrderInversion(
                f"lock {lock.name!r} acquired while a lock of the same "
                f"name is already held on thread {thread!r} — same-rank "
                "nesting deadlocks the moment two threads interleave")
        if inverted is not None:
            raise LockOrderInversion(
                f"lock-order inversion: thread {thread!r} acquired "
                f"{lock.name!r} while holding {held.name!r}, but the "
                f"reverse order was recorded earlier ({inverted})")
    stack.append(lock)


def _note_released(lock: "TracedLock") -> None:
    stack = getattr(_HELD, "stack", None)
    if not stack:
        return
    for index in range(len(stack) - 1, -1, -1):
        if stack[index] is lock:
            del stack[index]
            return


class TracedLock:
    """A named mutex with optional acquisition-order tracing.

    Drop-in for ``threading.Lock()`` in ``with`` statements and
    ``acquire``/``release`` call sites, plus:

    * :meth:`held_by_current_thread` — owner tracking, always on (one
      integer store per acquire), used by :func:`requires_lock`;
    * nesting-edge recording and inversion detection when
      :func:`arm_lock_tracing` has been called;
    * picklability: a pickled lock reconstructs as a fresh, unheld lock
      of the same name (locks guard per-process state; a checkpoint
      that happened to reach one must not drag OS handles along).
    """

    __slots__ = ("name", "_lock", "_owner")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._owner: int | None = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            if _ARMED:
                try:
                    _note_acquired(self)
                except LockOrderInversion:
                    self._owner = None
                    self._lock.release()
                    raise
        return acquired

    def release(self) -> None:
        if _ARMED:
            _note_released(self)
        self._owner = None
        self._lock.release()

    def __enter__(self) -> "TracedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def __reduce__(self):
        return (TracedLock, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self._lock.locked() else "free"
        return f"<TracedLock {self.name!r} {state}>"


def guarded_by(lock_attr: str, *fields: str):
    """Class decorator declaring which fields ``lock_attr`` guards.

    Purely declarative at runtime (the mapping is stored on
    ``__repro_guarded__`` for introspection); enforcement is the static
    analyzer's rule ``LOCK001`` plus :func:`requires_lock` at runtime.
    Subclasses inherit and may extend their bases' declarations.
    """
    if not fields:
        raise ValueError("guarded_by() needs at least one guarded field")

    def decorate(cls: type) -> type:
        guarded: dict[str, str] = {}
        for base in reversed(cls.__mro__[1:]):
            guarded.update(getattr(base, "__repro_guarded__", {}))
        for field in fields:
            guarded[field] = lock_attr
        cls.__repro_guarded__ = guarded
        return cls

    return decorate


def requires_lock(lock_attr: str):
    """Mark a method as callable only with ``self.<lock_attr>`` held.

    The static analyzer treats the body as a locked region; at runtime,
    when tracing is armed and the lock is a :class:`TracedLock`, calling
    the method without holding the lock raises
    :class:`LockDisciplineError` — so the chaos batteries verify the
    annotation, not just trust it.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if _ARMED:
                lock = getattr(self, lock_attr, None)
                if (isinstance(lock, TracedLock)
                        and not lock.held_by_current_thread()):
                    raise LockDisciplineError(
                        f"{type(self).__name__}.{fn.__name__}() requires "
                        f"{lock_attr} to be held by the calling thread")
            return fn(self, *args, **kwargs)

        wrapper.__repro_requires_lock__ = lock_attr
        return wrapper

    return decorate


if os.environ.get("REPRO_TRACE_LOCKS"):  # pragma: no cover - env hook
    arm_lock_tracing()
