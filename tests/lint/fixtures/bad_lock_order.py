"""Known-bad fixture for the lock-order rule (never imported)."""

import threading


class Pair:
    """The classic AB/BA deadlock: two locks, two orders."""

    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def ab(self):
        with self._a_lock:
            with self._b_lock:
                pass

    def ba(self):
        with self._b_lock:
            with self._a_lock:
                pass


class Reacquire:
    """Non-reentrant lock re-acquired through a same-class call."""

    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass


class Outsider:
    """Takes a lock it does not own: the order it nests ``_a_lock`` in
    is invisible from ``Pair``, where that order is checked."""

    def __init__(self, pair):
        self.pair = pair

    def poke(self):
        with self.pair._a_lock:
            pass
