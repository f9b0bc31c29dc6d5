"""Open-loop send schedule.

An open-loop producer sends operation i at start + i / rate whether or
not earlier operations have finished, so a stall delays every later
operation. Latency is therefore timed from the *due* time, and how late
the producer actually sent (its lag) is reported beside it.
"""
import time


class OpenLoop:
    """Due times for `rate` operations per second over `seconds`."""

    def __init__(self, rate, seconds, start=None, clock=time.monotonic):
        if rate <= 0 or seconds <= 0:
            raise ValueError("rate and seconds must be positive")
        self.rate = float(rate)
        self.count = int(rate * seconds)
        self.clock = clock
        self.start = clock() if start is None else start

    def due(self, i):
        return self.start + i / self.rate

    def wait_until_due(self, i, sleep=time.sleep):
        """Sleeps until operation i is due; returns (due, lag) where lag
        is how late the caller is (>= 0) when it returns."""
        due = self.due(i)
        now = self.clock()
        if now < due:
            sleep(due - now)
            now = self.clock()
        return due, max(0.0, now - due)


def latency_from_due(due, done):
    """Open-loop latency: completion time minus due time."""
    return done - due
