import random
import signal
import time
from contextlib import contextmanager

import pytest

from shufflecodec.ans import HEAD_MIN, Message, pad_word


def random_message(seed: int, tail_words: int = 0) -> Message:
    """A message with pseudo-random head content (and optional stack words).

    Useful for sampling tests and for simulating a message that already holds
    compressed data. The pad source stays enabled so decodes never underflow.
    """
    rng = random.Random(seed)
    head = HEAD_MIN | rng.getrandbits(48)
    tail = [rng.getrandbits(16) for _ in range(tail_words)]
    return Message(head, tail, pad_seed=seed)


@contextmanager
def within(seconds: float):
    """Raise TimeoutError inside the block once `seconds` of wall-clock time
    have passed: a real-time timer interrupts a hang, as `timeout` would,
    rather than timing it afterwards. Blocks nest; an inner block ends no
    later than the outer one."""

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    started = time.monotonic()
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    signal.setitimer(signal.ITIMER_REAL, min(seconds, outer) if outer else seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            left = outer - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


@pytest.fixture
def rng():
    return random.Random(0xA5A5)


__all__ = ["random_message", "pad_word", "within"]
