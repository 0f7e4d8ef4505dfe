"""Retry and deadline policy for supervised chunk execution.

One :class:`RetryPolicy` governs every chunk of a launch: how many times
a failed attempt may be resubmitted, how long the supervisor
backs off between attempts (capped exponential, deterministic -- no
jitter, so a seeded fault plan replays identically), and the wall-clock
deadline after which an in-flight attempt is declared hung and its
worker killed.

``timeout_s`` defaults to ``None`` (no deadline): the failure-free path
must never enter recovery, and a spurious timeout on a loaded CI
machine would make it.  Opt into deadlines
per runtime (``BatchRuntime(retry_policy=RetryPolicy(timeout_s=5.0))``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats a failing or hung chunk.

    Attributes
    ----------
    max_retries:
        Resubmissions allowed per chunk after the first attempt.  When
        exhausted, the chunk runs in-process once more as a last resort;
        a failure there propagates (see
        :class:`~repro.resilience.supervisor.ChunkFailedError`).
    backoff_s:
        Base delay before the first resubmission; attempt ``k`` waits
        ``min(backoff_s * 2**(k-1), backoff_cap_s)``.
    backoff_cap_s:
        Upper bound on the backoff delay.
    timeout_s:
        Per-attempt wall-clock deadline on the pool.  ``None`` disables
        deadlines entirely (the default).  With a deadline, at most one
        chunk per worker is in flight, so the deadline measures the
        attempt, not its time queued.  A timed-out attempt counts as a
        retry.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 1.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before submitting attempt ``attempt`` (0-based).

        Attempt 0 (the first submission) never waits.
        """
        if attempt <= 0 or self.backoff_s == 0:
            return 0.0
        return min(self.backoff_s * (2.0 ** (attempt - 1)), self.backoff_cap_s)


#: The runtime default: a couple of retries, fast backoff, no deadlines.
DEFAULT_RETRY_POLICY = RetryPolicy()
