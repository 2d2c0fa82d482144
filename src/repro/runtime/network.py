"""Wireless link model between the mobile web browser and the edge server.

Table II/III's setting: "4G with a downlink of 10 Mb/s and an uplink of
3 Mb/s".  The model is bandwidth + RTT with multiplicative log-normal
jitter ("in a real environment, the network bandwidth is instability",
§IV-D.1) — enough to reproduce the latency fluctuations of Figure 6.

Beyond timing, the link also models *delivery*: :meth:`NetworkLink.exchange`
carries one request/response frame pair, and :class:`FaultyLink` wraps any
link with seeded fault injection (drops, timeouts, corruption, duplication)
so the miss path's failure handling can be exercised deterministically.
:class:`RetryPolicy` is the client-side answer — bounded retransmission
with exponential backoff before the session falls back to the binary
branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np


def _generator(link) -> np.random.Generator:
    """A link's random generator, built from its ``seed`` on first use.

    A link draws only when it jitters or carries a frame through fault
    injection.  Every session wraps its link afresh, and a session whose
    frames all exit in the browser never draws, so an eager generator
    (about 17 µs) would be paid for nothing.  The draws see the same
    stream as a generator built at construction.
    """
    rng = link._rng
    if rng is None:
        rng = link._rng = np.random.default_rng(link.seed)
    return rng


class LinkFault(ConnectionError):
    """A frame exchange failed at the transport level."""

    kind = "fault"


class FrameDropped(LinkFault):
    """The request frame never reached the server."""

    kind = "drop"


class FrameTimeout(LinkFault):
    """The request arrived but no reply came back within the window."""

    kind = "timeout"


@dataclass
class NetworkLink:
    """Point-to-point link with asymmetric bandwidth and jitter.

    ``jitter_sigma`` is the standard deviation of the log-normal
    multiplier applied to each transfer's duration (0 disables jitter,
    making the link deterministic for unit tests).
    """

    name: str
    downlink_bps: float
    uplink_bps: float
    rtt_ms: float
    jitter_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.downlink_bps <= 0 or self.uplink_bps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.rtt_ms < 0:
            raise ValueError("rtt_ms must be non-negative")
        #: Built from ``seed`` on the first jitter draw (see :func:`_generator`).
        self._rng: Optional[np.random.Generator] = None
        #: Faults injected during the most recent :meth:`exchange` call.
        self.last_faults: tuple[str, ...] = ()

    def exchange(self, frame: bytes, handler: Callable[[bytes], bytes]) -> bytes:
        """Deliver one request frame to ``handler`` and return its reply.

        The base link is fault-free; :class:`FaultyLink` overrides this
        with injected delivery failures.
        """
        self.last_faults = ()
        return handler(frame)

    def _jitter(self) -> float:
        if self.jitter_sigma <= 0:
            return 1.0
        return float(_generator(self).lognormal(mean=0.0, sigma=self.jitter_sigma))

    def download_ms(self, num_bytes: float) -> float:
        """Edge/cloud → browser transfer time, including half an RTT."""
        return (num_bytes * 8 / self.downlink_bps * 1e3 + self.rtt_ms / 2) * self._jitter()

    def upload_ms(self, num_bytes: float) -> float:
        """Browser → edge/cloud transfer time, including half an RTT."""
        return (num_bytes * 8 / self.uplink_bps * 1e3 + self.rtt_ms / 2) * self._jitter()

    def round_trip_ms(self) -> float:
        """A bare control-message round trip."""
        return self.rtt_ms * self._jitter()

    def deterministic(self) -> "NetworkLink":
        """A jitter-free copy (expectation analysis, tests)."""
        return replace(self, jitter_sigma=0.0)

    def reseeded(self, seed: int) -> "NetworkLink":
        return replace(self, seed=seed)


def four_g(seed: int = 0, jitter_sigma: float = 0.15) -> NetworkLink:
    """The paper's evaluation link: 10 Mb/s down, 3 Mb/s up."""
    return NetworkLink(
        name="4g", downlink_bps=10e6, uplink_bps=3e6, rtt_ms=50.0,
        jitter_sigma=jitter_sigma, seed=seed,
    )


def wifi(seed: int = 0, jitter_sigma: float = 0.08) -> NetworkLink:
    return NetworkLink(
        name="wifi", downlink_bps=50e6, uplink_bps=20e6, rtt_ms=10.0,
        jitter_sigma=jitter_sigma, seed=seed,
    )


def three_g(seed: int = 0, jitter_sigma: float = 0.25) -> NetworkLink:
    return NetworkLink(
        name="3g", downlink_bps=2e6, uplink_bps=1e6, rtt_ms=120.0,
        jitter_sigma=jitter_sigma, seed=seed,
    )


LINK_PRESETS = {"4g": four_g, "wifi": wifi, "3g": three_g}


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
@dataclass
class FaultyLink:
    """Fault-injection wrapper around a :class:`NetworkLink`.

    Timing queries delegate to the wrapped link unchanged; only frame
    *delivery* is degraded.  Per exchange, one seeded draw selects a
    mutually exclusive failure — drop (request lost, server never sees
    it), timeout (server processes, reply lost), or corruption (frame
    arrives mangled, the server answers with a structured 400) — and an
    independent draw may duplicate a delivered frame (at-least-once
    delivery: the server processes it twice).

    ``script`` overrides the random draws with a fixed schedule of
    ``"ok" | "drop" | "timeout" | "corrupt" | "duplicate"`` outcomes
    (exhausted entries behave as ``"ok"``), for deterministic tests.
    """

    inner: NetworkLink
    drop_prob: float = 0.0
    timeout_prob: float = 0.0
    corrupt_prob: float = 0.0
    duplicate_prob: float = 0.0
    seed: int = 0
    script: Optional[Sequence[str]] = None

    _FAULT_KINDS = ("ok", "drop", "timeout", "corrupt", "duplicate")

    def __post_init__(self) -> None:
        for name in ("drop_prob", "timeout_prob", "corrupt_prob", "duplicate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.drop_prob + self.timeout_prob + self.corrupt_prob > 1.0:
            raise ValueError("drop+timeout+corrupt probabilities exceed 1")
        if self.script is not None:
            unknown = set(self.script) - set(self._FAULT_KINDS)
            if unknown:
                raise ValueError(f"unknown scripted faults: {sorted(unknown)}")
        #: Built from ``seed`` on the first fault draw (see :func:`_generator`).
        self._rng: Optional[np.random.Generator] = None
        self._script_pos = 0
        self.last_faults: tuple[str, ...] = ()

    # -- timing delegates to the wrapped link -------------------------
    @property
    def name(self) -> str:
        return self.inner.name

    def download_ms(self, num_bytes: float) -> float:
        return self.inner.download_ms(num_bytes)

    def upload_ms(self, num_bytes: float) -> float:
        return self.inner.upload_ms(num_bytes)

    def round_trip_ms(self) -> float:
        return self.inner.round_trip_ms()

    def deterministic(self) -> "FaultyLink":
        return replace(self, inner=self.inner.deterministic())

    def reseeded(self, seed: int) -> "FaultyLink":
        return replace(self, inner=self.inner.reseeded(seed), seed=seed)

    # -- delivery ------------------------------------------------------
    def _next_fault(self) -> str:
        if self.script is not None:
            if self._script_pos < len(self.script):
                kind = self.script[self._script_pos]
                self._script_pos += 1
                return kind
            return "ok"
        rng = _generator(self)
        u = float(rng.random())
        if u < self.drop_prob:
            return "drop"
        u -= self.drop_prob
        if u < self.timeout_prob:
            return "timeout"
        u -= self.timeout_prob
        if u < self.corrupt_prob:
            return "corrupt"
        if self.duplicate_prob > 0 and float(rng.random()) < self.duplicate_prob:
            return "duplicate"
        return "ok"

    def _corrupt(self, frame: bytes) -> bytes:
        # Mangle the frame header so the damage is always detectable at
        # decode time (the protocol carries no payload checksum; header
        # corruption is the crisp, deterministic failure model).
        mangled = bytearray(frame)
        rng = _generator(self)
        idx = int(rng.integers(0, min(4, len(mangled)) or 1))
        mangled[idx] ^= int(rng.integers(1, 256))
        return bytes(mangled)

    def exchange(self, frame: bytes, handler: Callable[[bytes], bytes]) -> bytes:
        kind = self._next_fault()
        if kind == "drop":
            self.last_faults = ("drop",)
            raise FrameDropped(f"request frame dropped on {self.name}")
        if kind == "timeout":
            handler(frame)  # the server did the work; the reply is lost
            self.last_faults = ("timeout",)
            raise FrameTimeout(f"reply timed out on {self.name}")
        faults: list[str] = []
        if kind == "corrupt":
            faults.append("corrupt")
            frame = self._corrupt(frame)
        if kind == "duplicate":
            faults.append("duplicate")
            handler(frame)  # at-least-once delivery: served twice
        reply = handler(frame)
        self.last_faults = tuple(faults)
        return reply


#: Named fault-injection profiles (kwargs for :class:`FaultyLink`).
FAULT_PROFILES: dict[str, dict[str, float]] = {
    "none": {},
    "smoke": {
        "drop_prob": 0.05,
        "timeout_prob": 0.03,
        "corrupt_prob": 0.02,
        "duplicate_prob": 0.02,
    },
    "harsh": {
        "drop_prob": 0.25,
        "timeout_prob": 0.15,
        "corrupt_prob": 0.05,
        "duplicate_prob": 0.05,
    },
    "partition": {"drop_prob": 1.0},
}


def faulty(
    link: NetworkLink, profile: str = "smoke", seed: int = 0, **overrides: float
) -> FaultyLink:
    """Wrap ``link`` with a named fault profile (plus per-knob overrides)."""
    if profile not in FAULT_PROFILES:
        raise ValueError(
            f"unknown fault profile {profile!r}; choose from {sorted(FAULT_PROFILES)}"
        )
    params: dict[str, float] = dict(FAULT_PROFILES[profile])
    params.update(overrides)
    return FaultyLink(inner=link, seed=seed, **params)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retransmission policy for miss-path exchanges.

    A failed attempt (drop or timeout) costs ``per_attempt_timeout_ms``
    of waiting; each retry is preceded by exponential backoff with
    multiplicative jitter, capped at ``backoff_max_ms``.  ``deadline_ms``
    bounds the total time spent failing on one sample — once exceeded,
    the session stops retrying and falls back to the binary branch.
    """

    max_attempts: int = 3
    per_attempt_timeout_ms: float = 1000.0
    backoff_base_ms: float = 50.0
    backoff_multiplier: float = 2.0
    backoff_max_ms: float = 2000.0
    jitter: float = 0.1
    deadline_ms: float = math.inf

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.per_attempt_timeout_ms <= 0:
            raise ValueError("per_attempt_timeout_ms must be positive")
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")

    def backoff_ms(self, failed_attempt: int, rng: np.random.Generator) -> float:
        """Backoff to wait after the ``failed_attempt``-th failure (1-based)."""
        raw = min(
            self.backoff_base_ms * self.backoff_multiplier ** (failed_attempt - 1),
            self.backoff_max_ms,
        )
        if self.jitter > 0 and raw > 0:
            raw *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return raw


#: The deployment default: three attempts, 1 s window each, 50 ms backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()
