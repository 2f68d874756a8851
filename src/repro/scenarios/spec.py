"""Declarative fault-scenario specifications and their columnar compilation.

A :class:`ScenarioSpec` names a *stack* of adversaries acting on one run:

- :class:`LinkDelay` — i.i.d. per-message delays uniform on
  ``[1, max_delay]``, absorbed by the footnote-2 synchroniser barrier
  (handled by :mod:`repro.net.asynchrony` / :mod:`repro.scenarios.soa_sync`,
  not by the fault hook);
- :class:`MessageDrop` — oblivious Bernoulli link loss: each remote
  message is destroyed independently with probability ``p``;
- :class:`CrashWave` — a fraction of nodes crashes at a given round and is
  *isolated* by the network (all traffic to and from them is dropped)
  until an optional rejoin round — the oblivious message-adversary model
  of churn, which keeps the fault purely inside the delivery tail;
- :class:`Partition` — for rounds ``[start, stop)`` the population is
  split into blocks and cross-block messages are dropped.

``spec.compile(n)`` produces a :class:`FaultInjector`: per-node columns
(crash intervals, block ids) plus per-round Bernoulli streams, exposed as
the ``fault_hook`` callable that :class:`repro.net.network.SyncNetwork`
invokes on the round's remote traffic in canonical order.

**RNG-stream discipline.**  Fault randomness never touches the delivery
generator.  Compile-time draws (who crashes, block membership) and
round-time draws (drop coin flips) come from ``default_rng`` streams
keyed on ``(fault_seed, adversary-tag, index)`` — fully determined by the
spec, independent of tier, engine, and protocol.  Because every tier
presents the identical canonical message columns at the hook point, the
same spec + seed yields bit-for-bit identical faulted executions on the
object and SoA tiers (``tests/scenarios/test_runner.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkDelay",
    "MessageDrop",
    "CrashWave",
    "Partition",
    "ScenarioSpec",
    "FaultInjector",
]

# Stream tags separating the adversaries' RNG families (arbitrary
# distinct constants folded into the seed sequence).
_CRASH_TAG = 101
_PARTITION_TAG = 211
_DROP_TAG = 307

#: Sentinel "never rejoins" end round for crash intervals.
_NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class LinkDelay:
    """I.i.d. uniform message delays on ``[1, max_delay]`` time units."""

    max_delay: int = 1

    def __post_init__(self) -> None:
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")


@dataclass(frozen=True)
class MessageDrop:
    """Oblivious Bernoulli link loss with per-message probability ``p``."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")


@dataclass(frozen=True)
class CrashWave:
    """A fraction of nodes crashes at ``round_no`` (network isolation:
    all their traffic is dropped both directions), optionally rejoining —
    connectivity restored, state intact — at ``rejoin_round``.

    **Boundary semantics** (pinned by ``tests/scenarios/test_spec.py``):
    a message is subject to the fault state of the round it was *sent*
    in, and the crash interval is half-open — ``[round_no,
    rejoin_round)``.  A node rejoining in round ``r`` therefore does
    **not** receive messages sent in round ``r − 1`` (it was still
    isolated when they were sent); the first traffic it can exchange is
    sent in round ``r`` and arrives at the start of round ``r + 1``.
    Symmetrically, messages sent *to or by* the node in round
    ``round_no`` are already dropped.
    """

    round_no: int
    fraction: float
    rejoin_round: int | None = None

    def __post_init__(self) -> None:
        if self.round_no < 0:
            raise ValueError("crash round must be >= 0")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("crash fraction must be in [0, 1]")
        if self.rejoin_round is not None and self.rejoin_round <= self.round_no:
            raise ValueError("rejoin_round must be after the crash round")


@dataclass(frozen=True)
class Partition:
    """Temporary partition: during rounds ``[start, stop)`` the nodes are
    split into ``blocks`` uniform random blocks and cross-block messages
    are dropped.

    Same half-open, send-round boundary as :class:`CrashWave`:
    cross-block messages *sent* in rounds ``start … stop − 1`` are
    dropped; a message sent in round ``stop`` (the heal round) crosses
    freely and arrives in round ``stop + 1``.
    """

    start: int
    stop: int
    blocks: int = 2

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError("need 0 <= start < stop")
        if self.blocks < 2:
            raise ValueError("a partition needs at least 2 blocks")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, seeded stack of adversaries for one run.

    ``fault_seed`` roots every fault draw; two runs of the same spec see
    the identical adversary regardless of protocol, tier, or engine.
    """

    name: str
    delay: LinkDelay | None = None
    drop: MessageDrop | None = None
    crashes: tuple[CrashWave, ...] = ()
    partition: Partition | None = None
    fault_seed: int = 0

    @property
    def max_delay(self) -> int:
        """The synchroniser barrier width (1 = effectively synchronous)."""
        return self.delay.max_delay if self.delay is not None else 1

    def has_faults(self) -> bool:
        """Whether compiling yields a fault hook at all (delay alone is
        handled by the synchroniser, not the hook)."""
        return bool(
            (self.drop is not None and self.drop.probability > 0.0)
            or self.crashes
            or self.partition is not None
        )

    def compile(self, n: int) -> "FaultInjector | None":
        """Compile the drop/crash/partition stack into columnar event
        streams over ``n`` contiguous node ids; ``None`` when the spec
        carries no hook-level faults."""
        if not self.has_faults():
            return None
        return FaultInjector(self, n)

    def describe(self) -> dict:
        """JSON-able summary of the adversary stack (runner row metadata)."""
        return {
            "name": self.name,
            "max_delay": self.max_delay,
            "drop_p": self.drop.probability if self.drop else 0.0,
            "crashes": [
                {
                    "round": w.round_no,
                    "fraction": w.fraction,
                    "rejoin_round": w.rejoin_round,
                }
                for w in self.crashes
            ],
            "partition": (
                {
                    "start": self.partition.start,
                    "stop": self.partition.stop,
                    "blocks": self.partition.blocks,
                }
                if self.partition
                else None
            ),
            "fault_seed": self.fault_seed,
        }


class FaultInjector:
    """Compiled columnar adversary: the network's ``fault_hook``.

    Holds per-node event columns — crash intervals as ``(starts, stops)``
    pairs per wave with the wave's membership mask, partition block ids —
    and derives each round's keep-mask with pure array operations over
    the canonical ``(senders, receivers)`` columns.  Stateless across
    calls (every mask is a function of ``round_no`` and the spec alone),
    so the injector may be shared between runs and tiers.
    """

    def __init__(self, spec: ScenarioSpec, n: int) -> None:
        if n <= 0:
            raise ValueError("a fault injector needs at least one node")
        self.spec = spec
        self.n = n
        seed = spec.fault_seed
        # Crash waves: membership drawn per wave from its own stream (the
        # shared node-failure draw of repro.graphs.churn.fail_mask).
        from repro.graphs.churn import fail_mask

        self._waves: list[tuple[int, int, np.ndarray]] = []
        for i, wave in enumerate(spec.crashes):
            wave_rng = np.random.default_rng([seed, _CRASH_TAG, i])
            alive = fail_mask(n, wave.fraction, wave_rng)
            stop = wave.rejoin_round if wave.rejoin_round is not None else _NEVER
            self._waves.append((wave.round_no, stop, ~alive))
        self._partition = spec.partition
        if spec.partition is not None:
            block_rng = np.random.default_rng([seed, _PARTITION_TAG])
            self._blocks = block_rng.integers(
                0, spec.partition.blocks, size=n, dtype=np.int64
            )
        else:
            self._blocks = None
        self._drop_p = spec.drop.probability if spec.drop is not None else 0.0
        # Per-round down-mask cache (crash waves change it only at wave
        # boundaries, and every tier asks for the same round in order).
        self._down_round = -1
        self._down: np.ndarray | None = None

    # ------------------------------------------------------------------
    def down_mask(self, round_no: int) -> np.ndarray | None:
        """Boolean per-node "crashed during this round" column (or None)."""
        if not self._waves:
            return None
        if round_no != self._down_round:
            down = None
            for start, stop, members in self._waves:
                if start <= round_no < stop:
                    down = members if down is None else (down | members)
            self._down_round = round_no
            self._down = down
        return self._down

    def __call__(
        self, round_no: int, senders: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray | None:
        """Keep-mask over the round's remote messages (canonical order);
        ``None`` when no adversary is active this round."""
        keep: np.ndarray | None = None
        down = self.down_mask(round_no)
        if down is not None:
            keep = ~(down[senders] | down[receivers])
        part = self._partition
        if part is not None and part.start <= round_no < part.stop:
            same_block = self._blocks[senders] == self._blocks[receivers]
            keep = same_block if keep is None else keep & same_block
        if self._drop_p > 0.0:
            coin_rng = np.random.default_rng(
                [self.spec.fault_seed, _DROP_TAG, round_no]
            )
            survive = coin_rng.random(senders.shape[0]) >= self._drop_p
            keep = survive if keep is None else keep & survive
        return keep
