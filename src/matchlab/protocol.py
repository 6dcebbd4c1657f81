"""The round engine: arrivals, policy selections, sign revelation, accounting.

One round has two halves.  A uniformly random boy logs in, the policy picks a
girl for him, and the sign of that boy-to-girl edge is revealed; then the
mirrored girl half runs.  A match is credited at the round where the second
positive direction of a pair first enters the observed set.

Policies see only arrivals, their own selections and the revealed signs; the
engine is the sole reader of the hidden sign function (exactly two sign
lookups per round, which the test harness exploits to assert hygiene).

The engine is also the sole writer of the ``FeedbackLedger``, the one record
of revealed signs.  It hands the ledger to the policy at ``start`` and
records each sign in it before calling ``observe_*``; policies read the
ledger and never write it.

Per round the engine keeps no running totals: it appends the round of each
new match to ``FeedbackLedger.events``, and the match curve and the AUC sum
are derived from those rounds once the run ends.

A run's ``RoundTrace``, its six per-round columns, is defined in ``rundir``
with the trace file it is saved to, so reading a trace loads no engine.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import PreferenceMatrices
from .errors import InputError, ProtocolError
from .policies.base import MatchmakerPolicy
from .rng import STREAM_POLICY, SubstreamRng, draw_arrivals
from .rundir import RoundTrace


@dataclass
class FeedbackLedger:
    """What has been revealed so far, and the match events.

    Observed directed edges are kept as per-user bitsets.  ``events`` holds,
    in order, the round of each match: the half-round where a pair's second
    direction is revealed with both signs positive appends its round, so a
    round with two new matches appears twice.  ``reciprocal_pairs`` counts
    unordered pairs with both directions observed regardless of sign.  Both
    are kept up to date during a run, so a policy can read them between
    half-rounds.  ``curve`` and ``auc_sum`` are set when the run ends.
    """

    n: int
    obs_bg: list[int] = field(default_factory=list)  # bit g of obs_bg[b]
    obs_gb: list[int] = field(default_factory=list)  # bit b of obs_gb[g]
    pos_bg: list[int] = field(default_factory=list)
    pos_gb: list[int] = field(default_factory=list)
    reciprocal_pairs: int = 0
    events: array = field(default_factory=lambda: array("q"))  # int64 rounds
    curve: np.ndarray | None = None
    auc_sum: int = 0

    def __post_init__(self):
        if not self.obs_bg:
            self.obs_bg = [0] * self.n
            self.obs_gb = [0] * self.n
            self.pos_bg = [0] * self.n
            self.pos_gb = [0] * self.n

    @property
    def matches(self) -> int:
        return len(self.events)


def recorded_rounds(T: int, stride: int) -> np.ndarray:
    """The rounds at which a T-round run's match curve is recorded: every
    ``stride``-th round, and round T."""
    ts = np.arange(stride, T + 1, stride, dtype=np.int64)
    if not len(ts) or ts[-1] != T:
        ts = np.append(ts, np.int64(T))
    return ts


@dataclass(frozen=True)
class RunResult:
    trace: RoundTrace
    ledger: FeedbackLedger

    @property
    def T(self) -> int:
        return len(self.trace)


def run_protocol(
    prefs: PreferenceMatrices,
    policy,
    T: int,
    seed: int,
    curve_stride: int = 1,
) -> RunResult:
    """Run one seeded T-round protocol episode under the given policy.

    Deterministic function of (instance, policy + params, T, seed): arrivals
    come from the arrivals substream, the policy gets its own substream and
    the run's ledger (a policy that does not derive from ``MatchmakerPolicy``
    reads no ledger and is started as ``start(n, T, rng)``).
    ``curve_stride`` > 1 decimates the stored match curve for very long
    runs (see ``recorded_rounds``); the AUC sum stays exact either way,
    because both are derived from the match events after the last round:
    the curve counts the events up to each recorded round, and the AUC sum,
    the match count summed over rounds 1..T, is the sum over events of
    T + 1 - t.

    A ``MatchmakerPolicy`` whose ``observe_*`` method is the base class's
    no-op is not called for it; a duck-typed policy always is.

    Selections and signs are written into typed ``array`` buffers of T
    entries, allocated once, and the trace wraps them with ``np.frombuffer``,
    so a round costs its 18 bytes once: no list of Python ints, no second
    copy and no copy on growth is made.
    """
    n = prefs.n
    if T < 1:
        raise InputError(f"T must be >= 1, got {T}")
    if curve_stride < 1:
        raise InputError("curve_stride must be >= 1")

    boy_arr, girl_arr = draw_arrivals(n, T, seed)
    ledger = FeedbackLedger(n)
    rng = SubstreamRng(seed, STREAM_POLICY)
    if isinstance(policy, MatchmakerPolicy):
        policy.start(n, T, rng, ledger)
    else:
        policy.start(n, T, rng)
    obs_bg = ledger.obs_bg
    obs_gb = ledger.obs_gb
    pos_bg = ledger.pos_bg
    pos_gb = ledger.pos_gb
    events = ledger.events

    sel_b = policy.select_for_boy
    sel_g = policy.select_for_girl
    obs_b = _observer(policy, "observe_boy_feedback", MatchmakerPolicy)
    obs_g = _observer(policy, "observe_girl_feedback", MatchmakerPolicy)
    sign_bg = prefs.sign_bg
    sign_gb = prefs.sign_gb

    girls_sel = array("i", [0]) * T
    boys_sel = array("i", [0]) * T
    s_bg = array("b", [0]) * T
    s_gb = array("b", [0]) * T

    for i, b, g in zip(range(T), boy_arr, girl_arr):
        t = i + 1
        # -- boy half: (1_B) arrival, (2_B) selection, (3_B) reveal
        g1 = sel_b(b, t)
        if not 0 <= g1 < n:
            raise ProtocolError(
                f"{policy.name}: girl selection {g1} out of range at round {t}"
            )
        s1 = sign_bg(b, g1)
        bit = 1 << g1
        if not obs_bg[b] & bit:
            obs_bg[b] |= bit
            if s1 > 0:
                pos_bg[b] |= bit
            if (obs_gb[g1] >> b) & 1:
                ledger.reciprocal_pairs += 1
                if s1 > 0 and (pos_gb[g1] >> b) & 1:
                    events.append(t)
        if obs_b is not None:
            obs_b(b, g1, s1, t)

        # -- girl half: (1_G), (2_G), (3_G)
        b1 = sel_g(g, t)
        if not 0 <= b1 < n:
            raise ProtocolError(
                f"{policy.name}: boy selection {b1} out of range at round {t}"
            )
        s2 = sign_gb(g, b1)
        bit = 1 << b1
        if not obs_gb[g] & bit:
            obs_gb[g] |= bit
            if s2 > 0:
                pos_gb[g] |= bit
            if (obs_bg[b1] >> g) & 1:
                ledger.reciprocal_pairs += 1
                if s2 > 0 and (pos_bg[b1] >> g) & 1:
                    events.append(t)
        if obs_g is not None:
            obs_g(g, b1, s2, t)

        girls_sel[i] = g1
        boys_sel[i] = b1
        s_bg[i] = s1
        s_gb[i] = s2

    rounds = np.frombuffer(events, dtype=np.int64)
    ledger.curve = np.searchsorted(rounds, recorded_rounds(T, curve_stride), side="right")
    ledger.auc_sum = len(rounds) * (T + 1) - int(rounds.sum())

    trace = RoundTrace(
        np.frombuffer(boy_arr, dtype=np.int32),
        np.frombuffer(girls_sel, dtype=np.int32),
        np.frombuffer(s_bg, dtype=np.int8),
        np.frombuffer(girl_arr, dtype=np.int32),
        np.frombuffer(boys_sel, dtype=np.int32),
        np.frombuffer(s_gb, dtype=np.int8),
    )
    return RunResult(trace, ledger)


def _observer(policy, name, base):
    """The policy's bound ``name`` method, or None where it is ``base``'s no-op."""
    method = getattr(policy, name)
    return None if getattr(method, "__func__", None) is getattr(base, name) else method
