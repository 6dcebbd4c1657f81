from __future__ import annotations

from typing import TYPE_CHECKING

from ..rng import SubstreamRng

if TYPE_CHECKING:
    from ..protocol import FeedbackLedger


class MatchmakerPolicy:
    """Interface every policy implements.

    The engine drives: ``select_for_boy`` / ``select_for_girl`` answer steps
    (2_B)/(2_G); ``observe_*`` delivers the sign revealed at steps
    (3_B)/(3_G).  Selections must be in-range counterparts.  Policies keep
    all state private to one run and must be reconstructable per run.

    ``start`` hands over the run's ``FeedbackLedger``, the engine's record
    of every sign revealed so far.  The engine records each sign there
    before it calls ``observe_*``, so a policy reads what it has learnt from
    the ledger instead of keeping its own copy, and never writes to it.
    """

    name = "base"

    def start(self, n: int, T: int, rng: SubstreamRng, ledger: FeedbackLedger) -> None:
        self.n = n
        self.T = T
        self.rng = rng
        self.ledger = ledger

    def select_for_boy(self, b: int, t: int) -> int:
        raise NotImplementedError

    def select_for_girl(self, g: int, t: int) -> int:
        raise NotImplementedError

    def observe_boy_feedback(self, b: int, g: int, sign: int, t: int) -> None:
        pass

    def observe_girl_feedback(self, g: int, b: int, sign: int, t: int) -> None:
        pass

    def diagnostics(self) -> dict:
        """Per-run counters a report may want (empty for stateless policies)."""
        return {}


def lowest_unqueried(observed_mask: int, full: int) -> int:
    """Deterministic 'arbitrary' selection: lowest index not yet queried, else 0.

    ``full`` is the policy's precomputed all-ones row, ``(1 << n) - 1``.
    """
    free = ~observed_mask & full
    if free:
        return (free & -free).bit_length() - 1
    return 0
