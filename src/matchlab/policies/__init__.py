"""Matchmaking policies, addressable by name.

A policy is described only through its two selection steps plus the feedback
channel.  It never sees the hidden sign function: the engine records each
revealed sign in the run's ``FeedbackLedger`` and then calls ``observe_*``
with it, and that is the only way information flows in.  Policies read the
ledger; they never write it.
"""

from __future__ import annotations

from ..errors import InputError
from .base import MatchmakerPolicy
from .ismile import IsmilePolicy
from .random_baselines import OommPolicy, UrommPolicy
from .smile import SmilePolicy, build_matching_index, choose_S

POLICIES = {
    "uromm": UrommPolicy,
    "oomm": OommPolicy,
    "smile": SmilePolicy,
    "ismile": IsmilePolicy,
}


def make_policy(name: str, **params) -> MatchmakerPolicy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise InputError(
            f"unknown policy {name!r}; available: {', '.join(sorted(POLICIES))}"
        ) from None
    try:
        return cls(**params)
    except TypeError as e:
        raise InputError(f"bad parameters for policy {name!r}: {e}") from None


__all__ = [
    "MatchmakerPolicy",
    "UrommPolicy",
    "OommPolicy",
    "SmilePolicy",
    "build_matching_index",
    "choose_S",
    "IsmilePolicy",
    "POLICIES",
    "make_policy",
]
