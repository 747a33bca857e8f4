"""Shared error taxonomy.

Every exception carries a machine-readable witness so failures can be
reported and replayed instead of just raised.
"""
from __future__ import annotations


class LocaleLabError(Exception):
    """Base class for all structured errors raised by this package."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPoset(LocaleLabError):
    """Order relation violates reflexivity/antisymmetry; witness is the cycle."""


class NoMeetOrJoin(LocaleLabError):
    """Some pair has no greatest lower / least upper bound; witness is the pair."""


class NotDistributive(LocaleLabError):
    """Distributive law fails; witness is the offending triple."""


class NotASpace(LocaleLabError):
    """Open-set family is not closed under the required operations."""


class NotMeetClosed(LocaleLabError):
    """Subset is not closed under binary meets (or misses the top)."""


class NotLocalic(LocaleLabError):
    """Not localic: a bad point map, or a table off the meet extension of its points."""


class NotContinuous(LocaleLabError):
    """Point map pulls some open back to a non-open set."""


class DomainMismatch(LocaleLabError):
    """Composition applied to maps whose middle objects differ."""


class HostMismatch(LocaleLabError):
    """Operation mixes sublocales/operators living on different hosts."""


class EmptyFamily(LocaleLabError):
    """Lattice operation applied to an empty family of operators."""


class BadInput(LocaleLabError):
    """An input file's JSON has the wrong shape, such as a list where an object belongs."""


class BadConfig(LocaleLabError):
    """A setting, such as LOCALELAB_SIZE_LIMIT, has a value that cannot be used."""


class SizeLimit(LocaleLabError):
    """Instance exceeds the configured enumeration bound."""


class UnknownWitness(LocaleLabError):
    """Replay id not present in the given report."""
