"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, StoreCorruptError -> 3,
ProviderError -> 4. Contract violations inside the library (dimension
mismatches, duplicate ids, bad config values) raise plain ValueError.
"""


class KgragError(Exception):
    """Base class for package errors."""


class InputError(KgragError):
    """Unusable user input: missing corpus, malformed record, bad flag combo."""


class StoreCorruptError(KgragError):
    """A persisted store failed validation (magic, version, truncation, manifest)."""


class ProviderError(KgragError):
    """A remote provider call failed: a non-retryable status, or retries exhausted."""
