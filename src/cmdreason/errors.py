"""Exception hierarchy shared across the package.

Three top-level families map directly onto CLI exit codes: UsageError -> 1,
DataError -> 2, BackendError -> 3.  Everything raised by this package derives
from CmdReasonError so callers can catch one base type.
"""
from __future__ import annotations


class CmdReasonError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CmdReasonError):
    """The caller invoked an operation with invalid arguments."""


class DataError(CmdReasonError):
    """An input file (dataset, template, rules, records) is missing or malformed."""


class BackendError(CmdReasonError):
    """A chat-completion backend failed in a way the harness cannot recover from."""

    retry_after: float | None = None  # seconds the endpoint asked to wait before a retry
