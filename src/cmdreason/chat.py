"""Chat message primitives shared by prompt construction and backends."""
from __future__ import annotations

from dataclasses import dataclass

ROLES = ("system", "user", "assistant")


@dataclass(frozen=True, slots=True)
class ChatMessage:
    role: str  # one of ROLES
    content: str  # non-empty

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


Transcript = tuple[ChatMessage, ...]


def system(content: str) -> ChatMessage:
    return ChatMessage("system", content)


def user(content: str) -> ChatMessage:
    return ChatMessage("user", content)


def assistant(content: str) -> ChatMessage:
    return ChatMessage("assistant", content)

