"""Chat-completion backends: HTTP client, scripted mock, cache, retry policy.

complete() answers one transcript: lookup() reads the response cache, and on
a miss fetch() drives the retry loop around the transport-specific _send().
The harness calls lookup() and fetch() itself, so that it resolves every hit
before it starts any worker; its pool of max_in_flight workers, not a
semaphore here, bounds the requests in flight.  Each answer is a
CompletionResult: the raw text, replayed byte for byte from the cache, and
the number of requests it took, 0 when it came from the cache.
Retryable failures (RateLimited, Timeout) back off exponentially with full
jitter: attempt i sleeps uniform(0, 1s * 2**i).  AuthError and ProtocolError
abort immediately.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

import requests

from .chat import Transcript, to_wire
from .errors import BackendError

log = logging.getLogger(__name__)

API_KEY_ENV = "CMDREASON_API_KEY"
CACHE_DIR_ENV = "CMDREASON_CACHE_DIR"
DEFAULT_CACHE_DIR = ".cmdreason-cache"
BACKOFF_BASE_SECONDS = 1.0


class AuthError(BackendError):
    """The endpoint rejected our credentials (HTTP 401/403)."""


class RateLimited(BackendError):
    """The endpoint asked us to slow down (HTTP 429)."""


class Timeout(BackendError):
    """The endpoint did not answer in time, or the connection failed."""


class ProtocolError(BackendError):
    """The endpoint answered with something that is not a chat completion."""

    def __init__(self, message: str, status: int | None = None, body_excerpt: str = "") -> None:
        detail = message
        if status is not None:
            detail += f" (HTTP {status})"
        if body_excerpt:
            detail += f": {body_excerpt}"
        super().__init__(detail)
        self.status = status
        self.body_excerpt = body_excerpt


class RetriesExhausted(BackendError):
    """Every allowed attempt failed with a retryable error."""

    def __init__(self, attempts: int, last_error: BackendError) -> None:
        super().__init__(f"gave up after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


class UnscriptedInput(BackendError):
    """A mock backend received a transcript it has no script entry for."""


_RETRYABLE = (RateLimited, Timeout)


@dataclass(frozen=True, slots=True)
class BackendConfig:
    endpoint_url: str  # base URL; /chat/completions is appended
    model_name: str
    temperature: float = 0.0
    max_output_tokens: int = 1024
    timeout_seconds: float = 60.0
    max_retries: int = 3  # retries after the first attempt
    max_in_flight: int = 4  # concurrent requests a run sends
    api_key_env: str = API_KEY_ENV

    def __post_init__(self) -> None:
        # one spelling per endpoint, so the cache key and the posted URL agree
        object.__setattr__(self, "endpoint_url", self.endpoint_url.rstrip("/"))
        if not self.endpoint_url:
            raise ValueError("endpoint_url must be non-empty")
        if not self.model_name:
            raise ValueError("model_name must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True, slots=True)
class CompletionResult:
    raw_text: str
    attempt_count: int  # requests sent for this answer; 0 when it came from the cache

    @property
    def cache_hit(self) -> bool:
        return self.attempt_count == 0


# Canonical JSON for cache keys: sorted keys, no whitespace, UTF-8 as is.
_KEY_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _messages_json(transcript: Transcript) -> str:
    """Canonical JSON of the messages, comma-separated, without the list brackets.

    Only the strings go through the encoder, which is several times faster
    than encoding one dict per message; the object around them is the one
    sort_keys gives.
    """
    encode = _KEY_JSON.encode
    return ",".join(
        f'{{"content":{encode(m.content)},"role":{encode(m.role)}}}' for m in transcript
    )


class KeyHasher:
    """Cache keys of transcripts that open with a shared prefix.

    A key is sha256 over the canonical JSON of everything that shapes the
    answer: endpoint, model, sampling parameters and the messages.  Sorted
    keys put the messages in the middle of that JSON, so the part up to and
    including the prefix's messages is hashed once here, and key() hashes
    only the rest on a copy of that state.  The digest equals that of the
    whole payload hashed in one piece.
    """

    def __init__(self, config: BackendConfig, prefix: Transcript = ()) -> None:
        payload = {
            "endpoint_url": config.endpoint_url,
            "model": config.model_name,
            "temperature": config.temperature,
            "max_output_tokens": config.max_output_tokens,
            "messages": [],
        }
        # string values escape their quotes, so this marker occurs only as the key
        head, _, tail = _KEY_JSON.encode(payload).partition('"messages":[]')
        self._prefix = prefix
        self._tail = "]" + tail
        self._state = hashlib.sha256(
            (head + '"messages":[' + _messages_json(prefix)).encode("utf-8")
        )

    def key(self, transcript: Transcript) -> str:
        n = len(self._prefix)
        if transcript[:n] != self._prefix:
            raise ValueError("transcript does not open with the hasher's prefix")
        rest = _messages_json(transcript[n:])
        separator = "," if n and rest else ""
        digest = self._state.copy()
        digest.update((separator + rest + self._tail).encode("utf-8"))
        return digest.hexdigest()


def cache_key(config: BackendConfig, transcript: Transcript) -> str:
    """Content address of one request: sha256 over everything that shapes the answer."""
    return KeyHasher(config).key(transcript)


def write_atomic(path: Path, text: str) -> None:
    """Replace path's content with text, all at once.

    The text goes to a temp file beside path, which os.replace then moves
    over it.  A crash or failed write mid-way leaves the old file whole and
    no temp file behind, and concurrent writers of one path each leave a
    whole file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ResponseCache:
    """One file per completed request, named by its cache key.

    Entries are written with write_atomic, so a crash mid-write never leaves
    a truncated entry and concurrent writers of the same key are safe.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / key

    def get(self, key: str) -> str | None:
        try:
            # bytes, not read_text: universal newlines would turn \r\n into \n
            return self._path(key).read_bytes().decode("utf-8")
        except FileNotFoundError:
            return None

    def put(self, key: str, text: str) -> None:
        write_atomic(self._path(key), text)


# =============================================================================
# Backends
# =============================================================================


class ChatBackend:
    """Base class: caching and retries around _send()."""

    def __init__(
        self,
        config: BackendConfig,
        cache: ResponseCache | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
        backoff_rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self._sleep = sleep
        self._backoff_rng = backoff_rng or random.Random()

    def _send(self, transcript: Transcript) -> str:
        raise NotImplementedError

    def lookup(self, key: str) -> CompletionResult | None:
        """The cached completion for key, or None on a miss or without a cache."""
        if self.cache is None:
            return None
        cached = self.cache.get(key)
        return None if cached is None else CompletionResult(cached, attempt_count=0)

    def complete(self, transcript: Transcript) -> CompletionResult:
        """Return the assistant text for a transcript, consulting the cache first."""
        key = cache_key(self.config, transcript)
        return self.lookup(key) or self.fetch(transcript, key)

    def fetch(self, transcript: Transcript, key: str) -> CompletionResult:
        """Send the transcript without looking in the cache, then cache the answer under key."""
        if not transcript:
            raise ValueError("transcript must not be empty")
        if transcript[0].role != "system":
            raise ValueError("transcript must start with a system message")
        attempt = 0
        while True:
            attempt += 1
            try:
                text = self._send(transcript)
                break
            except _RETRYABLE as exc:
                if attempt > self.config.max_retries:
                    raise RetriesExhausted(attempt, exc) from exc
                delay = self._backoff_rng.uniform(
                    0.0, BACKOFF_BASE_SECONDS * 2 ** (attempt - 1)
                )
                log.warning(
                    "attempt %d failed (%s); retrying in %.2fs", attempt, exc, delay
                )
                self._sleep(delay)
        if self.cache is not None:
            self.cache.put(key, text)
        return CompletionResult(text, attempt_count=attempt)


class HttpChatBackend(ChatBackend):
    """POSTs to an OpenAI-style ``<endpoint_url>/chat/completions`` route."""

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None, **kwargs) -> None:
        super().__init__(config, cache, **kwargs)
        self._session = requests.Session()

    def _send(self, transcript: Transcript) -> str:
        url = self.config.endpoint_url + "/chat/completions"
        payload = {
            "model": self.config.model_name,
            "messages": to_wire(transcript),
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            response = self._session.post(
                url, json=payload, headers=headers, timeout=self.config.timeout_seconds
            )
        except requests.Timeout as exc:
            raise Timeout(f"request to {url} timed out") from exc
        except requests.ConnectionError as exc:
            # connection resets/refusals are transient the same way timeouts are
            raise Timeout(f"could not reach {url}: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthError(
                f"endpoint rejected credentials (HTTP {response.status_code}); "
                f"is {self.config.api_key_env} set correctly?"
            )
        if response.status_code == 429:
            raise RateLimited("endpoint returned HTTP 429")
        if not 200 <= response.status_code < 300:
            raise ProtocolError(
                "unexpected status", response.status_code, response.text[:200]
            )
        try:
            body = response.json()
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                "response is not a chat completion", response.status_code,
                response.text[:200],
            ) from exc
        if not isinstance(content, str):
            raise ProtocolError("completion content is not text", response.status_code)
        return content


# Mapping values: the response text, or an exception instance to raise.
MockScript = Callable[[Transcript], str] | Mapping[str, str | BaseException]


class MockChatBackend(ChatBackend):
    """In-process backend driven by a script; used by tests and mock:// runs.

    The script is either a callable(transcript) -> text (which may raise), or
    a mapping from the final user-message content to text / an exception
    instance to raise.  Tracks how many sends happened and the peak number in
    flight at once, so tests can assert the harness's concurrency limit held.
    """

    def __init__(
        self,
        script: MockScript,
        config: BackendConfig | None = None,
        cache: ResponseCache | None = None,
        **kwargs,
    ) -> None:
        super().__init__(config or mock_config(), cache, **kwargs)
        self._script = script
        self._stats_lock = threading.Lock()
        self._in_flight = 0
        self.send_count = 0
        self.peak_in_flight = 0

    def _send(self, transcript: Transcript) -> str:
        with self._stats_lock:
            self._in_flight += 1
            self.send_count += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            if callable(self._script):
                return self._script(transcript)
            final_user = transcript[-1].content
            try:
                entry = self._script[final_user]
            except KeyError:
                raise UnscriptedInput(f"no scripted response for {final_user!r}") from None
            if isinstance(entry, BaseException):
                raise entry
            return entry
        finally:
            with self._stats_lock:
                self._in_flight -= 1


def mock_config(**overrides) -> BackendConfig:
    """BackendConfig with placeholder endpoint/model for in-process backends."""
    defaults = dict(endpoint_url="mock://script", model_name="mock")
    defaults.update(overrides)
    return BackendConfig(**defaults)
