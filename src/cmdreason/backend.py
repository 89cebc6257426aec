"""Chat-completion backends: request encoding, HTTP client, scripted mock, cache, retries.

A RequestEncoder gives each request its one encoding: the JSON body sent, and
the cache key, sha256 over the endpoint URL and that body.  complete()
answers one transcript: lookup() reads the response cache, and on a miss
fetch() drives the retry loop around the transport-specific _send(body).
The harness encodes, looks up and fetches itself, so that it resolves every
hit before it starts any worker; its pool of max_in_flight workers bounds
the requests in flight.  Each answer is a CompletionResult: the raw text,
replayed byte for byte from the cache, and the requests it took, 0 when it
came from the cache.  Retryable failures (RateLimited, ServerError for HTTP
500/502/503/504, Timeout) back off exponentially with full jitter: attempt i
waits uniform(0, 1s * 2**i), or, after a 429 or 503 whose Retry-After header
gives delta-seconds, that many seconds up to RETRY_AFTER_MAX_SECONDS; either
wait is cut short once the run has failed.  AuthError and any other
ProtocolError abort immediately.

ResponseCache keeps every answer in one sqlite3 file per cache directory,
which several processes can share.

HttpChatBackend uses only the standard library: http.client on keep-alive
connections that are reused across requests, a CONNECT tunnel through the
proxy that the environment names (honouring NO_PROXY), and TLS verified
against the system trust store.  A reused connection that the server has
closed while idle is reopened once, with no backoff and no attempt counted.
"""
from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import os
import queue
import random
import ssl
import threading
import time
import urllib.parse
import urllib.request
import weakref
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .chat import ChatMessage, Transcript
from .errors import BackendError

if TYPE_CHECKING:
    import sqlite3

log = logging.getLogger(__name__)

API_KEY_ENV = "CMDREASON_API_KEY"
CACHE_DIR_ENV = "CMDREASON_CACHE_DIR"
DEFAULT_CACHE_DIR = ".cmdreason-cache"
BACKOFF_BASE_SECONDS = 1.0
RETRY_AFTER_MAX_SECONDS = 60.0  # the longest Retry-After wait honoured


class AuthError(BackendError):
    """The endpoint rejected our credentials (HTTP 401/403)."""


class RateLimited(BackendError):
    """The endpoint asked us to slow down (HTTP 429)."""

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


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


class ServerError(ProtocolError):
    """The endpoint failed on its side (HTTP 500/502/503/504); a retry may succeed."""

    def __init__(
        self,
        message: str,
        status: int | None = None,
        body_excerpt: str = "",
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message, status, body_excerpt)
        self.retry_after = retry_after


class RetriesExhausted(BackendError):
    """Every allowed attempt failed with a retryable error."""

    def __init__(self, attempts: int, last_error: BackendError) -> None:
        super().__init__(f"gave up after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


class UnscriptedInput(BackendError):
    """A mock backend received a transcript it has no script entry for."""


_RETRYABLE = (RateLimited, ServerError, Timeout)
_SERVER_ERROR_STATUSES = (500, 502, 503, 504)


@dataclass(frozen=True, slots=True)
class BackendConfig:
    endpoint_url: str  # base URL; /chat/completions is appended
    model_name: str
    temperature: float = 0.0
    max_output_tokens: int = 1024
    timeout_seconds: float = 60.0
    max_retries: int = 3  # retries after the first attempt
    max_in_flight: int = 4  # concurrent requests a run sends

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


# The request body: compact JSON, UTF-8 as is.
_JSON = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def _messages_json(messages: Transcript) -> str:
    """The messages' JSON objects, comma-separated; a role is a name from chat.ROLES."""
    return ",".join(f'{{"role":"{m.role}","content":{_JSON(m.content)}}}' for m in messages)


class RequestEncoder:
    """Request bodies and cache keys of transcripts that open with a shared prefix.

    A body is compact JSON: model, temperature, max_tokens, then the messages.
    Its head, through the prefix's messages, is encoded once here; tail()
    encodes the rest of one transcript, and head + tail is the body sent.  A
    cache key is sha256 over the endpoint URL, a NUL byte (which JSON
    escapes) and that body; key() hashes the tail on a copy of the head's state.
    """

    def __init__(self, config: BackendConfig, prefix: Transcript = ()) -> None:
        self.head = (
            f'{{"model":{_JSON(config.model_name)},"temperature":{_JSON(config.temperature)},'
            f'"max_tokens":{_JSON(config.max_output_tokens)},"messages":[{_messages_json(prefix)}'
        ).encode("utf-8")
        self._prefix = prefix
        self._state = hashlib.sha256(config.endpoint_url.encode("utf-8") + b"\0" + self.head)

    def tail(self, transcript: Transcript) -> bytes:
        """The body's bytes after the head: the messages past the prefix, then ']}'."""
        if not transcript or transcript[0].role != "system":
            raise ValueError("transcript must start with a system message")
        n = len(self._prefix)
        if transcript[:n] != self._prefix:
            raise ValueError("transcript does not open with the encoder's prefix")
        rest = _messages_json(transcript[n:])
        return f'{"," if n and rest else ""}{rest}]}}'.encode("utf-8")

    def key(self, tail: bytes) -> str:
        """The cache key of the body head + tail."""
        digest = self._state.copy()
        digest.update(tail)
        return digest.hexdigest()


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
    """Answers of completed requests by cache key, in one sqlite3 file.

    The file is ``<directory>/responses.sqlite``, a table
    ``responses(key, text)``, opened on first use.  Each put commits on its
    own, and the first answer stored for a key is the one kept.  In WAL mode
    a reader never waits for a writer, and several processes can share one
    cache: a writer waits up to BUSY_TIMEOUT_SECONDS for another's write.  A
    process that dies mid-run leaves every committed answer readable and no
    torn one.  With synchronous=NORMAL, a power loss can drop the last
    commits but not corrupt the file.  The WAL is checkpointed every
    WAL_CHECKPOINT_PAGES pages and truncated after, so the directory stays
    small while the connection is open.

    A cache holds one connection, which its threads share under a lock.
    close() closes it and a later call opens it again; a cache dropped
    unclosed closes it when collected.
    """

    FILE_NAME = "responses.sqlite"
    BUSY_TIMEOUT_SECONDS = 30.0
    WAL_CHECKPOINT_PAGES = 64

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._db: sqlite3.Connection | None = None
        self._close_db: weakref.finalize | None = None

    def _connection(self) -> sqlite3.Connection:
        """The open connection, opened first if need be; the caller holds the lock."""
        if self._db is None:
            import sqlite3  # here, so that commands that open no cache do not load it

            self.directory.mkdir(parents=True, exist_ok=True)
            db = sqlite3.connect(
                self.directory / self.FILE_NAME,
                timeout=self.BUSY_TIMEOUT_SECONDS,
                isolation_level=None,  # autocommit: each put is its own transaction
                check_same_thread=False,
            )
            try:
                db.execute(
                    "CREATE TABLE IF NOT EXISTS responses"
                    " (key TEXT PRIMARY KEY, text TEXT NOT NULL) WITHOUT ROWID"
                )
                self._switch_to_wal(db)
                db.execute("PRAGMA synchronous=NORMAL")
                db.execute(f"PRAGMA wal_autocheckpoint={self.WAL_CHECKPOINT_PAGES}")
                db.execute("PRAGMA journal_size_limit=0")
                # 128 KiB of page cache rather than 2 MB: a run reads each
                # answer once, and peak memory is worth more than the re-reads
                db.execute("PRAGMA cache_size=-128")
            except BaseException:
                db.close()
                raise
            self._close_db = weakref.finalize(self, db.close)
            self._db = db
        return self._db

    def _switch_to_wal(self, db: sqlite3.Connection) -> None:
        """Put the file in WAL mode, which it keeps; a no-op once it is.

        While another process opens a new file, the switch can fail with
        "database is locked" at once, without the busy timeout's wait, so
        it is retried here until that timeout.
        """
        import sqlite3

        deadline = time.monotonic() + self.BUSY_TIMEOUT_SECONDS
        while True:
            try:
                db.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if str(exc) != "database is locked" or time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def get(self, key: str) -> str | None:
        with self._lock:
            row = self._connection().execute(
                "SELECT text FROM responses WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else row[0]

    def put(self, key: str, text: str) -> None:
        with self._lock:
            self._connection().execute(
                "INSERT OR IGNORE INTO responses (key, text) VALUES (?, ?)", (key, text)
            )

    def close(self) -> None:
        """Close the connection, if open; a later get or put opens it again."""
        with self._lock:
            if self._close_db is not None:
                self._close_db()
                self._db = self._close_db = None


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

    def _send(self, body: bytes) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend keeps open between requests: its cache's connection."""
        if self.cache is not None:
            self.cache.close()

    def lookup(self, key: str) -> CompletionResult | None:
        """The cached completion for key, or None on a miss or without a cache."""
        if self.cache is None:
            return None
        cached = self.cache.get(key)
        return None if cached is None else CompletionResult(cached, attempt_count=0)

    def complete(self, transcript: Transcript) -> CompletionResult:
        """Return the assistant text for a transcript, consulting the cache first."""
        encoder = RequestEncoder(self.config)
        tail = encoder.tail(transcript)
        key = encoder.key(tail)
        return self.lookup(key) or self.fetch(encoder.head + tail, key)

    def fetch(
        self, body: bytes, key: str, failed: threading.Event | None = None
    ) -> CompletionResult:
        """Send body without looking in the cache, then cache the answer under key.

        Given the run's `failed` event, a backoff waits on it instead of
        sleeping, and once it is set the retries give up as RetriesExhausted.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                text = self._send(body)
                break
            except _RETRYABLE as exc:
                if attempt > self.config.max_retries:
                    raise RetriesExhausted(attempt, exc) from exc
                delay = exc.retry_after
                if delay is None:
                    delay = self._backoff_rng.uniform(0.0, BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
                log.warning("attempt %d failed (%s); retrying in %.2fs", attempt, exc, delay)
                if failed is None:
                    self._sleep(delay)
                elif failed.wait(delay):
                    raise RetriesExhausted(attempt, exc) from exc
        if self.cache is not None:
            self.cache.put(key, text)
        return CompletionResult(text, attempt_count=attempt)


class HttpChatBackend(ChatBackend):
    """POSTs to an OpenAI-style ``<endpoint_url>/chat/completions`` route.

    Idle keep-alive connections wait in a queue: a request takes one or opens
    one, and puts it back once the whole response body is read, so there are
    never more connections than requests in flight.
    """

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None, **kwargs) -> None:
        super().__init__(config, cache, **kwargs)
        self._url = config.endpoint_url + "/chat/completions"
        url = urllib.parse.urlsplit(self._url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("not an http(s) URL")
        self._target = url.path
        # url.port raises ValueError on a bad port; None stands for the scheme's default
        self._address = (url.hostname, url.port)
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._proxy: tuple[str, int | None] | None = None
        self._proxy_headers: dict[str, str] = {}
        proxy_url = urllib.request.getproxies().get(url.scheme)
        if proxy_url and not urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
            proxy = urllib.parse.urlsplit(proxy_url if "://" in proxy_url else f"http://{proxy_url}")
            self._proxy = (proxy.hostname, proxy.port)
            if proxy.username is not None:
                unquote = urllib.parse.unquote
                credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                self._proxy_headers["Proxy-Authorization"] = f"Basic {token}"
        self._idle: queue.SimpleQueue[http.client.HTTPConnection] = queue.SimpleQueue()

    def close(self) -> None:
        """Close the idle connections and the cache's; a later request opens new ones."""
        super().close()
        try:
            while True:
                self._idle.get_nowait().close()
        except queue.Empty:
            pass

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._proxy or self._address
        timeout = self.config.timeout_seconds
        if self._tls is None:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
        else:
            conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=self._tls)
        if self._proxy:
            conn.set_tunnel(*self._address, headers=self._proxy_headers)
        return conn

    def _post(
        self, body: bytes, headers: dict[str, str]
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """The response to one POST and its whole body, on an idle connection if there is one."""
        try:
            conn, reused = self._idle.get_nowait(), True
        except queue.Empty:
            conn, reused = self._connect(), False
        while True:
            try:
                conn.request("POST", self._target, body, headers)
                response = conn.getresponse()
                data = response.read()
            # RemoteDisconnected is a ConnectionResetError
            except (ConnectionResetError, BrokenPipeError) as exc:
                conn.close()
                if reused:  # the server closed the idle connection: not a failed attempt
                    conn, reused = self._connect(), False
                    continue
                raise Timeout(f"could not reach {self._url}: {exc}") from exc
            except TimeoutError as exc:
                conn.close()
                raise Timeout(f"request to {self._url} timed out") from exc
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise Timeout(f"could not reach {self._url}: {exc}") from exc
            self._idle.put(conn)
            return response, data

    def _send(self, body: bytes) -> str:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        response, data = self._post(body, headers)
        status = response.status
        if status in (401, 403):
            raise AuthError(
                f"endpoint rejected credentials (HTTP {status}); "
                f"is {API_KEY_ENV} set correctly?"
            )
        if status == 429:
            raise RateLimited("endpoint returned HTTP 429", _retry_after(response))
        if not 200 <= status < 300:
            excerpt = data.decode("utf-8", "replace")[:200]
            if status not in _SERVER_ERROR_STATUSES:
                raise ProtocolError("unexpected status", status, excerpt)
            retry_after = _retry_after(response) if status == 503 else None
            raise ServerError("unexpected status", status, excerpt, retry_after)
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                "response is not a chat completion", status, data.decode("utf-8", "replace")[:200]
            ) from exc
        if not isinstance(content, str):
            raise ProtocolError("completion content is not text", status)
        return content


def _retry_after(response: http.client.HTTPResponse) -> float | None:
    """The response's Retry-After delay in seconds, at most RETRY_AFTER_MAX_SECONDS.

    None without the header, and for its HTTP-date form: only delta-seconds
    (RFC 9110 section 10.2.3) are honoured.
    """
    value = (response.getheader("Retry-After") or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_AFTER_MAX_SECONDS)


# Mapping values: the response text, or an exception instance to raise.
MockScript = Callable[[Transcript], str] | Mapping[str, str | BaseException]


class MockChatBackend(ChatBackend):
    """In-process backend driven by a script; used by tests and mock:// runs.

    The script is either a callable(transcript) -> text (which may raise), or
    a mapping from the final user-message content to text / an exception
    instance to raise, for the transcript read back from the request body.
    Tracks how many sends happened and the peak number in flight at once, so
    tests can assert the harness's concurrency limit held.
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

    def _send(self, body: bytes) -> str:
        with self._stats_lock:
            self._in_flight += 1
            self.send_count += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            transcript = tuple(ChatMessage(**m) for m in json.loads(body)["messages"])
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
