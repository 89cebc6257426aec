"""Chat-completion backends: request encoding, HTTP client, scripted mock, cache, retries.

A RequestEncoder gives each request its one encoding: the JSON body sent, and
the cache key, sha256 over the endpoint URL and that body.  The harness reads
a run's keys from the backend's cache in one ResponseCache.get_many(), which
replays each answer byte for byte, and for each miss fetch() drives the
retry loop around the transport-specific _send(body).  It makes these calls
in that order: it resolves every hit before it starts any worker, and its
pool of max_in_flight workers bounds the requests in flight.  fetch()
answers with a CompletionResult: the raw text and the requests it took.
Retryable failures (RateLimited, ServerError for HTTP 500/502/503/504,
Timeout) back off exponentially with full jitter: attempt i waits
uniform(0, 1s * 2**i), or, after a 429 or 503 whose Retry-After header
gives delta-seconds, that many seconds up to RETRY_AFTER_MAX_SECONDS.  Each
wait is on the run's `failed` event, which fetch() takes from its caller,
so that it is cut short once the run has failed.  AuthError and any other
ProtocolError abort immediately.

ResponseCache keeps every answer in one sqlite3 file per cache directory,
which several processes can share.  Every backend has one, the default
directory's unless given another.  close() lets go of its connection and of
HttpChatBackend's idle sockets; the next call reopens them.

HttpChatBackend speaks HTTP/1.1 itself, over sockets from the standard
library: keep-alive connections reused across requests, each request sent in
one write, a CONNECT tunnel through the proxy that the environment names
(honouring NO_PROXY), and TLS verified against the system trust store.  A
response is read through one buffered reader per connection; its body is
delimited by Content-Length, chunked, or runs to close.  A head with a line
over MAX_LINE_BYTES or more than MAX_HEADERS headers, a malformed head and a
body cut short are each a Timeout.  A reused connection that the server has
closed while idle is reopened once, with no backoff and no attempt counted.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import queue
import random
import socket
import threading
import time
import urllib.parse
import weakref
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

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
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
        if not 0 < self.timeout_seconds < math.inf:
            raise ValueError("timeout_seconds must be finite and > 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True, slots=True)
class CompletionResult:
    raw_text: str
    attempt_count: int  # requests sent for this answer, retries included


# A request body's string or number as JSON, UTF-8 as is; the body's separators are literals.
_JSON = json.JSONEncoder(ensure_ascii=False).encode


def _message_json(role: str, content: str) -> str:
    """One message's JSON object; a role is a name from chat.ROLES."""
    return f'{{"role":"{role}","content":{_JSON(content)}}}'


class RequestEncoder:
    """Request bodies and cache keys of the commands that follow one shared prefix.

    A body is compact JSON: model, temperature, max_tokens, then the
    messages: the prefix's, which opens with a system message, and one user
    message holding the command.  The head, through the prefix's messages, is
    encoded once here; tail(command) encodes the command's message and the
    closing ']}', and head + tail is the body sent.  A cache key is sha256
    over the endpoint URL, a NUL byte (which JSON escapes) and that body;
    key() hashes the tail on a copy of the head's state.
    """

    def __init__(self, config: BackendConfig, prefix: Transcript) -> None:
        if not prefix or prefix[0].role != "system":
            raise ValueError("the prefix must open with a system message")
        self.head = (
            f'{{"model":{_JSON(config.model_name)},"temperature":{_JSON(config.temperature)},'
            f'"max_tokens":{_JSON(config.max_output_tokens)},"messages":['
            + ",".join(_message_json(m.role, m.content) for m in prefix)
        ).encode("utf-8")
        self._state = hashlib.sha256(config.endpoint_url.encode("utf-8") + b"\0" + self.head)

    def tail(self, command: str) -> bytes:
        """The body's bytes after the head: the command as the final user message, then ']}'."""
        return f',{_message_json("user", command)}]}}'.encode("utf-8")

    def key(self, tail: bytes) -> str:
        """The cache key of the body head + tail."""
        digest = self._state.copy()
        digest.update(tail)
        return digest.hexdigest()


class ResponseCache:
    """Answers of completed requests by cache key, in one sqlite3 file.

    The file is ``<directory>/responses.sqlite``, a table
    ``responses(key, text)``, opened on first use.  get_many() reads a
    run's keys, in one query per chunk of them.  Each put commits on its
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
    GET_MANY_CHUNK = 500  # keys per get_many query

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

    def get_many(self, keys: list[str]) -> dict[str, str]:
        """The answers stored for keys, by key; a key without one is left out.

        One query per GET_MANY_CHUNK keys: the chunk stays under the 999
        parameters that older SQLite builds allow in one statement.
        """
        found: dict[str, str] = {}
        for start in range(0, len(keys), self.GET_MANY_CHUNK):
            chunk = keys[start:start + self.GET_MANY_CHUNK]
            query = f"SELECT key, text FROM responses WHERE key IN ({','.join('?' * len(chunk))})"
            with self._lock:
                found.update(self._connection().execute(query, chunk))
        return found

    def put(self, key: str, text: str) -> None:
        with self._lock:
            self._connection().execute(
                "INSERT OR IGNORE INTO responses (key, text) VALUES (?, ?)", (key, text)
            )

    def close(self) -> None:
        """Close the connection, if open; a later get_many or put opens it again."""
        with self._lock:
            if self._close_db is not None:
                self._close_db()
                self._db = self._close_db = None


# =============================================================================
# Backends
# =============================================================================


class ChatBackend:
    """Base class: caching and retries around _send(), over cache or the default one."""

    def __init__(
        self,
        config: BackendConfig,
        cache: ResponseCache | None = None,
        *,
        backoff_rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self.cache = cache or ResponseCache()
        self._backoff_rng = backoff_rng or random.Random()

    def _send(self, body: bytes) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend keeps open between requests: its cache's connection."""
        self.cache.close()

    def fetch(self, body: bytes, key: str, failed: threading.Event) -> CompletionResult:
        """Send body without looking in the cache, then cache the answer under key.

        A backoff waits on the run's `failed` event, and once it is set the
        retries give up as RetriesExhausted.  A request that fails for good
        sets `failed` itself before it raises, so that the run's queued
        requests stop without waiting for the error to reach the caller.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                text = self._send(body)
                break
            except _RETRYABLE as exc:
                if attempt > self.config.max_retries:
                    failed.set()
                    raise RetriesExhausted(attempt, exc) from exc
                delay = exc.retry_after
                if delay is None:
                    delay = self._backoff_rng.uniform(0.0, BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
                log.warning("attempt %d failed (%s); retrying in %.2fs", attempt, exc, delay)
                if failed.wait(delay):
                    raise RetriesExhausted(attempt, exc) from exc
            except BaseException:
                failed.set()
                raise
        self.cache.put(key, text)
        return CompletionResult(text, attempt_count=attempt)


class HttpChatBackend(ChatBackend):
    """POSTs to an OpenAI-style ``<endpoint_url>/chat/completions`` route.

    The request line and fixed headers are encoded once; each request goes
    out in one write: them, Content-Length, Authorization (read from
    $CMDREASON_API_KEY per request) and the body.  Idle keep-alive
    connections wait in a queue: a request takes one or opens one, and puts
    it back once the whole response body is read, unless the response ends
    the connection, so there are never more connections than requests in
    flight.  A served model other than the one configured is logged once
    per name.
    """

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None, **kwargs) -> None:
        import urllib.request  # here, so that commands that send nothing do not load it

        super().__init__(config, cache, **kwargs)
        self._url = config.endpoint_url + "/chat/completions"
        url = urllib.parse.urlsplit(self._url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("not an http(s) URL")
        target = url.path
        if not (target.isascii() and target.isprintable()) or " " in target:
            raise ValueError("the URL path must be printable ASCII without spaces")
        default_port = 443 if url.scheme == "https" else 80
        # url.port raises ValueError on a bad port
        self._address = (url.hostname, url.port or default_port)
        name = url.hostname.encode("idna").decode("ascii")
        if ":" in name:  # an IPv6 literal
            name = f"[{name}]"
        host = name if url.port in (None, default_port) else f"{name}:{url.port}"
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self._tls = None
        if url.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
        self._proxy: tuple[str, int] | None = None
        proxy_url = urllib.request.getproxies().get(url.scheme)
        if proxy_url and not urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
            proxy = urllib.parse.urlsplit(proxy_url if "://" in proxy_url else f"http://{proxy_url}")
            self._proxy = (proxy.hostname, proxy.port or 80)
            tunnel = f"{name}:{self._address[1]}"
            connect = f"CONNECT {tunnel} HTTP/1.1\r\nHost: {tunnel}\r\n"
            if proxy.username is not None:
                import base64

                unquote = urllib.parse.unquote
                credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                connect += f"Proxy-Authorization: Basic {token}\r\n"
            self._connect_request = (connect + "\r\n").encode("ascii")
        self._idle: queue.SimpleQueue[_Connection] = queue.SimpleQueue()
        self._models_lock = threading.Lock()
        self._other_models: set[str] = set()

    def close(self) -> None:
        """Close the idle connections and the cache's; a later request opens new ones."""
        super().close()
        try:
            while True:
                self._idle.get_nowait().close()
        except queue.Empty:
            pass

    def _connect(self) -> _Connection:
        """A new connection to the endpoint: through the proxy's tunnel if any, then TLS if https."""
        sock = socket.create_connection(self._proxy or self._address, self.config.timeout_seconds)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._proxy:
                sock.sendall(self._connect_request)
                with sock.makefile("rb") as reader:
                    status, _, _ = _read_head(reader)
                if status != 200:
                    raise OSError(f"tunnel connection failed: HTTP {status}")
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _post(self, request: bytes) -> tuple[int, dict[str, str], bytes]:
        """The status, headers and whole body answering request, on an idle connection if any."""
        try:
            conn, reused = self._idle.get_nowait(), True
        except queue.Empty:
            conn, reused = None, False
        while True:
            try:
                conn = conn or self._connect()
                status, headers, data, keep_alive = conn.exchange(request)
            except (OSError, _MalformedResponse) as exc:
                if conn is not None:
                    conn.close()
                # the server closed the idle connection: not a failed attempt
                if reused and isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                    conn, reused = None, False
                    continue
                if isinstance(exc, TimeoutError):
                    raise Timeout(f"request to {self._url} timed out") from exc
                raise Timeout(f"could not reach {self._url}: {exc}") from exc
            if keep_alive:
                self._idle.put(conn)
            else:
                conn.close()
            return status, headers, data

    def _send(self, body: bytes) -> str:
        api_key = os.environ.get(API_KEY_ENV, "")
        if "\r" in api_key or "\n" in api_key:
            raise AuthError(f"{API_KEY_ENV} holds a line break")
        auth = f"Authorization: Bearer {api_key}\r\n" if api_key else ""
        status, headers, data = self._post(
            b"%s%d\r\n%s\r\n%s" % (self._head, len(body), auth.encode("latin-1"), body)
        )
        if status in (401, 403):
            raise AuthError(
                f"endpoint rejected credentials (HTTP {status}); "
                f"is {API_KEY_ENV} set correctly?"
            )
        if status == 429:
            raise RateLimited("endpoint returned HTTP 429", _retry_after(headers))
        if not 200 <= status < 300:
            excerpt = data.decode("utf-8", "replace")[:200]
            if status not in _SERVER_ERROR_STATUSES:
                raise ProtocolError("unexpected status", status, excerpt)
            retry_after = _retry_after(headers) if status == 503 else None
            raise ServerError("unexpected status", status, excerpt, retry_after)
        try:
            reply = json.loads(data)
            content = reply["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                "response is not a chat completion", status, data.decode("utf-8", "replace")[:200]
            ) from exc
        if not isinstance(content, str):
            raise ProtocolError("completion content is not text", status)
        try:
            content.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which JSON allows as an escape
            raise ProtocolError("completion content is not valid Unicode", status) from None
        served = reply.get("model")
        if isinstance(served, str) and served != self.config.model_name:
            with self._models_lock:
                first = served not in self._other_models
                self._other_models.add(served)
            if first:
                log.warning(
                    "%s answered as model %r, not the %r this run names",
                    self._url, served, self.config.model_name,
                )
        return content


def _retry_after(headers: Mapping[str, str]) -> float | None:
    """The response's Retry-After delay in seconds, at most RETRY_AFTER_MAX_SECONDS.

    None without the header, and for its HTTP-date form: only delta-seconds
    (RFC 9110 section 10.2.3) are honoured.
    """
    value = headers.get("retry-after", "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_AFTER_MAX_SECONDS)


# =============================================================================
# HTTP/1.1 exchange
# =============================================================================

MAX_LINE_BYTES = 65536  # the longest status, header or chunk-size line accepted
MAX_HEADERS = 100  # the most header lines accepted in one response head


class _MalformedResponse(Exception):
    """The bytes on a connection are not the HTTP/1.1 response they should be."""


class _Connection:
    """One keep-alive socket and the buffered reader of its responses."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def exchange(self, request: bytes) -> tuple[int, dict[str, str], bytes, bool]:
        """Send request in one write; the response's status, headers, body and whether to reuse.

        EOF before the status line is a ConnectionResetError, as from a
        server that closed the connection while it was idle; EOF later is a
        _MalformedResponse, since the server did receive the request.
        """
        self.sock.sendall(request)
        reader = self.reader
        status, version, headers = _read_head(reader)
        while status < 200:  # 100 Continue and other interim responses
            status, version, headers = _read_head(reader)
        connection = {token.strip().lower() for token in headers.get("connection", "").split(",")}
        keep_alive = "close" not in connection and (
            version == b"HTTP/1.1" or "keep-alive" in connection
        )
        codings = headers.get("transfer-encoding")
        length = headers.get("content-length")
        if status in (204, 304):
            body = b""
        elif codings is not None and codings.rpartition(",")[2].strip().lower() == "chunked":
            body = _read_chunked(reader)
        elif codings is None and length is not None:
            if not (length.isascii() and length.isdigit()):
                raise _MalformedResponse(f"bad Content-Length {length!r}")
            body = _read_exactly(reader, int(length))
        else:  # the body runs to the end of the connection
            body, keep_alive = reader.read(), False
        return status, headers, body, keep_alive


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise _MalformedResponse(f"line longer than {MAX_LINE_BYTES} bytes")
    return line


def _read_head(reader: BinaryIO) -> tuple[int, bytes, dict[str, str]]:
    """A response's status, HTTP version and headers, names lower-cased."""
    line = _read_line(reader)
    if not line:
        raise ConnectionResetError("remote end closed connection without response")
    parts = line.split(None, 2)
    if (
        len(parts) < 2
        or not parts[0].startswith(b"HTTP/1.")
        or not (len(parts[1]) == 3 and parts[1].isdigit())
    ):
        raise _MalformedResponse(f"bad status line {line[:80]!r}")
    return int(parts[1]), parts[0], _read_headers(reader)


def _read_headers(reader: BinaryIO) -> dict[str, str]:
    """Header (or trailer) lines up to the blank line, as a dict with lower-cased names."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise _MalformedResponse(
                "response ended in its head" if not line else f"bad header line {line[:80]!r}"
            )
        headers[name.strip().lower()] = value.strip()
    raise _MalformedResponse(f"more than {MAX_HEADERS} headers")


def _read_exactly(reader: BinaryIO, n: int) -> bytes:
    """n bytes; reads start at 64 KiB and double, so a false Content-Length allocates little."""
    data = reader.read(min(n, 65536))
    while 0 < len(data) < n:
        piece = reader.read(min(n - len(data), len(data)))
        if not piece:
            break
        data += piece
    if len(data) < n:
        raise _MalformedResponse(f"response body ended after {len(data)} of {n} bytes")
    return data


def _read_chunked(reader: BinaryIO) -> bytes:
    """A chunked body, its trailers read and dropped."""
    chunks = []
    while True:
        size = _read_line(reader).partition(b";")[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):  # hex digits only
            raise _MalformedResponse(f"bad chunk size {size[:80]!r}")
        n = int(size, 16)
        if n == 0:
            break
        chunks.append(_read_exactly(reader, n))
        if _read_line(reader) not in (b"\r\n", b"\n"):
            raise _MalformedResponse("chunk not followed by CRLF")
    _read_headers(reader)
    return b"".join(chunks)


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
