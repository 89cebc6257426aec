from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import closing
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from pathlib import Path

import pytest

import cmdreason
from cmdreason.dataset import LabeledCommand, RequirementVector, load_dataset
from cmdreason.prompt import PromptConfig, ShotExample, default_template


def toy_dataset_path() -> str:
    return str(resources.files("cmdreason").joinpath("data/toy_dataset.tsv"))


@pytest.fixture()
def toy_path() -> str:
    return toy_dataset_path()


@pytest.fixture()
def toy_data(toy_path) -> list[LabeledCommand]:
    return load_dataset(toy_path)


@pytest.fixture()
def template() -> PromptConfig:
    return default_template()


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    # never let a test touch the repo-level default cache directory
    monkeypatch.setenv("CMDREASON_CACHE_DIR", str(tmp_path / "autocache"))


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout's cmdreason."""
    paths = [str(Path(cmdreason.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def cache_entries(directory: Path) -> dict[str, str]:
    """Every entry of the response cache in directory, read through a connection of its own."""
    with closing(sqlite3.connect(directory / "responses.sqlite")) as db:
        return dict(db.execute("SELECT key, text FROM responses"))


def make_shot(command: str, bits: str) -> ShotExample:
    """Shot with placeholder rationales consistent with the gold bits."""
    gold = RequirementVector.from_bits(bits)
    rationales = tuple(
        "Yes, this is required here." if flag else "No, this is not needed here."
        for flag in gold
    )
    return ShotExample(command, gold, rationales)


# =============================================================================
# In-process chat-completions endpoint
# =============================================================================


def serve(httpd):
    """Serve httpd on a daemon thread; the returned callable stops it."""
    httpd.daemon_threads = True
    httpd.block_on_close = False  # idle keep-alive handlers time out on their own
    threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True).start()

    def stop():
        httpd.shutdown()
        httpd.server_close()

    return stop


class ChatStub(ThreadingHTTPServer):
    """A scripted chat-completions endpoint on 127.0.0.1, with keep-alive connections.

    Every POST is recorded in `requests` as (path, Authorization header, raw
    body).  `responder(body)` maps the raw body to (status, payload) or
    (status, payload, extra headers); a dict payload is sent as JSON, bytes
    as they are.  `opened` and `open_now` count connections.  With
    `drop_idle` the stub closes each connection after its response, as a
    server does that drops an idle connection; with `chunked` the body goes
    out in chunked transfer encoding.  Each response is sent in one write.
    """

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _ChatStubHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"
        self.lock = threading.Lock()
        self.requests: list[tuple[str, str | None, bytes]] = []
        self.opened = self.open_now = 0
        self.drop_idle = self.chunked = False
        answer = {"choices": [{"message": {"role": "assistant", "content": "hello there"}}]}
        self.responder = lambda body: (200, answer)


class _ChatStubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30  # far longer than any test waits: only the client or drop_idle closes
    server: ChatStub

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.opened += 1
            self.server.open_now += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with self.server.lock:
                self.server.open_now -= 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.requests.append((self.path, self.headers.get("Authorization"), body))
        status, payload, *extra = self.server.responder(body)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        if self.server.chunked:
            framing = "Transfer-Encoding: chunked"
            pieces = [data[i:i + 7] for i in range(0, len(data), 7)] + [b""]
            data = b"".join(b"%x\r\n%s\r\n" % (len(piece), piece) for piece in pieces)
        else:
            framing = f"Content-Length: {len(data)}"
        extra_headers = extra[0] if extra else {}
        headers = "".join(f"{name}: {value}\r\n" for name, value in extra_headers.items())
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json\r\n{headers}{framing}\r\n\r\n"
        )
        self.wfile.write(head.encode("ascii") + data)
        # closing without a Connection: close header is a server dropping an idle connection
        self.close_connection = self.server.drop_idle

    def log_message(self, *args):
        pass


def all_closed(server: ChatStub, within: float = 3.0) -> bool:
    """Whether the server sees no open connection, waiting for it to notice the closes."""
    deadline = time.monotonic() + within
    while server.open_now and time.monotonic() < deadline:
        time.sleep(0.01)
    return server.open_now == 0


@pytest.fixture()
def chat_stub(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    httpd = ChatStub()
    stop = serve(httpd)
    yield httpd
    stop()
