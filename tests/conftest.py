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
from hypothesis import strategies as st

import cmdreason
from cmdreason.backend import MockChatBackend, ResponseCache, mock_config
from cmdreason.dataset import (
    VECTORS_BY_BITS,
    LabeledCommand,
    RequirementVector,
    load_dataset,
    save_dataset,
)
from cmdreason.harness import ExperimentSpec, run_experiment
from cmdreason.prompt import (
    OUTPUT_PATTERN,
    ExplanationMode,
    PromptConfig,
    ShotExample,
    default_template,
)


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


class CountingMock(MockChatBackend):
    """A MockChatBackend that counts its sends and the most of them in flight at once."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stats_lock = threading.Lock()
        self._in_flight = self.send_count = self.peak_in_flight = 0

    def _send(self, body: bytes, auth: bytes) -> str:
        with self._stats_lock:
            self._in_flight += 1
            self.send_count += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            return super()._send(body, auth)
        finally:
            with self._stats_lock:
                self._in_flight -= 1


def make_shot(command: str, bits: str) -> ShotExample:
    """Shot with placeholder rationales consistent with the gold bits."""
    gold = RequirementVector.from_bits(bits)
    rationales = tuple(
        "Yes, this is required here." if flag else "No, this is not needed here."
        for flag in gold
    )
    return ShotExample(command, gold, rationales)


# texts of the characters that JSON, the TSV files and the rationale check give a
# meaning to, a lone surrogate among them, or else of any code points
awkward_text = st.text(
    st.sampled_from(' "\\#\t\n\r\x00\x07\x85\u2028é🚗\ud800'), min_size=1, max_size=8
) | st.text(min_size=1, max_size=8)
vectors = st.sampled_from(sorted(VECTORS_BY_BITS.values()))


@st.composite
def prompt_configs(draw) -> PromptConfig:
    """A PromptConfig of awkward texts; they cycle through a few drawn ones, as each draw is slow.

    A blank text, which PromptConfig and ShotExample refuse, is left out of them.
    """
    drawn = draw(st.lists(awkward_text, min_size=1, max_size=5))
    pool = [text for text in drawn if text.strip()] or ["x"]
    texts = [pool[k % len(pool)] for k in range(12)]
    shots = []
    for i in range(draw(st.integers(0, 3))):
        gold = draw(vectors)
        yes, no = draw(st.sampled_from([("Yes", "No"), ("yes,", "no:"), ("YES.", "No!")]))
        rationales = tuple(f"{yes if flag else no} {texts[i + 1]}" for flag in gold)
        shots.append((texts[i], gold, rationales))
    return PromptConfig(
        mode=draw(st.sampled_from(ExplanationMode)),
        shots=tuple(ShotExample(*shot) for shot in shots),
        question_texts=tuple(texts[1:9]),
        preamble=texts[-1],
        format_instruction=texts[-2] + OUTPUT_PATTERN + texts[-3],
    )


def sent_in_a_run(
    config: PromptConfig, commands: list[str], directory: Path
) -> list[list[dict[str, str]]]:
    """The messages that a callable MockChatBackend script receives in a run of commands.

    The run sends from one worker: one request per distinct command, in dataset order.
    """
    dataset = directory / "d.tsv"
    gold = RequirementVector.from_bits("00000000")
    save_dataset([LabeledCommand(f"c{i}", text, gold) for i, text in enumerate(commands)], dataset)
    sent = []

    def script(transcript):
        sent.append(transcript)
        return f"Therefore, the output should be : {gold.bracket()}"

    backend = MockChatBackend(script, mock_config(max_in_flight=1), ResponseCache(directory / "c"))
    spec = ExperimentSpec(str(dataset), config, backend.config, str(directory / "run"))
    run_experiment(spec, backend)
    return sent


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
    A CONNECT is answered 200 and its connection then carries the requests,
    so that the stub also serves as the proxy of an endpoint by another name.
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

    def do_CONNECT(self):
        self.send_response(200, "Connection established")
        self.end_headers()

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
