from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from cmdreason.backend import (
    AuthError,
    BackendConfig,
    HttpChatBackend,
    KeyHasher,
    MockChatBackend,
    ProtocolError,
    RateLimited,
    ResponseCache,
    RetriesExhausted,
    Timeout,
    UnscriptedInput,
    cache_key,
    mock_config,
    write_atomic,
)
from cmdreason.chat import assistant, system, to_wire, user
from cmdreason.prompt import MODE_ORDER, build_transcript, default_template, transcript_prefix


def transcript_for(command: str):
    return (system("Answer the questions."), user(command))


class FakeRandom:
    """uniform() always returns the midpoint, recording the ranges asked for."""

    def __init__(self):
        self.ranges = []

    def uniform(self, low, high):
        self.ranges.append((low, high))
        return (low + high) / 2


# =============================================================================
# Cache keys
# =============================================================================


def test_cache_key_is_hex_sha256():
    key = cache_key(mock_config(), transcript_for("Honk."))
    assert re.fullmatch(r"[0-9a-f]{64}", key)


def test_cache_key_stable_for_same_request():
    config = mock_config()
    assert cache_key(config, transcript_for("Honk.")) == cache_key(config, transcript_for("Honk."))


def test_cache_key_changes_with_any_input():
    config = mock_config()
    base = cache_key(config, transcript_for("Honk."))
    assert cache_key(config, transcript_for("Honk!")) != base
    assert cache_key(mock_config(model_name="other"), transcript_for("Honk.")) != base
    assert cache_key(mock_config(temperature=0.7), transcript_for("Honk.")) != base
    assert cache_key(mock_config(max_output_tokens=64), transcript_for("Honk.")) != base
    assert cache_key(mock_config(endpoint_url="http://other/v1"), transcript_for("Honk.")) != base
    with_assistant = transcript_for("Honk.") + (assistant("ok"), user("Honk."))
    assert cache_key(config, with_assistant) != base


def test_trailing_slash_names_the_same_endpoint():
    plain = mock_config(endpoint_url="http://h/v1")
    slashed = mock_config(endpoint_url="http://h/v1/")
    assert slashed.endpoint_url == "http://h/v1"
    assert cache_key(slashed, transcript_for("Honk.")) == cache_key(plain, transcript_for("Honk."))


def test_cache_key_ignores_retry_and_concurrency_settings():
    base = cache_key(mock_config(), transcript_for("Honk."))
    assert cache_key(mock_config(max_retries=9, max_in_flight=2), transcript_for("Honk.")) == base


def reference_key(config: BackendConfig, transcript) -> str:
    """The whole request payload hashed in one piece."""
    payload = {
        "endpoint_url": config.endpoint_url,
        "model": config.model_name,
        "temperature": config.temperature,
        "max_output_tokens": config.max_output_tokens,
        "messages": to_wire(transcript),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_prefix_hashed_keys_equal_whole_payload_hash():
    template = default_template()
    configs = [
        mock_config(),
        BackendConfig(
            endpoint_url='https://h\u00f6st/"v1"\\', model_name='m"x\\y "messages":[]',
            temperature=0.25,
        ),
    ]
    commands = ["Honk.", 'Say "hi" \\ then\\n stop', "Öffne das Fenster — bitte 🚗", "x\u2028\t\x00"]
    for config in configs:
        for mode in MODE_ORDER:
            for shots in range(5):
                prompt = template.config(mode, shots)
                hasher = KeyHasher(config, transcript_prefix(prompt))
                for command in commands:
                    transcript = build_transcript(prompt, command)
                    want = reference_key(config, transcript)
                    assert hasher.key(transcript) == want
                    assert cache_key(config, transcript) == want


def test_key_hasher_rejects_transcript_with_other_prefix():
    hasher = KeyHasher(mock_config(), transcript_for("Honk."))
    assert hasher.key(transcript_for("Honk.")) == cache_key(mock_config(), transcript_for("Honk."))
    with pytest.raises(ValueError):
        hasher.key(transcript_for("Wave."))


# =============================================================================
# Response cache
# =============================================================================


def test_cache_round_trip(tmp_path):
    cache = ResponseCache(tmp_path / "c")
    assert cache.get("k" * 64) is None
    cache.put("k" * 64, "some response\nwith lines")
    assert cache.get("k" * 64) == "some response\nwith lines"


def test_cache_persists_across_instances(tmp_path):
    ResponseCache(tmp_path / "c").put("a" * 64, "hello")
    assert ResponseCache(tmp_path / "c").get("a" * 64) == "hello"


def test_cache_leaves_no_temp_files(tmp_path):
    cache = ResponseCache(tmp_path / "c")
    for i in range(10):
        cache.put(f"{i:064d}", f"text {i}")
    names = [p.name for p in (tmp_path / "c").iterdir()]
    assert len(names) == 10
    assert not any(name.startswith(".tmp-") for name in names)


def _fail_replace(src, dst):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failure", ["unencodable text", "failed replace"])
def test_failed_atomic_write_keeps_old_file_and_no_temp(tmp_path, monkeypatch, failure):
    path = tmp_path / "out" / "report.json"
    write_atomic(path, "old content\n")
    text = "new content\n"
    if failure == "unencodable text":
        text += "\ud800"  # a lone surrogate has no UTF-8 encoding
        expected = UnicodeEncodeError
    else:
        monkeypatch.setattr(os, "replace", _fail_replace)
        expected = OSError
    with pytest.raises(expected):
        write_atomic(path, text)
    assert path.read_text() == "old content\n"
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]


def test_cache_directory_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CMDREASON_CACHE_DIR", str(tmp_path / "envcache"))
    cache = ResponseCache()
    cache.put("b" * 64, "x")
    assert (tmp_path / "envcache" / ("b" * 64)).is_file()


def test_cache_default_directory_without_env(monkeypatch):
    monkeypatch.delenv("CMDREASON_CACHE_DIR", raising=False)
    assert ResponseCache().directory.name == ".cmdreason-cache"


# =============================================================================
# Mock scripting
# =============================================================================


def test_mock_mapping_answers_by_final_user_message():
    backend = MockChatBackend({"Honk.": "Output is [0 0 0 1 0 0 0 0]."})
    result = backend.complete(transcript_for("Honk."))
    assert result.raw_text == "Output is [0 0 0 1 0 0 0 0]."
    assert result.cache_hit is False
    assert result.attempt_count == 1


def test_mock_mapping_can_raise_exception_instances():
    backend = MockChatBackend({"Honk.": AuthError("bad key")})
    with pytest.raises(AuthError):
        backend.complete(transcript_for("Honk."))


def test_mock_unscripted_input():
    backend = MockChatBackend({})
    with pytest.raises(UnscriptedInput):
        backend.complete(transcript_for("Honk."))


def test_mock_callable_script_sees_whole_transcript():
    backend = MockChatBackend(lambda t: f"saw {len(t)} messages")
    assert backend.complete(transcript_for("Honk.")).raw_text == "saw 2 messages"


def test_complete_rejects_bad_transcripts():
    backend = MockChatBackend({})
    with pytest.raises(ValueError):
        backend.complete(())
    with pytest.raises(ValueError):
        backend.complete((user("no system message"),))


# =============================================================================
# Retry policy
# =============================================================================


def make_flaky(failures: list[Exception], answer: str = "done"):
    """Callable script that raises the queued failures, then answers."""
    remaining = list(failures)

    def script(transcript):
        if remaining:
            raise remaining.pop(0)
        return answer

    return script


def test_two_failures_then_success_gives_attempt_count_three():
    sleeps = []
    rng = FakeRandom()
    backend = MockChatBackend(
        make_flaky([RateLimited("slow down"), Timeout("no answer")]),
        config=mock_config(max_retries=3),
        sleep=sleeps.append,
        backoff_rng=rng,
    )
    result = backend.complete(transcript_for("Honk."))
    assert result.raw_text == "done"
    assert result.attempt_count == 3
    assert backend.send_count == 3
    # full jitter: attempt i draws from [0, 2**(i-1)]
    assert rng.ranges == [(0.0, 1.0), (0.0, 2.0)]
    assert sleeps == [0.5, 1.0]


def test_retries_exhausted_after_max_retries():
    backend = MockChatBackend(
        make_flaky([RateLimited("x")] * 10),
        config=mock_config(max_retries=2),
        sleep=lambda s: None,
        backoff_rng=FakeRandom(),
    )
    with pytest.raises(RetriesExhausted) as err:
        backend.complete(transcript_for("Honk."))
    assert err.value.attempts == 3  # 1 try + 2 retries
    assert isinstance(err.value.last_error, RateLimited)
    assert backend.send_count == 3


def test_zero_retries_fails_on_first_retryable_error():
    backend = MockChatBackend(
        make_flaky([Timeout("x")]),
        config=mock_config(max_retries=0),
        sleep=lambda s: None,
    )
    with pytest.raises(RetriesExhausted) as err:
        backend.complete(transcript_for("Honk."))
    assert err.value.attempts == 1


def test_auth_and_protocol_errors_are_not_retried():
    for exc in (AuthError("bad key"), ProtocolError("weird body", 500)):
        slept = []
        backend = MockChatBackend(
            make_flaky([exc]),
            config=mock_config(max_retries=5),
            sleep=slept.append,
        )
        with pytest.raises(type(exc)):
            backend.complete(transcript_for("Honk."))
        assert backend.send_count == 1
        assert slept == []


# =============================================================================
# Cache integration
# =============================================================================


def test_second_completion_is_a_cache_hit(tmp_path):
    cache = ResponseCache(tmp_path / "c")
    backend = MockChatBackend({"Honk.": "answer"}, cache=cache)
    first = backend.complete(transcript_for("Honk."))
    second = backend.complete(transcript_for("Honk."))
    assert (first.cache_hit, second.cache_hit) == (False, True)
    assert second.raw_text == "answer"
    assert second.attempt_count == 0
    assert backend.send_count == 1  # no second network round trip


def test_cache_is_keyed_by_transcript(tmp_path):
    cache = ResponseCache(tmp_path / "c")
    backend = MockChatBackend({"Honk.": "a", "Wave.": "b"}, cache=cache)
    assert backend.complete(transcript_for("Honk.")).raw_text == "a"
    assert backend.complete(transcript_for("Wave.")).raw_text == "b"
    assert backend.send_count == 2


# =============================================================================
# HTTP wire protocol
# =============================================================================


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else None
        self.server.seen.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        status, payload = self.server.responder(body)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    httpd.seen = []
    httpd.responder = lambda body: (
        200,
        {"choices": [{"message": {"role": "assistant", "content": "hello there"}}]},
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()


def http_config(server, **overrides) -> BackendConfig:
    defaults = dict(
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}",
        model_name="test-model",
        timeout_seconds=5.0,
    )
    defaults.update(overrides)
    return BackendConfig(**defaults)


def test_http_happy_path_sends_expected_payload(server, monkeypatch):
    monkeypatch.setenv("CMDREASON_API_KEY", "sk-test-123")
    backend = HttpChatBackend(http_config(server, temperature=0.5, max_output_tokens=77))
    result = backend.complete(transcript_for("Honk."))
    assert result.raw_text == "hello there"
    request = server.seen[0]
    assert request["path"] == "/chat/completions"
    assert request["auth"] == "Bearer sk-test-123"
    assert request["body"] == {
        "model": "test-model",
        "messages": [
            {"role": "system", "content": "Answer the questions."},
            {"role": "user", "content": "Honk."},
        ],
        "temperature": 0.5,
        "max_tokens": 77,
    }


def test_http_posts_trailing_slash_endpoint_to_one_url(server):
    url = http_config(server).endpoint_url + "/"
    HttpChatBackend(http_config(server, endpoint_url=url)).complete(transcript_for("Honk."))
    assert server.seen[0]["path"] == "/chat/completions"


def test_http_omits_auth_header_without_key(server, monkeypatch):
    monkeypatch.delenv("CMDREASON_API_KEY", raising=False)
    HttpChatBackend(http_config(server)).complete(transcript_for("Honk."))
    assert server.seen[0]["auth"] is None


@pytest.mark.parametrize(
    "status,error",
    [(401, AuthError), (403, AuthError), (429, RateLimited), (500, ProtocolError)],
)
def test_http_status_mapping(server, status, error):
    server.responder = lambda body: (status, {"error": "nope"})
    backend = HttpChatBackend(http_config(server))
    with pytest.raises(error):
        backend._send(transcript_for("Honk."))


def test_http_malformed_bodies_are_protocol_errors(server):
    for payload in (b"not json at all", {"unexpected": "shape"}, {"choices": []}):
        server.responder = lambda body, p=payload: (200, p)
        with pytest.raises(ProtocolError):
            HttpChatBackend(http_config(server))._send(transcript_for("Honk."))


def test_http_connection_refused_maps_to_timeout():
    config = BackendConfig(
        endpoint_url="http://127.0.0.1:9", model_name="m", timeout_seconds=2.0
    )
    with pytest.raises(Timeout):
        HttpChatBackend(config)._send(transcript_for("Honk."))
