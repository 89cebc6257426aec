"""A chat-completions stub endpoint, run in its own process by the benchmark.

    python3 bench/stub.py --seed 1 [--delay]

Binds 127.0.0.1 on a free port and prints the port on its first stdout line.
It serves until its standard input closes, so it ends with the process that
started it, however that process ends.
``POST .../chat/completions`` answers with ``stubgen.planned_answer`` for the
request's final user message and transcript length; with ``--delay`` it
first sleeps ``stubgen.request_delay`` for the request.  ``GET /stats``
returns the number of completions requests received, their summed delay,
and for each level of concurrency the seconds the stub spent serving that
many completions requests at once.

Each response goes out in one write: headers and body sent apart meet the
client's delayed ACK and stall every request by about 40 ms.
"""
from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import stubgen


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, seed: int, delay: bool) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.seed = seed
        self.delay = delay
        self.lock = threading.Lock()
        self.requests = 0
        self.delay_total = 0.0
        self.in_flight = 0
        self.level_s = [0.0]
        self._since = time.monotonic()

    def advance(self, step: int = 0) -> None:
        """Close the current concurrency interval and move the level by step; hold lock."""
        now = time.monotonic()
        self.level_s[self.in_flight] += now - self._since
        self._since = now
        self.in_flight += step
        if self.in_flight == len(self.level_s):
            self.level_s.append(0.0)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _reply(self, status: str, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply("404 Not Found", {"error": "no such route"})
            return
        with self.server.lock:
            self.server.advance()
            stats = {
                "requests": self.server.requests,
                "delay_s": self.server.delay_total,
                "level_s": list(self.server.level_s),
            }
        self._reply("200 OK", stats)

    def do_POST(self) -> None:
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if not self.path.endswith("/chat/completions"):
            self._reply("404 Not Found", {"error": "no such route"})
            return
        messages = request["messages"]
        command = messages[-1]["content"]
        delay = 0.0
        if self.server.delay:
            delay = stubgen.request_delay(
                self.server.seed, command, len(messages), len(messages[0]["content"])
            )
        with self.server.lock:
            self.server.requests += 1
            self.server.delay_total += delay
            self.server.advance(+1)
        try:
            if delay:
                time.sleep(delay)
            answer = stubgen.planned_answer(self.server.seed, command, len(messages))
            self._reply("200 OK", {
                "object": "chat.completion",
                "model": request.get("model"),
                "choices": [{
                    "index": 0,
                    "message": {"role": "assistant", "content": answer.text},
                    "finish_reason": "stop",
                }],
            })
        finally:
            with self.server.lock:
                self.server.advance(-1)

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--delay", action="store_true")
    args = parser.parse_args()
    server = StubServer(args.seed, args.delay)
    print(server.server_address[1], flush=True)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    sys.stdin.read()  # the serving threads are daemons and end with the process


if __name__ == "__main__":
    main()
