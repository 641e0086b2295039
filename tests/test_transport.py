import base64
import json
import socket
import threading

from warc2meta.transport import Connection

from helpers import MockChatServer


def _read_request(conn):
    data = b""
    while b"\r\n\r\n" not in data:
        data += conn.recv(4096)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(next(line.split(b":")[1] for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length")))
    while len(body) < length:
        body += conn.recv(4096)
    return json.loads(body)


def test_reconnects_when_server_closed_idle_connection():
    """A kept-alive socket the server has since closed is not reused."""
    listener = socket.create_server(("127.0.0.1", 0))
    closed = threading.Event()
    seen = []

    def serve():
        for _ in range(2):
            conn, _ = listener.accept()
            with conn:
                seen.append(_read_request(conn))
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            closed.set()  # closed without a Connection: close header

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with listener, Connection(f"http://127.0.0.1:{listener.getsockname()[1]}/v1", 5) as conn:
        assert conn.post("/x", {"n": 1})[0] == 200
        assert closed.wait(5)
        assert conn.post("/x", {"n": 2})[0] == 200
    thread.join(5)
    assert seen == [{"n": 1}, {"n": 2}]


def test_proxy_credentials_from_environment(monkeypatch):
    for name in ("HTTP_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with MockChatServer(script=[b"{}"]) as server:
        proxy = server.base_url.replace("http://", "http://bench%20user:p%40ss@")
        monkeypatch.setenv("http_proxy", proxy)
        with Connection("http://warc2meta-proxy.invalid:8080/v1", 5) as conn:
            assert conn.post("/embeddings", {})[0] == 200
    assert server.paths == ["http://warc2meta-proxy.invalid:8080/v1/embeddings"]
    creds = base64.b64encode(b"bench user:p@ss").decode()
    assert server.headers[0]["Proxy-Authorization"] == f"Basic {creds}"
