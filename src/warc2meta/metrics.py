"""String and embedding similarity metrics.

Levenshtein compares NFC-normalized strings case-sensitively over
Unicode scalar values. The embedding-based score uses greedy matching
over a token-pair cosine matrix with no IDF weighting and no baseline
rescaling, so results are directly comparable across providers.

numpy and the HTTP transport are imported inside the functions that
run them, so the stages that only compare strings, or none at all,
never load them.
"""

from __future__ import annotations

import hashlib
import json
import os
import unicodedata
from typing import TYPE_CHECKING, Protocol, Tuple

from .config import ClientConfig
from .errors import ApiError, EmptyText

if TYPE_CHECKING:
    import numpy as np

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # numpy: a 2nd BLAS thread only spins here


def levenshtein(a: str, b: str) -> int:
    """Minimum single-character edit count between a and b.

    Bit-vector DP of Myers 1999 in Hyyro's 2003 form: bit i of pv/mv marks
    a +1/-1 step from row i to i+1 of the current column. Python ints are
    unbounded, so the longer string fits in one vector at any length.
    """
    a = unicodedata.normalize("NFC", a)
    b = unicodedata.normalize("NFC", b)
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    full = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = full, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


class EmbeddingProvider(Protocol):
    def embed(self, text: str) -> np.ndarray:
        """A (tokens, dim) array of text's unit-norm token vectors, one row
        per token (a zero vector stays zero), deterministic per provider."""
        ...


class MockEmbeddingProvider:
    """Deterministic hash-seeded embeddings for offline tests.

    Each distinct token maps to a fixed unit vector; identical texts
    always embed identically across processes.
    """

    def __init__(self, dim: int = 16):
        self.dim = dim
        self._cache = {}

    def _vector(self, token: str) -> np.ndarray:
        if token not in self._cache:
            import numpy as np

            seed = int.from_bytes(
                hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
            )
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(self.dim)
            self._cache[token] = v / np.linalg.norm(v)
        return self._cache[token]

    def embed(self, text: str) -> np.ndarray:
        import numpy as np

        return np.array([self._vector(t) for t in text.split()]).reshape(-1, self.dim)


class EmbeddingMemo:
    """A provider that embeds each distinct text once, through the one it wraps."""

    def __init__(self, provider: EmbeddingProvider):
        self.provider = provider
        self.memo = {}  # text -> embedding
        self.hits = 0  # embeddings served from the memo

    def embed(self, text: str) -> np.ndarray:
        if text in self.memo:
            self.hits += 1
        else:
            self.memo[text] = self.provider.embed(text)
        return self.memo[text]


class HttpEmbeddingProvider:
    """Client for an embeddings endpoint that returns per-token vectors.

    Wire format: POST {base_url}/embeddings with {"model": ..., "input":
    [text]}; the response carries data[i].tokens and data[i].embeddings.
    One connection (see `transport`) serves every call. A reply that is
    not 2xx, or not that shape, raises ApiError.
    """

    def __init__(self, base_url: str, model: str, timeout: float = ClientConfig.timeout):
        from .transport import Connection

        self.model = model
        self.conn = Connection(base_url, timeout)

    def embed(self, text: str) -> np.ndarray:
        import numpy as np

        status, _, data = self.conn.post("/embeddings", {"model": self.model, "input": [text]})
        if not 200 <= status < 300:
            raise ApiError(status, data.decode("utf-8", "replace"))
        try:
            entry = json.loads(data)["data"][0]
            rows = [vec for _, vec in zip(entry["tokens"], entry["embeddings"])]
            vecs = np.array(rows, dtype=np.float64) if rows else np.zeros((0, 0))
            if vecs.ndim != 2:
                raise ValueError(f"embeddings of shape {vecs.shape}, not (tokens, dim)")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ApiError(status, f"malformed embeddings body: {exc}")
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1  # a zero vector stays zero
        return vecs / norms[:, None]


def bertscore(
    candidate: str, reference: str, provider: EmbeddingProvider
) -> Tuple[float, float, float]:
    """Greedy-matched (precision, recall, f1) over token cosine similarities."""
    c = provider.embed(candidate)
    r = provider.embed(reference)
    if not len(c) or not len(r):
        raise EmptyText("both texts must produce at least one token")
    sim = c @ r.T
    precision = float(sim.max(axis=1).mean())
    recall = float(sim.max(axis=0).mean())
    denom = precision + recall
    f1 = 2 * precision * recall / denom if denom != 0 else 0.0
    return precision, recall, f1
