"""String and embedding similarity metrics.

Levenshtein compares NFC-normalized strings case-sensitively over
Unicode scalar values. The embedding-based score uses greedy matching
over a token-pair cosine matrix with no IDF weighting and no baseline
rescaling. A text's tokens are `text.split()` for every provider, so
results are directly comparable across providers. Each token has one
static vector wherever it occurs, not BERTScore's contextual one
(Zhang et al. 2020), which would need model weights.

numpy and the HTTP transport are imported inside the functions that
run them, so the stages that only compare strings, or none at all,
never load them.
"""

from __future__ import annotations

import json
import math
import os
import struct
import unicodedata
from typing import TYPE_CHECKING, Iterable, Protocol, Tuple

from .config import shake_256
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
    def embed(self, tokens: Tuple[str, ...]) -> np.ndarray:
        """A (len(tokens), dim) float64 array, one unit-norm row per token
        (a zero vector stays zero), deterministic per provider."""
        ...


class MockEmbeddingProvider:
    """Deterministic offline embeddings from the standard library alone: a
    token's shake_256 digest of 8 * dim bytes, read as dim little-endian
    64-bit words w, gives the components (w >> 11) * 2**-52 - 1 in [-1, 1),
    exactly, over their fsum-based norm. So a token's vector is
    bit-identical on every platform and Python or numpy version."""

    dim = 16

    def embed(self, tokens: Tuple[str, ...]) -> np.ndarray:
        import numpy as np

        rows = []
        for token in tokens:
            digest = shake_256(token.encode("utf-8")).digest(8 * self.dim)
            v = [(w >> 11) * 2.0**-52 - 1 for w in struct.unpack(f"<{self.dim}Q", digest)]
            norm = math.sqrt(math.fsum(x * x for x in v)) or 1.0  # a zero vector stays zero
            rows.append([x / norm for x in v])
        return np.array(rows).reshape(len(tokens), self.dim)


class HttpEmbeddingProvider:
    """Client for an OpenAI-style embeddings endpoint.

    Wire format: POST {base_url}/embeddings with {"model": ..., "input":
    [token, ...]}; data[i].embedding in the reply is the vector of
    input[data[i].index]. One connection (see `transport`) serves every
    call. A reply that is not 2xx or not that shape raises ApiError.
    """

    def __init__(self, base_url: str, model: str):
        from .transport import Connection

        self.model = model
        self.conn = Connection(base_url)

    def embed(self, tokens: Tuple[str, ...]) -> np.ndarray:
        import numpy as np

        status, _, data = self.conn.post("/embeddings", {"model": self.model, "input": tokens})
        if not 200 <= status < 300:
            raise ApiError(status, data.decode("utf-8", "replace"))
        try:
            entries = sorted(json.loads(data)["data"], key=lambda e: e["index"])
            if [e["index"] for e in entries] != list(range(len(tokens))):
                raise ValueError(f"indices are not 0..{len(tokens) - 1}")
            vecs = np.array([e["embedding"] for e in entries])
            if vecs.ndim != 2 or vecs.dtype.kind not in "iuf" or not np.isfinite(vecs).all():
                raise ValueError(f"embeddings of shape {vecs.shape} and type {vecs.dtype}, "
                                 "not finite numbers in (tokens, dim)")
        except (ValueError, KeyError, TypeError) as exc:
            raise ApiError(status, f"malformed embeddings body: {exc}")
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1  # a zero vector stays zero
        return vecs / norms[:, None]


EMBED_BATCH = 256  # tokens per provider call: common embeddings APIs cap the length of `input`


class TokenTable:
    """Each distinct whitespace token of some texts, embedded once, EMBED_BATCH at a time."""

    def __init__(self, provider: EmbeddingProvider, texts: Iterable[str]):
        import numpy as np

        tokens = list(dict.fromkeys(t for text in texts for t in text.split()))
        self.rows = {t: i for i, t in enumerate(tokens)}
        batches = [provider.embed(tuple(tokens[i:i + EMBED_BATCH]))
                   for i in range(0, len(tokens), EMBED_BATCH)]
        self.requests = len(batches)
        widths = sorted({b.shape[1] for b in batches})
        if len(widths) > 1:  # each call's 2xx reply is of one width; the calls may differ
            raise ApiError(200, f"embeddings of {widths} dimensions")
        self.vectors = np.concatenate(batches) if batches else np.zeros((0, 0))

    def matrix(self, text: str) -> np.ndarray:
        """text's (tokens, dim) matrix: a row per whitespace token, in order."""
        return self.vectors.take([self.rows[t] for t in text.split()], axis=0)


def bertscore(candidate: str, reference: str, table: TokenTable) -> Tuple[float, float, float]:
    """Greedy-matched (precision, recall, f1) over token cosine similarities."""
    c, r = table.matrix(candidate), table.matrix(reference)
    if not len(c) or not len(r):
        raise EmptyText("both texts must produce at least one token")
    sim = c @ r.T
    precision = float(sim.max(axis=1).mean())
    recall = float(sim.max(axis=0).mean())
    denom = precision + recall
    f1 = 2 * precision * recall / denom if denom != 0 else 0.0
    return precision, recall, f1
