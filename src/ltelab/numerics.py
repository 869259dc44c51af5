"""Dense matrix kernels, splittable randomness and initialization.

Matrices are plain 2-D float64 numpy arrays (rows x cols). All functions here
are pure: they never mutate their inputs, and returned arrays are owned by the
caller. Randomness flows through :class:`RandomSource`, a counter-based
(Philox) generator whose children are derived from labels rather than from the
parent's draw position, so parallel streams are reproducible and independent
of execution order.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

Matrix = np.ndarray

INIT_KINDS = ("kaiming", "xavier", "semi_orthogonal")

__all__ = [
    "Matrix",
    "InitScheme",
    "RandomSource",
    "as_matrix",
    "frobenius",
    "init_matrix",
    "init_stack",
    "load_matrix_csv",
    "save_matrix_csv",
    "svd",
]


def as_matrix(values, what: str = "matrix", stacked: bool = False) -> Matrix:
    """Coerce to a 2-D float64 array (with stacked=True, a 3-D stack of
    equal-shape matrices) and check every entry is finite."""
    m = np.asarray(values, dtype=np.float64)
    ndim = 3 if stacked else 2
    if m.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{what} must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")
    return m


def _label_word(label) -> int:
    """Map a stream label to a non-negative integer key word."""
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"integer stream labels must be >= 0, got {label}")
        return int(label)
    if isinstance(label, str):
        digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")


def _uint32_words(n: int) -> list[int]:
    """n's little-endian 32-bit words, [0] for 0, as SeedSequence splits an int."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _stream_words(seed: int, path: tuple[int, ...]) -> np.ndarray:
    """The uint32 words SeedSequence assembles from (entropy=seed,
    spawn_key=path): the seed's, zero-padded to the pool size under a
    non-empty path, then each path entry's."""
    words = _uint32_words(seed)
    if path:
        words += [0] * (4 - len(words))  # SeedSequence's pool size
        for label in path:
            words += _uint32_words(label)
    return np.array(words, dtype=np.uint32)


class RandomSource:
    """Seeded, splittable randomness on a counter-based (Philox) generator.

    A source is single-owner: drawing from it advances its state. Children are
    derived purely from ``(seed, label path)``, never from how much the parent
    has drawn, so ``child(...)`` commutes with drawing and the streams of
    distinct label paths are mutually independent and reproducible.

    The stream at ``(seed, path)`` is exactly
    ``SeedSequence(entropy=seed, spawn_key=path)``'s, seeded from the uint32
    words that SeedSequence assembles from the two (`_stream_words`), which
    spares SeedSequence coercing the path element by element.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self.path = tuple(_path)
        ss = np.random.SeedSequence(_stream_words(seed, self.path))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, *labels) -> "RandomSource":
        """Derive an independent stream named by `labels` (ints or strings)."""
        if not labels:
            raise ValueError("child() needs at least one label")
        return RandomSource(self.seed, self.path + tuple(_label_word(x) for x in labels))

    def standard_normal(self, shape, out: np.ndarray | None = None) -> np.ndarray:
        """Draw `shape` normals, into `out` (C-contiguous, of that shape) if given."""
        return self._gen.standard_normal(shape, out=out)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self.path})"


@dataclass(frozen=True)
class InitScheme:
    """Weight initialization family plus a multiplicative gain.

    kind:
      - "kaiming":         i.i.d. normal, std sqrt(2 / fan_in)
      - "xavier":          uniform on +-sqrt(6 / (fan_in + fan_out))
      - "semi_orthogonal": orthonormal rows (rows <= cols) or columns,
                           scaled by sqrt(rows / cols)

    The right gain for adapter matrices behind a zero-initialized residual
    branch is not settled, so it stays a free parameter (default 1).
    """

    kind: str
    gain: float = 1.0

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"init kind must be one of {INIT_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.gain):
            raise ValueError("init gain must be finite")


def init_matrix(rows: int, cols: int, scheme: InitScheme, rng: RandomSource) -> Matrix:
    """Draw a (rows x cols) matrix from the given scheme.

    cols plays fan-in and rows plays fan-out throughout, matching the
    column-vector convention ``y = W @ x``.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape must be positive, got {rows}x{cols}")
    if scheme.kind == "kaiming":
        out = rng.standard_normal((rows, cols)) * math.sqrt(2.0 / cols)
    elif scheme.kind == "xavier":
        bound = math.sqrt(6.0 / (rows + cols))
        out = rng.uniform(-bound, bound, (rows, cols))
    else:
        out = _semi_orthogonal(rows, cols, rng)
    if scheme.gain != 1.0:
        out = out * scheme.gain
    return out


def init_stack(k: int, rows: int, cols: int, scheme: InitScheme, rng: RandomSource,
               *labels) -> np.ndarray:
    """A (k, rows, cols) stack whose slice h is bitwise
    ``init_matrix(rows, cols, scheme, rng.child(*labels, h))``: the one
    place where head h of a stack draws from its own child stream. One
    generator serves every slice, re-keyed per slice as Philox keys a
    fresh stream (the key from the child's SeedSequence, counter 0, an
    empty buffer), which spares building a generator per slice."""
    out = np.empty((k, rows, cols))
    src = rng.child(*labels, 0)
    bits = src._gen.bit_generator
    fresh = bits.state  # counter 0, empty buffer: only the key differs per slice
    words = _stream_words(src.seed, src.path)  # the last word is the slice index, h < 2**32
    for h in range(k):
        if h:
            words[-1] = h
            fresh["state"]["key"] = np.random.SeedSequence(words).generate_state(2, np.uint64)
            bits.state = fresh
        out[h] = init_matrix(rows, cols, scheme, src)
    return out


def _semi_orthogonal(rows: int, cols: int, rng: RandomSource) -> Matrix:
    """Semi-orthogonal matrix scaled by sqrt(rows / cols).

    Built as the Q factor of a Gaussian matrix with the signs of R's diagonal
    fixed, which makes the draw a deterministic function of the Gaussian
    sample (QR sign ambiguity removed). For rows <= cols the result has
    orthonormal rows pre-scaling, otherwise orthonormal columns.
    """
    small = min(rows, cols)
    big = max(rows, cols)
    gauss = rng.standard_normal((big, small))
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    out = q.T if rows <= cols else q
    return out * math.sqrt(rows / cols)


def svd(m: Matrix) -> tuple[Matrix, np.ndarray, Matrix]:
    """Thin SVD: m = U @ diag(s) @ Vt with s descending and >= 0.

    U and V have orthonormal columns. Raises np.linalg.LinAlgError if the
    underlying iteration fails to converge.
    """
    m = as_matrix(m, "svd input")
    return np.linalg.svd(m, full_matrices=False)


def singular_values(m: Matrix) -> np.ndarray:
    """Singular values only, descending."""
    m = as_matrix(m, "singular_values input")
    return np.linalg.svd(m, compute_uv=False)


def frobenius(m: Matrix) -> float:
    """Frobenius norm, summed by numpy: `np.linalg.norm` sums through BLAS,
    whose summation order, so its last bit, follows the thread count."""
    return float(np.sqrt(np.sum(m * m)))


def save_matrix_csv(m: Matrix, path: str | os.PathLike) -> None:
    """Write one CSV line per row using shortest round-trip decimals."""
    m = as_matrix(m, "csv matrix")
    with open(path, "w", encoding="ascii") as fh:
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_matrix_csv(path: str | os.PathLike) -> Matrix:
    """Inverse of save_matrix_csv; reproduces the saved matrix bit-for-bit."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    return as_matrix(rows, f"csv file {path}")
