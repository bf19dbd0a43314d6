"""Deterministic random-number management.

Every stochastic component in the simulator (network jitter, scheduler noise,
failure injection, workload input generation) draws from its own named
stream.  Streams are derived from a single master seed so that adding a new
consumer does not perturb the numbers drawn by existing ones, and the whole
simulation stays reproducible across runs and platforms.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def derive_seed(master_seed: int, *names: str) -> int:
    """Derive a child seed from ``master_seed`` and a sequence of names.

    The derivation uses SHA-256 over the master seed and the names, which is
    stable across Python versions and machines (unlike ``hash``).
    """
    digest = hashlib.sha256()
    digest.update(str(int(master_seed)).encode("utf-8"))
    for name in names:
        digest.update(b"\x00")
        digest.update(str(name).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little")


def derive_generator(master_seed: int, *names: str) -> np.random.Generator:
    """A fresh generator seeded by ``derive_seed(master_seed, *names)``.

    This is the **shard-stable** derivation: the sequence a consumer draws
    depends only on its *name*, never on how many other consumers exist or
    in what order they were created.  The mergeable reservoirs seed their
    tag streams through it directly; the per-function simulator streams
    (compute/network/reliability/eviction, keyed by function name) get the
    same property through :meth:`RandomStreams.stream`, which applies the
    identical ``derive_seed`` naming scheme.  Replaying any subset of
    functions — e.g. one shard of a partitioned trace — therefore draws
    exactly the numbers the full replay would have drawn for those
    functions, which is what makes sharded parallel replay bit-identical
    to serial replay (see :mod:`repro.parallel`).
    """
    return np.random.default_rng(derive_seed(master_seed, *names))


class RandomStreams:
    """A factory of named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 42):
        self._master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, *names: str) -> np.random.Generator:
        """Return the generator registered under ``names``, creating it lazily."""
        key = "/".join(str(name) for name in names)
        if key not in self._streams:
            self._streams[key] = np.random.default_rng(derive_seed(self._master_seed, key))
        return self._streams[key]

    def lazy(self, *names: str) -> "LazyStream":
        """A handle on :meth:`stream` ``(*names)`` that derives it on first use."""
        return LazyStream(self, names)

    def fork(self, *names: str) -> "RandomStreams":
        """Return a new :class:`RandomStreams` seeded from a named child seed."""
        return RandomStreams(derive_seed(self._master_seed, "fork", *names))

    def reset(self) -> None:
        """Drop all created streams so the next draw restarts each sequence."""
        self._streams.clear()


class LazyStream:
    """A named :class:`RandomStreams` stream, derived on its first draw.

    Deriving a generator costs a SHA-256 and a bit-generator seeding (tens
    of microseconds), and many per-function streams of a large population
    are never drawn from (AWS never draws reliability or spurious
    cold-start uniforms).  A stream's sequence depends only on its name, so
    deriving it late yields exactly the values an eager derivation would.
    Attribute access (``random``, ``uniform``, …) resolves the stream and
    delegates; hot paths call :meth:`resolve` once and keep the generator.
    """

    __slots__ = ("_streams", "_names", "_rng")

    def __init__(self, streams: RandomStreams, names: tuple[str, ...]):
        self._streams = streams
        self._names = names
        self._rng: np.random.Generator | None = None

    def resolve(self) -> np.random.Generator:
        """The underlying generator, derived (and registered) on first call."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._streams.stream(*self._names)
        return rng

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.resolve(), name)


@functools.lru_cache(maxsize=256)
def lognormal_jitter(cv: float) -> tuple[float, float] | None:
    """``(mean, sigma)`` of the mean-one lognormal jitter with coefficient of variation ``cv``.

    The one home of ``sigma = sqrt(log(1 + cv^2))`` and ``mean = -sigma^2 / 2``:
    the compute and storage models compile their jitter parameters here, so
    every path draws with the same floats.  ``None`` when ``cv <= 0``: the
    jitter is exactly 1 and no value is drawn.
    """
    if cv <= 0:
        return None
    sigma = float(np.sqrt(np.log(1.0 + cv**2)))
    return (-(sigma**2) / 2.0, sigma)
