"""Keyed pseudo-random functions driving reversible cloaking.

The paper (Section III): *"the secret key is used to generate a sequence of
pseudo-random numbers and each pseudo-random number controls the selection of
one transition. The i-th pseudo-random number R_i is responsible for both the
i-th forward transition and the (n-i)-th backward transition."*

We realise the sequence as an HMAC-SHA256 PRF (decision D3 in DESIGN.md):

    R_i = int.from_bytes(HMAC(key, domain || uint64(i)))

which gives both sides of the protocol an identical, cryptographically strong
stream that is infeasible to predict without the key — exactly the property
the paper's security argument relies on ("without the secret key, the cloaked
region preserves strong privacy properties ... even when the adversary has
complete knowledge about the location perturbation algorithm").

One mechanism computes every keyed HMAC in the system: :class:`KeyedHmac`,
the two absorbed SHA-256 pad states (``key ^ ipad`` and ``key ^ opad``) of
one key. Each :class:`~repro.keys.keys.AccessKey` builds its own on first
use (:attr:`AccessKey.hmac <repro.keys.keys.AccessKey.hmac>`) and drops it
with the key, so no key-derived state outlives the key object a request
parsed. PRF draws (:class:`PrfDrawer`), anchor seals, witness tags and level
MACs all resume copies of those two states: bit-identical to the standard
library's HMAC-SHA256, without re-absorbing the padded key and building an
HMAC object for every digest.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Tuple

__all__ = ["KeyedHmac", "PrfDrawer"]

_SHA256_BLOCK_BYTES = 64
#: Byte maps XOR-ing every byte with the HMAC inner/outer pad constants.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))

# The builtin (non-OpenSSL) SHA-256 has lower per-call overhead for the
# short messages the PRF hashes; digests are identical either way.
try:
    from _sha256 import sha256 as _sha256
except ImportError:  # pragma: no cover - every CPython we target has it
    _sha256 = hashlib.sha256


class KeyedHmac:
    """The absorbed HMAC-SHA256 pad states of one key.

    HMAC(key, m) = H(key ^ opad || H(key ^ ipad || m)). Both pad prefixes
    are a pure function of the key, so they are hashed once here and every
    digest resumes ``copy()``-ies of the two states — bit-identical to the
    standard library's HMAC-SHA256 (keys longer than the SHA-256 block are
    pre-hashed exactly as the HMAC spec requires).
    """

    __slots__ = ("inner", "outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _SHA256_BLOCK_BYTES:
            key = _sha256(key).digest()
        padded = key.ljust(_SHA256_BLOCK_BYTES, b"\x00")
        self.inner = _sha256(padded.translate(_IPAD))
        self.outer = _sha256(padded.translate(_OPAD))

    def digest(self, message: bytes) -> bytes:
        """``HMAC-SHA256(key, message)``."""
        ih = self.inner.copy()
        ih.update(message)
        oh = self.outer.copy()
        oh.update(ih.digest())
        return oh.digest()


class PrfDrawer:
    """The PRF stream of one (key, domain) pair.

    Binding absorbs the ``domain`` prefix into a copy of the key's inner
    state a single time, so every draw — single or block — hashes only its
    8 index bytes on top of the resumed states. The ``index``-th value is
    ``int.from_bytes(HMAC(key, domain || uint64(index)), "big")``; the hot
    expansion loops hold one drawer per level.
    """

    __slots__ = ("_inner_dom", "_outer")

    def __init__(self, hmac: KeyedHmac, domain: bytes) -> None:
        self._inner_dom = hmac.inner.copy()
        self._inner_dom.update(domain)
        self._outer = hmac.outer

    def value(self, index: int) -> int:
        """The ``index``-th stream value (a 256-bit non-negative integer)."""
        if index < 0:
            raise ValueError(f"PRF index must be non-negative, got {index}")
        ih = self._inner_dom.copy()
        ih.update(index.to_bytes(8, "big"))
        oh = self._outer.copy()
        oh.update(ih.digest())
        return int.from_bytes(oh.digest(), "big")

    def block(self, indices: Iterable[int]) -> Tuple[int, ...]:
        """Stream values for many ``indices`` in one tight loop."""
        icopy = self._inner_dom.copy
        ocopy = self._outer.copy
        from_bytes = int.from_bytes
        out: List[int] = []
        append = out.append
        for index in indices:
            if index < 0:
                raise ValueError(f"PRF index must be non-negative, got {index}")
            ih = icopy()
            ih.update(index.to_bytes(8, "big"))
            oh = ocopy()
            oh.update(ih.digest())
            append(from_bytes(oh.digest(), "big"))
        return tuple(out)
