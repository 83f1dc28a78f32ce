"""Key management: keyed HMAC/PRF, level keys, chains, access-control profiles."""

from .access_control import AccessControlProfile, KeyGrant, Requester
from .keys import AccessKey, KeyChain
from .prf import KeyedHmac, PrfDrawer

__all__ = [
    "KeyedHmac",
    "PrfDrawer",
    "AccessKey",
    "KeyChain",
    "Requester",
    "AccessControlProfile",
    "KeyGrant",
]
