"""Safe-prime groups and arithmetic in the quadratic-residue subgroup.

All protocol values live in QR(Z_p*), the subgroup of nonzero squares
modulo a safe prime p.  It is cyclic of prime order q = (p - 1) / 2, so
every exponent in [1, q - 1] acts as a bijection on it; that bijectivity
is what makes the layered masking invertible-by-composition and keeps
set cardinalities stable across encryption rounds.

:class:`GroupParams` is the group: exponentiation (``exp``), hashing into
the group (``hash_to_element``), exponent sampling (``sample_exponent``),
membership (``contains``) and the element codec are its methods, so the
rest of the package imports no arithmetic from here.
"""

from __future__ import annotations

import ctypes
import functools
import secrets
import threading
from dataclasses import dataclass

from .errors import (
    GroupParameterError,
    NotPrimeError,
    NotSafePrimeError,
    RngFailure,
    TooSmallPrimeError,
)

# --- modular exponentiation ------------------------------------------------
#
# Every exponentiation in the package goes through ``powmod``.  Wide
# exponents modulo a wide odd modulus go to OpenSSL's
# BN_mod_exp_mont_consttime through ctypes: the secret masking exponents
# are then raised by a constant-time routine, and ctypes drops the GIL
# for the call, so party threads exponentiate in parallel.  Everything
# else -- public small exponents such as hash_to_element's square, the toy
# moduli, even or non-positive arguments, or a missing library -- uses
# built-in ``pow``.  Both paths return identical integers.

_BN_FLG_CONSTTIME = 0x04

# Exponents or moduli of at most this many bits stay on ``pow``.  Up to
# about 64-bit moduli a libcrypto call's fixed cost (~10 us) exceeds
# ``pow``'s; exponents this short are public (hash_to_element's square),
# while secret exponents are drawn uniformly from [1, q - 1].
_POW_MAX_BITS = 64


class _Montgomery:
    """A modulus as a BIGNUM plus its Montgomery context, shared read-only."""

    def __init__(self, lib: "_Libcrypto", modulus: int):
        self.lib = lib
        self.width = (modulus.bit_length() + 7) // 8
        self.mont = lib.mont_new()
        self.bn = lib.bin2bn(modulus.to_bytes(self.width, "big"), self.width, None)
        ctx = lib.ctx_new()
        ok = self.mont and self.bn and ctx and lib.mont_set(self.mont, self.bn, ctx)
        lib.ctx_free(ctx)
        if not ok:
            raise MemoryError("libcrypto could not set up a Montgomery context")

    def __del__(self):
        self.lib.mont_free(self.mont)
        self.lib.bn_clear_free(self.bn)


class _Registers:
    """One thread's BN_CTX and result, base and exponent BIGNUMs."""

    def __init__(self, lib: "_Libcrypto"):
        self.lib = lib
        self.ctx = lib.ctx_new()
        self.bns = (lib.bn_new(), lib.bn_new(), lib.bn_new())
        if not (self.ctx and all(self.bns)):
            raise MemoryError("libcrypto could not allocate BIGNUMs")
        lib.set_flags(self.bns[2], _BN_FLG_CONSTTIME)

    def __del__(self):
        for bn in self.bns:
            self.lib.bn_clear_free(bn)
        self.lib.ctx_free(self.ctx)


class _Libcrypto:
    """ctypes bindings for the few BIGNUM calls ``powmod`` needs."""

    def __init__(self, lib: ctypes.CDLL):
        ptr, c_int, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p

        def bind(name, restype, *argtypes):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
            return fn

        self.ctx_new = bind("BN_CTX_new", ptr)
        self.ctx_free = bind("BN_CTX_free", None, ptr)
        self.bn_new = bind("BN_new", ptr)
        self.bn_clear_free = bind("BN_clear_free", None, ptr)
        self.set_flags = bind("BN_set_flags", None, ptr, c_int)
        self.bin2bn = bind("BN_bin2bn", ptr, buf, c_int, ptr)
        self.bn2binpad = bind("BN_bn2binpad", c_int, ptr, buf, c_int)
        self.mont_new = bind("BN_MONT_CTX_new", ptr)
        self.mont_set = bind("BN_MONT_CTX_set", c_int, ptr, ptr, ptr)
        self.mont_free = bind("BN_MONT_CTX_free", None, ptr)
        self.exp = bind(
            "BN_mod_exp_mont_consttime", c_int, ptr, ptr, ptr, ptr, ptr, ptr
        )
        self._local = threading.local()
        self.montgomery = functools.lru_cache(maxsize=16)(
            functools.partial(_Montgomery, self)
        )

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``pow(base, exponent, modulus)`` for 0 <= base < modulus, odd modulus."""
        regs = getattr(self._local, "regs", None)
        if regs is None:
            regs = self._local.regs = _Registers(self)
        result, bn_base, bn_exp = regs.bns
        mont = self.montgomery(modulus)
        raw_base = base.to_bytes(mont.width, "big")
        raw_exp = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
        out = ctypes.create_string_buffer(mont.width)
        if not (
            self.bin2bn(raw_base, len(raw_base), bn_base)
            and self.bin2bn(raw_exp, len(raw_exp), bn_exp)
            and self.exp(result, bn_base, bn_exp, mont.bn, regs.ctx, mont.mont)
            and self.bn2binpad(result, out, mont.width) == mont.width
        ):
            raise ArithmeticError("libcrypto modular exponentiation failed")
        return int.from_bytes(out.raw, "big")


def _load_libcrypto() -> _Libcrypto | None:
    # By soname: ctypes.util.find_library would start a subprocess.  The
    # hashlib module has normally mapped this library already.
    try:
        return _Libcrypto(ctypes.CDLL("libcrypto.so.3"))
    except (OSError, AttributeError):
        return None


_libcrypto = _load_libcrypto()


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, constant-time via libcrypto when wide."""
    lib = _libcrypto
    if (
        lib is None
        or exponent.bit_length() <= _POW_MAX_BITS
        or exponent < 0
        or modulus.bit_length() <= _POW_MAX_BITS
        or modulus < 0
        or not modulus & 1
    ):
        return pow(base, exponent, modulus)
    return lib.powmod(base % modulus, exponent, modulus)


MIN_MODULUS = 7
MILLER_RABIN_ROUNDS = 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# 512-bit safe prime used by the test/acceptance suites.  Found by a
# deterministic next-prime search and re-validated on every release with
# 64 Miller-Rabin rounds on both p and (p - 1) / 2.
P512 = int(
    "caceb86f2b6d0d8a6974b59de10cffef0d31d2bf71a0b1d52fb436e53ffc3b32"
    "d0c20e583cea75270cc357c0b6372168cec5669e9c4dd51cc0646b43cb26bdc7",
    16,
)

# RFC 3526 group 14 (2048-bit MODP).  A widely deployed safe prime; the
# production default.
P2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

#: Named, pre-validated moduli.  p7/p23 are toy groups for unit tests,
#: p512 is the acceptance-suite group, modp2048 the production default.
PRESETS = {
    "p7": 7,
    "p23": 23,
    "p512": P512,
    "modp2048": P2048,
}

DEFAULT_PRESET = "modp2048"


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin test with ``rounds`` random bases after trial division."""
    if n < 2:
        return False
    for small in _SMALL_PRIMES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + secrets.randbelow(n - 3)
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """QR(Z_p*) for a validated safe prime ``p``, with every group operation.

    The subgroup order ``q`` and the element width follow from ``p``.
    Elements serialize as fixed-width big-endian byte strings of
    ``element_width`` bytes (leading zero bytes included); that encoding
    is normative for the wire format and for Bloom-filter hashing.
    """

    p: int

    @property
    def q(self) -> int:
        """Prime order of the subgroup, (p - 1) / 2."""
        return (self.p - 1) // 2

    @property
    def element_width(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def encode_element(self, value: int) -> bytes:
        return value.to_bytes(self.element_width, "big")

    def encode_elements(self, values) -> bytes:
        """The elements back to back, as :meth:`encode_element` writes each."""
        width = self.element_width
        return b"".join([value.to_bytes(width, "big") for value in values])

    def decode_element(self, raw: bytes) -> int:
        if len(raw) != self.element_width:
            raise ValueError(
                f"expected {self.element_width} element bytes, got {len(raw)}"
            )
        value = int.from_bytes(raw, "big")
        if not 1 <= value < self.p:
            raise ValueError("element outside [1, p)")
        return value

    def decode_elements(self, raw: bytes) -> list[int]:
        """Split ``raw`` into elements, checked like :meth:`decode_element`."""
        width = self.element_width
        if len(raw) % width:
            raise ValueError(f"{len(raw)} bytes are not a whole number of elements")
        values = [
            int.from_bytes(raw[pos : pos + width], "big") for pos in range(0, len(raw), width)
        ]
        if values and not (1 <= min(values) and max(values) < self.p):
            raise ValueError("element outside [1, p)")
        return values

    def exp(self, value: int, exponent: int) -> int:
        """Raise a subgroup element to a secret exponent modulo p."""
        return powmod(value, exponent, self.p)

    def sample_exponent(self, rng) -> int:
        """Draw a uniform secret exponent from [1, q - 1].

        Zero is excluded: exponent 0 collapses every element to 1 and the
        masking stops being a bijection.
        """
        if self.q < 3:
            raise RngFailure(f"subgroup order {self.q} leaves no nonzero exponents")
        try:
            return rng.randrange(1, self.q)
        except RngFailure:
            raise
        except Exception as exc:  # rng implementations may fail arbitrarily
            raise RngFailure(f"randomness source failed: {exc}") from exc

    def hash_to_element(self, value: int) -> int:
        """Map a non-negative integer (a hash output) into the QR subgroup.

        Shift-then-square: ((value mod (p-1)) + 1)^2 mod p.  The +1 removes
        the residue class that would square to zero; squaring lands in the
        quadratic residues.  Deterministic, so all parties agree.
        """
        if value < 0:
            raise ValueError("hash values must be non-negative")
        shifted = (value % (self.p - 1)) + 1
        return powmod(shifted, 2, self.p)

    def contains(self, value: int) -> bool:
        """Euler criterion membership test for the order-q subgroup."""
        return 1 <= value < self.p and powmod(value, self.q, self.p) == 1


@functools.lru_cache(maxsize=16)
def make_group_params(source: int | str) -> GroupParams:
    """Build GroupParams from a preset name or an explicit modulus.

    Preset moduli are pre-validated constants; explicit values go through
    probabilistic safe-prime validation (Miller-Rabin on p and (p-1)/2).
    Results are memoized, so a process validates a modulus once: the
    modulus is public and GroupParams is an immutable value of it.  A
    rejected modulus raises on every call, since errors are not cached.
    """
    if isinstance(source, str):
        try:
            return GroupParams(PRESETS[source])
        except KeyError:
            known = ", ".join(sorted(PRESETS))
            raise GroupParameterError(
                f"unknown group preset {source!r} (known: {known})"
            ) from None

    p = int(source)
    if p < MIN_MODULUS:
        raise TooSmallPrimeError(f"modulus {p} is below the minimum {MIN_MODULUS}")
    if not is_probable_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")
    group = GroupParams(p)
    if not is_probable_prime(group.q):
        raise NotSafePrimeError(f"{p} is prime but (p-1)/2 = {group.q} is not")
    return group
