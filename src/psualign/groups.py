"""Safe-prime groups and arithmetic in the quadratic-residue subgroup.

All protocol values live in QR(Z_p*), the subgroup of nonzero squares
modulo a safe prime p.  It is cyclic of prime order q = (p - 1) / 2, so
every exponent in [1, q - 1] acts as a bijection on it; that bijectivity
is what makes the layered masking invertible-by-composition and keeps
set cardinalities stable across encryption rounds.  Secret exponents are
drawn from [1, q - 1] in groups narrower than 2,048 bits and from
[1, 2^320) in wider ones (``GroupParams.exponent_bound``); both ranges
lie inside [1, q - 1].

:class:`GroupParams` is the group: exponentiation (``exp_many``, a
masking pass's batch), hashing into the group (``hash_to_element``),
exponent sampling (``sample_exponent``), membership (``contains``) and
the element codec are its methods, so the rest of the package imports no
arithmetic from here.
"""

from __future__ import annotations

import ctypes
import functools
import os
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
# Every exponentiation in the package goes through ``powmod_many``, which
# raises a batch of bases to one exponent: a masking pass is one call, and
# ``powmod`` is a batch of one.  Whenever libcrypto loads, every batch --
# of any exponent or modulus width -- goes to OpenSSL's
# BN_mod_exp_mont_consttime through ctypes, so every exponentiation,
# secret masking exponents included, is constant-time.  Every libcrypto
# call drops the GIL (one ``ctypes.CDLL`` handle), and each slice sets up
# and frees its own Montgomery context, so slices share no library state.
#
# A batch of at least 2 x _SLICE_MIN bases is split into contiguous
# slices, one per CPU this process may run on.  The calling thread raises
# the first slice and short-lived ``psu-exp-*`` threads the others; they
# are joined before the batch returns, and a helper's exception is raised
# in the caller.  Each slice loads the exponent and the modulus once into
# BIGNUMs of its own, the exponent flagged constant-time, and clears them
# when it ends, so no BIGNUM holding a secret exponent outlives its pass.
#
# Built-in ``pow`` runs only where libcrypto cannot: without the library,
# or for an even or sub-3 modulus or a negative exponent, which no package
# caller passes.  It runs on the calling thread and starts no thread.
# Both paths return identical integers.

_BN_FLG_CONSTTIME = 0x04

# Fewest bases a slice gets.  Starting and joining a helper thread costs
# about as much as one 512-bit exponentiation, so shorter slices do not
# pay for their thread.
_SLICE_MIN = 16


class _Libcrypto:
    """ctypes bindings for the few BIGNUM calls ``powmod_many`` needs."""

    def __init__(self, lib: ctypes.CDLL):
        ptr, c_int, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p

        def bind(name, restype, *argtypes):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
            return fn

        self.exp = bind("BN_mod_exp_mont_consttime", c_int, ptr, ptr, ptr, ptr, ptr, ptr)
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

    def powmod_many(self, values: list[int], exponent: int, modulus: int) -> list[int]:
        """One slice on this thread, for an odd modulus."""
        width = (modulus.bit_length() + 7) // 8
        ctx, mont = self.ctx_new(), self.mont_new()
        bns = (self.bn_new(), self.bn_new(), self.bn_new(), self.bn_new())
        result, base, power, mod = bns
        try:
            if not (ctx and mont and all(bns)):
                raise MemoryError("libcrypto could not allocate BIGNUMs")
            self.set_flags(power, _BN_FLG_CONSTTIME)
            raw = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
            if not (
                self.bin2bn(raw, len(raw), power)
                and self.bin2bn(modulus.to_bytes(width, "big"), width, mod)
                and self.mont_set(mont, mod, ctx)
            ):
                raise ArithmeticError("libcrypto could not load the exponent and modulus")
            bin2bn, bn2binpad, exp = self.bin2bn, self.bn2binpad, self.exp
            out = ctypes.create_string_buffer(width)
            powers = []
            for value in values:
                if not (
                    bin2bn((value % modulus).to_bytes(width, "big"), width, base)
                    and exp(result, base, power, mod, ctx, mont)
                    and bn2binpad(result, out, width) == width
                ):
                    raise ArithmeticError("libcrypto modular exponentiation failed")
                powers.append(int.from_bytes(out.raw, "big"))
            return powers
        finally:
            for bn in bns:
                self.bn_clear_free(bn)
            self.mont_free(mont)
            self.ctx_free(ctx)


def _load_libcrypto() -> _Libcrypto | None:
    # By soname: ctypes.util.find_library would start a subprocess.  The
    # hashlib module has normally mapped this library already.
    try:
        return _Libcrypto(ctypes.CDLL("libcrypto.so.3"))
    except (OSError, AttributeError):
        return None


_libcrypto = _load_libcrypto()


def powmod_many(values: list[int], exponent: int, modulus: int) -> list[int]:
    """``[pow(value, exponent, modulus) for value in values]``, constant-time with libcrypto."""
    lib = _libcrypto
    if lib is None or exponent < 0 or modulus < 3 or not modulus & 1:
        return [pow(value, exponent, modulus) for value in values]
    slices = min(len(os.sched_getaffinity(0)), len(values) // _SLICE_MIN)
    if slices < 2:
        return lib.powmod_many(values, exponent, modulus)
    bounds = [len(values) * k // slices for k in range(slices + 1)]
    parts: list = [None] * slices
    errors: list[BaseException] = []

    def raise_slice(k: int) -> None:
        try:
            parts[k] = lib.powmod_many(values[bounds[k] : bounds[k + 1]], exponent, modulus)
        except BaseException as exc:  # re-raised on the calling thread, after the joins
            errors.append(exc)

    helpers = [
        threading.Thread(target=raise_slice, args=(k,), name=f"psu-exp-{k}", daemon=True)
        for k in range(1, slices)
    ]
    for helper in helpers:
        helper.start()
    raise_slice(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return [power for part in parts for power in part]


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, as a batch of one."""
    return powmod_many([base], exponent, modulus)[0]


MIN_MODULUS = 7
MILLER_RABIN_ROUNDS = 64

# Width of a secret exponent in a group of at least 2,048 bits.  RFC 3526
# section 8 lists 220- to 320-bit exponents for its 2048-bit group; the
# masking then rests on DDH with short exponents (Koshiba & Kurosawa, PKC
# 2004).  Narrower groups keep full-width exponents.
SHORT_EXPONENT_BITS = 320

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

    def decode_elements(self, raw: bytes) -> list[int]:
        """Split ``raw`` into elements of ``element_width`` bytes, each in [1, p)."""
        width = self.element_width
        if len(raw) % width:
            raise ValueError(f"{len(raw)} bytes are not a whole number of elements")
        values = [
            int.from_bytes(raw[pos : pos + width], "big") for pos in range(0, len(raw), width)
        ]
        if values and not (1 <= min(values) and max(values) < self.p):
            raise ValueError("element outside [1, p)")
        return values

    def exp_many(self, values, exponent: int) -> list[int]:
        """Raise each element to one secret exponent modulo p, in order."""
        return powmod_many(values, exponent, self.p)

    @property
    def exponent_bound(self) -> int:
        """Exclusive upper bound of a secret exponent.

        2^SHORT_EXPONENT_BITS when p has at least 2,048 bits, else q.
        Either way it is at most q, so every exponent is nonzero mod q.
        """
        if self.p.bit_length() >= 2048:
            return 1 << SHORT_EXPONENT_BITS
        return self.q

    def sample_exponent(self, rng) -> int:
        """Draw a uniform secret exponent from [1, exponent_bound).

        Zero is excluded: exponent 0 collapses every element to 1 and the
        masking stops being a bijection.
        """
        if self.q < 3:
            raise RngFailure(f"subgroup order {self.q} leaves no nonzero exponents")
        try:
            return rng.randrange(1, self.exponent_bound)
        except RngFailure:
            raise
        except Exception as exc:  # rng implementations may fail arbitrarily
            raise RngFailure(f"randomness source failed: {exc}") from exc

    def hash_to_element(self, value: int) -> int:
        """Map a non-negative integer (a hash output) into the QR subgroup.

        Shift-then-square: ((value mod (p-1)) + 1)^2 mod p.  The +1 removes
        the residue class that would square to zero; squaring lands in the
        quadratic residues.  Deterministic, so all parties agree.  The
        square is one multiplication and one reduction, the integer
        ``pow(shifted, 2, p)`` gives.
        """
        if value < 0:
            raise ValueError("hash values must be non-negative")
        p = self.p
        shifted = value % (p - 1) + 1
        return shifted * shifted % p

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
