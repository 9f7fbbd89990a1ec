import ast
import ctypes
import random
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psualign import (
    GroupParameterError,
    NotPrimeError,
    NotSafePrimeError,
    RngFailure,
    TooSmallPrimeError,
    is_probable_prime,
    make_group_params,
)
from psualign import groups
from psualign.groups import P512, P2048, PRESETS, powmod

from psualign.simulate import build_parties

from helpers import (
    SINGLE_FEATURE_NOISY,
    hash_rows,
    quadratic_residues,
    random_word,
    session_config,
    trial_division_is_prime,
)


G23 = make_group_params(23)
G512 = make_group_params("p512")
G2048 = make_group_params("modp2048")

# A full-width p512 exponent, and a modp2048 one as sample_exponent draws
# it (seed 1 gives one of 320 bits).
SECRET_EXPONENTS = [
    pytest.param(G512, G512.q - 1, id="p512-full-width"),
    pytest.param(G2048, G2048.sample_exponent(random.Random(1)), id="modp2048-320-bit"),
]


def test_make_group_params_p23():
    assert trial_division_is_prime(23) and trial_division_is_prime(11)
    assert (G23.p, G23.q) == (23, 11)


def test_make_group_params_p7():
    assert trial_division_is_prime(7) and trial_division_is_prime(3)
    group = make_group_params(7)
    assert (group.p, group.q) == (7, 3)


def test_make_group_params_rejects_non_safe_prime():
    # q = 6 = 2*3 per the trial-division oracle
    assert trial_division_is_prime(13) and not trial_division_is_prime(6)
    with pytest.raises(NotSafePrimeError):
        make_group_params(13)


def test_make_group_params_rejects_composite():
    with pytest.raises(NotPrimeError):
        make_group_params(21)


def test_make_group_params_rejects_tiny():
    with pytest.raises(TooSmallPrimeError):
        make_group_params(5)


def test_explicit_modulus_is_validated_once(monkeypatch):
    """Repeated ``cfg.group()`` calls on one modulus run Miller-Rabin once."""
    calls = []
    real = groups.is_probable_prime

    def counting(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(groups, "is_probable_prime", counting)
    make_group_params.cache_clear()
    cfg = session_config(2, SINGLE_FEATURE_NOISY, group=f"hex:{P512:x}")
    first = cfg.group()
    assert calls == [P512, (P512 - 1) // 2]
    assert cfg.group() is first
    assert calls == [P512, (P512 - 1) // 2]


def test_unknown_preset():
    with pytest.raises(GroupParameterError, match="unknown group preset"):
        make_group_params("p1024")


def test_presets_are_safe_primes():
    # Re-validate the frozen constants through the probabilistic checker.
    for name, p in PRESETS.items():
        assert is_probable_prime(p), name
        assert is_probable_prime((p - 1) // 2), name
    assert P512.bit_length() == 512
    assert P2048.bit_length() == 2048


def test_miller_rabin_agrees_with_trial_division():
    for n in range(2, 600):
        assert is_probable_prime(n) == trial_division_is_prime(n), n


def test_mod_exp_examples():
    assert powmod(2, 5, G23.p) == 9  # 32 mod 23
    for x in quadratic_residues(23):
        assert powmod(x, 1, G23.p) == x
    assert powmod(1, 7, G23.p) == 1


def test_project_to_qr_examples():
    qr = quadratic_residues(23)
    assert qr == {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}
    assert G23.hash_to_element(5) == 13
    assert 13 in qr and pow(13, 11, 23) == 1
    assert G23.hash_to_element(0) == 1
    assert G23.hash_to_element(22) == 1


def test_project_to_qr_always_lands_in_qr():
    qr = quadratic_residues(23)
    for t in range(200):
        assert G23.hash_to_element(t) in qr


def test_project_rejects_negative():
    with pytest.raises(ValueError):
        G23.hash_to_element(-1)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_hash_to_element_matches_pow_at_the_edges(preset):
    """The multiply-square against ``pow(shifted, 2, p)``, around 0, p - 1 and the digest width."""
    group = make_group_params(preset)
    p = group.p
    for value in (0, 1, p - 3, p - 2, p - 1, 2**256 - 1, 2**600):
        assert group.hash_to_element(value) == pow(value % (p - 1) + 1, 2, p), value


def test_sample_exponent_range_and_determinism():
    rng = random.Random(99)
    draws = [G23.sample_exponent(rng) for _ in range(500)]
    assert all(1 <= s <= 10 for s in draws)
    rng2 = random.Random(99)
    assert draws == [G23.sample_exponent(rng2) for _ in range(500)]


def test_modp2048_exponents_are_320_bits_wide():
    rng = random.Random(2048)
    draws = [G2048.sample_exponent(rng) for _ in range(500)]
    assert all(1 <= s < 2**320 for s in draws)
    assert max(s.bit_length() for s in draws) == 320
    assert G2048.exponent_bound == 2**320 < G2048.q


@pytest.mark.parametrize("seed", range(5))
def test_p512_exponents_are_drawn_as_before(seed):
    """p512 draws full width, call for call, so its seeded outputs do not move."""
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(100):
        assert G512.sample_exponent(rng) == reference.randrange(1, G512.q)
    assert G512.exponent_bound == G512.q


def test_sample_exponent_tiny_group():
    g7 = make_group_params(7)
    rng = random.Random(3)
    draws = {g7.sample_exponent(rng) for _ in range(50)}
    assert draws == {1, 2}


def test_sample_exponent_uniform_chi_square():
    rng = random.Random(12345)
    counts = [0] * 10
    n = 10_000
    for _ in range(n):
        counts[G23.sample_exponent(rng) - 1] += 1
    expected = n / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # df = 9; 27.88 is the 99.9th percentile. Seeded, so deterministic.
    assert chi2 < 27.88


def test_sample_exponent_wraps_rng_errors():
    class Broken:
        def randrange(self, *a):
            raise OSError("entropy pool exhausted")

    with pytest.raises(RngFailure):
        G23.sample_exponent(Broken())


@settings(max_examples=80, deadline=None)
@given(
    t=st.integers(min_value=0, max_value=10**9),
    s1=st.integers(min_value=1, max_value=10),
    s2=st.integers(min_value=1, max_value=10),
)
def test_commutativity_p23(t, s1, s2):
    x = G23.hash_to_element(t)
    one_way = powmod(powmod(x, s1, G23.p), s2, G23.p)
    other_way = powmod(powmod(x, s2, G23.p), s1, G23.p)
    direct = powmod(x, (s1 * s2) % G23.q, G23.p)
    assert one_way == other_way == direct


@settings(max_examples=40, deadline=None)
@given(t=st.integers(min_value=0, max_value=2**256), s=st.integers(min_value=1))
def test_closure_under_exponentiation(t, s):
    x = G512.hash_to_element(t)
    y = powmod(x, 1 + s % (G512.q - 1), G512.p)
    assert G512.contains(y)


def test_bijectivity_small_scale():
    qr = quadratic_residues(23)
    assert len(qr) == 11
    for s in range(1, 11):
        image = {powmod(x, s, G23.p) for x in qr}
        assert image == qr, f"exponent {s} is not a permutation"


def test_element_codec_fixed_width():
    assert G23.element_width == 1
    assert G512.element_width == 64
    assert G23.encode_element(9) == b"\x09"
    value = G512.hash_to_element(12345)
    raw = G512.encode_element(value)
    assert len(raw) == 64
    assert G512.decode_elements(raw) == [value]
    with pytest.raises(ValueError):
        G512.decode_elements(raw[:-1])
    for outside in (0, G512.p, 2 ** (8 * G512.element_width) - 1):
        with pytest.raises(ValueError):
            G512.decode_elements(outside.to_bytes(G512.element_width, "big"))


@st.composite
def element_lists(draw):
    group = draw(st.sampled_from([G23, G512]))
    return group, draw(st.lists(st.integers(1, group.p - 1), max_size=8))


@settings(max_examples=200, deadline=None)
@given(element_lists())
def test_bulk_element_codec_matches_one_element_at_a_time(instance):
    group, values = instance
    raw = group.encode_elements(values)
    assert raw == b"".join(group.encode_element(v) for v in values)
    assert group.decode_elements(raw) == values


def test_bulk_element_decoder_rejects_what_the_single_one_rejects():
    good = G512.encode_elements([2, 3])
    with pytest.raises(ValueError, match="whole number"):
        G512.decode_elements(good[:-1])
    for outside in (0, G512.p):
        with pytest.raises(ValueError, match="outside"):
            G512.decode_elements(good + outside.to_bytes(G512.element_width, "big"))
    assert G512.decode_elements(b"") == []


# --- powmod against built-in pow -----------------------------------------


@pytest.fixture(params=["libcrypto", "pow"])
def backend(request, monkeypatch):
    """Run a test on the libcrypto path, then with the library forced absent."""
    if request.param == "libcrypto" and groups._libcrypto is None:
        pytest.skip("libcrypto.so.3 could not be loaded")
    if request.param == "pow":
        monkeypatch.setattr(groups, "_libcrypto", None)
    return request.param


def _powmod_cases(p, rng):
    q = (p - 1) // 2
    bases = [0, 1, 2, p - 1, p + 2] + [rng.randrange(p) for _ in range(2)]
    exponents = [0, 1, 2, q - 1, q] + [rng.randrange(1, q) for _ in range(2)]
    return [(b, e) for b in bases for e in exponents]


def _check_powmod_interleaved(seed):
    # Alternate moduli so threads raise under different moduli at once.
    rng = random.Random(seed)
    for i in range(24):
        p = P2048 if i % 6 == 0 else P512
        base, exponent = rng.randrange(p), rng.randrange(1, p)
        assert powmod(base, exponent, p) == pow(base, exponent, p), (seed, i)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_powmod_matches_pow_on_presets(backend, name):
    p = PRESETS[name]
    for base, exponent in _powmod_cases(p, random.Random(name)):
        result = powmod(base, exponent, p)
        assert type(result) is int
        assert result == pow(base, exponent, p), (base, exponent)


def test_powmod_matches_pow_across_threads(backend):
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(_check_powmod_interleaved, range(4)))


@pytest.mark.parametrize("group, exponent", SECRET_EXPONENTS)
def test_powmod_routes_every_odd_modulus_to_libcrypto(monkeypatch, group, exponent):
    """Toy groups and exponents 0 to 2 take the constant-time path too."""
    lib = groups._libcrypto
    if lib is None:
        pytest.skip("libcrypto.so.3 could not be loaded")
    calls = []

    def spy(values, exponent, modulus):
        calls.append((modulus, exponent))
        return type(lib).powmod_many(lib, values, exponent, modulus)

    monkeypatch.setattr(lib, "powmod_many", spy)
    g7 = make_group_params("p7")
    narrow = [(toy.p, e) for toy in (G23, g7) for e in (0, 1, 2, toy.q - 1)]
    for modulus, e in narrow:
        assert powmod(2, e, modulus) == pow(2, e, modulus)
    assert G23.exp_many([2, 3, 4], 2) == [4, 9, 16]
    assert calls == narrow + [(23, 2)]
    calls.clear()
    assert powmod(4, exponent, group.p) == pow(4, exponent, group.p)
    assert group.exp_many([4, 9], 1) == [4, 9]
    assert calls == [(group.p, exponent), (group.p, 1)]
    calls.clear()
    group.hash_to_element(12345)  # one public squaring, no exponentiation
    assert calls == []


def _differential_cases(seed):
    """Odd moduli from 3 up to 65 bits, against ``pow``, edge and random operands."""
    rng = random.Random(seed)
    moduli = [3, 5, 7, 23, 47, 2**61 - 1, 2**64 + 13]
    fixed = [0, 1, 2, 2**62 + 1, 2**63 + 5, 2**64 + 7]  # then 63-, 64- and 65-bit
    cases = []
    for m in moduli:
        bases = [0, 1, 2, m - 1, m, m + 2, -5] + [rng.randrange(-m, 2 * m) for _ in range(4)]
        exponents = fixed + [rng.getrandbits(rng.randrange(5, 201)) for _ in range(4)]
        cases += [(bases, e, m) for e in exponents]
    return cases


def _check_libcrypto_against_pow(seed):
    count = 0
    for bases, exponent, modulus in _differential_cases(seed):
        got = groups.powmod_many(bases, exponent, modulus)
        assert got == [pow(b, exponent, modulus) for b in bases], (seed, exponent, modulus)
        count += len(bases)
    return count


def test_libcrypto_agrees_with_pow_on_narrow_odd_moduli_across_threads():
    if groups._libcrypto is None:
        pytest.skip("libcrypto.so.3 could not be loaded")
    with ThreadPoolExecutor(max_workers=4) as pool:
        counts = list(pool.map(_check_libcrypto_against_pow, range(4), timeout=60))
    assert sum(counts) == 4 * 7 * 10 * 11


def test_load_libcrypto_tolerates_missing_library_or_symbol(monkeypatch):
    def no_library(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(groups.ctypes, "CDLL", no_library)
    assert groups._load_libcrypto() is None
    monkeypatch.setattr(groups.ctypes, "CDLL", lambda name: object())
    assert groups._load_libcrypto() is None


def test_powmod_falls_back_on_even_and_negative_arguments(backend):
    even = P512 + 1
    assert powmod(3, P512 // 2, even) == pow(3, P512 // 2, even)
    assert powmod(-5, P512 // 2, P512) == pow(-5, P512 // 2, P512)
    assert powmod(3, -(P512 // 2), P512) == pow(3, -(P512 // 2), P512)


# --- exp_many: one batch per masking pass ---------------------------------


def _exp_threads():
    return [t for t in threading.enumerate() if t.name.startswith("psu-exp-")]


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs ``powmod_many`` sees this process allowed to run on."""

    def set_cpus(count):
        monkeypatch.setattr(groups.os, "sched_getaffinity", lambda pid: set(range(count)))

    return set_cpus


@pytest.fixture
def started(monkeypatch):
    """The names of the threads ``powmod_many`` starts."""
    names = []

    class Recorded(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(groups.threading, "Thread", Recorded)
    return names


# Around the slice boundaries: 2 x 16 bases start a helper on two CPUs,
# 3 x 16 a second one on three or more, 4 x 16 a third on four.
SLICE_LENGTHS = [15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 100]


def _exp_many_cases(p, rng, long_batches):
    """Batches drawn from a few distinct bases, so ``pow`` raises each once."""
    q = (p - 1) // 2
    pool = [rng.randrange(1, p) for _ in range(5)]
    batches = [[], pool[:1], [pool[0], 2, pool[0], pool[0], 2], [1, p - 1], [0, p + 2, -5, 1]]
    exponents = [1, 2, q - 1, rng.randrange(1, q)]
    cases = [(batch, exponent) for batch in batches for exponent in exponents]
    if long_batches:
        batches = [[rng.choice(pool) for _ in range(n)] for n in SLICE_LENGTHS]
        batches.append([pool[0]] * 40 + [1, p - 1] * 20)
        cases += [(batch, exponent) for batch in batches for exponent in (2, exponents[-1])]
    return cases


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_exp_many_matches_pow_on_presets(backend, name):
    group = make_group_params(name)
    # Long modp2048 batches only where they are fast to raise and can slice.
    long_batches = backend == "libcrypto" or group.p != P2048
    for batch, exponent in _exp_many_cases(group.p, random.Random(name), long_batches):
        reference = {v: pow(v, exponent, group.p) for v in set(batch)}
        got = group.exp_many(batch, exponent)
        assert got == [reference[v] for v in batch], (len(batch), exponent)
        assert all(type(power) is int for power in got)
    assert _exp_threads() == []


@pytest.mark.parametrize("count", [1, 2, 4])
def test_exp_many_slices_by_cpu_count(count, cpus, started):
    if groups._libcrypto is None:
        pytest.skip("libcrypto.so.3 could not be loaded")
    cpus(count)
    rng = random.Random(count)
    exponent = rng.randrange(1, G512.q)
    for n in SLICE_LENGTHS:
        started.clear()
        batch = [rng.randrange(1, G512.p) for _ in range(n)]
        assert G512.exp_many(batch, exponent) == [pow(v, exponent, P512) for v in batch]
        slices = min(count, n // 16)
        assert sorted(started) == [f"psu-exp-{k}" for k in range(1, slices)], n
        assert _exp_threads() == []


def _check_exp_many_interleaved(seed):
    # Alternate moduli so threads raise under different moduli at once.
    rng = random.Random(seed)
    for i in range(6):
        group, sizes = (G2048, [5]) if i % 3 == 0 else (G512, [5, 33, 70])
        exponent = rng.randrange(1, group.q)
        pool = [rng.randrange(1, group.p) for _ in range(4)]
        batch = [rng.choice(pool) for _ in range(rng.choice(sizes))]
        reference = {v: pow(v, exponent, group.p) for v in pool}
        assert group.exp_many(batch, exponent) == [reference[v] for v in batch]


def test_exp_many_matches_pow_from_party_threads_at_once(backend, cpus):
    """More party threads than CPUs, each slicing its batches, switching often."""
    cpus(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(_check_exp_many_interleaved, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert _exp_threads() == []


def test_one_cpu_and_the_pow_backend_start_no_thread(monkeypatch, cpus, started):
    batch = list(range(1, 101))
    exponent = G512.q - 1
    cpus(1)
    assert G512.exp_many(batch, exponent) == [pow(v, exponent, P512) for v in batch]
    assert G23.exp_many([v % 23 for v in batch], 5) == [pow(v, 5, 23) for v in batch]
    cpus(4)
    monkeypatch.setattr(groups, "_libcrypto", None)
    assert G512.exp_many(batch, exponent) == [pow(v, exponent, P512) for v in batch]
    assert started == []


def test_toy_batches_slice_like_wide_ones(cpus, started):
    """With libcrypto, a batch's widths no longer keep it on one thread."""
    if groups._libcrypto is None:
        pytest.skip("libcrypto.so.3 could not be loaded")
    cpus(4)
    batch = [v % 23 for v in range(1, 101)]
    assert G23.exp_many(batch, 5) == [pow(v, 5, 23) for v in batch]
    assert sorted(started) == ["psu-exp-1", "psu-exp-2", "psu-exp-3"]


def test_set_up_calls_no_batch_and_starts_no_thread(monkeypatch, started):
    """Hashing records and building parties raise nothing through ``powmod_many``."""

    def forbidden(*args):
        raise AssertionError("set-up reached powmod_many")

    monkeypatch.setattr(groups, "powmod_many", forbidden)
    rng = random.Random(3)
    cfg = session_config(3, SINGLE_FEATURE_NOISY)
    hashed = [hash_rows([[random_word(rng)] for _ in range(20)], cfg.match, G512)] * 3
    parties = build_parties(cfg, hashed)
    assert len(parties) == 3 and started == []


# What one slice allocates: the result, base, exponent and modulus
# BIGNUMs, one BN_CTX and one Montgomery context.
SLICE_OBJECTS = (("BIGNUM", 4), ("BN_CTX", 1), ("BN_MONT_CTX", 1))


@pytest.fixture
def allocations(monkeypatch):
    """Check that each slice's thread freed every libcrypto object it made.

    Records the thread, kind and pointer of every allocation and free; the
    returned check takes the names of the threads that raised a slice.
    """
    lib = groups._libcrypto
    if lib is None:
        pytest.skip("libcrypto.so.3 could not be loaded")
    made, freed = [], []
    lock = threading.Lock()

    def new(kind, real):
        def call():
            obj = real()
            with lock:
                made.append((threading.current_thread().name, kind, obj))
            return obj

        return call

    def free(kind, real):
        def call(obj):
            with lock:
                freed.append((threading.current_thread().name, kind, obj))
            real(obj)

        return call

    for kind, new_name, free_name in (
        ("BIGNUM", "bn_new", "bn_clear_free"),
        ("BN_CTX", "ctx_new", "ctx_free"),
        ("BN_MONT_CTX", "mont_new", "mont_free"),
    ):
        monkeypatch.setattr(lib, new_name, new(kind, getattr(lib, new_name)))
        monkeypatch.setattr(lib, free_name, free(kind, getattr(lib, free_name)))

    def check(threads):
        counts = Counter((name, kind) for name, kind, _ in made)
        assert counts == {(name, kind): n for name in threads for kind, n in SLICE_OBJECTS}
        assert sorted(freed) == sorted(made)

    return check


def _failing_exp(lib, fail_on):
    real = lib.exp

    def exp(*args):
        if fail_on(threading.current_thread().name):
            return 0
        return real(*args)

    return exp


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_failing_exponentiation_raises_in_the_caller(monkeypatch, cpus, allocations, where):
    lib = groups._libcrypto
    if lib is None:
        pytest.skip("libcrypto.so.3 could not be loaded")
    cpus(4)
    helper = where == "helper"
    monkeypatch.setattr(
        lib, "exp", _failing_exp(lib, lambda name: name.startswith("psu-exp-") == helper)
    )
    batch = list(range(2, 66))
    with pytest.raises(ArithmeticError, match="exponentiation failed"):
        G512.exp_many(batch, G512.q - 1)
    assert _exp_threads() == []
    allocations([threading.current_thread().name, "psu-exp-1", "psu-exp-2", "psu-exp-3"])


@pytest.mark.parametrize("group, exponent", SECRET_EXPONENTS)
def test_every_slice_raises_under_a_constant_time_exponent_and_clears_it(
    monkeypatch, cpus, allocations, group, exponent
):
    lib = groups._libcrypto
    if lib is None:
        pytest.skip("libcrypto.so.3 could not be loaded")
    get_flags = ctypes.CDLL("libcrypto.so.3").BN_get_flags
    get_flags.restype, get_flags.argtypes = ctypes.c_int, (ctypes.c_void_p, ctypes.c_int)
    real_exp = lib.exp
    flags = {}
    lock = threading.Lock()

    def exp(result, base, power, modulus, ctx, mont):
        with lock:
            name = threading.current_thread().name
            flags.setdefault(name, set()).add(get_flags(power, 0x04))
        return real_exp(result, base, power, modulus, ctx, mont)

    monkeypatch.setattr(lib, "exp", exp)
    cpus(4)
    batch = list(range(2, 66))
    assert group.exp_many(batch, exponent) == [pow(v, exponent, group.p) for v in batch]
    threads = [threading.current_thread().name, "psu-exp-1", "psu-exp-2", "psu-exp-3"]
    assert flags == {name: {0x04} for name in threads}
    allocations(threads)
    assert _exp_threads() == []


def test_only_groups_imports_powmod():
    """Every other module reaches group arithmetic through ``GroupParams``.

    Outside ``groups.py`` no module imports ``powmod`` or ``powmod_many``,
    and none imports a name from ``groups`` beyond the group object, its
    constructor, the presets and the primality test.
    """
    allowed = {
        "GroupParams",
        "make_group_params",
        "PRESETS",
        "DEFAULT_PRESET",
        "is_probable_prime",
    }
    offenders = []
    for path in sorted(Path(groups.__file__).parent.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            from_groups = node.module in ("groups", "psualign.groups")
            for alias in node.names:
                if alias.name in ("powmod", "powmod_many") or (
                    from_groups and alias.name not in allowed
                ):
                    offenders.append(f"{path.name}:{node.lineno}:{alias.name}")
    assert offenders == []
