"""Union fingerprints index every record as the full group elements would.

Party 0 orders the finished union by its full elements and broadcasts
their fingerprints; every party locates its records by fingerprint.  The
reference here rebuilds the full-element union from the hashed records
and the product of every exponent, and locates each record in it by
equality (ordered) or by the lowest-index entry a brute-force ``compare``
scan reaches (unordered).
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from psualign import EncryptedSet, compare, encode_identifier, encode_set, fingerprint
from psualign import protocol

from helpers import (
    SINGLE_FEATURE_NOISY,
    TWO_FEATURES,
    compose,
    hash_rows,
    random_instance,
    run_tapped,
    session_config,
)


def typo_rows(rng: random.Random, party_count: int):
    """One-field rows from a shared pool of 12-letter names, half with one letter changed."""
    letters = "abcdefghij"
    pool = ["".join(rng.choice(letters) for _ in range(12)) for _ in range(rng.randint(1, 6))]
    parties = []
    for _ in range(party_count):
        rows = []
        for _ in range(rng.randint(0, 6)):
            name = list(rng.choice(pool))
            if rng.random() < 0.5:
                name[rng.randrange(12)] = rng.choice(letters)
            rows.append(("".join(name),))
        parties.append(rows)
    return parties


def run_with_full_union(cfg, hashed):
    """A session, and the full-element entries party 0 ordered into the union."""
    with mock.patch.object(
        protocol, "assign_universal_indices", wraps=protocol.assign_universal_indices
    ) as assign:
        parties, results, _ = run_tapped(cfg, hashed)
    (entries,), = [call.args for call in assign.call_args_list]
    return parties, results, list(entries)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_fingerprint_tables_index_records_as_the_full_elements_do(party_count, ordered, seed):
    rng = random.Random(seed)
    if ordered:
        match, raw = TWO_FEATURES, random_instance(rng, party_count, max_rows=5)
    else:
        match, raw = SINGLE_FEATURE_NOISY, typo_rows(rng, party_count)
    cfg = session_config(party_count, match, seed=seed)
    group = cfg.group()
    hashed = [hash_rows(rows, match, group) for rows in raw]
    parties, results, entries = run_with_full_union(cfg, hashed)

    total = 1
    for party in parties:
        for exponent in party.exponents:
            total = total * exponent % group.q
    full = [[compose(ident, [total], group) for ident in records] for records in hashed]
    if ordered:
        assert set(entries) == {ident for records in full for ident in records}
    reference = sorted(entries, key=lambda entry: encode_identifier(entry, group))

    for k, (records, result) in enumerate(zip(full, results)):
        expected = {}
        for relay_id, ident in enumerate(records):
            if ordered:
                expected[relay_id] = reference.index(ident)
            else:
                expected[relay_id] = next(
                    i for i, entry in enumerate(reference) if compare(ident, entry, match).is_match
                )
        assert result.index_map.local_to_universal == expected, k

    assert list(results[0].union_table.entries) == fingerprint(reference, group)
    tables = {
        encode_set(EncryptedSet(list(result.union_table.entries), fingerprints=True), group)
        for result in results
    }
    assert len(tables) == 1
