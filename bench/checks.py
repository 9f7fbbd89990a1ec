"""Output checks computed from the plaintext corpus.

None of these use the package's tokenisation, hashing or comparison
code: normalisation, n-grams and overlap counts are written out here, so
a fault in those layers cannot hide itself.  Each check returns a list of
problems; an empty list means the session passed.
"""

from __future__ import annotations

import math
from itertools import combinations

from psualign.masking import decode_identifier, decode_set
from psualign.messages import MessageType

SET_PAYLOADS = (
    MessageType.SET_TRANSFER,
    MessageType.UNION_TRANSFER,
    MessageType.UID_BROADCAST,
)
RELAY_PAYLOADS = (MessageType.TOKEN_RELAY, MessageType.TOKEN_RETURN)


def normalise(value: str, length: int) -> str:
    """Lower-case, then pad with spaces or truncate to ``length`` characters."""
    return value.lower()[:length].ljust(length)


def grams(text: str, size: int) -> list[str]:
    return [text[i : i + size] for i in range(len(text) - size + 1)]


def _table_bytes(table, width: int) -> bytes:
    out = bytearray()
    for entry in table.entries:
        for feature in entry.features:
            out += len(feature).to_bytes(2, "big")
            for value in feature:
                out += value.to_bytes(width, "big")
    return bytes(out)


def union_tables(results, width: int) -> list[str]:
    """Every party holds a byte-identical union table."""
    tables = [_table_bytes(result.union_table, width) for result in results]
    return [
        f"party {k} holds a union table that differs from party 0's"
        for k, table in enumerate(tables)
        if table != tables[0]
    ]


def _index_maps(rows_per_party, results, total: bool) -> tuple[list[str], dict]:
    """Each record's index in [0, U), or unmatched when ``total`` is false."""
    problems = []
    index_of = {}
    size = results[0].union_table.size
    for party, (rows, result) in enumerate(zip(rows_per_party, results)):
        mapping = result.index_map.local_to_universal
        unmatched = set(result.index_map.unmatched)
        for row in range(len(rows)):
            if row in mapping:
                if not 0 <= mapping[row] < size:
                    problems.append(f"record {party}/{row} has index {mapping[row]} outside [0, {size})")
                if row in unmatched:
                    problems.append(f"record {party}/{row} is both indexed and unmatched")
                index_of[(party, row)] = mapping[row]
            elif total or row not in unmatched:
                problems.append(f"record {party}/{row} has no index")
        extra = (set(mapping) | unmatched) - set(range(len(rows)))
        if extra:
            problems.append(f"party {party} reports records {sorted(extra)} it does not hold")
    return problems, index_of


def ordered(rows_per_party, results, length: int) -> list[str]:
    """Exact alignment: indices follow equality of normalised identifiers."""
    problems, index_of = _index_maps(rows_per_party, results, total=True)
    keys = {
        (party, row): tuple(normalise(field, length) for field in fields)
        for party, rows in enumerate(rows_per_party)
        for row, fields in enumerate(rows)
    }
    distinct = len(set(keys.values()))
    size = results[0].union_table.size
    if size != distinct:
        problems.append(f"union holds {size} entries, plaintext has {distinct} distinct identifiers")
    index_for_key, key_for_index = {}, {}
    for record, index in index_of.items():
        key = keys[record]
        if index_for_key.setdefault(key, index) != index:
            problems.append(f"equal identifiers {key} got indices {index_for_key[key]} and {index}")
        if key_for_index.setdefault(index, key) != key:
            problems.append(f"index {index} holds {key_for_index[index]} and {key}")
    return problems


def noisy(corpus, results, length: int, ngram: int, threshold) -> tuple[list[str], int, int]:
    """Typo-tolerant alignment: every link explained, recall by provenance.

    Returns the problems, the number of unmatched records and the number of
    excused splits.  Every cross-party pair of the same entity reaches the
    floor, since one substitution removes at most 3 of a field's 10 grams,
    and must share an index.  Threshold matching is neither transitive nor,
    when a field repeats a gram, symmetric, so a third record can pull the
    two copies apart, or leave both unmatched, depending on the scan order
    that each session shuffles: one that reaches the floor against one copy
    and not the other, or against a copy in one direction only.  A split
    that such a record explains is excused and counted; every other split,
    an unmatched copy included, is a problem.
    """
    rows_per_party = [[row.fields for row in rows] for rows in corpus.parties]
    problems, index_of = _index_maps(rows_per_party, results, total=False)
    unmatched = sum(len(r.index_map.unmatched) for r in results)

    gram_lists = {
        (party, row): [grams(normalise(f, length), ngram) for f in fields]
        for party, rows in enumerate(rows_per_party)
        for row, fields in enumerate(rows)
    }
    gram_sets = {record: [set(g) for g in lists] for record, lists in gram_lists.items()}
    floors = [math.ceil(threshold * len(g)) for g in next(iter(gram_lists.values()))]

    def reaches(a, r) -> bool:
        return all(
            sum(g in values for g in grams_a) >= floor
            for grams_a, values, floor in zip(gram_lists[a], gram_sets[r], floors)
        )

    def explains_split(r, a, b) -> bool:
        to_a, to_b = (reaches(r, a), reaches(a, r)), (reaches(r, b), reaches(b, r))
        return to_a != to_b or to_a[0] != to_a[1]

    by_entity: dict[int, list] = {}
    for party, rows in enumerate(corpus.parties):
        for row_index, row in enumerate(rows):
            by_entity.setdefault(row.entity, []).append((party, row_index))
    excused = 0
    for records in by_entity.values():
        for a, b in combinations(records, 2):
            if a[0] == b[0] or (a in index_of and index_of.get(a) == index_of.get(b)):
                continue
            if any(explains_split(r, a, b) for r in gram_lists if r not in (a, b)):
                excused += 1
            else:
                problems.append(
                    f"same-entity records {a} and {b} have indices {index_of.get(a)} and "
                    f"{index_of.get(b)}, and no other record explains the split"
                )

    members: dict[int, list] = {}
    for record, index in index_of.items():
        members.setdefault(index, []).append(record)
    for index, records in members.items():
        if len({party for party, _ in records}) < 2:
            continue
        explains = {a: {r for r in gram_lists if reaches(a, r)} for a in records}
        for a, b in combinations(records, 2):
            if a[0] != b[0] and not explains[a] & explains[b]:
                problems.append(f"link {a}-{b} at index {index} matches no common record")
    return problems, unmatched, excused


def plaintext_leaks(frames, hashed_per_party, group) -> int:
    """Group elements in frame payloads that equal an unmasked hashed token."""
    plaintext = {
        value
        for hashed in hashed_per_party
        for ident in hashed
        for feature in ident.features
        for value in feature
    }
    leaks = 0
    for msg_type, payload in frames:
        if msg_type in SET_PAYLOADS:
            items = decode_set(payload, group).items
        elif msg_type in RELAY_PAYLOADS:
            items = [decode_identifier(payload, group, 4)[0]]
        else:
            continue
        leaks += sum(
            value in plaintext for item in items for feature in item.features for value in feature
        )
    return leaks
