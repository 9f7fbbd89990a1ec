"""CSV ingestion and aligned-output writing for the harness."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .config import DatasetSpec
from .errors import DatasetError
from .groups import GroupParams
from .hashing import hash_identifier
from .masking import EncryptedIdentifier
from .protocol import UniversalIndexMap
from .tokenization import MatchConfig, tokenize_record

ALIGNED_COLUMN = "universal_index"


@dataclass
class LoadedDataset:
    """One party's rows plus the projected identifier fields per row."""

    spec: DatasetSpec
    header: list[str] | None
    rows: list[list[str]]
    id_rows: list[tuple[str, ...]]


def _column_indices(spec: DatasetSpec, header: list[str] | None, width: int) -> list[int]:
    indices = []
    for name in spec.id_columns:
        if header is not None:
            try:
                indices.append(header.index(name))
                continue
            except ValueError:
                raise DatasetError(
                    f"identifier column {name!r} not found in {spec.csv_path}"
                ) from None
        # Headerless files address columns by decimal position.
        try:
            position = int(name)
        except ValueError:
            raise DatasetError(
                f"{spec.csv_path} has no header; id column {name!r} must be a "
                "column position"
            ) from None
        if not 0 <= position < width:
            raise DatasetError(
                f"identifier column {name!r} out of range for {spec.csv_path}"
            )
        indices.append(position)
    return indices


def _read_rows(path, delimiter: str, what: str) -> list[list[str]]:
    """Every row of a UTF-8 CSV file; an unreadable, non-UTF-8 or malformed
    file raises DatasetError naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle, delimiter=delimiter))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {what} {path}: {exc}") from exc


def load_dataset(spec: DatasetSpec) -> LoadedDataset:
    records = _read_rows(spec.csv_path, spec.delimiter, "dataset")

    header: list[str] | None = None
    if spec.has_header:
        if not records:
            raise DatasetError(f"{spec.csv_path} is empty but has_header is true")
        header, records = records[0], records[1:]

    width = len(header) if header is not None else (len(records[0]) if records else 0)
    indices = _column_indices(spec, header, width)

    id_rows = []
    for row_number, row in enumerate(records):
        try:
            id_rows.append(tuple(row[i] for i in indices))
        except IndexError:
            raise DatasetError(
                f"{spec.csv_path}: row {row_number} is too short for the "
                "configured identifier columns"
            ) from None
    return LoadedDataset(spec=spec, header=header, rows=records, id_rows=id_rows)


def hash_dataset(
    loaded: LoadedDataset, match_cfg: MatchConfig, group: GroupParams
) -> list[EncryptedIdentifier]:
    """Tokenize and hash every record's identifier fields, in row order."""
    return [
        hash_identifier(tokenize_record(fields, match_cfg), group)
        for fields in loaded.id_rows
    ]


def write_aligned_csv(path: Path, loaded: LoadedDataset, index_map: UniversalIndexMap) -> None:
    """Write the party's own rows plus a universal_index column.

    A session's index map is total, so every row gets its index.  Only
    the party's own data appears here; nothing from peers.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=loaded.spec.delimiter)
        if loaded.header is not None:
            writer.writerow([*loaded.header, ALIGNED_COLUMN])
        for local_index, row in enumerate(loaded.rows):
            writer.writerow([*row, index_map.local_to_universal[local_index]])


def read_aligned_csv(path: Path, party_id: int, loaded: LoadedDataset) -> UniversalIndexMap:
    """Rebuild an index map from the aligned CSV written for ``loaded``.

    The file has the dataset's delimiter, and its header and rows in
    order, each with one more cell: the header's is ``universal_index``,
    and every row's a non-negative decimal index.
    """
    source = loaded.spec.csv_path
    records = _read_rows(path, loaded.spec.delimiter, "aligned output")
    if loaded.header is not None:
        if not records or records[0] != [*loaded.header, ALIGNED_COLUMN]:
            raise DatasetError(
                f"{path}: the header is not {source}'s with a {ALIGNED_COLUMN} column"
            )
        records = records[1:]
    index_map = UniversalIndexMap(party_id)
    for local_index, (row, own) in enumerate(zip(records, loaded.rows)):
        if not row or row[:-1] != own:
            raise DatasetError(f"{path}: row {local_index} is not row {local_index} of {source}")
        cell = row[-1]
        if not (cell.isascii() and cell.isdigit()):
            raise DatasetError(
                f"{path}: row {local_index} has index {cell!r}, not a non-negative integer"
            )
        index_map.local_to_universal[local_index] = int(cell)
    if len(records) != len(loaded.rows):
        raise DatasetError(f"{path} holds {len(records)} rows, {source} {len(loaded.rows)}")
    return index_map
