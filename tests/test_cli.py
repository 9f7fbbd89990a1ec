import csv
import json
import threading

import pytest

from helpers import free_port
from psualign import datasets
from psualign.cli import main
from psualign.groups import P2048


def write_config(tmp_path, name="config.json", **overrides):
    document = {
        "party_count": 2,
        "variant": "ordered",
        "group": "p512",
        "match": {
            "threshold": "0.7",
            "features": [{"name": "name", "length": 12, "ngram": 3}],
        },
        "seed": 11,
        "timeout_s": 20,
        "output_dir": "out",
        "parties": [
            {"csv": "party0.csv", "id_columns": ["name"]},
            {"csv": "party1.csv", "id_columns": ["name"]},
        ],
    }
    document.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def set_frame_bytes(names) -> int:
    """The frame of one ordered set message holding ``names`` (12 characters).

    An ordered record is one element, and masking keeps equal records
    equal and distinct ones distinct, so the table holds one element per
    distinct normalized name.  Header, item count, chunk count, one chunk
    size, 64-byte elements, and a shape table of one shape (u16 count, u8
    feature count, u16 token count), which leaves out the shape indices.
    Then one 1-byte token index per name, left out when every name is
    distinct.
    """
    distinct = {name.lower()[:12].ljust(12) for name in names}
    indices = 0 if len(distinct) == len(names) else len(names)
    return 9 + 4 + 1 + 2 + 64 * len(distinct) + 5 + indices


def run_parties(tmp_path, **overrides):
    """Run both parties of a TCP session, one thread each; returns the config."""
    ports = [free_port(), free_port()]
    config = write_config(
        tmp_path,
        name="net.json",
        output_dir="net_out",
        parties=[
            {"csv": f"party{k}.csv", "id_columns": ["name"], "listen": f"127.0.0.1:{port}"}
            for k, port in enumerate(ports)
        ],
        **overrides,
    )
    codes = [None, None]

    def drive(party_id):
        codes[party_id] = main(
            ["run-party", "--config", str(config), "--party-id", str(party_id)]
        )

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert codes == [0, 0]
    return config


def assert_evaluation_matches_report(net_config, report_path):
    """``evaluate`` on run-party outputs scores as simulate did, wall time aside."""
    assert main(["evaluate", "--config", str(net_config)]) == 0
    evaluation = json.loads((net_config.parent / "net_out" / "evaluation.json").read_text())
    report = json.loads(report_path.read_text())
    assert evaluation.pop("wall_time") == 0.0
    del report["wall_time"]
    assert evaluation == report


def test_gen_corpus_then_simulate_then_evaluate(tmp_path, capsys):
    assert (
        main(
            [
                "gen-corpus",
                "--out",
                str(tmp_path),
                "--sizes",
                "6,7",
                "--overlap",
                "0.5",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "union size" in out
    assert (tmp_path / "out" / "aligned_party0.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["e1_false_negatives"] == 0
    assert report["e2_false_positives"] == 0
    assert report["message_counts"]["SET_TRANSFER"] == 3

    assert main(["evaluate", "--config", str(config)]) == 0
    evaluation = json.loads((tmp_path / "out" / "evaluation.json").read_text())
    assert evaluation["precision"] == 1.0 and evaluation["recall"] == 1.0


def test_simulate_spec_example_shared_one_of_three(tmp_path):
    (tmp_path / "party0.csv").write_text("name\nalpha one\nbeta two\ngamma three\n")
    (tmp_path / "party1.csv").write_text("name\nalpha one\ndelta four\nepsilon five\n")
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["n_protocol"] == report["n_oracle"] == 5
    aligned0 = (tmp_path / "out" / "aligned_party0.csv").read_text().splitlines()
    aligned1 = (tmp_path / "out" / "aligned_party1.csv").read_text().splitlines()
    shared0 = dict(line.rsplit(",", 1) for line in aligned0[1:])["alpha one"]
    shared1 = dict(line.rsplit(",", 1) for line in aligned1[1:])["alpha one"]
    assert shared0 == shared1 != ""


def test_report_counts_the_bytes_of_every_set_message(tmp_path):
    """Each dataset crosses P set transfers, but origin 0's last one stays
    with the active party; each carries one element table."""
    rows = [["alpha one", "beta two", "alpha one"], ["delta four", "epsilon five"]]
    for k, names in enumerate(rows):
        lines = "".join(f"{name}\n" for name in names)
        (tmp_path / f"party{k}.csv").write_text("name\n" + lines)
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())

    assert report["message_bytes"]["SET_TRANSFER"] == (
        2 * sum(map(set_frame_bytes, rows)) - set_frame_bytes(rows[0])
    )
    assert report["message_bytes"]["HELLO"] == 2 * (9 + 32)
    assert main(["evaluate", "--config", str(config)]) == 0
    evaluation = json.loads((tmp_path / "out" / "evaluation.json").read_text())
    assert evaluation["message_bytes"] == report["message_bytes"]


def test_noisy_simulate_with_provenance(tmp_path):
    assert (
        main(
            [
                "gen-corpus",
                "--out",
                str(tmp_path),
                "--sizes",
                "8,8",
                "--overlap",
                "0.5",
                "--typo",
                "0.5",
                "--seed",
                "5",
                "--style",
                "random",
            ]
        )
        == 0
    )
    config = write_config(
        tmp_path, variant="unordered", provenance="provenance.json"
    )
    assert main(["simulate", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["recall"] == 1.0
    assert report["e2_false_positives"] == 0


def test_aligned_csv_indexes_the_asymmetric_orphan(tmp_path):
    # 'abababababab' reaches the orphan but the orphan does not reach it
    # back (asymmetric duplicate grams), so dedup keeps both entries and
    # the orphan's row gets an index like every other row.
    (tmp_path / "party0.csv").write_text("name\nabababababab\n")
    (tmp_path / "party1.csv").write_text("name\nababzzzzzzzz\ndistinct name\n")
    config = write_config(tmp_path, variant="unordered")

    assert main(["simulate", "--config", str(config)]) == 0
    aligned = (tmp_path / "out" / "aligned_party1.csv").read_text().splitlines()
    assert aligned[1] == "ababzzzzzzzz,1"


def test_evaluate_reads_aligned_csvs_in_the_dataset_delimiter(tmp_path):
    (tmp_path / "party0.csv").write_text("name;city\nalpha one;oslo\nbeta two;rome\n")
    (tmp_path / "party1.csv").write_text("name;city\nalpha one;oslo\n")
    parties = [
        {"csv": f"party{k}.csv", "id_columns": ["name"], "delimiter": ";"} for k in range(2)
    ]
    config = write_config(tmp_path, parties=parties)
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config)]) == 0
    evaluation = json.loads((tmp_path / "out" / "evaluation.json").read_text())
    assert evaluation["precision"] == evaluation["recall"] == 1.0


@pytest.mark.parametrize("cell", ["x", "-3", ""])
def test_evaluate_rejects_a_bad_index_cell(tmp_path, capsys, cell):
    (tmp_path / "party0.csv").write_text("name\nalpha one\nbeta two\n")
    (tmp_path / "party1.csv").write_text("name\nalpha one\n")
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    aligned = tmp_path / "out" / "aligned_party0.csv"
    lines = aligned.read_text().splitlines()
    lines[2] = f"beta two,{cell}"
    aligned.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["evaluate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{aligned}: row 1 has index {cell!r}" in err


# Each edit of a 20-row aligned_party0.csv, and the error evaluate gives for it.
ALIGNED_EDITS = {
    "cut-to-4-rows": (lambda lines: lines[:5], "{aligned} holds 4 rows, {source} 20"),
    "one-extra-row": (lambda lines: lines + lines[-1:], "{aligned} holds 21 rows, {source} 20"),
    "blank-first-line": (
        lambda lines: [""] + lines,
        "{aligned}: the header is not {source}'s with a universal_index column",
    ),
    "changed-row": (
        lambda lines: lines[:3] + ["x" + lines[3]] + lines[4:],
        "{aligned}: row 2 is not row 2 of {source}",
    ),
}


@pytest.mark.parametrize("edit", ALIGNED_EDITS)
def test_evaluate_refuses_an_aligned_csv_that_does_not_hold_its_partys_rows(tmp_path, capsys, edit):
    assert main(["gen-corpus", "--out", str(tmp_path), "--sizes", "20,15", "--seed", "3"]) == 0
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config)]) == 0
    aligned = tmp_path / "out" / "aligned_party0.csv"
    change, error = ALIGNED_EDITS[edit]
    aligned.write_text("\n".join(change(aligned.read_text().splitlines())) + "\n")
    capsys.readouterr()

    assert main(["evaluate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert error.format(aligned=aligned, source=tmp_path / "party0.csv") in err


def test_missing_dataset_column_exits_2(tmp_path, capsys):
    (tmp_path / "party0.csv").write_text("wrong\nx\n")
    (tmp_path / "party1.csv").write_text("name\ny\n")
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 2
    assert "'name'" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2


def test_a_latin_1_party_csv_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "party0.csv").write_bytes("name\nJosé\n".encode("latin-1"))
    (tmp_path / "party1.csv").write_text("name\ny\n")
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot read dataset {tmp_path / 'party0.csv'}: 'utf-8' codec" in err


def test_a_latin_1_config_exits_2_naming_it(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes().replace(b'"out"', "\"sortie-é\"".encode("latin-1")))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot read config {path}: 'utf-8' codec" in err


def test_a_latin_1_aligned_csv_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "party0.csv").write_text("name\nalpha one\n")
    (tmp_path / "party1.csv").write_text("name\nalpha one\n")
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    aligned = tmp_path / "out" / "aligned_party0.csv"
    aligned.write_bytes(aligned.read_bytes().replace(b"alpha", "alphé".encode("latin-1")))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot read aligned output {aligned}: 'utf-8' codec" in err


def test_a_csv_field_over_the_csv_modules_limit_exits_2_naming_the_file(tmp_path, capsys):
    limit = csv.field_size_limit()
    (tmp_path / "party0.csv").write_text("name\n" + "x" * (limit + 1) + "\n")
    (tmp_path / "party1.csv").write_text("name\ny\n")
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot read dataset {tmp_path / 'party0.csv'}: field larger" in err


def with_delimiter(delimiter):
    return {
        "parties": [
            {"csv": "party0.csv", "id_columns": ["name"], "delimiter": delimiter},
            {"csv": "party1.csv", "id_columns": ["name"]},
        ]
    }


def with_feature(variant="ordered", **changes):
    feature = {"name": "name", "length": 12, "ngram": 3, **changes}
    return {"variant": variant, "match": {"threshold": "0.7", "features": [feature]}}


@pytest.mark.parametrize(
    "command, error",
    [
        (with_delimiter(";;"), "parties[0]: 'delimiter' must be one character"),
        (with_delimiter(9), "parties[0]: 'delimiter' must be one character"),
        ({"group_hex": "zz"}, "'group_hex' 'zz' is not a hexadecimal number"),
        ({"output_dir": 5}, "'output_dir' must be a path string"),
        ({"provenance": ["truth.json"]}, "'provenance' must be a path string"),
        (["params", "--check", "zz"], "--check 'zz' is not an integer"),
        ({"timeout_s": True}, "'timeout_s' must be a positive number"),
        ({"timeout_s": float("nan")}, "'timeout_s' must be a positive number"),
        ({"timeout_s": float("inf")}, "'timeout_s' must be a positive number"),
        (
            {"parties": [{"csv": "party0.csv", "id_columns": ["name"], "listen": "127.0.0.1:70000"}] * 2},
            "endpoint '127.0.0.1:70000' has a port outside 0-65535",
        ),
        ({"seed": True}, "'seed' must be an integer"),
        (with_feature(length=True), "config.features[0]: key 'length' must be int"),
        (with_feature(ngram=True), "config.features[0]: key 'ngram' must be int"),
        (
            {"parties": [{"csv": "party0.csv", "id_columns": ["name"], "has_header": "false"}] * 2},
            "parties[0]: key 'has_header' must be true or false",
        ),
        ({"production": "no", "seed": None}, "config: key 'production' must be true or false"),
        (
            with_feature("unordered", length=70_000),
            "config: feature 'name' cuts 69998 grams, more than the 65535 a feature can carry",
        ),
    ],
    ids=[
        "two-character-delimiter",
        "numeric-delimiter",
        "non-hex-group",
        "numeric-output-dir",
        "list-provenance",
        "non-integer-check",
        "boolean-timeout",
        "nan-timeout",
        "infinite-timeout",
        "port-out-of-range",
        "boolean-seed",
        "boolean-length",
        "boolean-ngram",
        "string-has-header",
        "string-production",
        "unordered-feature-over-the-token-cap",
    ],
)
def test_malformed_input_is_a_configuration_error(tmp_path, capsys, command, error):
    """Malformed outside input exits 2 with its cause, not with a traceback."""
    if isinstance(command, dict):
        command = ["simulate", "--config", str(write_config(tmp_path, **command))]
    assert main(command) == 2
    assert f"configuration error: {error}" in capsys.readouterr().err


def test_evaluate_without_outputs_exits_4(tmp_path):
    (tmp_path / "party0.csv").write_text("name\nx\n")
    (tmp_path / "party1.csv").write_text("name\ny\n")
    config = write_config(tmp_path)
    assert main(["evaluate", "--config", str(config)]) == 4


def simulated_outputs(tmp_path):
    """A two-party simulate run's config and output directory."""
    (tmp_path / "party0.csv").write_text("name\nalpha one\nbeta two\n")
    (tmp_path / "party1.csv").write_text("name\nalpha one\ngamma three\n")
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    return config, tmp_path / "out"


def test_evaluate_rejects_a_report_without_its_keys(tmp_path, capsys):
    config, out = simulated_outputs(tmp_path)
    (out / "report.json").write_text("{}")
    assert main(["evaluate", "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert f"evaluation error: {out / 'report.json'} has no 'n_protocol'" in err


def test_evaluate_rejects_a_summary_with_a_non_integer_union_size(tmp_path, capsys):
    config, out = simulated_outputs(tmp_path)
    (out / "report.json").unlink()
    for k, union_size in enumerate(["3", 3]):
        summary = {"union_size": union_size, "sent_messages": {}, "sent_bytes": {}}
        (out / f"run_party{k}.json").write_text(json.dumps(summary))
    assert main(["evaluate", "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert f"{out / 'run_party0.json'}: 'union_size' is not a non-negative integer" in err
    assert not (out / "evaluation.json").exists()


def test_evaluate_rejects_outputs_of_two_sessions(tmp_path, capsys):
    """A simulate report beside the run-party summaries of a later session."""
    (tmp_path / "party0.csv").write_text("name\nalpha one\nbeta two\n")
    (tmp_path / "party1.csv").write_text("name\nalpha one\ngamma three\n")
    assert main(["simulate", "--config", str(write_config(tmp_path, output_dir="net_out"))]) == 0
    with open(tmp_path / "party1.csv", "a") as handle:
        handle.write("delta four\n")
    net_config = run_parties(tmp_path)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(net_config)]) == 4
    err = capsys.readouterr().err
    out = tmp_path / "net_out"
    assert "evaluation error: outputs from different sessions" in err
    for name in ("report.json", "run_party0.json", "run_party1.json"):
        assert str(out / name) in err
    assert not (out / "evaluation.json").exists()


def test_params_lists_presets(capsys):
    assert main(["params"]) == 0
    out = capsys.readouterr().out
    assert "modp2048: 2048-bit safe prime" in out
    assert "p512: 512-bit safe prime" in out
    # One width line per preset, in preset order: modp2048, p23, p512, p7.
    widths = [line for line in out.splitlines() if "secret exponents" in line]
    assert widths == [f"  secret exponents: {bits} bits" for bits in (320, 4, 511, 2)]


def test_params_check_validates_explicit_modulus(capsys):
    assert main(["params", "--check", "23"]) == 0
    out = capsys.readouterr().out
    assert "valid safe prime" in out
    assert "  secret exponents: 4 bits" in out
    assert main(["params", "--check", hex(P2048)]) == 0
    assert "  secret exponents: 320 bits" in capsys.readouterr().out
    assert main(["params", "--check", "13"]) == 2


def test_run_party_pair_matches_simulate(tmp_path):
    """Two TCP parties produce byte-identical aligned CSVs to simulate, and
    evaluate scores them as simulate did."""
    assert (
        main(
            [
                "gen-corpus",
                "--out",
                str(tmp_path),
                "--sizes",
                "5,6",
                "--overlap",
                "0.4",
                "--seed",
                "7",
            ]
        )
        == 0
    )
    sim_config = write_config(tmp_path, output_dir="sim_out")
    assert main(["simulate", "--config", str(sim_config)]) == 0
    net_config = run_parties(tmp_path)
    for k in range(2):
        sim_csv = (tmp_path / "sim_out" / f"aligned_party{k}.csv").read_bytes()
        net_csv = (tmp_path / "net_out" / f"aligned_party{k}.csv").read_bytes()
        assert sim_csv == net_csv
        # only the party's own rows appear, each just gaining the index column
        own_rows = (tmp_path / f"party{k}.csv").read_text().splitlines()
        aligned_rows = net_csv.decode().splitlines()
        assert len(aligned_rows) == len(own_rows)
        for src, out in zip(own_rows, aligned_rows):
            assert out.startswith(src)
    summary = json.loads((tmp_path / "net_out" / "run_party0.json").read_text())
    assert summary["matched"] == 5  # every one of party 0's records
    sent, sizes = summary["sent_messages"], summary["sent_bytes"]
    assert sent == {
        "ABORT": 0,
        "HELLO": 1,
        "SET_TRANSFER": 2,
        "UNION_TRANSFER": 0,
        "UID_BROADCAST": 1,
        "TOKEN_RELAY": 1,
        "TOKEN_RETURN": 1,
    }
    assert set(sizes) == set(sent)
    assert all((sizes[name] > 0) == (sent[name] > 0) for name in sent)
    assert sizes["HELLO"] == 9 + 32  # header and config digest
    # Party 0's 5 records travel as one set message, in record order.
    with open(tmp_path / "party0.csv", newline="") as handle:
        names = [row["name"] for row in csv.DictReader(handle)]
    assert len(names) == 5
    assert sizes["TOKEN_RELAY"] == set_frame_bytes(names)
    assert_evaluation_matches_report(net_config, tmp_path / "sim_out" / "report.json")


def test_evaluate_after_run_party_counts_the_union_not_its_indices(tmp_path):
    """With seed 2 the union keeps 3 entries, but the aligned rows carry
    only 2 distinct indices; evaluate takes the size from the summaries."""
    (tmp_path / "party0.csv").write_text("name\nabababababab\n")
    (tmp_path / "party1.csv").write_text("name\nababzzzzzzzz\ndistinct name\n")
    sim_config = write_config(tmp_path, variant="unordered", seed=2, output_dir="sim_out")
    assert main(["simulate", "--config", str(sim_config)]) == 0
    report_path = tmp_path / "sim_out" / "report.json"
    assert json.loads(report_path.read_text())["n_protocol"] == 3

    net_config = run_parties(tmp_path, variant="unordered", seed=2)
    indices = set()
    for k in range(2):
        rows = (tmp_path / "net_out" / f"aligned_party{k}.csv").read_text().splitlines()
        indices.update(row.rsplit(",", 1)[1] for row in rows[1:])
    assert len(indices) == 2
    assert_evaluation_matches_report(net_config, report_path)


def test_simulate_tokenizes_and_hashes_each_record_once(tmp_path, monkeypatch):
    calls = {"tokenize_record": 0, "hash_identifier": 0}

    def counted(name):
        original = getattr(datasets, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(datasets, name, counted(name))
    (tmp_path / "party0.csv").write_text("name\nalpha one\nbeta two\ngamma three\n")
    (tmp_path / "party1.csv").write_text("name\nalpha one\ndelta four\n")
    assert main(["simulate", "--config", str(write_config(tmp_path))]) == 0
    assert calls == {"tokenize_record": 5, "hash_identifier": 5}


def test_run_party_digest_mismatch_exits_2(tmp_path):
    (tmp_path / "party0.csv").write_text("name\nx\n")
    (tmp_path / "party1.csv").write_text("name\ny\n")
    ports = [free_port(), free_port()]
    parties = [
        {"csv": "party0.csv", "id_columns": ["name"], "listen": f"127.0.0.1:{ports[0]}"},
        {"csv": "party1.csv", "id_columns": ["name"], "listen": f"127.0.0.1:{ports[1]}"},
    ]
    cfg_a = write_config(tmp_path, name="a.json", parties=parties, timeout_s=15)
    cfg_b = write_config(
        tmp_path,
        name="b.json",
        parties=parties,
        timeout_s=15,
        match={
            "threshold": "0.8",
            "features": [{"name": "name", "length": 12, "ngram": 3}],
        },
    )
    codes = [None, None]

    def drive(party_id, config):
        codes[party_id] = main(
            ["run-party", "--config", str(config), "--party-id", str(party_id)]
        )

    threads = [
        threading.Thread(target=drive, args=(0, cfg_a)),
        threading.Thread(target=drive, args=(1, cfg_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert 2 in codes  # at least one side refuses the mismatched digest
    assert all(code in (2, 3) for code in codes)


def test_run_party_peer_never_connects_times_out(tmp_path):
    (tmp_path / "party0.csv").write_text("name\nx\n")
    (tmp_path / "party1.csv").write_text("name\ny\n")
    ports = [free_port(), free_port()]
    config = write_config(
        tmp_path,
        timeout_s=1,
        parties=[
            {"csv": "party0.csv", "id_columns": ["name"], "listen": f"127.0.0.1:{ports[0]}"},
            {"csv": "party1.csv", "id_columns": ["name"], "listen": f"127.0.0.1:{ports[1]}"},
        ],
    )
    assert main(["run-party", "--config", str(config), "--party-id", "0"]) == 3
