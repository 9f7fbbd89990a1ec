import json
import threading

from helpers import free_port
from psualign.cli import main


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
    assert report["message_counts"]["SET_TRANSFER"] == 4

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


def test_assign_fresh_gives_unmatched_rows_trailing_indices(tmp_path):
    # 'abababababab' absorbs the orphan's entry at dedup but the orphan
    # cannot reach it back at matching time (asymmetric duplicate grams).
    (tmp_path / "party0.csv").write_text("name\nabababababab\n")
    (tmp_path / "party1.csv").write_text("name\nababzzzzzzzz\ndistinct name\n")
    config = write_config(tmp_path, variant="unordered")

    assert main(["simulate", "--config", str(config)]) == 0
    aligned = (tmp_path / "out" / "aligned_party1.csv").read_text().splitlines()
    assert aligned[1] == "ababzzzzzzzz,"  # blank index by default

    assert main(["simulate", "--config", str(config), "--assign-fresh"]) == 0
    aligned = (tmp_path / "out" / "aligned_party1.csv").read_text().splitlines()
    # union has 2 entries; party 1's fresh block starts after party 0's rows
    assert aligned[1] == "ababzzzzzzzz,3"


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


def test_evaluate_without_outputs_exits_4(tmp_path):
    (tmp_path / "party0.csv").write_text("name\nx\n")
    (tmp_path / "party1.csv").write_text("name\ny\n")
    config = write_config(tmp_path)
    assert main(["evaluate", "--config", str(config)]) == 4


def test_params_lists_presets(capsys):
    assert main(["params"]) == 0
    out = capsys.readouterr().out
    assert "modp2048: 2048-bit safe prime" in out
    assert "p512: 512-bit safe prime" in out


def test_params_check_validates_explicit_modulus(capsys):
    assert main(["params", "--check", "23"]) == 0
    assert "valid safe prime" in capsys.readouterr().out
    assert main(["params", "--check", "13"]) == 2


def test_run_party_pair_matches_simulate(tmp_path):
    """Two TCP parties produce byte-identical aligned CSVs to simulate."""
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

    ports = [free_port(), free_port()]
    net_config = write_config(
        tmp_path,
        name="net.json",
        output_dir="net_out",
        parties=[
            {
                "csv": "party0.csv",
                "id_columns": ["name"],
                "listen": f"127.0.0.1:{ports[0]}",
            },
            {
                "csv": "party1.csv",
                "id_columns": ["name"],
                "listen": f"127.0.0.1:{ports[1]}",
            },
        ],
    )
    codes = [None, None]

    def drive(party_id):
        codes[party_id] = main(
            ["run-party", "--config", str(net_config), "--party-id", str(party_id)]
        )

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert codes == [0, 0]
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
    assert summary["unmatched"] == 0


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
