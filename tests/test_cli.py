import io
import sys

import pytest

from hpe.cli import main

MSG = "Attack at dawn."


@pytest.fixture(scope="module")
def keydir(tmp_path_factory):
    """Two deterministic key pairs written through the CLI itself."""
    d = tmp_path_factory.mktemp("keys")
    rc = main(["keygen", "--q", "2", "--n", "16", "--seed", "7",
               "--pub", str(d / "a.pub"), "--priv", str(d / "a.key")])
    assert rc == 0
    rc = main(["keygen", "--q", "2", "--n", "16", "--seed", "5",
               "--pub", str(d / "b.pub"), "--priv", str(d / "b.key")])
    assert rc == 0
    return d


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_usage_errors(capsys, tmp_path):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["keygen", "--pub", str(tmp_path / "x"), "--priv",
                 str(tmp_path / "y"), "--unknown-flag"]) == 64
    assert main(["encrypt"]) == 64
    capsys.readouterr()


def test_bad_parameters_are_usage_errors(capsys, tmp_path):
    pub, priv = str(tmp_path / "k.pub"), str(tmp_path / "k.key")
    assert main(["keygen", "--q", "6", "--n", "8", "--pub", pub,
                 "--priv", priv]) == 64
    assert main(["keygen", "--q", "2", "--n", "1", "--pub", pub,
                 "--priv", priv]) == 64
    err = capsys.readouterr().err
    assert "parameter error" in err


def test_keygen_writes_versioned_files(keydir, capsys):
    pub = (keydir / "a.pub").read_text()
    priv = (keydir / "a.key").read_text()
    assert pub.startswith("HPE1 2 16 3\n")
    assert priv.startswith("HPE1 2 16 3\n")
    assert "ALPHABET" in pub
    assert priv.splitlines()[1].startswith("F 2 1 16 ")
    capsys.readouterr()


def test_keygen_seed_reproducible(tmp_path, capsys):
    for tag in ("one", "two"):
        rc = main(["keygen", "--q", "2", "--n", "12", "--seed", "42",
                   "--pub", str(tmp_path / (tag + ".pub")),
                   "--priv", str(tmp_path / (tag + ".key"))])
        assert rc == 0
    assert (tmp_path / "one.pub").read_text() == (tmp_path / "two.pub").read_text()
    assert (tmp_path / "one.key").read_text() == (tmp_path / "two.key").read_text()
    rc = main(["keygen", "--q", "2", "--n", "12", "--seed", "43",
               "--pub", str(tmp_path / "three.pub"),
               "--priv", str(tmp_path / "three.key")])
    assert rc == 0
    assert (tmp_path / "three.pub").read_text() != (tmp_path / "one.pub").read_text()
    out = capsys.readouterr().out
    assert "equations=12" in out


def test_encrypt_decrypt_pipeline(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", MSG + "\n")
    ct = str(tmp_path / "c.txt")
    rc = main(["encrypt", "--pub", str(keydir / "a.pub"), "--seed", "3",
               "--in", msg, "--out", ct])
    assert rc == 0
    body = (tmp_path / "c.txt").read_text()
    lines = body.splitlines()
    assert len(lines) == 8 and all(len(ln) == 16 for ln in lines)
    assert set(body) <= set("01\n")
    out_path = str(tmp_path / "o.txt")
    rc = main(["decrypt", "--priv", str(keydir / "a.key"), "--in", ct,
               "--out", out_path])
    assert rc == 0
    assert (tmp_path / "o.txt").read_text() == MSG + "\n"
    capsys.readouterr()


def test_encrypt_seed_reproducible(keydir, tmp_path):
    msg = _write(tmp_path / "m.txt", MSG + "\n")
    outs = []
    for tag in ("c1", "c2"):
        rc = main(["encrypt", "--pub", str(keydir / "a.pub"), "--seed", "3",
                   "--in", msg, "--out", str(tmp_path / tag)])
        assert rc == 0
        outs.append((tmp_path / tag).read_text())
    assert outs[0] == outs[1]


def test_decrypt_stdout_and_stdin(keydir, tmp_path, capsys, monkeypatch):
    msg = _write(tmp_path / "m.txt", "Go\n")
    ct = str(tmp_path / "c.txt")
    rc = main(["encrypt", "--pub", str(keydir / "a.pub"), "--seed", "4",
               "--in", msg, "--out", ct])
    assert rc == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO((tmp_path / "c.txt").read_text()))
    rc = main(["decrypt", "--priv", str(keydir / "a.key"), "--in", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.endswith("Go\n")


def test_decrypt_wrong_key_is_protocol_failure(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", MSG + "\n")
    ct = str(tmp_path / "c.txt")
    assert main(["encrypt", "--pub", str(keydir / "a.pub"), "--seed", "3",
                 "--in", msg, "--out", ct]) == 0
    rc = main(["decrypt", "--priv", str(keydir / "b.key"), "--in", ct,
               "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    assert "no valid candidate" in capsys.readouterr().err


def test_corrupt_ciphertext_is_data_error(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", "Go\n")
    ct = tmp_path / "c.txt"
    assert main(["encrypt", "--pub", str(keydir / "a.pub"), "--seed", "4",
                 "--in", msg, "--out", str(ct)]) == 0
    body = ct.read_text()
    ct.write_text("x" + body[1:])
    rc = main(["decrypt", "--priv", str(keydir / "a.key"), "--in", str(ct)])
    assert rc == 65
    capsys.readouterr()


def test_missing_files_are_data_errors(tmp_path, capsys):
    assert main(["encrypt", "--pub", str(tmp_path / "nope.pub"),
                 "--in", str(tmp_path / "m.txt")]) == 65
    assert main(["decrypt", "--priv", str(tmp_path / "nope.key"),
                 "--in", str(tmp_path / "c.txt")]) == 65
    capsys.readouterr()


@pytest.mark.parametrize("kind,idx,line", [
    ("key", 1, "F 2 2 1 1 1"),
    ("key", 1, "F 2 2 4 0 0 0 0 1"),
    ("pub", 0, "HPE1 6 4 3"),
    ("pub", 0, "HPE1 2 16 0"),
    ("pub", 0, "HPE1 2 16 -1"),
    ("key", 0, "HPE1 2 16 1"),
])
def test_impossible_field_in_key_file_is_data_error(keydir, tmp_path, capsys,
                                                    kind, idx, line):
    # A key file naming a field that cannot exist, or a weight t below 2,
    # is malformed input (65), not a parameter error (64) or a protocol
    # failure (1).
    lines = (keydir / ("a." + kind)).read_text().splitlines()
    lines[idx] = line
    key = _write(tmp_path / ("bad." + kind), "\n".join(lines) + "\n")
    msg = _write(tmp_path / "m.txt", "Go\n")
    capsys.readouterr()
    if kind == "key":
        argv = ["sign", "--priv", key, "--in", msg]
    else:
        argv = ["encrypt", "--pub", key, "--in", msg]
    assert main(argv + ["--out", str(tmp_path / "out.txt")]) == 65
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("hpe: ")


def test_message_outside_alphabet_is_data_error(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", "naïve\n")
    rc = main(["encrypt", "--pub", str(keydir / "a.pub"), "--seed", "1",
               "--in", msg, "--out", str(tmp_path / "c.txt")])
    assert rc == 65
    capsys.readouterr()


def test_empty_message_round_trip(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", "\n")
    ct = str(tmp_path / "c.txt")
    assert main(["encrypt", "--pub", str(keydir / "a.pub"), "--seed", "4",
                 "--in", msg, "--out", ct]) == 0
    rc = main(["decrypt", "--priv", str(keydir / "a.key"), "--in", ct,
               "--out", str(tmp_path / "o.txt")])
    assert rc == 0
    assert (tmp_path / "o.txt").read_text() == "\n"
    capsys.readouterr()


def test_sign_verify_pipeline(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", "release build 1.2\n")
    sig = str(tmp_path / "m.sig")
    rc = main(["sign", "--priv", str(keydir / "a.key"), "--seed", "9",
               "--in", msg, "--out", sig])
    assert rc == 0
    assert (tmp_path / "m.sig").read_text().startswith("SIG1 ")
    rc = main(["verify", "--pub", str(keydir / "a.pub"), "--in", sig, msg])
    assert rc == 0
    assert "accept" in capsys.readouterr().out
    tampered = _write(tmp_path / "m2.txt", "release build 1.3\n")
    rc = main(["verify", "--pub", str(keydir / "a.pub"), "--in", sig, tampered])
    assert rc == 1
    assert "reject" in capsys.readouterr().out


def test_verify_rejects_corrupt_signature_file(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", "hello\n")
    sig = _write(tmp_path / "m.sig", "SIG1 not-a-salt 0101\n")
    rc = main(["verify", "--pub", str(keydir / "a.pub"), "--in", sig, msg])
    assert rc == 65
    capsys.readouterr()


def test_signcrypt_pipeline(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", "Hi Bob\n")
    ct = str(tmp_path / "sc.txt")
    rc = main(["signcrypt", "--priv", str(keydir / "a.key"),
               "--pub", str(keydir / "b.pub"), "--seed", "6",
               "--in", msg, "--out", ct])
    assert rc == 0
    rc = main(["unsigncrypt", "--priv", str(keydir / "b.key"),
               "--pub", str(keydir / "a.pub"), "--in", ct,
               "--out", str(tmp_path / "u.txt")])
    assert rc == 0
    assert (tmp_path / "u.txt").read_text() == "Hi Bob\n"
    capsys.readouterr()


def test_unsigncrypt_wrong_sender_fails(keydir, tmp_path, capsys):
    msg = _write(tmp_path / "m.txt", "Hi Bob\n")
    ct = str(tmp_path / "sc.txt")
    assert main(["signcrypt", "--priv", str(keydir / "a.key"),
                 "--pub", str(keydir / "b.pub"), "--seed", "6",
                 "--in", msg, "--out", ct]) == 0
    rc = main(["unsigncrypt", "--priv", str(keydir / "b.key"),
               "--pub", str(keydir / "b.pub"), "--in", ct,
               "--out", str(tmp_path / "u.txt")])
    assert rc == 1
    capsys.readouterr()


def test_attack_im_report(capsys):
    rc = main(["attack", "--target", "im", "--q", "2", "--n", "9",
               "--seed", "3", "--trials", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["target"] == "im"
    assert int(fields["relation_dimension"]) >= 9
    assert fields["recovered"] == "5"
    assert fields["success"] == "true"


def test_attack_im_rejects_bad_degree(capsys):
    # n = 8 admits no bijective exponent, a parameter-level failure.
    rc = main(["attack", "--target", "im", "--q", "2", "--n", "8",
               "--seed", "3"])
    assert rc == 64
    capsys.readouterr()


def test_attack_hpe_contrast_report(capsys):
    rc = main(["attack", "--target", "hpe", "--q", "2", "--n", "16",
               "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["target"] == "hpe"
    assert fields["relation_dimension"] == "0"


def test_bench_runs(capsys):
    rc = main(["bench", "--q", "2", "--n", "12", "--seed", "1",
               "--trials", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "keygen_ms=" in out and "round_trips=" in out
