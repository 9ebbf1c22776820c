"""Command-line surface: key management, the protocols, and the attack.

Exit codes: 0 success, 1 protocol reject or failure, 2 attack
infeasible, 64 usage or parameter error, 65 unreadable or malformed
data.  All randomness flows from one generator seeded by --seed, so
seeded runs write byte-identical artifacts.
"""

import argparse
import random
import sys
import time

import numpy as np

from . import imattack, sigs
from .core import protocol, serial
from .core.alphabet import default_alphabet
from .core.keygen import keygen
from .core.keys import KeyGenParams
from .errors import (AmbiguousDecryption, BadTheta, EncryptionFailed,
                     FormatError, GenerationFailed, HpeError, InvalidDegree,
                     InvalidOrder, LengthMismatch, NoValidCandidate,
                     SigncryptionFailed, SigningFailed, SolutionSpaceTooLarge,
                     SymbolOutOfAlphabet, TooLarge, VariableMismatch)
from .mvpoly.linalg import random_scalars

EX_OK = 0
EX_PROTOCOL = 1
EX_ATTACK = 2
EX_USAGE = 64
EX_DATA = 65

_USAGE_ERRORS = (InvalidOrder, InvalidDegree, VariableMismatch, BadTheta)
_DATA_ERRORS = (FormatError, SymbolOutOfAlphabet, LengthMismatch, TooLarge)
_PROTOCOL_ERRORS = (EncryptionFailed, NoValidCandidate, SigningFailed,
                    SigncryptionFailed, GenerationFailed)


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code remapped from 2 to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    def __init__(self, message):
        super().__init__(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError("cannot read %s: %s" % (path, exc)) from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError("cannot write %s: %s" % (path, exc)) from exc


def _read_message(path: str) -> str:
    text = _read_text(path)
    if text.endswith("\n"):
        text = text[:-1]
    return text


def _chunk_message(alphabet, n: int, message: str) -> list:
    """Split into fixed-size letter groups, padding the tail."""
    width = alphabet.blocks_for(n)
    pad = alphabet.letters[0]
    chunks = []
    for i in range(0, max(len(message), 1), width):
        piece = message[i : i + width]
        chunks.append(piece + pad * (width - len(piece)))
    return chunks


def cmd_keygen(args, rng) -> int:
    params = KeyGenParams(q=args.q, n=args.n, t_max=args.t,
                          degX_max=args.degx)
    pk, sk = keygen(params, rng)
    _write_text(args.pub, serial.dump_public(pk))
    _write_text(args.priv, serial.dump_private(sk))
    print("equations=%d terms=%d t=%d q=%d n=%d" % (
        pk.n, pk.term_count(), pk.t, pk.q, pk.n))
    return EX_OK


def cmd_encrypt(args, rng) -> int:
    pk = serial.load_public(_read_text(args.pub))
    message = _read_message(args.infile)
    lines = []
    for chunk in _chunk_message(pk.alphabet, pk.n, message):
        y, _ = protocol.encrypt(pk, chunk, rng, max_trials=args.trials)
        lines.append(serial.dump_vector(y, pk.q))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EX_OK


def cmd_decrypt(args, rng) -> int:
    sk = serial.load_private(_read_text(args.priv))
    body = _read_text(args.infile)
    pieces = []
    ambiguous = False
    for lineno, line in enumerate(ln for ln in body.splitlines() if ln.strip()):
        y = serial.parse_vector(line, sk.base.q, sk.n)
        cands = protocol.decrypt_messages(sk, y)
        if not cands:
            print("block %d: no valid candidate" % lineno, file=sys.stderr)
            return EX_PROTOCOL
        if len(cands) > 1:
            ambiguous = True
            print("block %d candidates: %s" % (lineno, "|".join(cands)))
        pieces.append(cands)
    if ambiguous:
        return EX_PROTOCOL
    pad = sk.alphabet.letters[0]
    recovered = "".join(c[0] for c in pieces).rstrip(pad)
    _write_text(args.out, recovered + "\n")
    return EX_OK


def cmd_sign(args, rng) -> int:
    sk = serial.load_private(_read_text(args.priv))
    message = _read_message(args.infile)
    sig = sigs.sign(sk, message, rng)
    _write_text(args.out, serial.dump_signature(sig.salt, sig.x, sk.base.q))
    return EX_OK


def cmd_verify(args, rng) -> int:
    pk = serial.load_public(_read_text(args.pub))
    message = _read_message(args.message)
    salt, x = serial.parse_signature(_read_text(args.infile), pk.q, pk.n)
    if sigs.verify(pk, message, sigs.Signature(salt, x)):
        print("accept")
        return EX_OK
    print("reject")
    return EX_PROTOCOL


def cmd_signcrypt(args, rng) -> int:
    sk = serial.load_private(_read_text(args.priv))
    pk = serial.load_public(_read_text(args.pub))
    message = _read_message(args.infile)
    lines = []
    for chunk in _chunk_message(sk.alphabet, sk.n, message):
        y = sigs.signcrypt(sk, pk, chunk, rng, max_trials=args.trials)
        lines.append(serial.dump_vector(y, pk.q))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EX_OK


def cmd_unsigncrypt(args, rng) -> int:
    sk = serial.load_private(_read_text(args.priv))
    pk = serial.load_public(_read_text(args.pub))
    body = _read_text(args.infile)
    pieces = []
    ambiguous = False
    for lineno, line in enumerate(ln for ln in body.splitlines() if ln.strip()):
        y = serial.parse_vector(line, pk.q, pk.n)
        cands = sigs.unsigncrypt(sk, pk, y)
        if len(cands) > 1:
            ambiguous = True
            print("block %d candidates: %s" % (lineno, "|".join(cands)))
        pieces.append(cands)
    if ambiguous:
        return EX_PROTOCOL
    pad = sk.alphabet.letters[0]
    recovered = "".join(c[0] for c in pieces).rstrip(pad)
    _write_text(args.out, recovered + "\n")
    return EX_OK


def cmd_attack(args, rng) -> int:
    report = []
    if args.target == "im":
        t0 = time.perf_counter()
        kp = imattack.im_keygen(args.q, args.n, rng=rng)
        report.append("target=im")
        report.append("q=%d" % args.q)
        report.append("n=%d" % args.n)
        report.append("theta=%d" % kp.theta)
        t1 = time.perf_counter()
        rels = imattack.harvest_relations(kp.public, rng=rng)
        t2 = time.perf_counter()
        report.append("relation_dimension=%d" % len(rels))
        report.append("harvest_seconds=%.3f" % (t2 - t1))
        trials = args.trials
        recovered = 0
        residual_max = 0
        try:
            for _ in range(trials):
                x = random_scalars(args.q, args.n, rng)
                y = imattack.im_encrypt(kp, x)
                cands = imattack.patarin_attack(kp.public, rels, y)
                residual_max = max(residual_max, len(cands))
                if any(np.array_equal(c, x) for c in cands):
                    recovered += 1
        except SolutionSpaceTooLarge as exc:
            report.append("error=%s" % exc)
            report.append("success=false")
            print("\n".join(report))
            return EX_ATTACK
        t3 = time.perf_counter()
        report.append("attack_seconds=%.3f" % (t3 - t2))
        report.append("keygen_seconds=%.3f" % (t1 - t0))
        report.append("ciphertexts=%d" % trials)
        report.append("recovered=%d" % recovered)
        report.append("residual_max=%d" % residual_max)
        ok = recovered == trials
        report.append("success=%s" % ("true" if ok else "false"))
        print("\n".join(report))
        return EX_OK if ok else EX_ATTACK
    # contrast experiment against the newer keys
    t0 = time.perf_counter()
    params = KeyGenParams(q=args.q, n=args.n, t_max=args.t, degX_max=args.degx)
    pk, _sk = keygen(params, rng)
    t1 = time.perf_counter()
    rels = imattack.harvest_relations(pk, rng=rng)
    t2 = time.perf_counter()
    report.append("target=hpe")
    report.append("q=%d" % args.q)
    report.append("n=%d" % args.n)
    report.append("t=%d" % pk.t)
    report.append("relation_dimension=%d" % len(rels))
    report.append("keygen_seconds=%.3f" % (t1 - t0))
    report.append("harvest_seconds=%.3f" % (t2 - t1))
    report.append("success=true")
    print("\n".join(report))
    return EX_OK


def cmd_bench(args, rng) -> int:
    params = KeyGenParams(q=args.q, n=args.n, t_max=args.t, degX_max=args.degx)
    # The first keygen also builds the field tables; keygen_ms times a second
    # one from the same rng state, which draws the same key.
    state = rng.getstate()
    pk, sk = keygen(params, rng)
    again = random.Random()
    again.setstate(state)
    t0 = time.perf_counter()
    keygen(params, again)
    t1 = time.perf_counter()
    alphabet = pk.alphabet
    width = alphabet.blocks_for(pk.n)
    msgs = []
    for _ in range(args.trials):
        msgs.append("".join(rng.choice(alphabet.letters) for _ in range(width)))
    enc, dec, done, decrypted, ambiguous = 0.0, 0.0, 0, 0, 0
    for msg in msgs:
        t2 = time.perf_counter()
        try:
            y, _tr = protocol.encrypt(pk, msg, rng)
        except EncryptionFailed:
            continue
        t3 = time.perf_counter()
        got = protocol.decrypt_messages(sk, y)
        dec += time.perf_counter() - t3
        enc += t3 - t2
        done += 1
        # exactly the message, or the message among several candidates
        decrypted += got == [msg]
        ambiguous += len(got) > 1 and msg in got
    print("keygen_ms=%.2f" % ((t1 - t0) * 1000))
    print("terms=%d" % pk.term_count())
    if done:
        print("encrypt_ms=%.2f" % (enc / done * 1000))
        print("decrypt_ms=%.2f" % (dec / done * 1000))
    print("round_trips=%d" % done)
    print("decrypted=%d\nambiguous=%d" % (decrypted, ambiguous))
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hpe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, keyparams=False):
        p.add_argument("--seed", type=int, default=None,
                       help="seed for all randomness in this invocation")
        if keyparams:
            p.add_argument("--q", type=int, default=2, help="base field order")
            p.add_argument("--n", type=int, default=16,
                           help="extension degree / digits per block")
            p.add_argument("--t", type=int, default=3,
                           help="largest monomial weight")
            p.add_argument("--degx", type=int, default=9,
                           help="largest hidden degree in X")

    p = sub.add_parser("keygen", help="generate a key pair")
    common(p, keyparams=True)
    p.add_argument("--pub", required=True, help="public key output path")
    p.add_argument("--priv", required=True, help="private key output path")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a message")
    common(p)
    p.add_argument("--pub", required=True)
    p.add_argument("--in", dest="infile", default="-", help="message file")
    p.add_argument("--out", default=None, help="ciphertext file")
    p.add_argument("--trials", type=int, default=10,
                   help="encodings to try per block")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext")
    common(p)
    p.add_argument("--priv", required=True)
    p.add_argument("--in", dest="infile", default="-", help="ciphertext file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("sign", help="sign a message")
    common(p)
    p.add_argument("--priv", required=True)
    p.add_argument("--in", dest="infile", default="-", help="message file")
    p.add_argument("--out", default=None, help="signature file")
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("verify", help="verify a signature")
    common(p)
    p.add_argument("--pub", required=True)
    p.add_argument("--in", dest="infile", required=True, help="signature file")
    p.add_argument("message", help="message file ('-' for stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("signcrypt", help="sign-then-encrypt for a receiver")
    common(p)
    p.add_argument("--priv", required=True, help="sender private key")
    p.add_argument("--pub", required=True, help="receiver public key")
    p.add_argument("--in", dest="infile", default="-", help="message file")
    p.add_argument("--out", default=None)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_signcrypt)

    p = sub.add_parser("unsigncrypt", help="open a signcrypted message")
    common(p)
    p.add_argument("--priv", required=True, help="receiver private key")
    p.add_argument("--pub", required=True, help="sender public key")
    p.add_argument("--in", dest="infile", default="-", help="ciphertext file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_unsigncrypt)

    p = sub.add_parser("attack", help="run the linearization attack experiment")
    common(p, keyparams=True)
    p.add_argument("--target", choices=("im", "hpe"), default="im",
                   help="attack the power-map scheme or contrast-run "
                        "the harvest against a fresh key")
    p.add_argument("--trials", type=int, default=100,
                   help="ciphertexts to attack")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="time keygen and round-trips")
    common(p, keyparams=True)
    p.add_argument("--trials", type=int, default=20,
                   help="round-trips to measure")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            print("hpe: a subcommand is required", file=sys.stderr)
            return EX_USAGE
        rng = random.Random(args.seed)
        return args.func(args, rng)
    except SystemExit2 as exc:
        print("hpe: %s" % exc, file=sys.stderr)
        return EX_USAGE
    except _USAGE_ERRORS as exc:
        print("hpe: parameter error: %s" % exc, file=sys.stderr)
        return EX_USAGE
    except _DATA_ERRORS as exc:
        print("hpe: %s" % exc, file=sys.stderr)
        return EX_DATA
    except AmbiguousDecryption as exc:
        print("hpe: ambiguous result: %s" % "|".join(exc.candidates),
              file=sys.stderr)
        return EX_PROTOCOL
    except _PROTOCOL_ERRORS as exc:
        print("hpe: %s" % exc, file=sys.stderr)
        return EX_PROTOCOL
    except SolutionSpaceTooLarge as exc:
        print("hpe: %s" % exc, file=sys.stderr)
        return EX_ATTACK
    except HpeError as exc:
        print("hpe: %s" % exc, file=sys.stderr)
        return EX_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
