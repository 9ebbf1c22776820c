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
from .core.keygen import keygen
from .core.keys import KeyGenParams
from .errors import (BadTheta, EncryptionFailed, FormatError, HpeError,
                     InvalidDegree, InvalidOrder, LengthMismatch,
                     SolutionSpaceTooLarge, SymbolOutOfAlphabet, TooLarge,
                     VariableMismatch)
from .mvpoly.linalg import random_scalars

EX_OK = 0
EX_PROTOCOL = 1
EX_ATTACK = 2
EX_USAGE = 64
EX_DATA = 65

_USAGE_ERRORS = (InvalidOrder, InvalidDegree, VariableMismatch, BadTheta)
_DATA_ERRORS = (FormatError, SymbolOutOfAlphabet, LengthMismatch, TooLarge)


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code remapped from 2 to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """An argparse usage error, reported with the usage exit code."""


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


def _key_params(args) -> KeyGenParams:
    """The key parameters that keygen, attack and bench take as flags."""
    return KeyGenParams(q=args.q, n=args.n, t_max=args.t, degX_max=args.degx)


def cmd_keygen(args, rng) -> int:
    pk, sk = keygen(_key_params(args), rng)
    _write_text(args.pub, serial.dump_public(pk))
    _write_text(args.priv, serial.dump_private(sk))
    print("equations=%d terms=%d t=%d q=%d n=%d" % (
        pk.n, pk.term_count(), pk.t, pk.q, pk.n))
    return EX_OK


def _seal(args, key, seal) -> int:
    """Write seal(block) for each block of the --in message, one per line.

    key, read before the message, sets the block width and the digits; the
    last block is padded with the alphabet's first letter.
    """
    message = _read_message(args.infile)
    width = key.alphabet.blocks_for(key.n)
    pad = key.alphabet.letters[0]
    lines = [serial.dump_vector(seal(message[i:i + width].ljust(width, pad)),
                                key.base.q)
             for i in range(0, max(len(message), 1), width)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EX_OK


def _open(args, key, alphabet, candidates) -> int:
    """Join the one candidate of each --in ciphertext line into the message.

    key, read before the ciphertext, sets the line's digits.  Reports
    every block with several candidates and fails if there is one.
    """
    body = _read_text(args.infile)
    pieces = []
    ambiguous = False
    for lineno, line in enumerate(ln for ln in body.splitlines() if ln.strip()):
        cands = candidates(serial.parse_vector(line, key.base.q, key.n))
        if not cands:
            print("block %d: no valid candidate" % lineno, file=sys.stderr)
            return EX_PROTOCOL
        if len(cands) > 1:
            ambiguous = True
            print("block %d candidates: %s" % (lineno, "|".join(cands)))
        pieces.append(cands)
    if ambiguous:
        return EX_PROTOCOL
    recovered = "".join(c[0] for c in pieces).rstrip(alphabet.letters[0])
    _write_text(args.out, recovered + "\n")
    return EX_OK


def cmd_encrypt(args, rng) -> int:
    pk = serial.load_public(_read_text(args.pub))
    return _seal(args, pk, lambda chunk: protocol.encrypt(
        pk, chunk, rng, max_trials=args.trials)[0])


def cmd_decrypt(args, rng) -> int:
    sk = serial.load_private(_read_text(args.priv))
    return _open(args, sk, sk.alphabet,
                 lambda y: protocol.decrypt_messages(sk, y))


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
    return _seal(args, sk, lambda chunk: sigs.signcrypt(
        sk, pk, chunk, rng, max_trials=args.trials))


def cmd_unsigncrypt(args, rng) -> int:
    sk = serial.load_private(_read_text(args.priv))
    pk = serial.load_public(_read_text(args.pub))
    return _open(args, pk, sk.alphabet,
                 lambda y: sigs.unsigncrypt(sk, pk, y))


def cmd_attack(args, rng) -> int:
    t0 = time.perf_counter()
    if args.target == "im":
        theta = imattack.default_theta(args.q, args.n)
        pk, _sk = imattack.im_keygen(args.q, args.n, theta, rng)
        shape = "theta=%d" % theta
    else:
        # contrast experiment against the newer keys
        pk, _sk = keygen(_key_params(args), rng)
        shape = "t=%d" % pk.t
    t1 = time.perf_counter()
    rels = imattack.harvest_relations(pk, rng=rng)
    t2 = time.perf_counter()
    report = ["target=" + args.target, "q=%d" % args.q, "n=%d" % args.n,
              shape, "relation_dimension=%d" % len(rels),
              "keygen_seconds=%.3f" % (t1 - t0),
              "harvest_seconds=%.3f" % (t2 - t1)]
    ok = True
    if args.target == "im":
        recovered = residual_max = 0
        try:
            for _ in range(args.trials):
                x = random_scalars(args.q, args.n, rng)
                y = protocol.encrypt_raw(pk, x, rng)
                cands = imattack.patarin_attack(pk, rels, y)
                residual_max = max(residual_max, len(cands))
                if any(np.array_equal(c, x) for c in cands):
                    recovered += 1
        except SolutionSpaceTooLarge as exc:
            report.append("error=%s" % exc)
            ok = False
        else:
            report += ["attack_seconds=%.3f" % (time.perf_counter() - t2),
                       "ciphertexts=%d" % args.trials,
                       "recovered=%d" % recovered,
                       "residual_max=%d" % residual_max]
            ok = recovered == args.trials
    report.append("success=%s" % ("true" if ok else "false"))
    print("\n".join(report))
    return EX_OK if ok else EX_ATTACK


def cmd_bench(args, rng) -> int:
    params = _key_params(args)
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
    msgs = ["".join(rng.choice(alphabet.letters) for _ in range(width))
            for _ in range(args.trials)]
    enc, dec, decrypted, ambiguous = [], [], 0, 0
    for msg in msgs:
        t2 = time.perf_counter()
        try:
            y, _tr = protocol.encrypt(pk, msg, rng)
        except EncryptionFailed:
            continue
        t3 = time.perf_counter()
        got = protocol.decrypt_messages(sk, y)
        dec.append(time.perf_counter() - t3)
        enc.append(t3 - t2)
        # exactly the message, or the message among several candidates
        decrypted += got == [msg]
        ambiguous += len(got) > 1 and msg in got
    print("keygen_ms=%.2f" % ((t1 - t0) * 1000))
    print("terms=%d" % pk.term_count())
    if enc:
        # medians, since one slow round trip on a busy host moves a mean
        print("encrypt_ms=%.2f" % (np.median(enc) * 1000))
        print("decrypt_ms=%.2f" % (np.median(dec) * 1000))
    print("round_trips=%d" % len(enc))
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
    p.add_argument("--trials", type=int, default=protocol._DEFAULT_TRIALS,
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
    p.add_argument("--trials", type=int, default=protocol._DEFAULT_TRIALS)
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
    except SolutionSpaceTooLarge as exc:
        print("hpe: %s" % exc, file=sys.stderr)
        return EX_ATTACK
    except HpeError as exc:
        print("hpe: %s" % exc, file=sys.stderr)
        return EX_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
