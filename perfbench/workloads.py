"""The workloads: key set-up, one closed-loop client, and output checks.

Every workload builds its keys from the fixed key seeds in KEY_SEEDS and
draws everything else (messages, synonym choices, salts, the CLI's --seed
values) from one random.Random per operation, seeded by (run seed, cycle
index, operation), so the draws of one operation never shift the next.
The number of set-ups and of cycles is fixed per workload (cycles scale
with --seconds), never by the clock, so a seed fixes every input exactly.

A wrong result raises WrongResult.  Documented protocol failures
(EncryptionFailed, SigningFailed, an ambiguous decryption) are counted and
the loop goes on.  Any other exception propagates and aborts the run.
"""

import hashlib
import inspect
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

KEY_SEEDS = (1, 2, 3)
OPS = ("keygen", "encrypt", "decrypt", "sign", "verify")

# reload: set-up also parses both key files back (too slow at n=32, where
# load_public alone takes over 10 s).
# setup_rounds: set-ups per run, cycling over the key seeds, so setup_s is a
# median of several.  cycles_per_s: cycles per --seconds, about one
# second's worth on a busy 2-vCPU x86 VM; rounded to a multiple of the key
# count.
WORKLOADS = {
    "roundtrip-q2n32": {"kind": "roundtrip", "q": 2, "n": 32, "reload": False,
                        "setup_rounds": 3, "cycles_per_s": 3.0},
    "roundtrip-q4n8": {"kind": "roundtrip", "q": 4, "n": 8, "reload": True,
                       "setup_rounds": 12, "cycles_per_s": 0.9},
    "cli-q2n16": {"kind": "cli", "q": 2, "n": 16, "letters": 16,
                  "setup_rounds": 3, "cycles_per_s": 0.3},
}

_CHILD_TIMEOUT_S = 150


class WrongResult(Exception):
    """The program returned an incorrect output."""


class Results:
    """What one run measured."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.lat = {op: [] for op in OPS}         # untraced, ms
        self.traced_lat = {op: [] for op in OPS}  # traced cycles, ms
        # untraced signs, ms per salt tried, one list per key
        self.sign_per_salt = [[] for _ in KEY_SEEDS]
        self.setup_s = []
        self.public_bytes = []
        self.terms = []
        self.key_notes = []
        self.attempted = 0
        self.failures = Counter()
        self.roundtrips_ok = 0
        self.roundtrip_s = 0.0
        self.cycles = 0
        self.peak_rss_mb = 0.0
        self.startup_ms = []
        # host_gauge() readings: around each set-up, and before each cycle
        self.gauge_setup_ms = []
        self.gauge_ms = []
        self.field_suite = {}
        self.tracer = None

    def fail(self, kind: str) -> None:
        self.failures[kind] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _setup_rounds(res: Results):
    """(round, key slot): every key in turn, setup_rounds times in all.
    Reads the host gauge before each round and after the last."""
    for j in range(max(len(KEY_SEEDS), res.spec["setup_rounds"])):
        res.gauge_setup_ms.append(host_gauge())
        yield j, j % len(KEY_SEEDS)
    res.gauge_setup_ms.append(host_gauge())


def cycle_count(spec: dict, seconds: float) -> int:
    """Cycles in a run: a multiple of the key count, set by --seconds only."""
    keys = len(KEY_SEEDS)
    return keys * max(1, round(seconds * spec["cycles_per_s"] / keys))


def _op_rng(seed: int, cycle: int, op: str) -> random.Random:
    return random.Random("%d/%d/%s" % (seed, cycle, op))


def _message(alphabet, seed: int, cycle: int, letters: int,
             cli: bool = False) -> str:
    """Random text.  For the CLI the last letter is never the pad letter,
    because `hpe decrypt` strips trailing pad letters by design."""
    rng = _op_rng(seed, cycle, "message")
    body = [rng.choice(alphabet.letters) for _ in range(letters - 1)]
    body.append(rng.choice(alphabet.letters[1:] if cli else alphabet.letters))
    return "".join(body)


def salt_budget() -> int:
    """Salts sigs.sign tries before SigningFailed: its default max_trials."""
    from hpe import sigs
    return inspect.signature(sigs.sign).parameters["max_trials"].default


def host_gauge() -> float:
    """ms for a fixed pure-Python loop that touches no hpe code: how fast
    the host runs Python at this moment.  The end-to-end times are scaled
    by it (see metrics.py)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


class _Loop:
    """The closed loop shared by the workloads: runs a fixed number of cycles."""

    def __init__(self, res: Results, cycles: int, trace: bool,
                 in_process: bool):
        self.res = res
        self.cycles = cycles
        self.tracer = tracing.Tracer(op="keygen") if trace else None
        self.traced = trace
        self.in_process = in_process
        res.tracer = self.tracer

    def begin(self, op: str, cycle: int, prefix: str):
        if not self.traced:
            return None
        self.tracer.op = op
        self.tracer.op_id = cycle
        return self.tracer.open(prefix + op)

    def end(self, idx, error: str | None = None) -> None:
        if idx is not None:
            self.tracer.close(idx, error)

    def record(self, op: str, seconds: float) -> None:
        if self.traced:
            self.res.traced_lat[op].append(seconds * 1e3)
        else:
            self.res.lat[op].append(seconds * 1e3)
            if op in ("encrypt", "decrypt"):
                self.res.roundtrip_s += seconds
        self.res.attempted += 1

    def record_salts(self, slot: int, seconds: float, salts: int) -> None:
        """A sign's time over the salts it tried (the budget if it failed)."""
        if not self.traced:
            self.res.sign_per_salt[slot].append(seconds * 1e3 / salts)

    def roundtrip_ok(self) -> None:
        if not self.traced:
            self.res.roundtrips_ok += 1

    def run(self, cycle_fn) -> None:
        """Run the cycles.  When tracing, each cycle runs untraced and then
        traced on the same inputs, so the difference between the two is the
        tracing overhead."""
        trace = self.tracer is not None
        for cycle in range(self.cycles):
            self.res.gauge_ms.append(host_gauge())
            self.traced = False
            cycle_fn(cycle)
            if trace:
                self.traced = True
                if self.in_process:
                    tracing.install(self.tracer)
                try:
                    cycle_fn(cycle)
                finally:
                    if self.in_process:
                        self.tracer.uninstall()
        self.traced = False
        self.res.cycles = self.cycles


# ---------------------------------------------------------------------------
# in-process round trips


def run_roundtrip(res: Results, seed: int, cycles: int, trace: bool) -> None:
    from hpe import sigs
    from hpe.core import protocol, serial
    from hpe.core.keys import KeyGenParams
    from hpe.errors import HpeError

    spec = res.spec
    loop = _Loop(res, cycles, trace, in_process=True)
    params = KeyGenParams(q=spec["q"], n=spec["n"])

    keys = []
    if trace:
        tracing.install(loop.tracer)
    try:
        for j, slot in _setup_rounds(res):
            key_seed = KEY_SEEDS[slot]
            idx = loop.begin("keygen", -1 - j, "op.")
            t0 = time.perf_counter()
            pk, sk = tracing.keygen_module().keygen(params, random.Random(key_seed))
            t1 = time.perf_counter()
            public_text = serial.dump_public(pk)
            private_text = serial.dump_private(sk)
            if spec["reload"]:
                loaded = serial.load_public(public_text)
                serial.load_private(private_text)
                if loaded.term_count() != pk.term_count():
                    raise WrongResult("load_public(dump_public(pk)) has %d "
                                      "terms, not %d" % (loaded.term_count(),
                                                         pk.term_count()))
            t2 = time.perf_counter()
            public_bytes = len(public_text.encode("utf-8"))
            loop.end(idx)
            res.lat["keygen"].append((t1 - t0) * 1e3)
            res.setup_s.append(t2 - t0)
            if j < len(KEY_SEEDS):
                res.public_bytes.append(public_bytes)
                res.terms.append(pk.term_count())
                res.key_notes.append("seed %d: %d terms, deg_x %d" % (
                    key_seed, pk.term_count(), sk.priv.deg_x(spec["q"])))
                keys.append((pk, sk))
    finally:
        if trace:
            loop.tracer.uninstall()

    def op(name, cycle, fn, *args):
        idx = loop.begin(name, cycle, "op.")
        error = None
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except HpeError as exc:
            out, error = None, type(exc).__name__
        dt = time.perf_counter() - t0
        loop.end(idx, error)
        loop.record(name, dt)
        if error:
            res.fail(error)
        return out, dt

    budget = salt_budget()

    def cycle_fn(cycle):
        pk, sk = keys[cycle % len(keys)]
        width = pk.alphabet.blocks_for(pk.n)
        msg = _message(pk.alphabet, seed, cycle, width)
        enc, _ = op("encrypt", cycle, protocol.encrypt, pk, msg,
                    _op_rng(seed, cycle, "encrypt"))
        if enc is not None:
            cands, _ = op("decrypt", cycle, protocol.decrypt_messages, sk,
                          enc[0])
            if cands is not None:
                if msg not in cands:
                    raise WrongResult("decryption of %r gave %r" % (msg, cands))
                if len(cands) > 1:
                    res.fail("AmbiguousDecryption")
                else:
                    loop.roundtrip_ok()
        sig, t_sign = op("sign", cycle, sigs.sign, sk, msg,
                         _op_rng(seed, cycle, "sign"))
        loop.record_salts(cycle % len(keys), t_sign,
                          budget if sig is None else sig.salt + 1)
        if sig is not None:
            ok, _ = op("verify", cycle, sigs.verify, pk, msg, sig)
            if not ok:
                raise WrongResult("verify rejected an honest signature "
                                  "on %r" % msg)

    loop.run(cycle_fn)
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the CLI, one fresh process per command


class _Cli:
    """Runs `python -m hpe.cli` children, or the tracing launcher."""

    def __init__(self, root: Path, tmp: Path, loop: _Loop):
        self.tmp = tmp
        self.loop = loop
        self.env = _child_env(root)
        self.launcher = str(Path(__file__).resolve().parent / "cli_launcher.py")
        self.serial = 0

    def run(self, op: str, cycle: int, argv: list):
        """Returns (exit code, stdout, stderr, seconds)."""
        loop = self.loop
        dump = None
        if loop.traced:
            self.serial += 1
            dump = self.tmp / ("trace-%d.json" % self.serial)
            cmd = [sys.executable, self.launcher, str(dump), op, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "hpe.cli", *argv]
        idx = loop.begin(op, cycle, "cli.")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.tmp, env=self.env,
                              capture_output=True, text=True,
                              timeout=_CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        loop.end(idx, None if proc.returncode == 0 else "exit%d" % proc.returncode)
        if dump is not None and dump.exists():
            loop.tracer.merge_child(dump, idx, op)
            dump.unlink()
        if proc.returncode not in (0, 1):
            raise WrongResult("hpe %s exited %d: %s" % (
                op, proc.returncode, proc.stderr.strip()[-500:]))
        return proc.returncode, proc.stdout, proc.stderr, dt


def _child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def startup_probe(root: Path, tmp: Path, runs: int = 5) -> list:
    """Wall time of a fresh `python -c "import hpe.cli"`, in ms."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hpe.cli"], cwd=tmp,
                       env=_child_env(root), check=True,
                       timeout=_CHILD_TIMEOUT_S)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def _chunks(message: str, width: int, pad: str) -> list:
    return [message[i:i + width].ljust(width, pad)
            for i in range(0, len(message), width)]


def _check_protocol_exit(op: str, stderr: str) -> None:
    """An exit 1 counts as a documented failure only if hpe.cli.main caught
    an HpeError and printed its one `hpe: ...` line.  A child that died on
    any other exception (the solver's assert included) also exits 1, with a
    traceback."""
    lines = stderr.strip().splitlines()
    if "Traceback" in stderr or len(lines) != 1 or not lines[0].startswith("hpe: "):
        raise WrongResult("hpe %s exited 1 without a protocol error: %s"
                          % (op, stderr.strip()[-500:]))


def _check_ambiguous(stdout: str, stderr: str, chunks: list) -> None:
    """An ambiguous decryption exits 1 with nothing on stderr, and every
    block the CLI lists must include the true text."""
    if stderr.strip():
        raise WrongResult("hpe decrypt exited 1: %s" % stderr.strip()[-500:])
    listed = 0
    for line in stdout.splitlines():
        head, sep, cands = line.partition(" candidates: ")
        if not sep or not head.startswith("block "):
            continue
        block = int(head.split()[1])
        if chunks[block] not in cands.split("|"):
            raise WrongResult("block %d candidates %r miss %r"
                              % (block, cands, chunks[block]))
        listed += 1
    if not listed:
        raise WrongResult("decrypt exited 1 without listing candidates")


def run_cli(res: Results, seed: int, cycles: int, trace: bool,
            root: Path, tmp: Path) -> None:
    from hpe.core import serial
    from hpe.core.alphabet import default_alphabet

    spec = res.spec
    q, n = spec["q"], spec["n"]
    loop = _Loop(res, cycles, trace, in_process=False)
    cli = _Cli(root, tmp, loop)
    alphabet = default_alphabet(q, n)
    width = alphabet.blocks_for(n)
    pad = alphabet.letters[0]

    slots = len(KEY_SEEDS)
    budget = salt_budget()

    def keygen(slot, cycle):
        key_seed = KEY_SEEDS[slot]
        pub, priv = tmp / ("k%d.pub" % slot), tmp / ("k%d.key" % slot)
        code, out, err, dt = cli.run("keygen", cycle, [
            "keygen", "--q", str(q), "--n", str(n), "--seed", str(key_seed),
            "--pub", str(pub), "--priv", str(priv)])
        if code != 0:
            raise WrongResult("keygen --seed %d failed: %s" % (key_seed, err.strip()))
        return pub, priv, out, dt

    digests = []
    for j, slot in _setup_rounds(res):
        key_seed = KEY_SEEDS[slot]
        t0 = time.perf_counter()
        pub, priv, out, _ = keygen(slot, -1 - j)
        res.setup_s.append(time.perf_counter() - t0)
        if j < slots:
            res.public_bytes.append(pub.stat().st_size)
            fields = dict(kv.split("=") for kv in out.split() if "=" in kv)
            res.terms.append(int(fields["terms"]))
            res.key_notes.append("seed %d: %s terms" % (key_seed, fields["terms"]))
            digests.append(hashlib.sha256(pub.read_bytes()).digest())

    def cycle_fn(cycle):
        slot = cycle % slots
        pub, priv, _, t_key = keygen(slot, cycle)
        loop.record("keygen", t_key)
        if hashlib.sha256(pub.read_bytes()).digest() != digests[slot]:
            raise WrongResult("keygen --seed %d wrote another public key"
                              % KEY_SEEDS[slot])
        pub, priv = str(pub), str(priv)
        msg = _message(alphabet, seed, cycle, spec["letters"], cli=True)
        chunks = _chunks(msg, width, pad)
        msg_file, ct_file = tmp / "msg.txt", tmp / "msg.ct"
        out_file, sig_file = tmp / "msg.out", tmp / "msg.sig"
        msg_file.write_text(msg, encoding="utf-8")
        enc_seed = _op_rng(seed, cycle, "encrypt").randrange(1 << 31)
        code, _, err, t_enc = cli.run("encrypt", cycle, [
            "encrypt", "--pub", pub, "--seed", str(enc_seed),
            "--in", str(msg_file), "--out", str(ct_file)])
        loop.record("encrypt", t_enc)
        if code == 1:
            _check_protocol_exit("encrypt", err)
            res.fail("EncryptionFailed")
        else:
            code, out, err, t_dec = cli.run("decrypt", cycle, [
                "decrypt", "--priv", priv, "--in", str(ct_file),
                "--out", str(out_file)])
            loop.record("decrypt", t_dec)
            if code == 0:
                text = out_file.read_text(encoding="utf-8")
                if text != msg + "\n":
                    raise WrongResult("decrypt gave %r for %r" % (text, msg))
                loop.roundtrip_ok()
            elif "no valid candidate" in err:
                raise WrongResult("decrypt found no candidate for %r" % msg)
            else:
                _check_ambiguous(out, err, chunks)
                res.fail("AmbiguousDecryption")
        sign_seed = _op_rng(seed, cycle, "sign").randrange(1 << 31)
        code, _, err, t_sign = cli.run("sign", cycle, [
            "sign", "--priv", priv, "--seed", str(sign_seed),
            "--in", str(msg_file), "--out", str(sig_file)])
        loop.record("sign", t_sign)
        if code == 1:
            _check_protocol_exit("sign", err)
            loop.record_salts(slot, t_sign, budget)
            res.fail("SigningFailed")
            return
        salt, _ = serial.parse_signature(sig_file.read_text(encoding="utf-8"),
                                         q, n)
        loop.record_salts(slot, t_sign, salt + 1)
        code, out, err, t_ver = cli.run("verify", cycle, [
            "verify", "--pub", pub, "--in", str(sig_file), str(msg_file)])
        loop.record("verify", t_ver)
        if code != 0 or out.strip() != "accept":
            raise WrongResult("verify rejected an honest signature on %r"
                              % msg)

    loop.run(cycle_fn)
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# field micro-suite (random operands, not the operands decryption sees)


def _per_call_us(fn, operands, budget_s: float = 0.25) -> float:
    passes = []
    spent = 0.0
    while len(passes) < 3 or spent < budget_s:
        t0 = time.perf_counter()
        for args in operands:
            fn(*args)
        dt = time.perf_counter() - t0
        passes.append(dt)
        spent += dt
    return statistics.median(passes) / len(operands) * 1e6


def field_suite(q: int, n: int, seed: int) -> dict:
    """Per-call cost of mul, inv and frob in the workload's field."""
    from hpe.fields import build_extension

    field = build_extension(q, n)
    rng = random.Random("%d/fields" % seed)
    pairs = [(field.random_nonzero(rng), field.random_nonzero(rng))
             for _ in range(128)]
    singles = [(field.random_nonzero(rng),) for _ in range(16)]
    frobs = [(field.random_nonzero(rng), rng.randrange(1, n))
             for _ in range(128)]
    out = {
        "mul": _per_call_us(field.mul, pairs),
        "inv": _per_call_us(field.inv, singles),
        "frob": _per_call_us(field.frob, frobs),
    }
    for a, b in pairs[:16]:
        if field.mul(a, b) != field.mul(b, a) or field.mul(a, 1) != a:
            raise WrongResult("field mul is not commutative with unit 1")
    for (a,) in singles:
        if field.mul(a, field.inv(a)) != 1:
            raise WrongResult("mul(a, inv(a)) != 1 for a=%d" % a)
    for a, k in frobs[:16]:
        if field.frob(a, k) != field.pow(a, q**k):
            raise WrongResult("frob(a, %d) disagrees with pow" % k)
    return out
