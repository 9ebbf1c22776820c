"""Turn a run's Results into named metrics with units.

End-to-end metrics come from untraced operations only, and their times are
scaled to a reference host speed (see host_scale).  Layer metrics come
from the traced cycles of a `--trace 1` run, unscaled; a layer a workload
does not exercise reports 0 (key loading on roundtrip-q2n32).
cli.self_ms.<op> is reported on the CLI workload only.
"""

import statistics

from tracing import TraceView

END_TO_END = (
    ("encrypt_ms.p50", "ms"),
    ("decrypt_ms.p50", "ms"),
    ("sign_ms_per_salt", "ms"),
    ("verify_ms.p50", "ms"),
    ("keygen_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("public_key_mb", "MB"),
)

# ops whose samples feed a p50 (and a p90 in the report, from 100 samples)
TIMED_OPS = ("encrypt", "decrypt", "sign", "verify")
P90_MIN_SAMPLES = 100

# workloads.host_gauge() on an idle 2-vCPU x86 VM (Python 3.11); the same VM
# read 6-8 ms when busy
GAUGE_REF_MS = 5.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sign_per_salt(res) -> float:
    """Geometric mean over the keys of each key's median sign time per salt
    tried.  Salt counts (1 to 6 a message, set by the message) and per-key
    costs (about 2x apart) make sign_ms.p50 swing with the seed; this does
    not (see README.md, Steadiness)."""
    medians = [median(s) for s in res.sign_per_salt if s]
    return statistics.geometric_mean(medians) if medians else 0.0


def host_scale(res) -> tuple:
    """(set-up, cycles): GAUGE_REF_MS over the median host gauge read
    during set-up and during the cycles.  A time times its factor is the
    time the host would have taken at the reference speed.  On a shared
    host, identical work slows down by up to 2x, within runs and between
    them, and the gauge moves with it (see README.md, Steadiness)."""
    return (GAUGE_REF_MS / median(res.gauge_setup_ms),
            GAUGE_REF_MS / median(res.gauge_ms))


def end_to_end(res) -> dict:
    at_setup, at_cycles = host_scale(res)
    # in process, keygen runs only in set-up; the CLI runs it every cycle
    at_keygen = at_cycles if res.spec["kind"] == "cli" else at_setup
    values = {
        "setup_s": median(res.setup_s) * at_setup,
        "peak_rss_mb": res.peak_rss_mb,
        "public_key_mb": statistics.fmean(res.public_bytes) / 1e6,
        "keygen_ms.p50": median(res.lat["keygen"]) * at_keygen,
        "sign_ms_per_salt": sign_per_salt(res) * at_cycles,
    }
    for op in ("encrypt", "decrypt", "verify"):
        values[op + "_ms.p50"] = median(res.lat[op]) * at_cycles
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def report_lines(res) -> list:
    """Unscaled times, and the end-to-end numbers that are not gated."""
    at_setup, at_cycles = host_scale(res)
    out = ["host gauge: %.3f ms in set-up, %.3f ms in the cycles "
           "(reference %.1f ms); scale factors %.4f, %.4f" % (
               median(res.gauge_setup_ms), median(res.gauge_ms),
               GAUGE_REF_MS, at_setup, at_cycles),
           "unscaled: setup_s = %.4f s" % median(res.setup_s)]
    for op in ("keygen",) + TIMED_OPS:
        samples = res.lat[op]
        line = "unscaled: %s_ms.p50 = %.3f ms (n=%d)" % (
            op, median(samples), len(samples))
        if len(samples) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(samples, n=10)[8]
            line += "; %s_ms.p90 = %.3f ms" % (op, p90)
        out.append(line)
    out.append("unscaled: sign_ms_per_salt = %.3f ms" % sign_per_salt(res))
    out.append("sign_ms.p50 = %.3f ms (scaled, not gated)"
               % (median(res.lat["sign"]) * at_cycles))
    kinds = ", ".join("%s %d" % kv for kv in sorted(res.failures.items()))
    out.append("failed_ratio = %.4f (%d failed of %d operations%s)" % (
        ratio(res.failed, res.attempted), res.failed, res.attempted,
        "; " + kinds if kinds else ""))
    out.append("roundtrips_per_s = %.3f 1/s (%d exact round trips in %.2f s "
               "of encrypt+decrypt)" % (
                   ratio(res.roundtrips_ok, res.roundtrip_s),
                   res.roundtrips_ok, res.roundtrip_s))
    return out


PER_LAYER = (
    # fields, in situ (per operation) and on random operands
    ("fields.mul_calls.decrypt", "count"),
    ("fields.mul_calls.sign", "count"),
    ("fields.mul_ms.decrypt", "ms"),
    ("fields.mul_ms.sign", "ms"),
    ("fields.inv_calls.decrypt", "count"),
    ("fields.inv_calls.sign", "count"),
    ("fields.frob_calls.decrypt", "count"),
    ("fields.frob_calls.sign", "count"),
    ("fields.mul_us", "us"),
    ("fields.inv_us", "us"),
    ("fields.frob_us", "us"),
    # mvpoly.upoly
    ("upoly.roots_ms.decrypt", "ms"),
    ("upoly.roots_ms.sign", "ms"),
    ("upoly.roots_calls.decrypt", "count"),
    ("upoly.roots_calls.sign", "count"),
    ("upoly.roots_found_mean.decrypt", "count"),
    ("upoly.roots_found_mean.sign", "count"),
    ("upoly.degree_mean.decrypt", "count"),
    ("upoly.degree_mean.sign", "count"),
    # core.keys, mvpoly.linalg, core.protocol
    ("keys.terms", "count"),
    ("keys.linear_system_ms", "ms"),
    ("keys.eval_at_ms.encrypt", "ms"),
    ("keys.eval_at_ms.verify", "ms"),
    ("keys.shape_violations_ms", "ms"),
    ("linalg.solve_ms", "ms"),
    ("linalg.solve_calls", "count"),
    ("linalg.inconsistent_ratio", "ratio"),
    ("linalg.nullity_mean", "count"),
    ("protocol.encrypt_trials_mean", "count"),
    ("protocol.encrypt_reject_ratio", "ratio"),
    ("protocol.encrypt_raw_self_ms", "ms"),
    ("protocol.decrypt_candidates_mean", "count"),
    ("protocol.decrypt_ambiguous_ratio", "ratio"),
    ("protocol.failed_ratio", "ratio"),
    # core.alphabet, sigs
    ("alphabet.decode_valid_ratio", "ratio"),
    ("sigs.salts_per_sign", "count"),
    ("sigs.hash_to_y_us", "us"),
    # core.keygen, core.linearize
    ("keygen.attempts", "count"),
    ("keygen.sample_private_ms", "ms"),
    ("keygen.expand_keypair_ms", "ms"),
    ("linearize.expand_product_ms", "ms"),
    ("linearize.records_ms", "ms"),
    ("linearize.merge_ms", "ms"),
    # core.serial
    ("serial.load_public_ms", "ms"),
    ("serial.load_private_ms", "ms"),
    ("serial.dump_public_ms", "ms"),
    ("serial.dump_private_ms", "ms"),
    # cli
    ("cli.startup_ms", "ms"),
    # traced minus untraced p50, same run
    ("trace.overhead_ms.encrypt", "ms"),
    ("trace.overhead_ms.decrypt", "ms"),
    ("trace.overhead_ms.sign", "ms"),
    ("trace.overhead_ms.verify", "ms"),
)


# only on the CLI workload, which runs no ops in process
PER_LAYER_CLI = tuple(("cli.self_ms." + op, "ms") for op in
                      ("keygen", "encrypt", "decrypt", "sign", "verify"))


def per_layer(res) -> dict:
    v = TraceView(res.tracer)
    m = {}
    for op in ("decrypt", "sign"):
        n_ops = v.ops(op)
        for leaf in ("mul", "inv", "frob"):
            calls, ns = v.leaf("fields." + leaf, op)
            m["fields.%s_calls.%s" % (leaf, op)] = ratio(calls, n_ops)
            if leaf == "mul":
                m["fields.mul_ms.%s" % op] = ratio(ns / 1e6, n_ops)
        roots = v.n("upoly.roots", op)
        m["upoly.roots_ms." + op] = v.mean_ms("upoly.roots", op)
        m["upoly.roots_calls." + op] = ratio(roots, n_ops)
        m["upoly.roots_found_mean." + op] = ratio(
            v.counted("upoly.roots_found", op), roots)
        m["upoly.degree_mean." + op] = ratio(v.counted("upoly.degree", op), roots)
    for name in ("mul", "inv", "frob"):
        m["fields.%s_us" % name] = res.field_suite.get(name, 0.0)

    m["keys.terms"] = statistics.fmean(res.terms)
    m["keys.linear_system_ms"] = v.mean_ms("keys.linear_system")
    m["keys.eval_at_ms.encrypt"] = v.mean_ms("keys.eval_at", "encrypt")
    m["keys.eval_at_ms.verify"] = v.mean_ms("keys.eval_at", "verify")
    m["keys.shape_violations_ms"] = v.mean_ms("keys.shape_violations")
    solves = v.n("linalg.solve")
    inconsistent = v.counted("linalg.inconsistent")
    m["linalg.solve_ms"] = v.mean_ms("linalg.solve")
    m["linalg.solve_calls"] = ratio(v.n("linalg.solve", "encrypt"),
                                    v.ops("encrypt"))
    m["linalg.inconsistent_ratio"] = ratio(inconsistent, solves)
    m["linalg.nullity_mean"] = ratio(v.counted("linalg.nullity"),
                                     solves - inconsistent)
    encrypts = v.n("protocol.encrypt")
    m["protocol.encrypt_trials_mean"] = ratio(v.n("protocol.encrypt_raw"), encrypts)
    m["protocol.encrypt_reject_ratio"] = ratio(v.errors("protocol.encrypt"), encrypts)
    m["protocol.encrypt_raw_self_ms"] = v.self_ms("protocol.encrypt_raw")
    m["protocol.decrypt_candidates_mean"] = ratio(
        v.counted("protocol.candidates", "decrypt"),
        v.n("protocol.decrypt_raw", "decrypt"))
    m["protocol.decrypt_ambiguous_ratio"] = ratio(
        v.counted("protocol.ambiguous"), v.n("protocol.decrypt_messages"))
    m["protocol.failed_ratio"] = ratio(res.failed, res.attempted)

    decodes, _ = v.leaf("alphabet.decode")
    m["alphabet.decode_valid_ratio"] = ratio(v.counted("alphabet.decode_valid"),
                                             decodes)
    hashes_sign, _ = v.leaf("sigs.hash_to_y", "sign")
    m["sigs.salts_per_sign"] = ratio(hashes_sign, v.ops("sign"))
    hashes, hash_ns = v.leaf("sigs.hash_to_y")
    m["sigs.hash_to_y_us"] = ratio(hash_ns / 1e3, hashes)

    expansions = v.n("keygen.expand_keypair")
    m["keygen.attempts"] = ratio(v.n("keygen.sample_private"),
                                 v.n("keygen.keygen"))
    m["keygen.sample_private_ms"] = v.mean_ms("keygen.sample_private")
    m["keygen.expand_keypair_ms"] = v.mean_ms("keygen.expand_keypair")
    for part in ("expand_product", "records", "merge"):
        m["linearize.%s_ms" % part] = ratio(v.total_ms("linearize." + part),
                                            expansions)
    for fn in ("load_public", "load_private", "dump_public", "dump_private"):
        m["serial.%s_ms" % fn] = v.mean_ms("serial." + fn)

    m["cli.startup_ms"] = median(res.startup_ms)
    for op in ("keygen", "encrypt", "decrypt", "sign", "verify"):
        m["cli.self_ms." + op] = v.self_ms("cli." + op, op)
    for op in TIMED_OPS:
        traced, plain = res.traced_lat[op], res.lat[op]
        m["trace.overhead_ms." + op] = (
            median(traced) - median(plain) if traced and plain else 0.0)
    names = PER_LAYER + (PER_LAYER_CLI if res.spec["kind"] == "cli" else ())
    return {name: {"value": float(m[name]), "unit": unit}
            for name, unit in names}


def self_time_lines(res, limit: int = 30) -> list:
    v = TraceView(res.tracer)
    out = ["%-32s %-8s %7s %12s %12s" % ("span", "op", "calls", "total_ms",
                                         "self_ms")]
    for name, op, calls, total, self_ms in v.self_table()[:limit]:
        out.append("%-32s %-8s %7d %12.3f %12.3f" % (name, op, calls, total,
                                                     self_ms))
    for (name, op), (calls, ns) in sorted(res.tracer.leaves.items()):
        out.append("%-32s %-8s %7d %12.3f %12s" % (name, op, calls, ns / 1e6,
                                                   "(leaf)"))
    return out
