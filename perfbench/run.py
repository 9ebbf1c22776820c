"""Benchmark of hpe: keygen, encrypt, decrypt, sign and verify, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip-q2n32 --seed 1 --seconds 20 --trace 0

It imports hpe from ./src (no install needed), runs one closed-loop client
for a fixed number of cycles that scales with --seconds (about --seconds of
work on a 2-vCPU x86 VM), checks every output, prints a report and, as the
last line, one JSON object.  --trace 0 gives the end-to-end metrics;
--trace 1 alternates untraced and traced cycles and gives the per-layer
metrics, the tracing overhead and a self-time table, and writes the spans
to .perfbench/.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "2"
# set before numpy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import metrics  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hpe" / "__init__.py").is_file():
        print("perfbench: no hpe sources at %s" % src, file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("perfbench: run without -O; encrypt_raw's self-check is an assert",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    spec = workloads.WORKLOADS[args.workload]
    cycles = workloads.cycle_count(spec, args.seconds)
    res = workloads.Results(spec)
    work = ROOT / ".perfbench"
    tmp = work / ("tmp-%d" % os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        if trace:
            res.field_suite = workloads.field_suite(spec["q"], spec["n"], args.seed)
            res.startup_ms = workloads.startup_probe(ROOT, tmp)
        if spec["kind"] == "cli":
            workloads.run_cli(res, args.seed, cycles, trace, ROOT, tmp)
        else:
            workloads.run_roundtrip(res, args.seed, cycles, trace)
    except workloads.WrongResult as exc:
        print("perfbench: wrong result: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("# perfbench %s seed=%d seconds=%g trace=%d cycles=%d" % (
        args.workload, args.seed, args.seconds, args.trace, res.cycles))
    print("# python %s, optimize=%d, BLAS threads %s, one client, closed loop"
          % (platform.python_version(), sys.flags.optimize, BLAS_THREADS))
    print("# keys: " + "; ".join(res.key_notes))
    for line in metrics.report_lines(res):
        print(line)
    if trace:
        values = metrics.per_layer(res)
        spans_path = work / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        res.tracer.dump(spans_path)
        print("# self time per span (traced cycles and set-up); spans in %s"
              % spans_path.relative_to(ROOT))
        for line in metrics.self_time_lines(res):
            print(line)
        print("# field micro-suite: random operands, not decryption's; "
              "quote fields.mul_ms for in-situ cost")
    else:
        values = metrics.end_to_end(res)
    for name, m in values.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": True,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
