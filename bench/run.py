"""hssatlas benchmark: one seeded workload, end to end or layer by layer.

    python3 bench/run.py --workload report --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload report --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  With ``--trace 0`` one client runs the workload's
operations in a closed loop, whole rounds at a time, for about
``--seconds``, then checks every output and prints the end-to-end
metrics.  Every timing is scaled by the host's speed during the run,
measured with a fixed reference loop between operations (see
bench/speed.py).  With ``--trace 1`` it runs a fixed list of operations (the
first rounds of the seed), each plainly, with a span around every public
function of every layer, and plainly again, and prints the per-layer
metrics.  The last line of the output is one JSON object.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import HostSpeed, pin_to_one_processor, reference_loop

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli", "report", "scan", "oracle")
SETUP_PROBES = 21
WARM_UP_SECONDS = 1.0
MIN_OPS = 100  # at least 10 samples beyond p90
INTERPRETER_PROBES = 9
MS_METRICS = ("self_ms", "load_ms", "lookup_ms", "overhead_ms", "process_ms", "import_ms", "interpreter_ms")
IMPORT_PROBES = 5

SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import hssatlas
hssatlas.RefinementTable.resolve(sys.argv[1] or None)
print(time.perf_counter() - start)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    if not (SRC / "hssatlas" / "__init__.py").is_file():
        fail(f"no hssatlas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hssatlas

    if Path(hssatlas.__file__).resolve().parent != SRC / "hssatlas":
        fail(f"imported hssatlas from {hssatlas.__file__}, not from {SRC}")


def child(args: list[str]) -> subprocess.CompletedProcess:
    from workloads import cli_env

    return subprocess.run([sys.executable, *args], cwd=ROOT, env=cli_env(), capture_output=True, text=True, check=True)


def setup_seconds(table: str | None, speed: HostSpeed) -> list[float]:
    """hssatlas import plus RefinementTable.resolve() in fresh processes,
    scaled; the first probe, which writes the bytecode caches, is
    discarded."""
    probes = []
    for _ in range(SETUP_PROBES + 1):
        speed.sample()
        start = time.perf_counter()
        seconds = float(child(["-c", SETUP_SNIPPET, table or ""]).stdout)
        probes.append((start, time.perf_counter(), seconds))
    speed.sample()
    return [seconds * speed.scale(start, end) for start, end, seconds in probes[1:]]


def interpreter_ms(speed: HostSpeed) -> float:
    samples = []
    for _ in range(INTERPRETER_PROBES):
        speed.sample()
        start = time.perf_counter()
        child(["-c", "pass"])
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def import_ms(speed: HostSpeed) -> float:
    """Cumulative ``-X importtime`` of the hssatlas modules the CLI loads."""
    samples = []
    for _ in range(IMPORT_PROBES):
        speed.sample()
        total_us = 0
        for line in child(["-X", "importtime", "-c", "import hssatlas.cli"]).stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2][1:]
            if not name.startswith(" ") and name.split(".")[0] == "hssatlas":
                total_us += int(fields[1])
        samples.append(total_us / 1e3)
    return statistics.median(samples)


def timed(workload, op, traced=None) -> tuple[bool, object, float, float]:
    """(ok, outcome, start, raw seconds) of one operation."""
    start = time.perf_counter()
    ok, outcome = workload.execute(op, traced)
    return ok, outcome, start, time.perf_counter() - start


def closed_loop(workload, inputs, seconds: float, speed: HostSpeed) -> list[tuple]:
    """Whole rounds until at least MIN_OPS operations ran and another
    round would end more than half a round past ``seconds``:
    [(op, ok, outcome, scaled seconds)]."""
    raw = []
    rounds = 0
    start = time.perf_counter()
    while len(raw) < MIN_OPS or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        for op in next(inputs):
            speed.maybe_sample()
            ok, outcome, began, elapsed = timed(workload, op)
            raw.append((op, ok, workload.compact(outcome), began, elapsed))
        rounds += 1
    speed.sample()
    return [(op, ok, outcome, elapsed * speed.scale(began, began + elapsed)) for op, ok, outcome, began, elapsed in raw]


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def warm_up(workload, seed: int) -> None:
    """Unmeasured inputs of another stream: a processor that has been
    idle, and a process that has not yet grown its heap, run the first
    second or so slower."""
    end = time.perf_counter() + WARM_UP_SECONDS
    for op in itertools.chain.from_iterable(workload.rounds(-1 - seed)):
        reference_loop()
        workload.execute(op)
        if time.perf_counter() >= end:
            return


def end_to_end(workload, args) -> tuple[dict, list]:
    workload.prepare()
    warm_up(workload, args.seed)
    speed = HostSpeed()
    setup = setup_seconds(workload.setup_table, speed)
    results = closed_loop(workload, workload.rounds(args.seed), args.seconds, speed)
    rss = peak_rss_mb(workload.name)
    verdicts = [workload.check(op, ok, outcome) for op, ok, outcome, _ in results]
    busy = sum(r[3] for r in results)
    verified = sum(v.verified for v in verdicts)
    # A failed operation misses every latency limit: +inf, reported as
    # the whole run's busy time if a percentile lands on one.
    ordered = sorted(r[3] if v.verified else math.inf for r, v in zip(results, verdicts))
    p50, p90 = (nearest_rank(ordered, q) for q in (0.5, 0.9))
    metrics = {
        "ops_per_s": (verified / busy, "1/s", len(results)),
        "op_ms_p50": ((p50 if p50 < math.inf else busy) * 1e3, "ms", len(results)),
        "op_ms_p90": ((p90 if p90 < math.inf else busy) * 1e3, "ms", len(results)),
        "success_rate": (verified / len(results), "ratio", len(results)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    beyond = sum(1 for x in ordered if x > p90)
    defects = sum(v.defect for v in verdicts)
    print(f"workload {workload.name}, seed {args.seed}: {len(results)} ops in {busy:.2f} s busy (scaled), "
          f"error_rate {1 - verified / len(results):.4f} ({defects} known defects), {beyond} samples beyond p90; "
          f"reference loop {speed.reference_ms():.3f} ms (n={len(speed.samples)}), scale {speed.scale():.3f}")
    return metrics, [(r, v) for r, v in zip(results, verdicts)]


def traced_run(workload, args) -> tuple[dict, list]:
    from tracing import SETUP_OP, Tracer
    from workloads import WORK

    rounds = workload.rounds(args.seed)
    ops = [op for _ in range(workload.trace_rounds) for op in next(rounds)]
    workload.prepare()
    warm_up(workload, args.seed)

    speed = HostSpeed()
    tracer = Tracer()
    with tracer.active(SETUP_OP):
        workload.prepare()
    WORK.mkdir(exist_ok=True)
    child_out = WORK / "child-trace.json" if workload.name == "cli" else None
    # Each op runs plainly, traced, and plainly again, so that a slow
    # spell of the machine does not pass for tracing overhead.
    timings, results = [], []  # (start, raw seconds) of before, traced, after
    for index, op in enumerate(ops):
        speed.sample()
        *_, before_start, before = timed(workload, op)
        with tracer.active(index):
            ok, outcome, start, elapsed = timed(workload, op, child_out)
        *_, after_start, after = timed(workload, op)
        timings.append(((before_start, before), (start, elapsed), (after_start, after)))
        if child_out is not None:
            tracer.merge(json.loads(child_out.read_text("utf-8")), index)
            child_out.unlink()
        results.append((op, ok, workload.compact(outcome), elapsed))
    speed.sample()
    tracer.write(WORK / f"spans-{workload.name}.jsonl")
    scaled = [[seconds * speed.scale(start, start + seconds) for start, seconds in three] for three in timings]
    plain = [(before + after) / 2 for before, _, after in scaled]

    bits: dict[tuple, int] = {}

    def operand_bits(num: tuple, den: tuple) -> int:
        if (num, den) not in bits:
            bits[(num, den)] = sum(math.prod(math.factorial(m) for m in args).bit_length() for args in (num, den))
        return bits[(num, den)]

    layers = tracer.layer_metrics(len(ops), operand_bits)
    is_cli = workload.name == "cli"
    layers.update({
        "cli.process_ms": 0.0,  # set below
        "cli.import_ms": import_ms(speed) if is_cli else 0.0,
        "cli.interpreter_ms": interpreter_ms(speed) if is_cli else 0.0,
        "trace.ops": len(ops),
        "trace.overhead_ms": 0.0,  # set below
    })
    scale = speed.scale()
    layers = {name: value * scale if name.rsplit(".", 1)[1] in MS_METRICS else value for name, value in layers.items()}
    # Timings of whole operations, already scaled span by span.
    layers["cli.process_ms"] = statistics.median(plain) * 1e3 if is_cli else 0.0
    layers["trace.overhead_ms"] = (sum(traced for _, traced, _ in scaled) - sum(plain)) * 1e3
    verdicts = [workload.check(op, ok, outcome) for op, ok, outcome, _ in results]
    print(f"workload {workload.name}, seed {args.seed}, traced: {len(ops)} ops, {len(tracer.spans)} spans, "
          f"untraced {sum(plain):.3f} s (scaled); "
          f"reference loop {speed.reference_ms():.3f} ms (n={len(speed.samples)}), scale {scale:.3f}")
    units = {"calls_per_op": "calls/op", "hit_ratio": "ratio", "output_bytes": "bytes", "max_digits": "digits",
             "operand_bits": "bits", **{kind: "ms" for kind in MS_METRICS}}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "count"), len(ops)) for name, value in layers.items()}
    return metrics, list(zip(results, verdicts))


def main() -> None:
    parser = argparse.ArgumentParser(description="hssatlas benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        # One process per workload, so that each has its own peak RSS.
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *flags], check=False).returncode for name in WORKLOAD_NAMES]
        sys.exit(max(codes))

    # The in-process workloads resolve the refinement table themselves.
    os.environ.pop("ATLAS_REFINEMENTS", None)
    load_program()
    pin_to_one_processor()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    metrics, checked = (traced_run if args.trace else end_to_end)(workload, args)
    wrong = [r[0] for r, v in checked if v.wrong]
    for op in wrong[:5]:
        print(f"MISMATCH: {op}", file=sys.stderr)
    # A known defect (an input that failed in the same way when the pools
    # were recorded) counts in the error rate, but not as a failed
    # operation: the program did what it did at the seed commit.
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit:9s} n={samples}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(checked),
        "failed": sum(not v.verified and not v.defect for _, v in checked),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
