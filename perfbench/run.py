"""Benchmark of the gmsrfnet package; run from the repository root:

    python3 perfbench/run.py --workload train-protocol --seed 1 --seconds 30 --trace 0

One workload per process. The inputs are generated from --seed; the run
measures for about --seconds, checks every output it times, prints what it
measured line by line and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, measured untraced; with --trace 1
they are its per-layer metrics, from spans around calls into each layer.
Spans, environment and per-run details go to .perfbench-out/.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy can be imported, so that a run uses one
# core of the machine whatever its environment says.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    """HEAD of the checkout, read from .git without running git, which
    would search the directories above the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "gmsrfnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(np, args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")
    if not (SRC / "gmsrfnet" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'gmsrfnet'}")
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import gmsrfnet
    except ImportError as exc:
        fail(f"cannot import the package: {exc}")
    if not Path(gmsrfnet.__file__).resolve().is_relative_to(SRC):
        fail(f"imported gmsrfnet from {gmsrfnet.__file__}, not from {SRC}")

    from workloads import RUNNERS

    env = environment(np, args)
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        e2e, per_layer, run = RUNNERS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = per_layer if args.trace else e2e
    missing = sorted({m["name"] for m in wanted} - set(produced))
    if missing:
        fail(f"run produced no value for {missing}")
    metrics = {m["name"]: {"value": float(produced[m["name"]]), "unit": m["unit"]}
               for m in wanted}

    tally = run.tally
    correct = tally.failed == 0 and all(run.checks.values())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as f:
            json.dump(run.tracer.to_json(), f)
    record = {"env": env, "checks": run.checks, "failures": tally.reasons,
              "lines": run.lines, "end_to_end": e2e, "per_layer": per_layer,
              "details": run.details}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for key, value in env.items():
        print(f"env.{key} = {value}")
    for line in run.lines:
        print(line)
    print(f"error_rate = {tally.error_rate:.6f} ({tally.failed} failed of "
          f"{tally.attempted} operations{'; ' + str(tally.reasons) if tally.reasons else ''})")
    for name, ok in run.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        print("per-layer self time per operation (ms), with the end-to-end metric it "
              "should move: see perfbench/README.md")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
