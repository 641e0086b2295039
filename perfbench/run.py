#!/usr/bin/env python3
"""Offline end-to-end benchmark of the warc2meta pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 55 --trace 0

It generates the workload's inputs from the seed, starts a mock chat
endpoint, and runs the real CLI one stage per process (`ingest`,
`select --all`, `generate --all-combinations`, `evaluate`) as often as
fits in `--seconds`, reporting medians. With `--trace 1` it alternates
untraced passes with passes run through `tracer.py` and reports the
per-layer metrics instead. `--workload all` runs every workload in
turn. Outputs are checked after timing; a failed check or stage exits
with status 1. The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
from mockchat import MockChat  # noqa: E402

STAGES = (
    ("ingest", ["ingest"]),
    ("select", ["select", "--all"]),
    ("generate", ["generate", "--all-combinations"]),
    ("evaluate", ["evaluate", "--reference", "reference.jsonl"]),
)
SETUP_REPEATS = 5
# a stage still running this long after the run started is killed, so a
# hung program fails the run instead of outliving the 180-second limit
RUN_DEADLINE_S = 170
SETUP_CODE = (
    "import sys\n"
    "import warc2meta.cli\n"
    "from warc2meta.config import load_config\n"
    "from warc2meta.tokens import load_vocabulary\n"
    "cfg = load_config(sys.argv[1])\n"
    "if cfg.tokenizer_path:\n"
    "    load_vocabulary(cfg.tokenizer_path)\n"
)
# compared byte for byte between passes of one run
PASS_OUTPUTS = ("sites.jsonl", "selections_h1.jsonl", "selections_h2.jsonl",
                "selections_h3.jsonl", "cost_report.csv", "scores_per_site.csv",
                "ranked_summary.csv")


def host_cpu():
    """(stolen, busy) CPU seconds summed over this machine's CPUs so far.

    Stolen time is time a CPU was ready to run but the hypervisor ran
    other guests on it; busy time counts it too. Read from the first line
    of /proc/stat; (0, 0) where that is missing, so nothing is subtracted.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            t = [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return 0.0, 0.0
    hz = os.sysconf("SC_CLK_TCK")
    # user, nice, system, idle, iowait, irq, softirq, steal
    return t[7] / hz, (t[0] + t[1] + t[2] + t[5] + t[6] + t[7]) / hz


def stolen_share(before, after, wall):
    """Seconds of wall a process lost to stolen CPU time between two host_cpu() reads.

    The stolen CPU seconds are spread over the CPUs that were busy on
    average, so work on one CPU loses all of it and work on two loses half.
    """
    stolen, busy = (b - a for a, b in zip(before, after))
    return stolen / max(1.0, busy / wall) if wall > 0 else 0.0


class StageFailed(Exception):
    pass


class Bench:
    """One workload's inputs, mock endpoint and pipeline passes."""

    def __init__(self, root, work, mock, manifest):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = work
        self.mock = mock
        self.manifest = manifest
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stage_runs = 0
        self.stage_failures = 0

    def spawn(self, cmd, log_prefix):
        """Run cmd in the work dir.

        Returns (wall s less stolen time, stolen s, user+sys s, max RSS MB, stderr).
        """
        out_path, err_path = Path(f"{log_prefix}.out"), Path(f"{log_prefix}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            host0 = host_cpu()
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
            stolen = stolen_share(host0, host_cpu(), wall)
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            raise StageFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}: {stderr[-800:]}")
        cpu = usage.ru_utime + usage.ru_stime
        return wall - stolen, stolen, cpu, usage.ru_maxrss / 1024, stderr

    def stage(self, out, name, args, trace_path=None):
        cli = ["--config", "pipeline.yaml", "--output", str(out), *args]
        if trace_path is None:
            cmd = [sys.executable, "-m", "warc2meta.cli", *cli]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), out.name, "--", *cli]
        self.mock.reset()
        self.stage_runs += 1
        try:
            wall, stolen, cpu, rss, stderr = self.spawn(cmd, out / f"stage_{name}")
        except StageFailed:
            self.stage_failures += 1
            raise
        return {"wall": wall, "stolen": stolen, "cpu": cpu, "rss": rss, "stderr": stderr,
                "requests": list(self.mock.log), "connections": self.mock.connections}

    def setup_seconds(self):
        """Median wall, less stolen time, of fresh interpreters importing the CLI
        and loading the config."""
        cmd = [sys.executable, "-c", SETUP_CODE, "pipeline.yaml"]
        logs = self.work / "setup"
        logs.mkdir(exist_ok=True)
        self.spawn(cmd, logs / "warm")  # writes bytecode caches once
        return statistics.median(
            self.spawn(cmd, logs / f"setup{i}")[0] for i in range(SETUP_REPEATS)
        )

    def run_pass(self, out, traced, checkpoints=()):
        """ingest -> select -> generate -> evaluate into a fresh out dir."""
        out.mkdir(parents=True)
        for path in checkpoints:
            shutil.copy(path, out / path.name)
        results = {}
        for name, args in STAGES:
            trace_path = out / f"trace_{name}.json" if traced else None
            results[name] = self.stage(out, name, args, trace_path)
        wall = sum(r["wall"] for r in results.values())
        stolen = sum(r["stolen"] for r in results.values())
        return {"out": out, "wall": wall, "stolen": stolen, "traced": traced, "stages": results}

    def operations(self, out):
        """(attempted, failed) pipeline operations: files, selections, generate rows."""
        files = self.manifest["site_count"]
        sites = len(checks.read_jsonl(out / "sites.jsonl"))
        attempted, failed = files, files - sites
        for h in (1, 2, 3):
            rows = checks.read_jsonl(out / f"selections_h{h}.jsonl")
            attempted += len(rows)
            failed += sum(1 for r in rows if "error" in r)
        for rows in checks.generated_rows(out).values():
            attempted += len(rows)
            failed += sum(1 for r in rows if "error" in r)
        return attempted, failed


def _generate_rows(out):
    return sum(len(rows) for rows in checks.generated_rows(out).values())


def end_to_end(bench, passes, setup_s, chat_ratio):
    first = passes[0]["out"]
    attempted, failed = bench.operations(first)
    per_pass = {
        "cpu_s": [sum(s["cpu"] for s in p["stages"].values()) for p in passes],
        "peak_rss_mb": [max(s["rss"] for s in p["stages"].values()) for p in passes],
    }
    values = {name: statistics.median(v) for name, v in per_pass.items()}
    # work completed per second over the whole measured window
    values["sites_per_s"] = (bench.manifest["site_count"] * len(passes)
                             / sum(p["wall"] for p in passes))
    values["setup_s"] = setup_s
    values["error_rate"] = failed / attempted
    values["chat_requests_per_row"] = chat_ratio
    samples = {name: len(passes) for name in (*per_pass, "sites_per_s")}
    samples.update(setup_s=SETUP_REPEATS, error_rate=1, chat_requests_per_row=1)
    return values, samples


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        st = p["stages"]
        rows.append(layers.iteration_metrics(
            {name: p["out"] / f"trace_{name}.json" for name in layers.STAGES},
            {name: st[name]["wall"] for name in layers.STAGES},
            st["generate"]["requests"], st["generate"]["connections"],
        ))
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    values["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                  - statistics.median(p["wall"] for p in plain))
    values["host.stolen_s"] = statistics.median(p["stolen"] for p in passes)
    samples = {name: len(rows) for name in values}
    return values, samples


def check_outputs(workload, bench, passes, prep_rows):
    """All output checks on the first pass; later passes must match it byte for byte."""
    first = passes[0]
    out = first["out"]
    errors = checks.check_ingest(out, bench.manifest, first["stages"]["ingest"]["stderr"])
    errors += checks.check_title_levenshtein(out, bench.work / "reference.jsonl")
    errors += checks.check_ranking(out)
    if workload == "bpe-long":
        errors += checks.check_tokens_before(out, bench.work / "ranks.tiktoken")
    for p in passes:
        if prep_rows is not None:
            sent = len(p["stages"]["generate"]["requests"])
            if sent:
                errors.append(f"rescore: resumed generate sent {sent} requests")
            if checks.generated_rows(p["out"]) != prep_rows:
                errors.append("rescore: resumed generate rows differ from the prep run")
        for name in PASS_OUTPUTS:
            if (p["out"] / name).read_bytes() != (out / name).read_bytes():
                errors.append(f"{name} differs between passes of one run")
    return errors


def run_workload(root, workload, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, values, samples, work dir)."""
    work = root / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    with MockChat() as mock:
        manifest = corpus.build(workload, seed, work, mock.base_url)
        mock.plant(**manifest.get("faults", {}))
        bench = Bench(root, work, mock, manifest)
        passes = []
        errors = []
        try:
            setup_s = None if trace else bench.setup_seconds()
            prep_rows = None
            checkpoints = ()
            if workload == "rescore":
                # the program's own fresh generate fills every checkpoint
                prep = work / "prep"
                prep.mkdir()
                results = {name: bench.stage(prep, name, args) for name, args in STAGES[:3]}
                prep_rows = checks.generated_rows(prep)
                chat_ratio = len(results["generate"]["requests"]) / _generate_rows(prep)
                checkpoints = sorted(prep.glob("checkpoint_combo*.jsonl"))
            started = time.perf_counter()
            while True:
                traced = bool(trace) and len(passes) % 2 == 1
                passes.append(bench.run_pass(work / f"pass{len(passes)}", traced, checkpoints))
                elapsed = time.perf_counter() - started
                enough = len(passes) >= (2 if trace else 1)
                if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
            if workload != "rescore":
                requests = len(passes[0]["stages"]["generate"]["requests"])
                chat_ratio = requests / _generate_rows(passes[0]["out"])
            errors = check_outputs(workload, bench, passes, prep_rows)
        except StageFailed as exc:
            errors.append(str(exc))
        except Exception:  # an output the checks cannot read fails the run with a report
            errors.append(traceback.format_exc())
    attempted = max(1, bench.stage_runs)
    failed = bench.stage_failures
    if errors:
        for e in errors[:20]:
            print(f"{workload}: CHECK FAILED: {e}", file=sys.stderr)
        return False, attempted, failed, {}, {}, work
    walls = " ".join(f"{p['wall']:.2f}{'t' if p['traced'] else ''}" for p in passes)
    stolen = " ".join(f"{p['stolen']:.2f}" for p in passes)
    print(f"{workload:>8} stolen per pass (s, already taken off the walls): {stolen}")
    print(f"{workload:>8} pass walls less stolen time (s, t = traced): {walls}")
    if trace:
        values, samples = per_layer(passes)
    else:
        values, samples = end_to_end(bench, passes, setup_s, chat_ratio)
    shutil.rmtree(work)
    return True, attempted, failed, values, samples, work


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "warc2meta" / "cli.py").is_file():
        sys.exit(f"no warc2meta sources under {root / 'src'}; run from the repository root")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, values, samples, work = run_workload(
            root, name, args.seed, args.seconds, args.trace)
        correct &= ok
        attempted += att
        failed += fail
        if not ok:
            print(f"{name}: inputs and outputs kept in {work}", file=sys.stderr)
            continue
        for metric, unit in units:
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": values[metric], "unit": unit}
            print(f"{name:>8} {metric:<32} {values[metric]:>14.6g} {unit:<8} "
                  f"n={samples[metric]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
