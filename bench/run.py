"""End-to-end benchmark of the roweis command line.

Usage, from the repository root::

    python3 bench/run.py --workload tall|wide|kernel|bundle|all \
        --seed N --seconds S --trace 0|1

The benchmark writes seeded input CSVs, then runs the workload's commands as
real CLI subprocesses (``from roweis.cli import main``, with ``src`` on
PYTHONPATH), one at a time from a single client, pass after pass until S
seconds of passes have run. Child processes get OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1; the benchmark's own process
is left alone. Every pass is checked: exit codes, expected files, outputs
byte-identical across passes, models and embeddings against dense numpy
recomputation (``checks.py``), and values against ``reference.json``, which
was recorded at the seed commit.

With ``--trace 0`` the last line holds the end-to-end metrics (medians over
passes); with ``--trace 1`` it holds the per-layer metrics of the traced
in-process replay (``trace_replay.py``). A full record, with the environment,
every pass and every check, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

ENTRY = "import sys; from roweis.cli import main; sys.exit(main())"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 7
MIN_PASSES = 3
# A run must end within 180 s: no pass starts after this, no child outlives it.
DEADLINE_S = 150.0
END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))
KIND_METRICS = (("fit_s", ("fit",)), ("transform_s", ("transform", "reconstruct")),
                ("sweep_s", ("sweep",)), ("experiments_s", ("experiments",)))


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken interpreter)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ROWEIS_SEED", None)
    # Children cache bytecode, as an installed package would, but inside the
    # checkout whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in BLAS_VARS})
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: child_env()[var] for var in BLAS_VARS},
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


class Launcher:
    """Runs one child at a time through ``spawn.py``, which reports its wait4 figures."""

    def __init__(self, workdir: Path, start: float):
        self.workdir = workdir
        self.env = child_env()
        self.start = start
        self.spawner = subprocess.Popen([sys.executable, "-S", str(BENCH / "spawn.py")], env=self.env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, log: Path | None = None) -> tuple[int, float, float]:
        """Exit code, wall seconds and max RSS in MB of one child."""
        timeout = max(5.0, DEADLINE_S + 20.0 - (time.perf_counter() - self.start))
        job = {"argv": [sys.executable, *argv], "cwd": str(self.workdir),
               "log": str(log) if log else None, "timeout": timeout}
        self.spawner.stdin.write(json.dumps(job) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise BenchError(f"the command spawner exited with {self.spawner.wait()}")
        reply = json.loads(reply)
        return reply["rc"], reply["wall_s"], reply["max_rss_mb"]

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=60)


def _clear_outputs(workdir: Path, plan: list) -> None:
    for command in plan:
        for rel in command.outputs:
            (workdir / rel).unlink(missing_ok=True)


class Workload:
    """One workload in one working directory: inputs, passes, checks, metrics."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name, self.seed, self.trace = name, seed, trace
        self.workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.record = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
        self.start = time.perf_counter()
        self.launcher = None

    def prepare(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "logs").mkdir(parents=True)
        self.plan = workloads.PLANS[self.name](self.seed, str(self.workdir))
        self.launcher = Launcher(self.workdir, self.start)
        probe = "import roweis, sys; sys.stdout.write(roweis.__file__)"
        out = subprocess.run([sys.executable, "-c", probe], cwd=self.workdir, env=self.launcher.env,
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0 or not Path(out.stdout).resolve().is_relative_to(SRC):
            raise BenchError(f"roweis does not import from {SRC}: {out.stderr.strip()[-300:]}")
        self.launcher.run(["-c", ENTRY, "--version"])  # fills the bytecode cache

    def close(self) -> None:
        """Stop the spawner and delete the working directory."""
        if self.launcher is not None:
            self.launcher.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------ end to end

    def measure(self, seconds: float) -> dict:
        setup = [self.launcher.run(["-c", ENTRY, "--version"])[1] for _ in range(SETUP_LAUNCHES)]
        passes, measured = [], 0.0
        while len(passes) < MIN_PASSES or measured < seconds:
            if passes and time.perf_counter() - self.start + passes[-1]["total_s"] > DEADLINE_S:
                break
            passes.append(self.run_pass())
            measured += passes[-1]["total_s"]
        return {"setup_s": setup, "passes": passes}

    def run_pass(self) -> dict:
        """Run every command of the plan once, as subprocesses, and record it."""
        _clear_outputs(self.workdir, self.plan)
        runs = []
        began = time.perf_counter()
        for command in self.plan:
            log = self.workdir / "logs" / f"{command.cid}.err"
            runs.append(self.launcher.run(["-c", ENTRY, *command.argv], log))
        total = time.perf_counter() - began
        record = {"total_s": total, "peak_rss_mb": max(r[2] for r in runs), "commands": []}
        for command, (rc, wall, rss) in zip(self.plan, runs):
            hashes = {rel: checks.sha256(self.workdir / rel) for rel in command.outputs}
            record["commands"].append({"cid": command.cid, "kind": command.kind, "rc": rc,
                                       "wall_s": wall, "max_rss_mb": rss, "hashes": hashes})
        for metric, kinds in KIND_METRICS:
            if any(c.kind in kinds for c in self.plan):
                record[metric] = sum(r[1] for c, r in zip(self.plan, runs) if c.kind in kinds)
        return record

    # ------------------------------------------------------------ traced

    def replay(self, seconds: float) -> dict:
        plan_path = self.workdir / "plan.json"
        plan_path.write_text(json.dumps({
            "workdir": str(self.workdir),
            "commands": [{"cid": c.cid, "argv": list(c.argv), "outputs": list(c.outputs)} for c in self.plan],
        }))
        result_path = self.workdir / "trace.json"
        spans_path = OUT / f"{self.name}-seed{self.seed}.spans.json"
        budget = min(seconds, DEADLINE_S - 40.0 - (time.perf_counter() - self.start))
        rc, _, _ = self.launcher.run(
            [str(BENCH / "trace_replay.py"), str(plan_path), str(budget), str(result_path), str(spans_path)],
            self.workdir / "logs" / "trace.err")
        if rc != 0:
            tail = (self.workdir / "logs" / "trace.err").read_text()[-1000:]
            raise BenchError(f"traced replay exited with {rc}: {tail}")
        result = json.loads(result_path.read_text())
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        return result

    # ------------------------------------------------------------ checks

    def check(self, rounds: list) -> dict:
        """Failed commands per round plus the problems found.

        ``rounds`` holds, per pass or replay, each command's exit code and
        output hashes. The files on disk are those of the last round.
        """
        problems = {c.cid: [] for c in self.plan}
        fingerprints = {}
        first = {c["cid"]: c["hashes"] for c in rounds[0]}
        for command, last in zip(self.plan, rounds[-1]):
            if last["rc"] == 0 and all(last["hashes"].values()):
                try:
                    found, fingerprints[command.cid] = self._check_command(command)
                except (OSError, ValueError, KeyError, IndexError, np.linalg.LinAlgError) as exc:
                    found = [f"cannot check {command.cid}: {type(exc).__name__}: {exc}"]
                problems[command.cid] += found
        reference = self._reference()
        if reference is not None:
            for cid, want in reference.items():
                if cid in fingerprints:
                    problems[cid] += checks.compare_reference(fingerprints[cid], want)
        wrong = {cid for cid, found in problems.items() if found}
        failed = 0
        for index, round_ in enumerate(rounds):
            for entry in round_:
                bad = []
                if entry["rc"] != 0:
                    bad.append(f"round {index}: exit code {entry['rc']}")
                missing = [rel for rel, h in entry["hashes"].items() if h is None]
                if missing:
                    bad.append(f"round {index}: missing {missing}")
                elif entry["hashes"] != first[entry["cid"]]:
                    bad.append(f"round {index}: outputs differ from round 0")
                failed += bool(bad) or entry["cid"] in wrong
                problems[entry["cid"]] += bad
        return {"failed": failed, "attempted": sum(len(r) for r in rounds),
                "reference": "compared" if reference is not None else f"none recorded for seed {self.seed}",
                "problems": {cid: p for cid, p in problems.items() if p}, "fingerprints": fingerprints}

    def _reference(self):
        if not REFERENCE.is_file():
            return None
        recorded = json.loads(REFERENCE.read_text())["workloads"].get(self.name, {})
        return recorded.get(str(self.seed))

    def _check_command(self, command) -> tuple[list, dict]:
        def path(rel):
            return str(self.workdir / rel)

        argv = list(command.argv)
        args = {flag: argv[argv.index(flag) + 1] for flag in ("--data", "--model", "--out") if flag in argv}
        if command.kind == "fit":
            x, y = checks.read_csv(path(args["--data"]))
            return checks.check_model(path(args["--out"]), x, y)
        if command.kind in ("transform", "reconstruct"):
            x, _ = checks.read_csv(path(args["--data"]))
            return checks.check_apply(path(args["--out"]), path(args["--model"]), x,
                                      command.kind == "reconstruct")
        if command.kind == "sweep":
            return checks.check_sweep(path(args["--out"]))
        panels = [path(rel) for rel in command.outputs if "/panels/" in rel]
        return checks.check_experiments(path(command.outputs[0]), panels, workloads.BUNDLE["panel_n"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = Workload(name, seed, trace)
    env = environment()
    try:
        work.prepare()
        if trace:
            result = work.replay(seconds)
            rounds = [r["commands"] for r in result["replays"]]
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
            detail = {"replays": [{k: r[k] for k in ("traced", "wall_s")} for r in result["replays"]],
                      "spans_file": result["spans_file"]}
        else:
            result = work.measure(seconds)
            rounds = [p["commands"] for p in result["passes"]]
            values = {"setup_s": statistics.median(result["setup_s"])}
            for key in ("total_s", "peak_rss_mb", *(m for m, _ in KIND_METRICS)):
                per_pass = [p[key] for p in result["passes"] if key in p]
                if per_pass:
                    values[key] = statistics.median(per_pass)
            units = dict(END_TO_END) | {m: "s" for m, _ in KIND_METRICS}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in values}
            detail = result
        verdict = work.check(rounds)
    finally:
        work.close()
    env["loadavg_end"] = list(os.getloadavg())
    record = {"workload": name, "why": workloads.WHY[name], "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "metrics": metrics,
              "failed_ops": verdict["failed"] / verdict["attempted"], **verdict, "detail": detail}
    work.record.write_text(json.dumps(record, indent=1))
    return record


def _print_record(record: dict) -> None:
    env = record["environment"]
    print(f"== {record['workload']} (seed {record['seed']}, trace {int(record['trace'])}): {record['why']}")
    print(f"   python {env['python']}, numpy {env['numpy']}, {env['blas']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}, load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for key, metric in record["metrics"].items():
        print(f"   {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"   {'failed_ops':<44} {record['failed_ops']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} commands; reference {record['reference']})")
    for cid, found in record["problems"].items():
        for problem in found[:5]:
            print(f"   FAIL {cid}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.PLANS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "roweis" / "cli.py").is_file():
        print(f"error: no roweis sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(workloads.PLANS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
        if not args.trace:
            metrics = {k: metrics[k] for k, _ in END_TO_END}
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
