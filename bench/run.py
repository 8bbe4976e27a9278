"""deltamin benchmark: end-to-end CLI runs plus a traced per-layer run.

    python3 bench/run.py --workload census --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from the
checkout's own ``src``, never from an installed copy.  For the chosen
workload it builds the inputs from the seed, then runs the CLI
(``python -m deltamin ...``) as users do, over and over for --seconds,
with set-up runs on empty input in between, and checks every output.

* --trace 0 reports the end-to-end metrics, medians over the runs.  The
  gated time is CPU time (user + system of the CLI and its pool workers):
  on a shared host the hypervisor takes 15-40% of the vCPUs while both are
  busy, so one census CLI run (--jobs 2) took from 1.3 to 3.5 s of wall
  time within an hour, and the median wall time of a benchmark run moved
  18% between two sets of ten runs against 5.5% for its CPU time.  Wall
  time is printed beside it and reported per layer as cli.wall_s.
* --trace 1 also replays the CLI's per-graph calls in-process right after
  each CLI run, with a span around every call into a package layer, runs
  the two pathology probes under a wall-clock cap, and reports the
  per-layer metrics, medians over the replays.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Inputs, a reference cache and the spans go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import corpus
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HARD_LIMIT_S = 165  # every run must end well inside 180 s
SETUP_RUNS = 15  # set-up runs per benchmark run, spread over its workload runs
MIN_RUNS = 2
PROBE_CAP_S = 5.0
ENUMERATE_N = 12


@dataclass(frozen=True)
class Workload:
    command: str  # deltamin subcommand
    exact_limit: int
    jobs: int
    make: Callable[[random.Random], list[corpus.Item]]
    exact: bool  # s is compared with the resistance_exact reference

    def argv(self, corpus_path: Path) -> list[str]:
        if self.command == "generate":
            return ["generate", "--cubic", str(ENUMERATE_N)]
        return [self.command, str(corpus_path.relative_to(ROOT)),
                "--jobs", str(self.jobs), "--exact-limit", str(self.exact_limit)]


# Corpus sizes keep one CLI run to a few seconds, so that at least
# MIN_RUNS of them fit in a run.  J7 appears in snarks only in its natural
# labelling: relabelled, its solve time alone swings from 4 to 9 s by seed.
WORKLOADS = {
    "census": Workload("solve", 14, 2, lambda rng: corpus.census(rng, relabellings=10, randoms=1000), True),
    "snarks": Workload("solve", 32, 1, lambda rng: corpus.snarks(rng, relabellings=1), True),
    "large": Workload("analyze", 14, 1,
                      lambda rng: corpus.large(rng, sizes=(1000, 1200, 1400, 1600, 1800, 2000)), False),
    "enumerate": Workload("generate", 14, 1, lambda rng: [], False),
}


# ---------------------------------------------------------------------------
# running the CLI


@dataclass
class CliRun:
    wall_s: float
    cpu_s: float  # user + system time of it and the processes it waited for
    rss_mb: float
    stdout: str
    exit_code: int
    timed_out: bool

    @property
    def broken(self) -> bool:
        """Hung, killed by a signal, or died with a status no subcommand
        uses (solve and analyze exit 1 on bad input or failed clauses)."""
        return self.timed_out or not 0 <= self.exit_code <= 1


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DELTAMIN_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wait_group_gone(pgid: int, limit_s: float = 5.0) -> None:
    """Pool workers outlive a killed parent briefly; wait until none is left."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# Starts the CLI, waits for it and writes [wall s, CPU s, peak RSS KiB, status].
# A child's peak RSS counts its parent's resident set at exec, so the CLI
# is started from this small process rather than from the benchmark,
# whose own memory would otherwise show up in peak_rss_mb.
_LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
pid = subprocess.Popen(sys.argv[2:]).pid
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    cpu = usage.ru_utime + usage.ru_stime
    json.dump([wall, cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status)], fh)
"""


def run_cli(argv: list[str], timeout_s: float) -> CliRun:
    """One CLI process: wall time from start to exit, and the CPU time and
    peak resident set of it and every process it waited for (its pool
    workers)."""
    out_path, err_path, result_path = WORK / "stdout.txt", WORK / "stderr.txt", WORK / "launch.json"
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER, str(result_path), sys.executable, "-m", "deltamin", *argv],
            stdout=out, stderr=err, env=_cli_env(), cwd=ROOT, start_new_session=True,
        )
        try:
            proc.wait(timeout=max(timeout_s, 1.0))
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # it ended after all
                pass
            proc.wait()
            _wait_group_gone(proc.pid)
    stdout = out_path.read_text(encoding="utf-8")
    if not result_path.exists():  # killed, or the launcher itself failed
        return CliRun(time.perf_counter() - start, 0.0, 0.0, stdout, proc.returncode or -1,
                      timed_out=proc.returncode == -signal.SIGKILL)
    wall, cpu, rss_kib, status = json.loads(result_path.read_text())
    return CliRun(wall, cpu, rss_kib / 1024.0, stdout, status, timed_out=False)


# ---------------------------------------------------------------------------
# reference answers


def references(dm, items: list[corpus.Item]) -> list[int | None]:
    """resistance_exact of every distinct graph6 line, cached in the work
    directory so repeated runs in one checkout skip known lines.  A graph
    whose s is fixed by construction gets -1 (it then fails every check)
    if resistance_exact disagrees."""
    cache_path = WORK / "reference.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    refs: list[int | None] = []
    for it in items:
        if it.g6 not in cache:
            cache[it.g6] = dm.resistance_exact(dm.parse_graph6(it.g6))
        ref = cache[it.g6]
        if it.known_s is not None and ref != it.known_s:
            print(f"reference mismatch: resistance_exact={ref}, construction gives {it.known_s}")
            ref = -1
        refs.append(ref)
    cache_path.write_text(json.dumps(cache))
    return refs


# ---------------------------------------------------------------------------
# measurement


def measure(name: str, seed: int, seconds: int, trace: bool) -> int:
    hard_end = time.monotonic() + HARD_LIMIT_S
    import deltamin as dm

    broken = check.self_test()
    if broken:
        print(f"checker self-test failed: {', '.join(broken)}", file=sys.stderr)
        return 3
    wl = WORKLOADS[name]
    items = wl.make(random.Random(f"{name}:{seed}"))
    corpus_path, empty_path = WORK / f"{name}.g6", WORK / "empty.g6"
    corpus_path.write_text("".join(it.g6 + "\n" for it in items), encoding="ascii")
    empty_path.write_text("")
    refs = references(dm, items) if wl.exact else [None] * len(items)
    argv = wl.argv(corpus_path)
    setup_argv = ["generate", "--named", "k4"] if wl.command == "generate" else wl.argv(empty_path)

    # Rounds of one workload run, one in-process replay when traced, and a
    # share of the SETUP_RUNS set-up runs, for --seconds and at least
    # MIN_RUNS rounds.  Each round's share is what is left over the rounds
    # still expected, so set-up, workload and replay samples come from the
    # same stretch of time and see the same mix of host load.  A traced
    # run keeps time back for the probes.
    run_cli(setup_argv, 60)  # warm-up: byte-compiles the package
    setup_runs: list[CliRun] = []
    runs: list[CliRun] = []
    outcomes: list[check.Outcome] = []
    replays: list[Replay] = []
    checked: dict[str, check.Outcome] = {}
    reserve = 5 + (2 * PROBE_CAP_S if trace else 0)
    loop_start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - loop_start < seconds:
        elapsed = time.monotonic() - loop_start
        if runs and time.monotonic() + elapsed / len(runs) + reserve > hard_end:
            break
        run = run_cli(argv, hard_end - time.monotonic() - reserve)
        digest = hashlib.sha256(run.stdout.encode("utf-8")).hexdigest()
        if digest not in checked:  # identical output needs checking once
            if wl.command == "generate":
                checked[digest] = check.check_enumeration(run.stdout, ENUMERATE_N)
            else:
                checked[digest] = check.check_records(run.stdout, items, refs, analyze=wl.command == "analyze")
        outcome = checked[digest]
        if run.broken:  # a run that crashes or hangs fails all of its graphs
            outcome = check.Outcome(outcome.attempted, outcome.attempted, outcome.s_total)
        runs.append(run)
        outcomes.append(outcome)
        if run.broken:
            break
        if trace:
            replays.append(replay(dm, wl, items))
        elapsed = time.monotonic() - loop_start
        rounds_after = max(0, MIN_RUNS - len(runs), math.ceil((seconds - elapsed) / (elapsed / len(runs))))
        share = math.ceil((SETUP_RUNS - len(setup_runs)) / (1 + rounds_after))
        setup_runs += [run_cli(setup_argv, 10) for _ in range(share)]
    while len(setup_runs) < SETUP_RUNS and (not setup_runs or time.monotonic() < hard_end):
        setup_runs.append(run_cli(setup_argv, 10))

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    walls = [r.wall_s for r in runs]
    wall_s = statistics.median(walls)
    # The time figures are CPU time, which leaves out the time the host
    # took the CPU away; see the module docstring.
    cpu_s = statistics.median(r.cpu_s for r in runs)
    setup_s = statistics.median(r.cpu_s for r in setup_runs)
    setup_wall_s = statistics.median(r.wall_s for r in setup_runs)
    graphs_per_s = statistics.median((o.attempted - o.failed) / r.wall_s for r, o in zip(runs, outcomes))
    peak_rss_mb = statistics.median(r.rss_mb for r in runs)
    correct = failed == 0

    q1, q3 = (statistics.quantiles(walls, n=4)[::2]) if len(walls) > 1 else (wall_s, wall_s)
    print(f"deltamin benchmark: workload={name} seed={seed} trace={int(trace)} "
          f"graphs={len(items) or check.CUBIC_12_CLASSES} runs={len(runs)} "
          f"jobs={wl.jobs} nproc={os.cpu_count()} python={sys.version.split()[0]}")
    print(f"  argv: deltamin {' '.join(argv)}")
    print("  checker self-test: pass (wrong s, improper witness, dropped record each fail)")
    print("  runs (wall/CPU s): " + " ".join(f"{r.wall_s:.3f}/{r.cpu_s:.3f}" for r in runs))
    for r in runs:
        if r.broken:
            print(f"  run {'timed out' if r.timed_out else f'exited with status {r.exit_code}'}")
    print(f"  cpu_s         {cpu_s:.4f} s     (median user + system time of {len(runs)})")
    print(f"  wall_s        {wall_s:.4f} s     (median of {len(runs)}; quartiles {q1:.4f} .. {q3:.4f})")
    print(f"  setup_s       {setup_s:.4f} s     (median CPU time of {len(setup_runs)}: deltamin {' '.join(setup_argv)}; "
          f"median wall {setup_wall_s:.4f} s)")
    print(f"  graphs_per_s  {graphs_per_s:.2f} 1/s")
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
    print(f"  failed_frac   {failed / attempted:.4f}     ({failed} of {attempted} graph outcomes)")
    if wl.command != "generate":
        print(f"  s_total       {outcomes[0].s_total} count (first run)")
    print(f"  stdout sha256 {' '.join(sorted(checked))} "
          f"({'stable' if len(checked) == 1 else 'DIFFERS between runs'}; {len(runs[0].stdout)} bytes)")

    if not trace:
        metrics = {
            "cpu_s": (cpu_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        if not replays:  # the first workload run broke
            replays.append(replay(dm, wl, items))
        tracing.write_spans(WORK / f"spans-{name}.json", [r.tracer for r in replays])
        metrics, probes_ok = traced_run(dm, wl, runs, replays, setup_runs)
        metrics["cli.wall_s"] = (wall_s, "s")
        metrics["cli.graphs_per_s"] = (graphs_per_s, "1/s")
        metrics["solver.s_total"] = (outcomes[0].s_total, "count")
        metrics["cli.byte_stable"] = (int(len(checked) == 1), "bool")
        correct = correct and probes_ok
        print("  per-layer (traced run):")
        for key, (value, unit) in metrics.items():
            print(f"    {key:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _probe_line(name: str, elapsed: float, result: object, ok: bool) -> str:
    took = f"{elapsed:.3f} s" if result is not None else f"did not finish within {PROBE_CAP_S:g} s"
    return f"  probe {name}: {took}{'' if ok else ' WRONG RESULT'}"


@dataclass
class Replay:
    tracer: tracing.Tracer
    wall_s: float
    cpu_s: float
    yielded: int  # graphs enumerate_cubic yielded


def replay(dm, wl: Workload, items: list[corpus.Item]) -> Replay:
    """One in-process replay of the CLI's calls, with spans."""
    tracer = tracing.Tracer()
    start, cpu_start = time.perf_counter(), time.process_time()
    with tracer.patched(dm):
        if wl.command == "generate":
            yielded = tracing.replay_generate(dm, tracer, ENUMERATE_N)
        else:
            yielded = 0
            tracing.replay_solve(dm, tracer, items, wl.exact_limit, wl.command == "analyze")
    return Replay(tracer, time.perf_counter() - start, time.process_time() - cpu_start, yielded)


def traced_run(dm, wl: Workload, runs: list[CliRun], replays: list[Replay], setup_runs: list[CliRun]):
    """Per-layer metrics from the replays, plus the probes.

    Replay i ran in the same round as runs[i], so the metrics that set a
    replay against the CLI pair the two and take the median over rounds.
    cli.glue_s is CPU time: what the CLI and its workers spend beyond
    set-up and the package calls the replay makes, which holds for a
    2-worker run as well as for one process.
    Returns the metrics and whether the probes' answers were right."""
    per_replay = [r.tracer.metrics() for r in replays]
    setup_cpu = statistics.median(r.cpu_s for r in setup_runs)
    setup_wall = statistics.median(r.wall_s for r in setup_runs)
    work = [run.wall_s - setup_wall for run in runs]
    top = [r.tracer.top_level_busy() for r in replays]
    glue = statistics.median(run.cpu_s - setup_cpu - r.cpu_s for run, r in zip(runs, replays))
    efficiency = statistics.median(t / (w * wl.jobs) for w, t in zip(work, top))
    layer: dict[str, tuple[float, str]] = {
        "cli.glue_s": (glue, "s"),
        "cli.parallel_eff": (efficiency, "ratio"),
        "cli.output_bytes": (len(runs[0].stdout.encode("utf-8")), "bytes"),
    }
    for key in per_replay[0]:
        unit = key.rsplit("_", 1)[-1] if key.endswith(("_s", "_ms", "_ratio")) else "count"
        layer[key] = (statistics.median(m[key] for m in per_replay), unit)
    layer["graphs.enumerate_cubic.yielded"] = (replays[0].yielded, "count")
    layer["trace.overhead_s"] = (statistics.median(r.wall_s - w for r, w in zip(replays, work)), "s")
    print("  replays (s): " + " ".join(f"{r.wall_s:.3f}" for r in replays))
    if glue < 0 or efficiency > 1:
        print("  note: the replays outran the CLI runs they were paired with (cli.glue_s < 0 or "
              "cli.parallel_eff > 1); the host's speed changed within rounds, so read these two as noise")
    calls = layer["solver.solve_exact.calls"][0]
    if calls >= 11:
        print(f"  solve_exact tail = p{100 * (calls - 10) / calls:.2f} over {calls} calls")

    ring, flower = corpus.petersen_ring3(), corpus.flower29()
    ring_s, ring_result = tracing.capped(lambda: dm.solve_exact(dm.parse_graph6(ring.g6)), PROBE_CAP_S)
    flower_s, flower_result = tracing.capped(lambda: dm.find_two_factor(dm.parse_graph6(flower.g6)), PROBE_CAP_S)
    ring_ok = ring_result is None or ring_result.s_value == ring.known_s
    flower_ok = flower_result is None or sum(len(c) % 2 for c in flower_result.cycles) >= flower.s_floor
    print(_probe_line("petersen_ring3 solve_exact", ring_s, ring_result, ring_ok))
    print(_probe_line("flower29 find_two_factor", flower_s, flower_result, flower_ok))
    layer["probe.petersen_ring3.solve_exact_s"] = (ring_s, "s")
    layer["probe.petersen_ring3.finished"] = (int(ring_result is not None), "bool")
    layer["probe.flower29.find_two_factor_s"] = (flower_s, "s")
    layer["probe.flower29.finished"] = (int(flower_result is not None), "bool")
    return layer, ring_ok and flower_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "deltamin" / "__init__.py").is_file():
        print(f"no deltamin sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
