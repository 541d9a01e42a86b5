#!/usr/bin/env python3
"""gmcat benchmark: time-to-verdict on three workloads, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all           # every workload, a table

Workloads (see BENCHMARK.json and perfbench/README.md):

- free_adjunction: criteria 6-8 in process, the free-construction hot path;
- structure_laws: criteria 1-5 in process, seeded, no free construction;
- cli_cold: eleven fresh processes, one gmcat command each.

Every measured pass runs in fresh processes with PYTHONHASHSEED=0 and
GMCAT_BOUND unset. With --trace 0 the run prints the end-to-end metrics,
each a median over the passes that fit in --seconds. With --trace 1 it
makes an untraced pass, a pass with spans at each module boundary and a
pass that counts calls to the hot leaves, and prints per-layer metrics. Every check's verdict is gated, cold and warm reports
must be byte-identical, and at the default seed every report's digest
must match perfbench/digests.json. The last line of standard output is
one JSON object: correct, attempted, failed and metrics. A record of the
run, the machine's load and the spans go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import clicmd
from tracer import LAYERS
from workloads import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 2026
WORKLOADS = ("free_adjunction", "structure_laws", "cli_cold")
SETUP_SAMPLES = 3       # set-up processes per in-process run; children add more
CLI_SETUP_SAMPLES = 3   # each writes the 11 MB of JSON targets
CHILD_TIMEOUT_S = 150

SPAN_METRICS = (
    "adjoint.hom", "adjoint.hom_hat", "adjoint.relation_instances",
    "adjoint.counit_report", "adjoint.check_triangles", "adjoint.unit_report",
    "dmulticat.enumerate_M2", "dmulticat.enumerate_M3",
    "dmulticat.validate_multicat", "dalgebra.underlying",
    "dalgebra.validate_algebra", "opmonad.elements_of",
    "opmonad.nested_elements", "opmonad.check_cartesian",
    "opmonad.check_preserves_cover", "catoperad.validate_operad",
    "catoperad.freeness_report", "fincat.validate_category",
    "fincat.grothendieck", "finset.orbit_pullback_report", "jsonio.load",
    "jsonio.decode_operad", "cli.main.validate", "cli.main.free",
    "cli.main.underlying", "cli.main.check-adjunction", "report.render")
CALL_METRICS = ("adjoint.class_of", "adjoint.compose",
                "dmulticat.enumerate_M2", "opmonad.canonicalize",
                "opmonad.map_elem", "catoperad.act", "catoperad.compose",
                "finset.canon_key")
EXTRA_METRICS = (("adjoint.relation_instances.yielded", "count"),
                 ("dmulticat.enumerate_M2.pairs", "count"),
                 ("dalgebra.underlying.morphisms", "count"),
                 ("report.bytes", "bytes"))


# ---------------------------------------------------------------------------
# child processes

def child_env():
    env = dict(os.environ)
    env.pop("GMCAT_BOUND", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, cwd, tag):
    """Run one child to its end: exit code, wall s, cpu s, max RSS, stdout."""
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024,
            "stdout": out_path.read_text(),
            "stderr_tail": stderr.strip().splitlines()[-1:] if stderr else []}


def python_child(script, args, tag, cwd=None):
    """Run a benchmark script and return the JSON it wrote."""
    result_path = OUT / f"{tag}.json"
    if result_path.exists():
        result_path.unlink()
    run = spawn([sys.executable, str(HERE / script), *args, str(result_path)],
                cwd or ROOT, tag)
    if run["exit"] != 0 or not result_path.exists():
        raise RuntimeError(f"{script} {' '.join(args)} exited {run['exit']}: "
                           f"{run['stderr_tail']}")
    result = json.loads(result_path.read_text())
    result["child"] = {k: run[k] for k in ("wall_s", "cpu_s", "maxrss_mb")}
    return result


# ---------------------------------------------------------------------------
# the verdict gate

class Gate:
    """Counts checks and failures; compares digests across passes."""

    def __init__(self, workload, seed):
        self.attempted = self.failed = 0
        self.wrong = []      # wrong verdicts: the program answered wrongly
        self.crashed = []    # crashes: no verdict at all
        self.digests = {}    # first digest of each check, for digests.json
        known = json.loads((HERE / "digests.json").read_text())
        self.expected = known.get(workload, {}) if seed == DEFAULT_SEED \
            else {}

    def record(self, records, reference=None):
        """Gate one pass; reference is a pass whose digests it must repeat."""
        ref = {r["name"]: r["digest"] for r in reference or ()}
        for r in records:
            self.attempted += 1
            self.digests.setdefault(r["name"], r["digest"])
            problem = r["error"]
            if problem is None and r["name"] in ref and \
                    r["digest"] != ref[r["name"]]:
                problem = "report differs from the first pass"
            if problem is None and r["name"] in self.expected and \
                    r["digest"] != self.expected[r["name"]]:
                problem = "report digest differs from digests.json"
            if problem is None:
                continue
            self.failed += 1
            (self.crashed if problem.startswith("crash") else
             self.wrong).append(f"{r['name']}: {problem}")


# ---------------------------------------------------------------------------
# in-process workloads

def check_medians(passes):
    """The sum over checks of each check's median reference time across
    passes: a stretch of the host that the speed readings misjudged moves
    one check in one pass, not the result."""
    names = [r["name"] for r in passes[0]["records"]]
    for p in passes:
        if [r["name"] for r in p["records"]] != names:
            raise RuntimeError("passes ran different checks")
    return sum(statistics.median(p["records"][i]["ref_s"] for p in passes)
               for i in range(len(names)))


def run_inprocess(workload, seed, seconds, gate):
    """Children while the time lasts: the first makes a cold pass and a
    warm pass, later ones both or just the cold pass, whichever still ends
    within the seconds given."""
    deadline = time.perf_counter() + seconds
    setups = [python_child("workloads.py", [workload, str(seed), "setup"],
                           f"{workload}-setup{i}")["setup_s"]
              for i in range(SETUP_SAMPLES)]
    children, mode = [], "run"
    while mode:
        res = python_child("workloads.py", [workload, str(seed), mode],
                           f"{workload}-{mode}{len(children)}")
        if res["hygiene"]:
            raise RuntimeError(f"wrappers left in an untraced run: "
                               f"{res['hygiene']}")
        gate.record(res["cold"]["records"])
        if "warm" in res:
            gate.record(res["warm"]["records"],
                        reference=res["cold"]["records"])
        children.append(res)
        left, first = deadline - time.perf_counter(), children[0]
        mode = ("run" if left >= first["child"]["wall_s"] else
                "cold" if left >= first["child"]["wall_s"]
                - first["warm"]["wall_s"] else None)
    warmed = [c for c in children if "warm" in c]
    return {
        "wall_s": check_medians([c["cold"] for c in children]),
        "warm_wall_s": check_medians([c["warm"] for c in warmed]),
        "setup_s": statistics.median(setups + [c["setup_s"]
                                               for c in children]),
        "peak_rss_mb": statistics.median(c["maxrss_mb"] for c in warmed),
    }, children


def trace_inprocess(workload, seed, gate):
    """An untraced pass, a pass with spans and a pass with counts, none of
    which reads the host's speed; times here are wall times."""
    passes = {}
    for mode in ("base", "spans", "counts"):
        res = python_child("workloads.py", [workload, str(seed), mode],
                           f"{workload}-{mode}")
        if res["hygiene"]:
            raise RuntimeError(f"wrappers left after {mode}: {res['hygiene']}")
        gate.record(res["cold"]["records"], reference=passes["base"]["cold"][
            "records"] if passes else None)
        passes[mode] = res
    (OUT / f"spans-{workload}-seed{seed}.jsonl").write_text(
        (OUT / f"{workload}-spans.json.spans.jsonl").read_text())
    return layer_metrics(
        [passes["spans"]["trace"]], [passes["counts"]["trace"]],
        import_s=passes["spans"]["import_s"],
        overhead=passes["spans"]["cold"]["wall_s"]
        - passes["base"]["cold"]["wall_s"])


# ---------------------------------------------------------------------------
# cli_cold

def cli_pass(workdir, seed, gate, tag, mode):
    """Every command once, each in a fresh process; gates the reports.

    Mode `gmcat` runs `python -m gmcat`. Modes `metered`, `spans` and
    `counts` run clicmd.py's driver, which runs the command as `python -m
    gmcat` does. Under `metered` it reads the host's speed while the
    command runs, and the process's wall time, less the readings, is
    scaled by it; the others trace."""
    rss, records, traces = 0.0, [], []
    for i, (name, argv, argv_gate) in enumerate(clicmd.commands(seed)):
        ctag = f"cli_cold-{tag}-{i}"
        side = OUT / f"{ctag}.side.json"
        if side.exists():
            side.unlink()
        if mode == "gmcat":
            run = spawn([sys.executable, "-m", "gmcat", *argv], workdir, ctag)
        else:
            run = spawn([sys.executable, str(HERE / "clicmd.py"), "command",
                         mode, str(side), "--", *argv], workdir, ctag)
            if not side.exists():
                raise RuntimeError(f"{name}: the driver wrote nothing, exit "
                                   f"{run['exit']}: {run['stderr_tail']}")
        wall = ref = run["wall_s"]
        if mode == "metered":
            measured = json.loads(side.read_text())
            wall -= measured["reading_s"]
            ref = wall * measured["speed"]
        elif mode != "gmcat":
            traces.append(json.loads(side.read_text()))
        rss = max(rss, run["maxrss_mb"])
        record = {"name": name, "exit": run["exit"], "wall_s": wall,
                  "ref_s": ref, "digest": None}
        try:
            rep = clicmd.parse_report(run["stdout"], argv, workdir)
        except ValueError:
            record["error"] = (f"crash: exit {run['exit']}, "
                               f"{' '.join(run['stderr_tail'])}")
        else:
            record["digest"] = digest(rep)
            record["error"] = clicmd.gate(argv_gate, run["exit"], rep)
        records.append(record)
    return {"wall_s": sum(r["wall_s"] for r in records),
            "ref_s": sum(r["ref_s"] for r in records), "maxrss_mb": rss,
            "records": records, "traces": traces}


def cli_setup(workdir, samples):
    workdir.mkdir(parents=True, exist_ok=True)
    return [python_child("clicmd.py", ["setup", str(workdir)],
                         f"cli_cold-setup{i}")["setup_s"]
            for i in range(samples)]


def run_cli(seed, seconds, gate):
    """One warm child, then passes of fresh processes while a pass still
    ends within the seconds given."""
    deadline = time.perf_counter() + seconds
    workdir = OUT / "cli_cold-work"
    setups = cli_setup(workdir, CLI_SETUP_SAMPLES)
    warm = python_child("clicmd.py", ["warm", str(workdir), str(seed)],
                        "cli_cold-warm", cwd=workdir)
    passes, took = [], 0.0
    while not passes or deadline - time.perf_counter() >= took:
        t0 = time.perf_counter()
        p = cli_pass(workdir, seed, gate, f"cold{len(passes)}", "metered")
        took = time.perf_counter() - t0
        gate.record(p["records"], reference=passes[0]["records"]
                    if passes else None)
        passes.append(p)
    gate.record(warm["records"], reference=passes[0]["records"])
    return {
        "wall_s": check_medians(passes),
        "warm_wall_s": warm["ref_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
    }, {"passes": [{k: p[k] for k in ("wall_s", "ref_s", "maxrss_mb",
                                      "records")}
                   for p in passes], "warm": warm}


def trace_cli(seed, gate):
    workdir = OUT / "cli_cold-work"
    cli_setup(workdir, 1)
    base = cli_pass(workdir, seed, gate, "cold", "gmcat")
    gate.record(base["records"])
    spans = cli_pass(workdir, seed, gate, "spans", "spans")
    gate.record(spans["records"], reference=base["records"])
    counts = cli_pass(workdir, seed, gate, "counts", "counts")
    gate.record(counts["records"], reference=base["records"])
    for t in spans["traces"] + counts["traces"]:
        if t["hygiene"]:
            raise RuntimeError(f"wrappers left after a traced command: "
                               f"{t['hygiene']}")
    with open(OUT / f"spans-cli_cold-seed{seed}.jsonl", "w") as fh:
        for i in range(len(spans["traces"])):
            path = OUT / f"cli_cold-spans-{i}.side.json.spans.jsonl"
            if path.exists():
                fh.write(path.read_text())
    return layer_metrics([t["trace"] for t in spans["traces"]],
                         [t["trace"] for t in counts["traces"]],
                         import_s=sum(t["import_s"] for t in spans["traces"]),
                         overhead=spans["wall_s"] - base["wall_s"])


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(span_traces, count_traces, import_s, overhead):
    def total(traces, field, key):
        return sum(t[field].get(key, 0) for t in traces)

    m = {"trace_overhead_s": (overhead, "s"), "cli.import_s": (import_s, "s")}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (total(span_traces, "self_s", layer), "s")
    for name in SPAN_METRICS:
        m[f"{name}.s"] = (total(span_traces, "incl_s", name), "s")
    every = span_traces + count_traces
    for name in CALL_METRICS:
        m[f"{name}.calls"] = (total(every, "calls", name), "count")
    for name, unit in EXTRA_METRICS:
        m[name] = (total(span_traces, "extra", name), unit)
    calls = total(count_traces, "calls", "opmonad.canonicalize")
    distinct = sum(t["distinct"] for t in count_traces)
    m["opmonad.canonicalize.hit_ratio"] = (
        1 - distinct / calls if calls else 0.0, "ratio")
    checked = total(span_traces, "extra", "adjoint.counit.checked")
    bounded = total(span_traces, "extra", "adjoint.counit.bounded")
    m["adjoint.counit.checked_ratio"] = (
        checked / (checked + bounded) if checked + bounded else 0.0, "ratio")
    return m


# ---------------------------------------------------------------------------
# the machine

def read_stat():
    with open("/proc/stat") as fh:
        cpu = fh.readline().split()
    return {"steal": int(cpu[8]) if len(cpu) > 8 else 0,
            "total": sum(int(x) for x in cpu[1:])}


def read_loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:3]


def source_digest():
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gmcat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace):
    gate = Gate(workload, seed)
    stat0, load0 = read_stat(), read_loadavg()
    t0 = time.perf_counter()
    if trace:
        metrics = (trace_cli(seed, gate) if workload == "cli_cold"
                   else trace_inprocess(workload, seed, gate))
        detail = None
    else:
        values, detail = (run_cli(seed, seconds, gate)
                          if workload == "cli_cold"
                          else run_inprocess(workload, seed, seconds, gate))
        units = {"wall_s": "s", "warm_wall_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        metrics = {k: (v, units[k]) for k, v in values.items()}
    stat1 = read_stat()
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "git_commit": git_commit(), "source_digest": source_digest(),
           "seed": seed, "PYTHONHASHSEED": "0", "trace": trace,
           "run_s": time.perf_counter() - t0,
           "loadavg_start": load0, "loadavg_end": read_loadavg(),
           "steal_ticks": stat1["steal"] - stat0["steal"],
           "cpu_ticks": stat1["total"] - stat0["total"]}
    result = {"correct": not gate.wrong, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"workload": workload, "env": env, "result": result,
              "failed_frac": gate.failed / gate.attempted,
              "wrong": gate.wrong, "crashed": gate.crashed,
              "digests": gate.digests, "detail": detail}
    (OUT / f"run-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result, record


def summarize(workload, result, record):
    lines = [f"{workload}: attempted {result['attempted']}, failed "
             f"{result['failed']} (failed_frac "
             f"{record['failed_frac']:.4f}), correct {result['correct']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for problem in record["wrong"] + record["crashed"]:
        lines.append(f"  FAILED {problem}")
    env = record["env"]
    lines.append(f"  env: python {env['python']}, nproc {env['nproc']}, "
                 f"load {' '.join(env['loadavg_start'])}, steal "
                 f"{env['steal_ticks']}/{env['cpu_ticks']} ticks")
    return "\n".join(lines)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gmcat" / "__init__.py").is_file():
        sys.exit(f"error: no gmcat sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        for workload in WORKLOADS:
            result, record = run(workload, args.seed, args.seconds,
                                 args.trace)
            print(summarize(workload, result, record), flush=True)
        return
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    print(summarize(args.workload, result, record), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
