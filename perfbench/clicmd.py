"""The cli_cold workload: gmcat's command line, one fresh process per command.

Commands are the README commands on builtins plus JSON targets written at
set-up: BE(3) and ASS(4) tabulated to explicit tables (BE(4) tabulates to
278 MB, so it is left out) and a two-object classical multicategory with a
binary operation and its transpose. Every command runs in the work
directory with relative paths, so reports do not depend on where the
checkout lives.

As a script:

    python3 perfbench/clicmd.py setup WORKDIR OUT
    python3 perfbench/clicmd.py warm WORKDIR SEED OUT
    python3 perfbench/clicmd.py command MODE OUT -- ARGV...

`setup` writes the JSON targets, `warm` runs every command through
`gmcat.cli.main` in one process that has already imported gmcat, and
`command` runs one command as `python -m gmcat ARGV` does, with its exit
code and output. With MODE `metered` it reads the host's speed while the
command runs (calib.Meter); with `spans` or `counts` it runs the command
under the tracer. It writes what it measured as JSON to OUT.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import calib  # noqa: E402


def commands(seed):
    """(name, argv, gate) for each command; a gate reads the parsed report."""
    s = str(seed)
    return [
        ("validate_operad_be", ["validate", "operad", "barratt_eccles",
                                "--truncate", "4", "--require-sigma-free"],
         None),
        ("validate_multicat_terminal", ["validate", "multicat",
                                        "terminal_symmetric", "--seed", s],
         None),
        ("validate_algebra_z2", ["validate", "algebra", "z2"], None),
        ("free_hom_2_2", ["free", "terminal_symmetric", "--hom", "2", "2"],
         lambda rep: None if rep["dump"]["count"] == 2 ** 2 else
         f"{rep['dump']['count']} classes, closed form n^m = 4"),
        ("free_hom_2_2_hat", ["free", "terminal_symmetric", "--hom", "2", "2",
                              "--hat"],
         lambda rep: None if rep["dump"]["count"] >= 2 ** 2 else
         "fewer provisional morphisms than classes"),
        ("underlying_z2", ["underlying", "z2", "--bound", "2",
                           "--out", "underlying.json"], None),
        ("check_adjunction", ["check-adjunction", "terminal_symmetric", "z2",
                              "--bound", "2"], None),
        ("validate_operad_be3_table", ["validate", "operad", "be3.json"],
         None),
        ("validate_operad_ass4_table", ["validate", "operad", "ass4.json"],
         None),
        ("validate_pairing", ["validate", "multicat", "pairing.json",
                              "--seed", s], None),
        ("validate_pairing_over_be3_table",
         ["validate", "multicat", "pairing.json", "--operad", "be3.json",
          "--seed", s], None),
    ]


def pairing_classical():
    """Two objects; one binary operation and its transpose under the swap."""
    from gmcat.dmulticat import ClassicalMulticat
    src = {"iu": ("u",), "iv": ("v",), "m": ("u", "v"), "mt": ("v", "u")}
    tgt = {"iu": "u", "iv": "v", "m": "v", "mt": "v"}
    sw = (2, 1)
    act = {("iu", (1,)): "iu", ("iv", (1,)): "iv",
           ("m", (1, 2)): "m", ("m", sw): "mt",
           ("mt", (1, 2)): "mt", ("mt", sw): "m"}
    comp = {("iu", ("iu",)): "iu", ("iv", ("iv",)): "iv",
            ("iv", ("m",)): "m", ("iv", ("mt",)): "mt",
            ("m", ("iu", "iv")): "m", ("mt", ("iv", "iu")): "mt"}
    return ClassicalMulticat(("u", "v"), ("iu", "iv", "m", "mt"), src, tgt,
                             {"u": "iu", "v": "iv"}, comp, act)


def write_inputs(workdir):
    from gmcat import jsonio
    from gmcat.catoperad import (associativity_operad, barratt_eccles,
                                 operad_tables, tabulated_operad)
    for fname, name, op in (
            ("be3.json", "barratt_eccles_table", barratt_eccles(3)),
            ("ass4.json", "associativity_table", associativity_operad(4))):
        acts, comps = operad_tables(op)
        table = tabulated_operad(name, op.max_level, op.levels, op.unit,
                                 acts, comps)
        jsonio.save(jsonio.encode_operad(table), os.path.join(workdir, fname))
    jsonio.save(jsonio.encode_classical(pairing_classical(), symmetric=True),
                os.path.join(workdir, "pairing.json"))


def parse_report(stdout, argv, workdir):
    """The JSON report a command printed, or wrote to its --out file."""
    if "--out" in argv:
        with open(os.path.join(workdir, argv[argv.index("--out") + 1])) as fh:
            return json.load(fh)
    start = stdout.find("\n{")
    if start < 0:
        raise ValueError("no JSON report in the output")
    return json.loads(stdout[start + 1:])


def gate(argv_gate, exit_code, rep):
    """None when the command gave the verdict it must give, else why not."""
    statuses = [c["status"] for c in rep["checks"]]
    bounded = "bound-exceeded" in statuses
    if "fail" in statuses or not rep["ok"]:
        return "a check failed"
    if exit_code not in (0, 3) or (exit_code == 3) != bounded:
        return f"exit {exit_code} with statuses {statuses}"
    return argv_gate(rep) if argv_gate else None


def setup(workdir, out):
    with calib.Meter() as meter:
        t0 = time.perf_counter()
        import gmcat.cli  # noqa: F401  (the import a command pays for)
        write_inputs(workdir)
        t1 = time.perf_counter()
    wall, ref = meter.times(t0, t1)
    with open(out, "w") as fh:
        json.dump({"setup_wall_s": wall, "setup_s": ref}, fh)


def warm(workdir, seed, out):
    from gmcat.cli import main
    from workloads import digest
    os.chdir(workdir)
    records = []
    with calib.Meter() as meter:
        for name, argv, argv_gate in commands(seed):
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code, error = main(argv), None
            except Exception as exc:
                code, error = None, f"crash: {type(exc).__name__}: {exc}"
            span = (t0, time.perf_counter())
            record = {"name": name, "exit": code, "span": span,
                      "digest": None, "error": error}
            if not error:
                rep = parse_report(buf.getvalue(), argv, workdir)
                record["digest"] = digest(rep)
                record["error"] = gate(argv_gate, code, rep)
            records.append(record)
    for r in records:
        r["wall_s"], r["ref_s"] = meter.times(*r.pop("span"))
    result = {"wall_s": sum(r["wall_s"] for r in records),
              "ref_s": sum(r["ref_s"] for r in records), "records": records,
              "maxrss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    with open(out, "w") as fh:
        json.dump(result, fh)


def command(mode, out, argv):
    if mode == "metered":
        with calib.Meter() as meter:
            t0 = time.perf_counter()
            code = _main(argv)
            t1 = time.perf_counter()
        wall, ref = meter.times(t0, t1)
        with open(out, "w") as fh:   # read by the parent, which timed us
            json.dump({"speed": ref / wall, "reading_s": sum(
                b - a for a, b in meter.readings)}, fh)
    else:
        t0 = time.perf_counter()
        import gmcat.cli  # noqa: F401
        import tracer
        result = {"import_s": time.perf_counter() - t0}
        t = tracer.Tracer(mode, run_id=" ".join(argv))
        t.install()
        try:
            code = _main(argv)
        finally:
            t.restore()
            result["hygiene"] = tracer.leftover_wrappers()
            result["trace"] = t.summary()
            with open(out, "w") as fh:
                json.dump(result, fh)
            t.write_spans(out + ".spans.jsonl")
    sys.stdout.flush()
    sys.exit(code)


def _main(argv):
    """gmcat.cli.main(argv), with a crash reported as `python -m gmcat`
    reports it: a traceback and exit code 1."""
    import gmcat.cli
    try:
        return gmcat.cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "warm":
        warm(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    elif sys.argv[1] == "command":
        command(sys.argv[2], sys.argv[3], sys.argv[5:])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
