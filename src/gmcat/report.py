"""Run configuration and deterministic report assembly for the CLI.

A report is pure data: command echo, config echo, one entry per check
with status pass / fail / bound-exceeded and witnesses for failures.
Identical config and seed must produce byte-identical JSON, so wall-clock
timing appears only in the human summary, never in the report body, and
the output path is not echoed.
"""

import json
from dataclasses import dataclass

DEFAULT_BOUND = 3
DEFAULT_TRUNCATE = 4


@dataclass
class RunConfig:
    command: str
    targets: tuple = ()
    operad: str = None          # builtin name or path, None = barratt_eccles
    truncate: int = DEFAULT_TRUNCATE
    bound: int = DEFAULT_BOUND
    seed: int = 0
    hom: tuple = None           # (SRC, TGT) specs for the free command
    hat: bool = False
    require_sigma_free: bool = False
    out: str = None

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError(f"arity bound must be >= 1, got {self.bound}")
        if self.truncate < self.bound:
            raise ValueError(
                f"truncation {self.truncate} below arity bound {self.bound}")

    def echo(self):
        return {"command": self.command, "targets": list(self.targets),
                "operad": self.operad, "truncate": self.truncate,
                "bound": self.bound, "seed": self.seed,
                "hom": list(self.hom) if self.hom else None,
                "hat": self.hat,
                "require_sigma_free": self.require_sigma_free}


def jsonable(v):
    """Deterministic JSON image of arbitrary check payloads."""
    if isinstance(v, dict):
        return {k if isinstance(k, str) else repr(k): jsonable(x)
                for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return repr(v)


def check(name, ok, witnesses=(), counts=None, bound_exceeded=False):
    status = "bound-exceeded" if bound_exceeded else ("pass" if ok else "fail")
    entry = {"name": name, "status": status,
             "witnesses": jsonable(list(witnesses)[:20])}
    if counts:
        entry["counts"] = jsonable(counts)
    return entry


def from_validator(name, rep):
    counts = {}
    for k, v in rep.items():
        if k in ("ok", "failures"):
            continue
        if isinstance(v, (bool, int)):
            counts[k] = v
        elif isinstance(v, dict) and all(isinstance(x, int) for x in v.values()):
            counts.update({f"{k}.{k2}": v2 for k2, v2 in v.items()})
    return check(name, rep["ok"], rep.get("failures", ()), counts,
                 bound_exceeded=rep["ok"] and rep.get("bounded", 0) > 0)


def build(cfg, checks, dump=None):
    report = {"command": cfg.command, "config": cfg.echo(),
              "checks": checks,
              "ok": all(c["status"] != "fail" for c in checks)}
    if dump is not None:
        report["dump"] = jsonable(dump)
    return report


def exit_code(report):
    statuses = [c["status"] for c in report["checks"]]
    if "fail" in statuses:
        return 1
    if "bound-exceeded" in statuses:
        return 3
    return 0


def render(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def summarize(report, elapsed=None):
    statuses = [c["status"] for c in report["checks"]]
    if "fail" in statuses:
        word = "PROBLEMS FOUND"
    elif "bound-exceeded" in statuses:
        word = "ok so far, but some instances exceeded the bound"
    else:
        word = "ok"
    lines = [f"gmcat {report['command']}: {word}"]
    for c in report["checks"]:
        tag = {"pass": "PASS", "fail": "FAIL",
               "bound-exceeded": "BOUND"}[c["status"]]
        line = f"  [{tag}] {c['name']}"
        if c.get("counts"):
            bits = ", ".join(f"{k}={v}" for k, v in sorted(c["counts"].items()))
            line += f" ({bits})"
        lines.append(line)
        if c["status"] == "fail" and c["witnesses"]:
            lines.append(f"         witness: {c['witnesses'][0]}")
    dump = report.get("dump") or {}
    if "classes" in dump:
        lines.append(f"  hom {dump['source']} -> {dump['target']}: "
                     f"{dump['count']} classes")
        for entry in dump["classes"]:
            lines.append("    " + entry.get("representative",
                                            entry.get("morphism", "?")))
    if elapsed is not None:
        lines.append(f"  elapsed: {elapsed:.2f}s")
    return "\n".join(lines)


def emit(report, cfg, elapsed=None):
    print(summarize(report, elapsed))
    text = render(report)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
