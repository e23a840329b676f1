"""Batch front door: parse specs and manifests, route to the engines, and
persist reproducible reports.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 infeasible computation, 4 internal error (an unexpected exception, printed
with its traceback). Reports are JSON written atomically (temp file
plus rename) and embed the full manifest and tool version; `--format csv`
writes a plot-ready projection instead. Logarithms are natural throughout.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import math
import os
import sys
import traceback
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, bounds, exact, mc, verify
from .errors import ConfigurationError, DomainError, InfeasibleError
from .numtext import float_list_text, float_text
from .sequences import (StepSequenceSpec, generate, parse_json_object,
                        read_input_text, read_sequence_file, sequence_text)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


# The JSON report writer below gives the bytes of
# json.dumps(obj, indent=2, default=_json_default), which tests keep as its
# oracle. json uses its C encoder only without `indent`, and its pure-Python
# one walks every list item; this writer hands each list of JSON scalars to
# the C encoder in one call, with the indented item separator, and long float
# lists to numpy (`numtext`), which renders them faster still. A 1-D float64
# array goes to `numtext` as it is, an integer or bool one to the C encoder
# through `tolist`, and any other array through `tolist` and the list paths.
_quote = json.encoder.encode_basestring_ascii
# exact types of JSON scalars: a list holding a numpy scalar goes item by
# item, through _json_default
_SCALARS = {str, int, float, bool, type(None)}


def _key_text(key) -> str:
    """json's string for a dict key, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return float_text(key)
    if key is True or key is False or key is None:
        return json.dumps(key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_list(items, kinds: set, pad: str, out: list) -> None:
    """Append the indent=2 JSON text of a list or 1-D array whose items have
    the types `kinds`."""
    if not len(items):
        out.append("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    out.append("[\n" + inner)
    if kinds == {float}:
        out.extend(float_list_text(items, sep))
    elif kinds <= _SCALARS:
        # with indent None, json's C encoder: int.__repr__, float.__repr__
        # and _quote, as the indent=2 encoder uses
        out.append(json.JSONEncoder(separators=(sep, ": ")).encode(items)[1:-1])
    else:
        for i, item in enumerate(items):
            if i:
                out.append(sep)
            _write_json(item, inner, out)
    out.append("\n" + pad + "]")


def _write_json(obj, pad: str, out: list) -> None:
    """Append the indent=2 JSON text of `obj`, starting on a line indented by `pad`."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float_text(obj))
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, set(map(type, obj)), pad, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(sep)
            out.append(_quote(_key_text(key)) + ": ")
            _write_json(value, inner, out)
        out.append("\n" + pad + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        _write_list(obj, {float}, pad, out)  # numtext takes the array as it is
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "biu":
        # tolist gives Python ints or bools: no item needs its type checked
        _write_list(obj.tolist(), _SCALARS, pad, out)
    else:
        _write_json(_json_default(obj), pad, out)


def _atomic_write(path: str, text: str, what: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        Path(tmp).unlink(missing_ok=True)
        raise ConfigurationError(f"cannot write {what} {path}: {exc}") from exc


def _manifest(command: str, inputs: dict, output_path: str | None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "output_path": output_path,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool_version": __version__,
    }


def _g(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_table(report: dict, fmt: str) -> str:
    """Project a report to the requested format; CSV uses 12 significant digits.

    JSON is the text of json.dumps(report, indent=2, default=_json_default)
    plus a newline, byte for byte.
    """
    if fmt == "json":
        out = []
        _write_json(report, "", out)
        out.append("\n")
        return "".join(out)
    if fmt != "csv":
        raise ConfigurationError(f"unknown output format {fmt!r}")
    result = report.get("result", {})
    kind = result.get("kind", "")
    buf = io.StringIO()
    if kind == "fit":
        buf.write("n,q1,log_n,log_q1\n")
        for n, v in result.get("points", []):
            buf.write(f"{_g(n)},{_g(v)},{_g(math.log(n))},{_g(math.log(v))}\n")
        buf.write(f"slope,{_g(result['slope'])}\n")
        buf.write(f"intercept,{_g(result['intercept'])}\n")
        buf.write(f"r2,{_g(result['r_squared'])}\n")
    elif kind == "modular_dist":
        buf.write("residue,prob\n")
        for r, p in enumerate(result["probs"]):
            buf.write(f"{r},{_g(p)}\n")
    elif kind == "dist":
        buf.write("value,prob\n")
        for v, p in zip(result["support"], result["probs"]):
            buf.write(f"{v},{p if isinstance(p, str) else _g(p)}\n")
    elif kind == "mc_interval_hits":
        buf.write("event,hits,replicates,p_hat,wilson_lo,wilson_hi\n")
        for k, ev in result["per_event"].items():
            buf.write(f"{k},{ev['hits']},{ev['replicates']},{_g(ev['p_hat'])},"
                      f"{_g(ev['wilson_lo'])},{_g(ev['wilson_hi'])}\n")
    else:
        buf.write("key,value\n")
        for key, value in sorted(result.items()):
            if isinstance(value, (int, float, str, bool)):
                buf.write(f"{key},{_g(value)}\n")
    return buf.getvalue()


def _write_report(args, command: str, inputs: dict, result: dict) -> dict:
    report = {
        "tool_version": __version__,
        "manifest": _manifest(command, inputs, args.out),
        "result": result,
    }
    _emit(args.out, emit_table(report, args.format), "report")
    return report


def _emit(path: str | None, text: str, what: str) -> None:
    """The one output path: `text` written atomically to `path`, or to stdout.

    `what` names the text in a write error.
    """
    if path:
        _atomic_write(path, text, what)
    else:
        sys.stdout.write(text)


def _load_steps(args, n=None):
    if not args.seq:
        raise ConfigurationError("this command requires --seq")
    return read_sequence_file(args.seq, n=n)


def cmd_gen(args) -> int:
    spec = StepSequenceSpec.from_dict(
        parse_json_object(read_input_text(args.spec), args.spec, "sequence spec"))
    _emit(args.out, sequence_text(generate(spec, args.n)), "sequence file")
    return 0


def cmd_dist(args) -> int:
    steps = _load_steps(args, n=args.n)
    inputs = {"seq": args.seq, "n": args.n, "q": args.q, "mod": args.mod,
              "exact": bool(args.exact)}
    if args.mod is not None:
        if args.exact:
            raise ConfigurationError(
                "--exact is not supported with --mod (residue laws are float)")
        mod = exact.modular_walk_pmf(steps, args.mod)
        result = {"kind": "modular_dist", "modulus": mod.modulus,
                  "steps_applied": len(steps), "probs": mod.probs}
        _write_report(args, "dist", inputs, result)
        return 0
    pmf = exact.walk_pmf(steps, exact=bool(args.exact))
    query = exact.concentration_q(pmf, args.q)
    probs = ([f"{p.numerator}/{p.denominator}" for p in pmf.probs] if pmf.exact
             else pmf.probs)
    result = {
        "kind": "dist",
        "steps_applied": pmf.steps_applied,
        "support": pmf.support,
        "probs": probs,
        "q": {"r": args.q,
              "value": (f"{query.result.numerator}/{query.result.denominator}"
                        if pmf.exact else float(query.result)),
              "argmax_x": query.argmax_x},
    }
    _write_report(args, "dist", inputs, result)
    return 0


def cmd_bounds(args) -> int:
    if args.exponent:
        if args.check:
            raise ConfigurationError("--exponent and --check are separate reports; "
                                     "give one")
        for flag in ("seq", "n", "m", "t"):
            if getattr(args, flag) is not None:
                raise ConfigurationError(f"--exponent does not read --{flag}")
        if args.alpha is None:
            raise ConfigurationError("--exponent requires --alpha")
        # defaults of None let --check reject an explicit --delta or --gamma
        delta = 0.0 if args.delta is None else args.delta
        gamma = 0.01 if args.gamma is None else args.gamma
        query = bounds.anti_exponent_f(bounds.ExponentQuery(args.alpha, delta, gamma))
        inputs = {"alpha": args.alpha, "delta": delta, "gamma": gamma}
        result = {"kind": "exponent", "alpha": query.alpha, "delta": query.delta,
                  "gamma": query.gamma, "f_value": query.f_value,
                  "exponent": query.exponent, "branch": query.branch,
                  "branch_boundary": bounds.branch_boundary(args.alpha)}
        _write_report(args, "bounds", inputs, result)
        return 0
    if not args.check:
        raise ConfigurationError("bounds needs either --exponent or --check NAME")
    name = args.check.replace("_", "-")
    if name not in bounds.CHECKS:
        raise ConfigurationError(f"unknown bound check {args.check!r}")
    reads = bounds.CHECKS[name][1]
    # --t defaults to 1; its parser default None tells an omitted --t apart
    values = {"m": args.m, "t": 1.0 if args.t is None else args.t}
    for flag in ("m", "t", "alpha", "delta", "gamma"):
        if flag in reads and values[flag] is None:
            raise ConfigurationError(f"--check {name} requires --{flag}")
        if flag not in reads and getattr(args, flag) is not None:
            raise ConfigurationError(f"--check {name} does not read --{flag}")
    inputs = {"check": name, "seq": args.seq, "n": args.n, **values}
    steps = _load_steps(args, n=args.n)
    report = bounds.run_check(name, steps, **{flag: values[flag] for flag in reads})
    _write_report(args, "bounds", inputs, {"kind": "bound", **report.to_dict()})
    return 0


def _load_manifest(path: str) -> mc.McRunManifest:
    data = parse_json_object(read_input_text(path), path, "manifest")
    if "manifest" in data and "result" in data:  # replaying a persisted report
        result = data["result"]
        data = result.get("mc_manifest") if isinstance(result, dict) else None
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path} is a report but not from an mc run")
    return mc.McRunManifest.from_dict(data)


def cmd_mc(args) -> int:
    if args.threads < 1:
        raise ConfigurationError(f"--threads must be at least 1, not {args.threads}")
    manifest = _load_manifest(args.manifest)
    result = mc.run_experiment(manifest, threads=args.threads)
    _write_report(args, "mc", {"manifest_path": args.manifest,
                               "manifest_body": manifest.to_dict(),
                               "threads": args.threads}, result)
    return 0


def _read_points(path: str):
    points = []
    for idx, line in enumerate(read_input_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.lower().startswith(("n,", "#")):
            continue
        try:
            n, value = map(float, line.split(",")[:2])
        except ValueError:
            raise ConfigurationError(f"{path}:{idx}: expected 'n,value', "
                                     f"not {line!r}") from None
        if not (math.isfinite(n) and math.isfinite(value)):
            raise ConfigurationError(f"{path}:{idx}: {line!r} is not finite")
        points.append((n, value))
    return points


def cmd_fit(args) -> int:
    points = _read_points(args.points)
    fit = mc.fit_exponent(points)
    result = {"kind": "fit", "points": points, "slope": fit.slope,
              "intercept": fit.intercept, "r_squared": fit.r_squared}
    _write_report(args, "fit", {"points": args.points}, result)
    return 0


def cmd_verify(args) -> int:
    knobs = {}
    reads = inspect.signature(verify.SUITES[args.suite]).parameters
    # the least value of each knob: numpy takes no negative seed, and below its
    # least a size selects no case (modular_elo's moduli start at 3)
    for name, least in (("seed", 0), ("max_n", 1), ("cases", 1), ("max_m", 3)):
        value = getattr(args, name)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        # every suite takes --seed; a suite without randomness has nothing to seed
        if name != "seed" and name not in reads:
            raise ConfigurationError(f"suite {args.suite} does not read {flag}")
        if value < least:
            raise ConfigurationError(f"{flag} must be at least {least}, not {value}")
        knobs[name] = value
    res = verify.run_suite(args.suite, **knobs)
    result = {"kind": "verify", "suite": res.suite, "cases_run": res.cases_run,
              "failures": res.failures,
              "empirical_constants": res.empirical_constants}
    _write_report(args, "verify", {"suite": args.suite, **knobs}, result)
    return 0 if res.ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="report path (stdout when omitted)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (CSV is a lossy plotting projection)")

    parser = argparse.ArgumentParser(
        prog="rlab",
        description="Rademacher random walk laboratory: exact laws, bounds, "
                    "and reproducible Monte Carlo. Logs are natural (base e).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a step sequence")
    p.add_argument("--out", help="sequence file path (stdout when omitted)")
    p.add_argument("--spec", required=True, help="JSON sequence spec file")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("dist", parents=[common],
                       help="exact law of the walk and its concentration")
    p.add_argument("--seq", required=True,
                   help="sequence file (decimals per line, or a JSON spec)")
    p.add_argument("--n", type=int, default=None, help="prefix length")
    p.add_argument("--q", type=float, default=1.0, help="concentration window width")
    p.add_argument("--mod", type=int, default=None, help="residue distribution mod m")
    p.add_argument("--exact", action="store_true",
                   help="rational-probability mode for the exact engine")

    p = sub.add_parser("bounds", parents=[common], help="closed-form bound reports")
    p.add_argument("--check", help=" | ".join(bounds.CHECKS))
    p.add_argument("--exponent", action="store_true",
                   help="evaluate the anti-concentration exponent formula")
    p.add_argument("--alpha", type=float)
    p.add_argument("--delta", type=float, help="--exponent only (default 0)")
    p.add_argument("--gamma", type=float, help="--exponent only (default 0.01)")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=float, help="tail threshold in l2-norm units (default 1)")
    p.add_argument("--seq")

    p = sub.add_parser("mc", parents=[common], help="Monte Carlo experiments")
    p.add_argument("--manifest", required=True,
                   help="manifest JSON (or a prior report, for replay)")
    p.add_argument("--threads", type=int, default=1,
                   help="Monte Carlo threads: one draws the signs, the rest walk them")

    p = sub.add_parser("fit", parents=[common], help="log-log exponent fit")
    p.add_argument("--points", required=True, help="CSV of n,value rows")

    p = sub.add_parser("verify", parents=[common], help="inequality verification suites")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--seed", type=int, default=20240801, help="master seed")
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--max-m", dest="max_m", type=int, default=None)
    p.add_argument("--cases", type=int, default=None)
    return parser


_parser = None  # built on the first `main` call and reused by every later one


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # looked up at call time, so a command patched after import is the one run
        return globals()[f"cmd_{args.command}"](args)
    # an OSError comes from a path the user named (or stdout): a missing or
    # unreadable input, or an unwritable --out
    except (ConfigurationError, DomainError, OSError) as exc:
        print(f"rlab: error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"rlab: infeasible: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 would read as "verification failed"
        print(f"rlab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
