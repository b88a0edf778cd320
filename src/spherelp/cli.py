"""Command-line interface.

Thin adapters over the library: every value printed here is the
corresponding library value rounded to 12 significant digits, and JSON
output writes a NaN or infinity as null.  Exit
codes: 0 success, 1 usage error, 2 infeasible bound (a certificate check
failed) or failed rule, 3 reference-table mismatch from ``reproduce``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from math import isfinite

import numpy as np

from . import _tables, bounds, codes
from .potentials import parse_potential
from .quadrature import QuadratureError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _sig12(x, nonfinite=lambda v: v):
    """x with each number rounded to 12 significant digits, and each NaN or infinity replaced by nonfinite(value)."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        x = float(f"{float(x):.12g}")
        return x if isfinite(x) else nonfinite(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (list, tuple)):
        return [_sig12(v, nonfinite) for v in x]
    if isinstance(x, dict):
        return {k: _sig12(v, nonfinite) for k, v in x.items()}
    return x


def _emit_json(payload) -> str:
    # a NaN or infinity is null; allow_nan=False raises on one that escapes, not prints NaN or Infinity
    return json.dumps(_sig12(payload, lambda v: None), indent=2, allow_nan=False)


def _emit_text(payload) -> str:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}." if isinstance(v, dict) else f"{prefix}{k}", v)
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            for item in value:
                lines.append(f"{prefix}: " + " ".join(f"{k}={_sig12(v)}" for k, v in item.items()))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix} = {', '.join(str(_sig12(v)) for v in value)}")
        else:
            lines.append(f"{prefix} = {_sig12(value)}")

    walk("", payload)
    return "\n".join(lines)


def _emit_csv(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_sig12(v) for v in row])
    return buf.getvalue().rstrip("\n")


CONFIG_HELP = " | ".join(
    [
        (entry.aliases[0] if entry.aliases else name) + (f":{entry.param}" if entry.param else "")
        for name, entry in codes.CONFIGS.items()
    ]
    + ["path to a code JSON file"]
)


def load_config(spec: str) -> codes.WeightedCode:
    name, colon, param = spec.partition(":")
    name = codes.CONFIG_SPELLINGS.get(name.strip().lower())
    if name is not None:
        return codes.build_config(name, param if colon else None)
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return codes.code_from_json(fh.read())
    raise ValueError(f"unknown configuration {spec!r} (expected {CONFIG_HELP})")


def _resolve_capacity(args):
    sources = [name for name in ("capacity", "weights_file", "config") if getattr(args, name) is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of --capacity, --weights-file, --config is required")
    if args.capacity is not None:  # each bound checks its own capacity
        return args.capacity, None
    if args.weights_file is not None:
        with open(args.weights_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            if "weights" not in data:
                raise ValueError(f"weights file {args.weights_file}: field 'weights' is missing")
            data = data["weights"]
        weights = codes.check_weights(data)
        return float(1.0 / np.dot(weights, weights)), None
    code = load_config(args.config)
    return code.n_w, code


def _report_payload(command: str, report: bounds.BoundReport) -> dict:
    payload = {
        "schema": 1,
        "command": command,
        "kind": report.kind,
        "n": report.n,
        "m": report.m,
        "potential": report.potential.label(),
        "value": report.value,
        "feasible": report.feasible,
    }
    rule = report.rule
    if report.lambda_star is not None:  # upper bounds
        payload["lambda_star"] = report.lambda_star
        payload["n1"] = rule.capacity
    payload["s"] = rule.s
    payload["rule"] = {
        "m": rule.m,
        "eps": rule.eps,
        "capacity": rule.capacity,
        "nodes": list(rule.nodes),
        "weights": list(rule.weights),
    }
    payload["certificate"] = list(report.certificate.coeffs)
    payload["diagnostics"] = [
        {"name": c.name, "ok": c.ok, "value": c.value, "note": c.note}
        for c in report.diagnostics
    ]
    return payload


def _write(text: str) -> None:
    """Print to stdout; a reader that closed the pipe ends the output, not the run."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit, which would raise anew
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print(args, payload, rows, header) -> None:
    if args.format == "csv":
        _write(_emit_csv(rows, header))
    elif args.format == "text":
        _write(_emit_text(payload))
    else:
        _write(_emit_json(payload))


def cmd_bound(args) -> int:
    """``ulb`` and ``design-ulb`` at a capacity; ``uub`` and ``design-uub`` also at a maximal inner product s."""
    capacity, code = _resolve_capacity(args)
    n = args.n if args.n is not None else (code.n if code else None)
    if args.command.endswith("uub"):
        s = args.s if args.s is not None else (code.max_inner_product if code else None)
        if n is None or s is None:
            raise ValueError("--n and --s are required when no --config is given")
    elif n is None:
        raise ValueError("--n is required when no --config is given")
    h = parse_potential(args.potential, n)
    if args.command == "ulb":
        report = bounds.ulb(n, capacity, h)
    elif args.command == "design-ulb":
        report = bounds.design_ulb(n, capacity, args.tau, h)
    elif args.command == "uub":
        report = bounds.uub(n, capacity, s, h, m_override=args.m_override)
    else:
        report = bounds.design_uub(n, capacity, s, args.tau, h)
    rows = [(i, a, w) for i, (a, w) in enumerate(zip(report.rule.nodes, report.rule.weights))]
    _print(args, _report_payload(args.command, report), rows, ("i", "alpha_i", "rho_i"))
    if report.feasible:
        return EXIT_OK
    print("infeasible: a certificate check failed", file=sys.stderr)
    for c in report.diagnostics:
        if not c.ok:
            print(f"  {c.name}: value={c.value} {c.note}", file=sys.stderr)
    return EXIT_INFEASIBLE


def _code_header(args, code) -> dict:
    """The leading fields of ``energy`` and ``design-check``."""
    return {"schema": 1, "command": args.command, "config": args.config, "n": code.n, "size": code.size, "capacity": code.n_w}


def cmd_energy(args) -> int:
    code = load_config(args.config)
    h = parse_potential(args.potential, code.n)
    value = codes.energy(code, h)
    payload = _code_header(args, code)
    payload.update(s=code.max_inner_product if code.size > 1 else None, potential=h.label(), value=value)
    _print(args, payload, payload.items(), ("field", "value"))
    return EXIT_OK


def cmd_design_check(args) -> int:
    code = load_config(args.config)
    report = codes.design_strength(code, args.tau, args.tol)
    payload = _code_header(args, code)
    payload.update(strength=report.strength, tol=args.tol, moments=list(report.moments))
    _print(args, payload, enumerate(report.moments, start=1), ("ell", "M_ell"))
    return EXIT_OK


def cmd_test_functions(args) -> int:
    report = bounds.test_functions(args.n, args.capacity, args.jmax)
    values = [{"j": j, "q": v, "class": report.verdict(j, report.m, v)} for j, v in sorted(report.values.items())]
    payload = {
        "schema": 1,
        "command": "test-functions",
        "n": report.n,
        "m": report.m,
        "capacity": report.rule.capacity,
        "improvable": report.improvable,
        "negative_indices": list(report.negative_indices),
        "values": values,
    }
    _print(args, payload, [(v["j"], v["q"], v["class"]) for v in values], ("j", "Q_j", "class"))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cells = _tables.reproduce(args.table)
    failed = [c for c in cells if not c.ok]
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "reproduce",
            "table": args.table,
            "cells": [
                {
                    "label": c.label,
                    "computed": c.computed,
                    "reference": c.printed,
                    "decimals": c.decimals,
                    "ok": c.ok,
                }
                for c in cells
            ],
            "passed": len(cells) - len(failed),
            "failed": len(failed),
        }
        _write(_emit_json(payload))
    else:
        width = max(len(c.label) for c in cells)
        for c in cells:
            status = "ok  " if c.ok else "FAIL"
            _write(f"[{status}] {c.label:<{width}}  computed={c.computed:.10g}  reference={c.printed:g}")
        _write(f"{len(cells) - len(failed)}/{len(cells)} cells match")
    return EXIT_MISMATCH if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherelp", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.set_defaults(func=func)
        return p

    potential = "riesz:A | newton | gaussian:A | log | fejes-toth | shift:C:BASE"
    for name, summary in (
        ("ulb", "lower bound on weighted energy"),
        ("uub", "upper bound on weighted energy at maximal inner product s"),
        ("design-ulb", "lower bound for weighted designs"),
        ("design-uub", "upper bound for weighted designs"),
    ):
        p = command(name, summary, cmd_bound)
        p.add_argument("--n", type=int, help="dimension of the ambient space (default: the config's)")
        p.add_argument("--potential", required=True, help=potential)
        p.add_argument("--capacity", type=float, help="effective cardinality N_W (or N_1 source)")
        p.add_argument("--weights-file", help="JSON file holding the weight vector")
        p.add_argument("--config", help=CONFIG_HELP)
        if name.endswith("uub"):
            p.add_argument("--s", type=float, help="maximal inner product (default: the config's)")
        if name == "uub":
            p.add_argument("--m-override", type=int, help="force the Levenshtein degree (table-reproduction mode)")
        elif name.startswith("design"):
            p.add_argument(
                "--tau", type=int, required=True,
                help="rule degree; the code must be a design of strength tau (design-ulb) or tau-1 (design-uub)",
            )

    p = command("energy", "weighted energy of a configuration", cmd_energy)
    p.add_argument("--config", required=True, help=CONFIG_HELP)
    p.add_argument("--potential", required=True, help=potential)

    p = command("design-check", "verify design strength by weighted moments", cmd_design_check)
    p.add_argument("--config", required=True, help=CONFIG_HELP)
    p.add_argument("--tau", type=int, default=12, help="largest moment order to inspect (default 12)")
    p.add_argument("--tol", type=float, default=1e-9, help="moment tolerance")

    p = command("test-functions", "test-function values Q_j for a capacity", cmd_test_functions)
    p.add_argument("--n", type=int, required=True, help="dimension of the ambient space")
    p.add_argument("--capacity", type=float, required=True, help="effective cardinality N_W")
    p.add_argument("--jmax", type=int, required=True, help="largest index j of Q_j")

    p = sub.add_parser("reproduce", help="regenerate reference tables and compare", allow_abbrev=False)
    p.add_argument("--table", required=True, choices=sorted(_tables.TABLES) + ["all"])
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a potential evaluated beyond the double range is inf, which the
        # output writes as inf or null and the certificate checks fail on
        with np.errstate(over="ignore"):
            return args.func(args)
    except (ValueError, OSError, RecursionError) as exc:  # RecursionError: deeply nested JSON in a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureError as exc:  # rule construction failed its own verification
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:  # a request too large to allocate, such as a huge --tau
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
