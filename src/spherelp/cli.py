"""Command-line interface.

Thin adapters over the library: every value printed here equals the
corresponding library call bit for bit.  Exit codes: 0 success, 1 usage
error, 2 infeasible bound (a certificate check failed), 3 reference-table
mismatch from ``reproduce``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys

import numpy as np

from . import _tables, bounds, codes
from .potentials import parse_potential

log = logging.getLogger("spherelp")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_MISMATCH = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sig12(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.12g}")
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    return x


def _emit_json(payload) -> str:
    return json.dumps(_sig12(payload), indent=2)


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
    name, _, param = spec.partition(":")
    name = codes.CONFIG_SPELLINGS.get(name.strip().lower())
    if name is not None:
        return codes.build_config(name, int(param) if codes.CONFIGS[name].param and param else None)
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return codes.code_from_json(fh.read())
    raise UsageError(f"unknown configuration {spec!r} (expected {CONFIG_HELP})")


def _resolve_capacity(args):
    sources = [name for name in ("capacity", "weights_file", "config") if getattr(args, name, None)]
    if len(sources) != 1:
        raise UsageError("exactly one of --capacity, --weights-file, --config is required")
    if args.capacity is not None:
        if not args.capacity > 2:
            raise UsageError("capacity must exceed 2")
        return args.capacity, None
    if getattr(args, "weights_file", None):
        with open(args.weights_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        weights = codes.check_weights(data["weights"] if isinstance(data, dict) else data)
        return float(1.0 / np.dot(weights, weights)), None
    code = load_config(args.config)
    return code.n_w, code


def _rule_payload(rule) -> dict:
    return {
        "m": rule.m,
        "eps": rule.eps,
        "capacity": rule.capacity,
        "nodes": list(rule.nodes),
        "weights": list(rule.weights),
    }


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
    if report.lambda_star is not None:
        payload["lambda_star"] = report.lambda_star
    if report.n1 is not None:
        payload["n1"] = report.n1
    payload["s"] = report.rule.s
    payload["rule"] = _rule_payload(report.rule)
    payload["certificate"] = list(report.certificate.coeffs)
    payload["diagnostics"] = [
        {"name": c.name, "ok": c.ok, "value": c.value, "note": c.note}
        for c in report.diagnostics
    ]
    return payload


def _print(args, payload, rows, header) -> None:
    if args.format == "csv":
        print(_emit_csv(rows, header))
    elif args.format == "text":
        print(_emit_text(payload))
    else:
        print(_emit_json(payload))


def _print_report(args, report) -> int:
    rows = [(i, a, w) for i, (a, w) in enumerate(zip(report.rule.nodes, report.rule.weights))]
    _print(args, _report_payload(args.command, report), rows, ("i", "alpha_i", "rho_i"))
    if not report.feasible:
        print("infeasible: a certificate check failed", file=sys.stderr)
        for c in report.diagnostics:
            if not c.ok:
                print(f"  {c.name}: value={c.value} {c.note}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _require(args, names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for this command")


def cmd_lower(args) -> int:
    """``ulb`` and ``design-ulb``: lower bounds at a capacity."""
    capacity, code = _resolve_capacity(args)
    design = args.command == "design-ulb"
    _require(args, ["tau", "potential"] if design else ["potential"])
    n = args.n if args.n is not None else (code.n if code else None)
    if n is None:
        raise UsageError("--n is required when no --config is given")
    h = parse_potential(args.potential, n)
    if design:
        report = bounds.design_ulb(n, capacity, args.tau, h)
    else:
        log.info("ulb n=%d capacity=%.12g potential=%s", n, capacity, h.label())
        report = bounds.ulb(n, capacity, h)
    return _print_report(args, report)


def cmd_upper(args) -> int:
    """``uub`` and ``design-uub``: upper bounds at a maximal inner product."""
    capacity, code = _resolve_capacity(args)
    n = args.n if args.n is not None else (code.n if code else None)
    s = args.s if args.s is not None else (code.max_inner_product if code else None)
    if n is None or s is None:
        raise UsageError("--n and --s are required when no --config is given")
    design = args.command == "design-uub"
    _require(args, ["tau", "potential"] if design else ["potential"])
    h = parse_potential(args.potential, n)
    if design:
        report = bounds.design_uub(n, capacity, s, args.tau, h)
    else:
        report = bounds.uub(n, capacity, s, h, m_override=args.m_override)
    return _print_report(args, report)


def cmd_energy(args) -> int:
    _require(args, ["config", "potential"])
    code = load_config(args.config)
    h = parse_potential(args.potential, code.n)
    value = codes.energy(code, h)
    payload = {
        "schema": 1,
        "command": "energy",
        "config": args.config,
        "n": code.n,
        "size": code.size,
        "capacity": code.n_w,
        "s": code.max_inner_product if code.size > 1 else None,
        "potential": h.label(),
        "value": value,
    }
    _print(args, payload, payload.items(), ("field", "value"))
    return EXIT_OK


def cmd_design_check(args) -> int:
    _require(args, ["config"])
    code = load_config(args.config)
    tau_max = args.tau if args.tau is not None else 12
    report = codes.design_strength(code, tau_max, args.tol)
    payload = {
        "schema": 1,
        "command": "design-check",
        "config": args.config,
        "n": code.n,
        "size": code.size,
        "capacity": code.n_w,
        "strength": report.strength,
        "tol": report.tol,
        "moments": list(report.moments),
    }
    _print(args, payload, enumerate(report.moments, start=1), ("ell", "M_ell"))
    return EXIT_OK


def cmd_test_functions(args) -> int:
    _require(args, ["n", "capacity", "jmax"])
    report = bounds.test_functions(args.n, args.capacity, args.jmax)

    def classify_value(j, v):
        if j <= report.m or abs(v) <= 1e-9:
            return "zero"
        return "nonneg" if v >= 0 else "neg"

    values = [
        {"j": j, "q": v, "class": classify_value(j, v)} for j, v in sorted(report.values.items())
    ]
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
        print(_emit_json(payload))
    else:
        width = max(len(c.label) for c in cells)
        for c in cells:
            status = "ok  " if c.ok else "FAIL"
            print(f"[{status}] {c.label:<{width}}  computed={c.computed:.10g}  reference={c.printed:g}")
        print(f"{len(cells) - len(failed)}/{len(cells)} cells match")
    return EXIT_MISMATCH if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherelp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_rule_flags=True):
        p.add_argument("--n", type=int, help="dimension of the ambient space")
        p.add_argument("--potential", help="riesz:A | newton | gaussian:A | log | fejes-toth | shift:C:BASE")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        if with_rule_flags:
            p.add_argument("--capacity", type=float, help="effective cardinality N_W (or N_1 source)")
            p.add_argument("--weights-file", help="JSON file holding the weight vector")
            p.add_argument("--config", help=CONFIG_HELP)

    p = sub.add_parser("ulb", help="lower bound on weighted energy")
    common(p)
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("uub", help="upper bound on weighted energy at maximal inner product s")
    common(p)
    p.add_argument("--s", type=float, help="maximal inner product")
    p.add_argument("--m-override", type=int, help="force the Levenshtein degree (table-reproduction mode)")
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("design-ulb", help="lower bound for weighted designs")
    common(p)
    p.add_argument("--tau", type=int, help="design strength / rule degree")
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("design-uub", help="upper bound for weighted designs")
    common(p)
    p.add_argument("--s", type=float, help="maximal inner product")
    p.add_argument("--tau", type=int, help="rule degree (certificate degree tau-1 must not exceed the design strength)")
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("energy", help="weighted energy of a configuration")
    common(p, with_rule_flags=False)
    p.add_argument("--config", help=CONFIG_HELP)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("design-check", help="verify design strength by weighted moments")
    common(p, with_rule_flags=False)
    p.add_argument("--config", help=CONFIG_HELP)
    p.add_argument("--tau", type=int, help="largest moment order to inspect (default 12)")
    p.add_argument("--tol", type=float, default=1e-9, help="moment tolerance")
    p.set_defaults(func=cmd_design_check)

    p = sub.add_parser("test-functions", help="test-function values Q_j for a capacity")
    common(p, with_rule_flags=False)
    p.add_argument("--capacity", type=float)
    p.add_argument("--jmax", type=int)
    p.set_defaults(func=cmd_test_functions)

    p = sub.add_parser("reproduce", help="regenerate reference tables and compare")
    p.add_argument("--table", required=True, choices=sorted(_tables.TABLES) + ["all"])
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_reproduce)

    return parser


def _setup_logging():
    level = os.environ.get("SPHERE_LP_LOG", "off").lower()
    if level in ("info", "debug"):
        logging.basicConfig(level=getattr(logging, level.upper()), stream=sys.stderr)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # rule construction failed its own verification
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
