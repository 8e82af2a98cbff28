"""Command-line interface.

One subcommand per check plus ``suite`` for a full configured run and
``counterexample`` for the fixed regression instance.  Exit codes: 0 when
everything passed, 1 on any check failure, 2 on input or configuration
errors.  Numbers print with 15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from functools import partial

import numpy as np

from . import entropy as ent
from . import harness as hn
from . import stat_model as sm
from .errors import InputError, SeqMeasError

_CHECK_COMMANDS = tuple(n for n, spec in hn.CHECK_SPECS.items() if spec.trial_fraction is not None)


def _fmt(x) -> str:
    return format(float(x), ".15g")  # also "inf", "-inf" and "nan"


def _parse_list(kind, what: str, text: str) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what} list {text!r}") from exc


def _env_seed() -> int | None:
    raw = os.environ.get("SEQMEAS_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise SeqMeasError(f"SEQMEAS_SEED must be an integer, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmeas",
        description="Verify sequential-measurement and entropy theorems numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    help_by_check = {
        "jcheck": "J-equation residuals on random quantum-built models",
        "chain": "modified-Shannon entropy chain inequalities",
        "klein": "non-negativity of the relative entropy",
        "luders": "entropy increase under the non-selective Lueders channel",
        "minimal": "minimal-pair entropy identity on Lueders-induced pairs",
        "jarzynski": "two-point work protocol Jarzynski equality",
        "dilation": "entropy bookkeeping of dilated measurements",
    }
    for name in _CHECK_COMMANDS:
        p = sub.add_parser(name, help=help_by_check[name])
        p.add_argument("--dims", type=partial(_parse_list, int, "dims"), metavar="2,4,8")
        p.add_argument("--trials", type=int, metavar="N")
        p.add_argument("--seed", type=int, metavar="S")
        p.add_argument("--tol", type=float, metavar="T")
        if name == "jarzynski":
            p.add_argument("--beta", type=partial(_parse_list, float, "beta"), dest="beta_values",
                           metavar="0.1,1,10")
        if name == "jcheck":
            p.add_argument(
                "--model",
                metavar="FILE",
                default=None,
                help="validate a JSON model file and check the J-equation on it",
            )

    ce = sub.add_parser("counterexample", help="fixed non-minimal pair of the entropy identity")
    ce.add_argument("--json", action="store_true", dest="as_json")
    ce.add_argument("--bits", action="store_true", help="display entropies in bits")

    st = sub.add_parser("suite", help="run a configured set of checks")
    st.add_argument("--config", metavar="FILE", default=None,
                    help="JSON config; defaults to the built-in acceptance configuration")
    st.add_argument("--out", metavar="REPORT.json", default=None)
    return parser


def _print_outcome(outcome: hn.CheckOutcome) -> None:
    print(f"check {outcome.name}: {outcome.trials} trials in {outcome.duration_seconds:.2f} s")
    for key in sorted(outcome.residual_maxima):
        value = outcome.residual_maxima[key]
        tol = outcome.tolerances[key]
        verdict = "ok" if value <= tol else "FAIL"
        print(f"  {key:<24} max {_fmt(value):<22} tol {_fmt(tol):<10} {verdict}")
    for key in sorted(outcome.counters):
        print(f"  {key:<24} {_fmt(outcome.counters[key])}")
    print(f"  result: {'PASS' if outcome.passed else 'FAIL'}")


def _config_for_check(name: str, args) -> hn.ExperimentConfig:
    """The config of the flags given; ``ExperimentConfig`` supplies the rest."""
    given = {f.name: getattr(args, f.name, None) for f in fields(hn.ExperimentConfig)}
    if given["seed"] is None:
        given["seed"] = _env_seed()
    given["check_set"] = (name,)
    return hn.ExperimentConfig(**{key: v for key, v in given.items() if v is not None})


def _read_json(path: str):
    """The JSON document in ``path``; undecodable or too deeply nested text is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"{path}: {exc}") from exc


def _run_model_file(path: str, config: hn.ExperimentConfig) -> int:
    model = sm.model_from_json(_read_json(path))
    violations = sm.validate_model(model)
    print(f"model: {model.n_first} first outcomes, {model.n_second} second outcomes")
    if violations:
        for v in violations:
            print(f"  violated {v.constraint}: residual {_fmt(v.residual)}")
        print("  result: FAIL")
        return 1
    gates = hn._gates(hn.CHECK_SPECS["jcheck"].tolerances, config.tol)
    # a valid model evaluates without error, so the record always holds its residuals
    residuals, _, failure = hn._trial_record(
        gates, {"check": "jcheck"}, ({"model": model}, {}), hn.evaluate_jcheck(model)
    )
    for key, value in residuals.items():
        print(f"  {key:<24} {_fmt(value)}")
    chain = sm.entropy_chain(model)
    print(f"  H(p) = {_fmt(chain.h_p)}   H(q) = {_fmt(chain.h_q)}   cross = {_fmt(chain.cross)}")
    print(f"  result: {'PASS' if failure is None else 'FAIL'} (tol {_fmt(max(gates.values()))})")
    return 0 if failure is None else 1


def _matrix_lines(m: np.ndarray) -> list:
    """One line per row of real parts: the counterexample's rho and sigma, the only
    matrices printed, have imaginary parts of exactly 0.0."""
    return ["  [" + ", ".join(_fmt(z.real) for z in row) + "]" for row in m]


def _run_counterexample(args) -> int:
    rho, sigma = ent.counterexample_pair()
    report = ent.entropy_report(rho, sigma)
    minimality = report.minimality
    if args.as_json:
        doc = {
            **hn._serialize(rho=rho, sigma=sigma),
            "report": report.to_json(),
            "clusters": {
                "eigenvalues": minimality.eigenvalues.tolist(),
                "q": minimality.q.tolist(),
                "p_tilde": minimality.p_tilde.tolist(),
            },
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    unit = math.log(2.0) if args.bits else 1.0
    unit_name = "bits" if args.bits else "nats"
    print("rho:")
    print("\n".join(_matrix_lines(rho.matrix)))
    print("sigma:")
    print("\n".join(_matrix_lines(sigma.matrix)))
    print(f"S(rho)        = {_fmt(report.s_rho / unit)} {unit_name}")
    print(f"S(sigma)      = {_fmt(report.s_sigma / unit)} {unit_name}")
    print(f"S(rho||sigma) = {_fmt(report.rel_entropy / unit)} {unit_name}")
    identity = report.residuals.get("minimal_identity", math.inf)
    print(f"identity |S(rho||sigma) - (S(sigma)-S(rho))| = {_fmt(identity / unit)} {unit_name}")
    verdict = "minimal" if report.is_minimal else "not minimal"
    print(f"pair is {verdict}; per-cluster (eigenvalue, q, p_tilde):")
    for ev, qv, pv in zip(minimality.eigenvalues, minimality.q, minimality.p_tilde):
        print(f"  ({_fmt(ev)}, {_fmt(qv)}, {_fmt(pv)})")
    return 0


def _run_suite(args) -> int:
    if args.config is None:
        config = hn.acceptance_config()
    else:
        config = hn.ExperimentConfig.from_json(_read_json(args.config))
    env_seed = _env_seed()
    if env_seed is not None:
        config = replace(config, seed=env_seed)
    report = hn.run_suite(config)
    for outcome in report.checks:
        _print_outcome(outcome)
    print(f"suite: {'PASS' if report.passed else 'FAIL'} "
          f"in {report.duration_seconds:.2f} s (seed {config.seed})")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _CHECK_COMMANDS:
            if args.command == "jcheck" and args.model is not None:
                return _run_model_file(args.model, _config_for_check("jcheck", args))
            outcome = hn.run_check(args.command, _config_for_check(args.command, args))
            _print_outcome(outcome)
            return 0 if outcome.passed else 1
        if args.command == "counterexample":
            return _run_counterexample(args)
        return _run_suite(args)
    except (SeqMeasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
