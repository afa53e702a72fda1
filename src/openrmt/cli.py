"""Command line interface.

Subcommands:
  sample      stream pipeline trial records as JSON lines
  spectrum    resolve one coefficient set: polynomial, zeros, membership
  verify      run a named verification suite and write its report
  density     evaluate, normalize, or MC-compare the two-point density

All output is deterministic for a fixed seed and parameter set: records
carry no timestamps, JSON keys are sorted, and trial order is fixed
regardless of worker count.  The default seed comes from OPENRMT_SEED
when set.  Exit status: 0 success, 1 failed verification or aborted run,
2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .density import log_density
from .ensembles import EnsembleParams, KappaDistribution
from .experiments import (
    density_mc_compare_n1,
    density_normalization_n1,
    identity_suite,
    jacobian_suite,
    membership_suite,
    roundtrip_suite,
    run_resonance_sampling,
)
from .geronimo_case import lstar_rows
from .jacobi import JacobiCoefficients, perturbation_order
from .spectra import (
    EIGENVALUE,
    ORIGIN_RADIUS,
    RootFindingError,
    canonicalize_conjugates,
    classify,
    coefficient_zeros,
    joukowsky,
    polynomial_roots,  # noqa: F401  (the companion oracle; perfbench's tracer wraps this name)
    resolve,
)

DEFAULT_SEED = 1234
SEED_ENV_VAR = "OPENRMT_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def _json_safe(obj):
    """Replace non-finite floats with null so output stays strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _dump(doc) -> str:
    try:
        return _ENCODER.encode(doc)
    except ValueError:  # a non-finite float somewhere: write it as null
        return _ENCODER.encode(_json_safe(doc))


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _usage(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_report(report, path: str) -> int:
    """Write a report as one JSON line; exit status 0 if it passed, else 1."""
    with _open_out(path) as fh:
        fh.write(_dump(report.to_dict()) + "\n")
    return 0 if report.passed else 1


def _parse_kappa(text: str) -> KappaDistribution:
    try:
        return KappaDistribution.from_spec(text)
    except ValueError as exc:
        _usage(str(exc))
        raise SystemExit(2)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def cmd_sample(args) -> int:
    kappa = _parse_kappa(args.kappa)
    params = EnsembleParams(args.beta, args.n, args.gamma, kappa)
    try:
        result = run_resonance_sampling(params, args.trials, args.seed, workers=args.workers)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with _open_out(args.out) as fh:
        fh.writelines(line + "\n" for line in result.json_lines())
    rejected = result.rejections()
    if rejected:
        by_clause = ", ".join(f"{clause}: {count}" for clause, count in sorted(rejected.items()))
        print(
            f"warning: {sum(rejected.values())} of {result.trials - result.failed} records not in S "
            f"({by_clause})",
            file=sys.stderr,
        )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "re", "im", "label"])
            for rec in result.records:
                for re_part, im_part, label in rec["zeros"]:
                    writer.writerow([rec["trial"], repr(re_part), repr(im_part), label])
    return 0


def cmd_spectrum(args) -> int:
    if args.input:
        doc = json.loads(_read_text(args.input))
        a, b = tuple(map(float, doc["a"])), tuple(map(float, doc["b"]))
    elif args.a and args.b:
        a, b = _parse_floats(args.a), _parse_floats(args.b)
    else:
        _usage("spectrum needs either --input or both --a and --b")
        return 2
    try:
        coeffs = JacobiCoefficients(a, b)
    except ValueError as exc:
        _usage(str(exc))
        return 2
    try:
        zeros = coefficient_zeros(coeffs)
    except (RootFindingError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    k = perturbation_order(coeffs)
    config, verdict = resolve(zeros, k)
    exact = len(zeros) - k  # the origin zeros of trailing free levels and kappa = 1
    if config.origin_drops > exact:
        # float64 cannot tell the others from the origin; the verdict stands as computed
        drops = config.origin_drops
        warning = f"{drops} zeros dropped within {ORIGIN_RADIUS:g} of the origin, expected {exact}"
        print(f"warning: {warning}", file=sys.stderr)
    doc = {
        "a": list(coeffs.a),
        "b": list(coeffs.b),
        "polynomial": lstar_rows(np.array([coeffs.a]), np.array([coeffs.b]))[0].tolist(),
        "zeros": [[z.real, z.imag, lab] for z, lab in zip(config.points, config.labels)],
        "in_S": bool(verdict),
        "clause": verdict.clause,
        "eigenvalues": sorted(
            joukowsky(z).real for z, lab in zip(config.points, config.labels) if lab == EIGENVALUE
        ),
    }
    with _open_out(args.out) as fh:
        fh.write(_dump(doc) + "\n")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 0:
        _usage(f"--trials must be at least 0, got {args.trials}")
        return 2
    if args.max_n < 1:
        _usage(f"--max-n must be at least 1, got {args.max_n}")
        return 2
    if args.suite == "roundtrip":
        report = roundtrip_suite(args.trials, args.seed, max_n=args.max_n)
    elif args.suite == "identities":
        report = identity_suite(args.trials, args.seed, max_n=args.max_n)
    elif args.suite == "jacobian":
        report = jacobian_suite(args.trials, args.seed, max_n=min(args.max_n, 5))
    elif args.suite == "membership":
        kappa = _parse_kappa(args.kappa)
        report = membership_suite(
            args.trials,
            args.seed,
            max_n=min(args.max_n, 5),
            gamma=args.gamma,
            kappa_dist=kappa,
            workers=args.workers,
        )
    else:  # pragma: no cover - argparse choices guard this
        _usage(f"unknown suite {args.suite!r}")
        return 2
    return _write_report(report, args.out)


def _config_from_points(points):
    flat = [complex(p[0], p[1]) for p in points]
    return classify(canonicalize_conjugates(np.array(flat, dtype=complex)))


def cmd_density(args) -> int:
    kappa = _parse_kappa(args.kappa)
    if args.mode == "normalize":
        report = density_normalization_n1(
            args.beta, gamma=args.gamma, kappa_dist=kappa, radius=args.radius
        )
        return _write_report(report, args.out)
    if args.mode == "mc-compare":
        if args.trials < 100_000:
            _usage("mc-compare needs at least 100000 trials for stable bins")
            return 2
        report = density_mc_compare_n1(
            args.beta,
            args.gamma,
            kappa,
            args.trials,
            args.seed,
            bins=args.bins,
            workers=args.workers,
            radius=args.radius,
        )
        return _write_report(report, args.out)

    # eval mode: configuration points from JSON, their count picks n and the law
    doc = json.loads(_read_text(args.input))
    points = doc["points"] if isinstance(doc, dict) else doc
    config = _config_from_points(points)
    n = (config.count + 1) // 2
    value = log_density(config, EnsembleParams(args.beta, n, args.gamma, kappa))
    out_doc = {
        "count": config.count,
        "n": n,
        "beta": args.beta,
        "gamma": args.gamma,
        "kappa": kappa.spec(),
        "log_density": value.log_value if math.isfinite(value.log_value) else None,
        "density": math.exp(value.log_value) if value.log_value < math.inf else None,
        "kappa_implied": value.kappa_implied,
        "in_support": value.in_support,
        "boundary": value.boundary,
    }
    with _open_out(args.out) as fh:
        fh.write(_dump(out_doc) + "\n")
    return 0


def _add_common(parser, seed: int):
    parser.add_argument("--seed", type=int, default=seed, help="deterministic master seed")
    parser.add_argument("--workers", type=int, default=1, help="process count (same output)")
    parser.add_argument("--out", default="-", help="output path, - for stdout")


@functools.lru_cache(maxsize=8)
def build_parser(seed: int) -> argparse.ArgumentParser:
    """The parser whose --seed defaults to seed; cached, so it is built once per seed."""
    parser = argparse.ArgumentParser(prog="openrmt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="stream pipeline trial records as JSON lines")
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kappa", default="chi:3:0.5", help="point:v | uniform:lo:hi | chi:k:scale")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--csv", default=None, help="also write zeros as CSV (trial,re,im,label)")
    _add_common(p, seed)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("spectrum", help="polynomial, zeros, and membership for one coefficient set")
    p.add_argument("--a", default=None, help="comma separated off-diagonal values")
    p.add_argument("--b", default=None, help="comma separated diagonal values")
    p.add_argument("--input", default=None, help='JSON {"a": [...], "b": [...]}, - for stdin')
    _add_common(p, seed)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("suite", choices=["identities", "jacobian", "roundtrip", "membership"])
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kappa", default="chi:3:0.5")
    _add_common(p, seed)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("density", help="evaluate or check the two-point density")
    p.add_argument("mode", choices=["eval", "mc-compare", "normalize"])
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kappa", default="chi:3:0.5")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--radius", type=float, default=6.0)
    p.add_argument("--input", default="-", help="JSON configuration points for eval mode")
    _add_common(p, seed)
    p.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser(_default_seed())
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
