"""Command line interface.

Subcommands:
  sample      stream pipeline trial records as JSON lines
  spectrum    resolve one coefficient set: polynomial, zeros, membership
  verify      run a named verification suite and write its report
  density     evaluate, normalize, or MC-compare the two-point density

All output is deterministic for a fixed seed and parameter set: records
carry no timestamps, JSON keys are sorted, and trial order is fixed
regardless of worker count.  The default seed comes from OPENRMT_SEED
when set.  Handlers raise; main alone maps an exception to one "error:"
line on stderr and an exit status.  Exit status: 0 success; 1 a failed
verdict or a numerical failure (inversion, root certificate, linear
solve, too many failed sampling trials); 2 a usage error (a bad option
or value, a path that cannot be read or written, a closed stdout pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import experiments
from .density import log_density
from .ensembles import DEFAULT_KAPPA, EnsembleParams, KappaDistribution
from .geronimo_case import InversionError, lstar_rows
from .identities import MAX_TOTAL_JACOBIAN_N
from .jacobi import JacobiCoefficients, perturbation_order
from .spectra import (
    EIGENVALUE,
    ORIGIN_RADIUS,
    canonicalize_conjugates,
    classify,
    coefficient_zeros,
    joukowsky,
    polynomial_roots,  # noqa: F401  (the companion oracle; perfbench's tracer wraps this name)
    resolve,
)

DEFAULT_SEED = 1234
SEED_ENV_VAR = "OPENRMT_SEED"

# verify suite -> (its report function in the experiments module, the largest
# --max-n it runs or None, whether it samples the model and so takes --gamma
# and --kappa, and reads --workers).  Experiments functions are looked up on
# the module at each call, so a wrapper bound over a name there, such as
# perfbench's tracer, sees the call.
SUITES = {
    "identities": ("identity_suite", None, False),
    "jacobian": ("jacobian_suite", MAX_TOTAL_JACOBIAN_N, False),
    "roundtrip": ("roundtrip_suite", None, False),
    "membership": ("membership_suite", None, True),
}


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _json_safe(obj):
    """Replace non-finite floats with null so output stays strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _dump(doc) -> str:
    return json.dumps(_json_safe(doc), sort_keys=True, allow_nan=False)


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _read_json(path: str):
    """The JSON document at path ("-" for stdin); integers are read as floats, huge ones as inf."""
    if path == "-":
        return json.loads(sys.stdin.read(), parse_int=float)
    with open(path) as fh:
        return json.load(fh, parse_int=float)


def _write(doc, path: str) -> None:
    """Write doc as one JSON line to path ("-" for stdout)."""
    with _open_out(path) as fh:
        fh.write(_dump(doc) + "\n")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _is_number_list(values, length: int | None = None) -> bool:
    """Whether values is a JSON list of numbers (bools excluded), of the given length if any."""
    return (
        isinstance(values, list)
        and length in (None, len(values))
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
    )


def cmd_sample(args) -> int:
    params = EnsembleParams(args.beta, args.n, args.gamma, KappaDistribution.from_spec(args.kappa))
    result = experiments.run_resonance_sampling(params, args.trials, args.seed, workers=args.workers)
    csv_texts = []  # the CSV file is opened after --out is closed: the two may be one file
    with _open_out(args.out) as fh:
        for json_text, csv_text in result.texts(csv=bool(args.csv)):
            fh.write(json_text)
            csv_texts.append(csv_text)
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
            fh.write("trial,re,im,label\r\n")
            fh.writelines(csv_texts)
    return 0


def cmd_spectrum(args) -> int:
    if args.input:
        doc = _read_json(args.input)
        if not isinstance(doc, dict) or not all(_is_number_list(doc.get(key)) for key in "ab"):
            raise ValueError('input must be an object whose "a" and "b" are lists of numbers')
        a, b = tuple(map(float, doc["a"])), tuple(map(float, doc["b"]))
    elif args.a and args.b:
        a, b = _parse_floats(args.a), _parse_floats(args.b)
    else:
        raise ValueError("spectrum needs either --input or both --a and --b")
    coeffs = JacobiCoefficients(a, b)
    zeros = coefficient_zeros(coeffs)
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
    _write(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, got {args.trials}")
    max_n = args.max_n
    if max_n is not None and max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {max_n}")
    function, cap, samples = SUITES[args.suite]
    if cap is not None and max_n is not None and max_n > cap:
        print(f"warning: verify {args.suite} runs at --max-n {cap} at most, got {max_n}", file=sys.stderr)
        max_n = cap
    options = {} if max_n is None else {"max_n": max_n}
    if samples:
        kappa = KappaDistribution.from_spec(args.kappa)
        options.update(gamma=args.gamma, kappa_dist=kappa, workers=args.workers)
    report = getattr(experiments, function)(args.trials, args.seed, **options)
    _write(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _config_from_points(doc):
    """The configuration of {"points": [[re, im], ...]} or of the bare list of points."""
    points = doc.get("points") if isinstance(doc, dict) else doc
    pairs = isinstance(points, list) and all(_is_number_list(p, 2) for p in points)
    if not (pairs and all(math.isfinite(x) for p in points for x in p)):
        raise ValueError("input points must be a list of [re, im] pairs of finite numbers")
    flat = [complex(re, im) for re, im in points]
    return classify(canonicalize_conjugates(np.array(flat, dtype=complex)))


def cmd_density(args) -> int:
    kappa = KappaDistribution.from_spec(args.kappa)
    if args.mode == "normalize":
        report = experiments.density_normalization_n1(
            args.beta, gamma=args.gamma, kappa_dist=kappa, radius=args.radius
        )
        _write(report.to_dict(), args.out)
        return 0 if report.passed else 1
    if args.mode == "mc-compare":
        report = experiments.density_mc_compare_n1(
            args.beta,
            args.gamma,
            kappa,
            args.trials,
            args.seed,
            bins=args.bins,
            workers=args.workers,
            radius=args.radius,
        )
        _write(report.to_dict(), args.out)
        return 0 if report.passed else 1

    # eval mode: configuration points from JSON, their count picks n and the law
    config = _config_from_points(_read_json(args.input))
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
    _write(out_doc, args.out)
    return 0


def worker_count(text: str) -> int:
    if (count := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_common(parser, seed: int | None, workers_help: str = "process count (same output)"):
    """Add --out, and --seed and --workers unless seed is None (a command that draws nothing)."""
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed, help="deterministic master seed")
        parser.add_argument("--workers", type=worker_count, default=1, help=workers_help)
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
    p.add_argument("--kappa", default=DEFAULT_KAPPA.spec(), help="point:v | uniform:lo:hi | chi:k:scale")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--csv", default=None, help="also write zeros as CSV (trial,re,im,label)")
    _add_common(p, seed)
    p.set_defaults(handler="cmd_sample")

    p = sub.add_parser("spectrum", help="polynomial, zeros, and membership for one coefficient set")
    p.add_argument("--a", default=None, help="comma separated off-diagonal values")
    p.add_argument("--b", default=None, help="comma separated diagonal values")
    p.add_argument("--input", default=None, help='JSON {"a": [...], "b": [...]}, - for stdin')
    _add_common(p, None)
    p.set_defaults(handler="cmd_spectrum")

    p = sub.add_parser("verify", help="run one verification suite")
    suites = p.add_subparsers(dest="suite", required=True)
    for suite, (_, _, samples) in SUITES.items():
        p = suites.add_parser(suite)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--max-n", type=int, dest="max_n", help="default: the suite's own")
        if samples:
            p.add_argument("--gamma", type=float, default=1.0)
            p.add_argument("--kappa", default=DEFAULT_KAPPA.spec())
        _add_common(p, seed, "process count (same output)" if samples else "this suite runs in one process")
        p.set_defaults(handler="cmd_verify")

    p = sub.add_parser("density", help="evaluate or check the two-point density")
    modes = p.add_subparsers(dest="mode", required=True)
    for mode in ("eval", "mc-compare", "normalize"):
        p = modes.add_parser(mode)
        p.add_argument("--beta", type=float, default=2.0)
        p.add_argument("--gamma", type=float, default=1.0)
        p.add_argument("--kappa", default=DEFAULT_KAPPA.spec())
        if mode == "eval":
            p.add_argument("--input", default="-", help="JSON configuration points, - for stdin")
        else:
            p.add_argument("--radius", type=float, default=experiments.DEFAULT_RADIUS)
        if mode == "mc-compare":
            p.add_argument("--trials", type=int, default=1_000_000)
            p.add_argument("--bins", type=int, default=15)
        _add_common(p, seed if mode == "mc-compare" else None)
        p.set_defaults(handler="cmd_density")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser(_default_seed()).parse_args(argv)
        # looked up by name at each call, so a wrapper bound over a handler
        # here after the parser was cached, such as perfbench's tracer, sees it
        return globals()[args.handler](args)
    except SystemExit as exc:  # argparse
        code = exc.code
        return code if isinstance(code, int) else 2
    # first: InversionError and LinAlgError are ValueErrors, RootFindingError a RuntimeError
    except (InversionError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
